// The traced run: a separate invocation that builds the same stack one
// set-up step at a time, then replays the workload's request stream by
// calling, from here, what CirankServer's /search handler calls. Every call
// gets one span in an obs::TraceCollector (one track and trace id per
// request; a span's parent is the span enclosing it on its track) and a
// nanosecond timer; counts come from what the calls return. Nothing is
// traced inside the program beyond what it records as deployed.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "answers.h"
#include "config.h"
#include "core/engine.h"
#include "datasets/imdb_gen.h"
#include "eval/metrics.h"
#include "http_client.h"
#include "index/star_index.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/trace.h"
#include "report.h"
#include "serve/http.h"
#include "serve/request.h"
#include "serve/server.h"
#include "shard/sharded_engine.h"
#include "stack.h"
#include "stats.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "workload.h"

namespace perfbench {

using cirank::Result;
using cirank::SearchStats;
using cirank::Status;
using cirank::shard::ShardedEngine;

namespace {

using Clock = std::chrono::steady_clock;

// Replays beyond the warm set stop at this many requests (the hit stream
// runs at ~20k requests/s; 10k give stable medians and a readable trace).
constexpr size_t kMaxReplayedRequests = 10000;
// Requests in each pass of the hit-path probe (trace overhead, transport,
// hit latency), and passes per mode.
constexpr size_t kProbeRequests = 2000;
constexpr int kProbePasses = 3;
// Clicks issued after the replay when the workload itself makes none.
constexpr int kProbeClicks = 16;

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

// One layer call: a span in the benchmark's collector (when tracing) plus a
// nanosecond timer written to `*ns` when the call returns.
class LayerCall {
 public:
  LayerCall(cirank::obs::TraceCollector* spans, const char* name,
            const char* layer, int64_t track, uint64_t trace_id, int64_t* ns)
      : span_(spans, name, layer, track, trace_id),
        ns_(ns),
        start_(Clock::now()) {}
  ~LayerCall() {
    *ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
               .count();
  }
  LayerCall(const LayerCall&) = delete;
  LayerCall& operator=(const LayerCall&) = delete;

 private:
  cirank::obs::TraceSpan span_;
  int64_t* ns_;
  Clock::time_point start_;
};

// Nanoseconds spent in each call of one replayed /search.
struct HandlerTimes {
  int64_t parse_head = 0;
  int64_t parse_search = 0;
  int64_t search = 0;
  int64_t render = 0;
  int64_t serialize = 0;
  int64_t handler = 0;
};

struct Replayed {
  HandlerTimes times;
  SearchStats stats;
  std::vector<cirank::RankedAnswer> answers;
  std::string response;  // the serialized HTTP response
  std::string body;      // its /search body
};

// What CirankServer does for one framed request on a connection: parse the
// head, frame the body by Content-Length, parse the /search DSL, search
// through the shard facade with a fresh request context, render the
// envelope and serialize the response.
Status ReplayHandler(const WireRequest& request, const ShardedEngine& sharded,
                     cirank::obs::TraceCollector* spans, Replayed* out) {
  const int64_t track = spans != nullptr ? spans->NewTrack() : 0;
  cirank::obs::RequestContext ctx;
  ctx.trace_id = cirank::obs::MintTraceId();
  HandlerTimes& t = out->times;
  Status status = Status::OK();
  {
    LayerCall handler(spans, "serve.handler", "serve", track, ctx.trace_id,
                      &t.handler);
    const std::string_view bytes(request.bytes);
    std::string body;
    {
      LayerCall call(spans, "serve.ParseHttpRequestHead", "serve", track,
                     ctx.trace_id, &t.parse_head);
      auto head = cirank::serve::ParseHttpRequestHead(
          bytes.substr(0, request.head_size));
      if (!head.ok()) return head.status();
      auto length = cirank::serve::ContentLength(*head);
      if (!length.ok()) return length.status();
      body.assign(bytes.substr(request.head_size, *length));
    }
    Result<cirank::serve::SearchRequest> parsed =
        Status::Internal("not parsed");
    {
      LayerCall call(spans, "serve.ParseSearchRequest", "serve", track,
                     ctx.trace_id, &t.parse_search);
      parsed = cirank::serve::ParseSearchRequest(body);
    }
    if (!parsed.ok()) return parsed.status();
    {
      LayerCall call(spans, "shard.ServingSearch",
                     sharded.num_shards() > 1 ? "shard" : "core", track,
                     ctx.trace_id, &t.search);
      auto answers = sharded.ServingSearch(parsed->query, parsed->overrides,
                                           &out->stats, &ctx,
                                           parsed->shard_parallelism);
      if (!answers.ok()) {
        status = answers.status();
      } else {
        out->answers = std::move(answers).value();
      }
    }
    if (!status.ok()) return status;
    {
      LayerCall call(spans, "serve.RenderSearchResponseJson", "serve", track,
                     ctx.trace_id, &t.render);
      out->body = cirank::serve::RenderSearchResponseJson(
          *parsed, out->answers, out->stats, sharded.engine().graph());
    }
    {
      LayerCall call(spans, "serve.SerializeHttpResponse", "serve", track,
                     ctx.trace_id, &t.serialize);
      cirank::serve::HttpResponse response;
      response.body = out->body;
      response.headers.emplace_back("x-cirank-trace-id",
                                    cirank::obs::FormatTraceId(ctx.trace_id));
      out->response = cirank::serve::SerializeHttpResponse(response);
    }
  }
  return Status::OK();
}

double CounterSum(cirank::obs::MetricsRegistry* metrics,
                  const std::string& family, uint32_t shards) {
  double total = 0.0;
  for (uint32_t s = 0; s < shards; ++s) {
    total += static_cast<double>(
        metrics->GetCounter(family + "{shard=\"" + std::to_string(s) + "\"}")
            .Value());
  }
  return total;
}

}  // namespace

int RunTraced(const WorkloadConfig& config, uint64_t seed, double seconds,
              const std::string& trace_out) {
  Report report;
  OpCounts ops;
  std::string first_error;
  auto fail = [&](const std::string& what) {
    if (first_error.empty()) first_error = what;
  };

  // --- Set-up, one step at a time. ---------------------------------------
  cirank::Timer timer;
  auto generated = cirank::BuildImdbDataset(ImdbOptionsAtScale(kScale));
  const double generate_s = timer.ElapsedSeconds();
  if (!generated.ok()) {
    std::fprintf(stderr, "dataset: %s\n", generated.status().ToString().c_str());
    return 1;
  }
  const cirank::Dataset dataset = std::move(generated).value();
  const cirank::Graph& graph = dataset.graph;

  cirank::obs::MetricsRegistry metrics;
  cirank::obs::TraceCollector program_ring(kTraceRingSpans);
  cirank::CiRankEngine::Builder engine_builder(graph);
  engine_builder.WithCache(DefaultCacheOptions())
      .WithMetrics(&metrics)
      .WithTrace(&program_ring);
  double engine_build_s = 0.0;
  double index_build_s = 0.0;
  double pagerank_s = 0.0;
  auto build_engine = [&]() -> Result<cirank::CiRankEngine> {
    cirank::Timer t;
    auto engine = engine_builder.Build();
    engine_build_s += t.ElapsedSeconds();
    index_build_s += metrics.GetGauge("cirank_build_index_seconds").Value();
    pagerank_s += metrics.GetGauge("cirank_build_pagerank_seconds").Value();
    return engine;
  };
  auto first_engine = build_engine();
  if (!first_engine.ok()) {
    std::fprintf(stderr, "engine: %s\n",
                 first_engine.status().ToString().c_str());
    return 1;
  }
  timer.Reset();
  auto star = cirank::StarIndex::Build(graph, first_engine->model());
  const double star_build_s = timer.ElapsedSeconds();
  if (!star.ok()) {
    std::fprintf(stderr, "star index: %s\n", star.status().ToString().c_str());
    return 1;
  }
  const cirank::StarIndex star_index = std::move(star).value();
  engine_builder.WithBounds(&star_index);
  auto rebuilt = build_engine();
  if (!rebuilt.ok()) {
    std::fprintf(stderr, "engine: %s\n", rebuilt.status().ToString().c_str());
    return 1;
  }
  cirank::CiRankEngine engine = std::move(rebuilt).value();

  cirank::shard::ShardedEngineOptions shard_options;
  shard_options.num_shards = config.shards;
  shard_options.partitioner = "hash";
  shard_options.cache = DefaultCacheOptions();
  timer.Reset();
  auto attached = ShardedEngine::Attach(&engine, shard_options);
  const double plan_s = timer.ElapsedSeconds();
  if (!attached.ok()) {
    std::fprintf(stderr, "shard plan: %s\n",
                 attached.status().ToString().c_str());
    return 1;
  }
  ShardedEngine sharded = std::move(attached).value();

  cirank::serve::CirankServer server(&sharded, DefaultServerOptions(&metrics));
  timer.Reset();
  if (Status st = server.Start(); !st.ok()) {
    std::fprintf(stderr, "server: %s\n", st.ToString().c_str());
    return 1;
  }
  const double start_s = timer.ElapsedSeconds();

  // The unsharded reference for sharded workloads (no metrics: it must not
  // move the shard counters).
  std::unique_ptr<ShardedEngine> unsharded;
  if (config.shards > 1) {
    cirank::shard::ShardedEngineOptions one = shard_options;
    one.num_shards = 1;
    auto ref = ShardedEngine::Attach(&engine, one);
    if (!ref.ok()) {
      std::fprintf(stderr, "reference: %s\n", ref.status().ToString().c_str());
      return 1;
    }
    unsharded = std::make_unique<ShardedEngine>(std::move(ref).value());
  }

  auto made = MakeWorkloadInput(config, dataset, seed);
  if (!made.ok()) {
    std::fprintf(stderr, "workload input: %s\n",
                 made.status().ToString().c_str());
    return 1;
  }
  const WorkloadInput& input = *made;
  CheckContext check;
  check.index = &engine.index();
  check.max_diameter = engine.options().search.max_diameter;
  check.k = kTopK;

  // --- Replay. ------------------------------------------------------------
  cirank::obs::TraceCollector spans;  // kept in memory, written at the end
  std::vector<std::string> first_answers(input.queries.size());
  std::vector<HandlerTimes> handler_times;
  std::vector<double> miss_search_ns;     // ServingSearch, misses
  std::vector<double> miss_unstaged_ns;   // ... minus the staged time
  std::vector<double> hit_search_ns;      // ServingSearch, hits
  std::vector<double> click_ns;
  std::vector<double> body_bytes;
  std::vector<SearchStats> one_shard_misses;  // core.* counts and stages
  std::vector<double> one_shard_search_ns;
  int64_t sharded_popped = 0;
  int64_t unsharded_popped = 0;
  int64_t unsharded_mismatches = 0;
  std::vector<uint32_t> replayed_queries;

  auto replay = [&](const StreamEntry& entry, bool timed_part) {
    const uint32_t q = entry.query;
    Replayed r;
    const Status st =
        ReplayHandler(input.requests[q], sharded, &spans, &r);
    if (!st.ok()) {
      ops.Add(false);
      fail("replay: " + st.ToString());
      return;
    }
    bool ok = true;
    handler_times.push_back(r.times);
    body_bytes.push_back(static_cast<double>(r.body.size()));
    const std::string_view answers_bytes = AnswersSection(r.body);
    if (first_answers[q].empty()) {
      first_answers[q].assign(answers_bytes);
      auto checked = CheckResponse(r.body, input.queries[q].query, check);
      if (!checked.ok()) {
        ok = false;
        fail("check: " + checked.status().ToString());
      }
    } else if (first_answers[q] != answers_bytes) {
      ok = false;
      fail("answers differ from the first response");
    }
    if (r.stats.from_cache) {
      hit_search_ns.push_back(static_cast<double>(r.times.search));
    } else {
      const double staged = (r.stats.stages.prepare_seconds +
                             r.stats.stages.expand_seconds +
                             r.stats.stages.emit_seconds) * 1e9;
      miss_search_ns.push_back(static_cast<double>(r.times.search));
      miss_unstaged_ns.push_back(static_cast<double>(r.times.search) - staged);
      if (unsharded == nullptr) {
        one_shard_misses.push_back(r.stats);
        one_shard_search_ns.push_back(static_cast<double>(r.times.search));
      } else {
        // Outside every span: the unsharded engine must return the same
        // answers, and its work is the 1-shard reference.
        SearchStats ref_stats;
        const Clock::time_point t0 = Clock::now();
        auto ref = unsharded->Search(input.queries[q].query,
                                     cirank::SearchOverrides().WithK(kTopK),
                                     &ref_stats);
        const double ref_ns = static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count());
        if (!ref.ok() || !SameAnswers(*ref, r.answers)) {
          ok = false;
          ++unsharded_mismatches;
          fail("sharded answers differ from the unsharded engine's");
        }
        one_shard_misses.push_back(ref_stats);
        one_shard_search_ns.push_back(ref_ns);
        sharded_popped += r.stats.popped;
        unsharded_popped += ref_stats.popped;
      }
    }
    ops.Add(ok);
    if (timed_part) replayed_queries.push_back(q);
    if (entry.click_after) {
      cirank::NodeId root = 0;
      int64_t ns = 0;
      bool clicked = false;
      if (ok && TopAnswerRoot(r.body, &root)) {
        LayerCall call(&spans, "core.RecordClick", "core", spans.NewTrack(),
                       0, &ns);
        clicked = sharded.RecordClick(root).ok();
      }
      if (clicked) click_ns.push_back(static_cast<double>(ns));
      ops.Add(clicked);
      if (!clicked) fail("click failed");
    }
  };

  cirank::Timer replay_timer;
  for (const StreamEntry& e : input.warmup) replay(e, /*timed_part=*/false);
  const cirank::QueryCacheStats cache_before = sharded.cache_stats();
  replay_timer.Reset();
  size_t replayed = 0;
  for (size_t p = 0; p < input.stream.size() && replayed < kMaxReplayedRequests &&
                     replay_timer.ElapsedSeconds() < seconds;
       ++p, ++replayed) {
    replay(input.stream[p], /*timed_part=*/true);
  }
  const cirank::QueryCacheStats cache_after = sharded.cache_stats();

  // --- Hit-path probe: the replayed queries again, now cached. ------------
  std::vector<uint32_t> probe;
  for (size_t i = 0; !replayed_queries.empty() && i < kProbeRequests; ++i) {
    probe.push_back(replayed_queries[i % replayed_queries.size()]);
  }
  std::vector<double> traced_pass_s, untraced_pass_s;
  std::vector<double> probe_handler_ns, probe_hit_ns;
  // A click at the end of the stream may have flushed the cache: refill it
  // once, untraced and unchecked, before measuring hits.
  for (size_t i = 0; i < replayed_queries.size(); ++i) {
    Replayed r;
    CIRANK_IGNORE_ERROR(
        ReplayHandler(input.requests[replayed_queries[i]], sharded, nullptr,
                      &r));
  }
  for (int pass = 0; pass < 2 * kProbePasses && !probe.empty(); ++pass) {
    const bool traced = pass % 2 == 1;
    cirank::Timer pass_timer;
    for (uint32_t q : probe) {
      Replayed r;
      if (!ReplayHandler(input.requests[q], sharded,
                         traced ? &spans : nullptr, &r)
               .ok() ||
          !r.stats.from_cache) {
        fail("probe request was not a cache hit");
        continue;
      }
      if (traced) {
        probe_handler_ns.push_back(static_cast<double>(r.times.handler));
        probe_hit_ns.push_back(static_cast<double>(r.times.search));
      }
    }
    (traced ? traced_pass_s : untraced_pass_s)
        .push_back(pass_timer.ElapsedSeconds());
  }
  // Untraced round trips of the same cached requests over loopback, on the
  // workload's connection count: the socket and wake-up share.
  std::vector<std::vector<double>> rt_ns(config.connections);
  {
    cirank::ThreadPool pool(config.connections);
    pool.ParallelFor(static_cast<size_t>(config.connections), [&](size_t c) {
      auto client = LoopbackClient::Connect(server.port());
      if (!client.ok()) return;
      for (size_t i = c; i < probe.size(); i += config.connections) {
        int code = 0;
        std::string_view body;
        const Clock::time_point t0 = Clock::now();
        if (!client->RoundTrip(input.requests[probe[i]].bytes, &code, &body)
                 .ok() ||
            code != 200) {
          return;
        }
        rt_ns[c].push_back(static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count()));
      }
    });
  }
  std::vector<double> round_trip_ns;
  for (const auto& v : rt_ns) {
    round_trip_ns.insert(round_trip_ns.end(), v.begin(), v.end());
  }
  if (!probe.empty() && round_trip_ns.size() != probe.size()) {
    fail("loopback probe failed");
  }
  server.Stop();

  // --- Click probe when the workload makes no clicks. ---------------------
  const uint64_t invalidations =
      cache_after.invalidations - cache_before.invalidations;
  if (click_ns.empty()) {
    for (int i = 0; i < kProbeClicks && !replayed_queries.empty(); ++i) {
      const std::string& answers =
          first_answers[replayed_queries[i % replayed_queries.size()]];
      cirank::NodeId root = 0;
      if (!TopAnswerRoot("\"answers\":" + answers + ",\"stats\":", &root)) {
        continue;
      }
      int64_t ns = 0;
      bool clicked = false;
      {
        LayerCall call(&spans, "core.RecordClick", "core", spans.NewTrack(),
                       0, &ns);
        clicked = sharded.RecordClick(root).ok();
      }
      ops.Add(clicked);
      if (clicked) click_ns.push_back(static_cast<double>(ns));
    }
  }

  // --- Per-layer metrics. -------------------------------------------------
  std::vector<double> parse_ns, render_ns, handler_ns;
  for (const HandlerTimes& t : handler_times) {
    parse_ns.push_back(static_cast<double>(t.parse_head + t.parse_search));
    render_ns.push_back(static_cast<double>(t.render + t.serialize));
    handler_ns.push_back(static_cast<double>(t.handler));
  }
  double prepare_s = 0, expand_s = 0, emit_s = 0;
  int64_t popped = 0, generated_candidates = 0, pruned = 0, bound_calls = 0;
  double arena_bytes = 0;
  std::vector<double> core_unstaged_ns;
  for (size_t i = 0; i < one_shard_misses.size(); ++i) {
    const SearchStats& s = one_shard_misses[i];
    prepare_s += s.stages.prepare_seconds;
    expand_s += s.stages.expand_seconds;
    emit_s += s.stages.emit_seconds;
    popped += s.popped;
    generated_candidates += s.stages.candidates_generated;
    pruned += s.stages.candidates_pruned;
    bound_calls += s.stages.bound_calls;
    arena_bytes += static_cast<double>(s.stages.arena_bytes);
    core_unstaged_ns.push_back(
        one_shard_search_ns[i] - (s.stages.prepare_seconds +
                                  s.stages.expand_seconds +
                                  s.stages.emit_seconds) * 1e9);
  }
  const double misses = static_cast<double>(one_shard_misses.size());
  auto per_miss = [&](double total) {
    return misses > 0 ? total / misses : 0.0;
  };
  const uint64_t lookups = (cache_after.hits + cache_after.misses) -
                           (cache_before.hits + cache_before.misses);
  const double hit_ratio =
      lookups > 0 ? static_cast<double>(cache_after.hits - cache_before.hits) /
                        static_cast<double>(lookups)
                  : 0.0;
  double scope_nodes = 0.0;
  for (uint32_t s = 0; s < sharded.num_shards(); ++s) {
    scope_nodes += static_cast<double>(sharded.plan().info(s).scope_nodes);
  }
  const double handler_us = Us(static_cast<int64_t>(Median(probe_handler_ns)));
  const double round_trip_us =
      Us(static_cast<int64_t>(Median(round_trip_ns)));
  const double traced_qps =
      static_cast<double>(probe.size()) / std::max(1e-9, Median(traced_pass_s));
  const double untraced_qps = static_cast<double>(probe.size()) /
                              std::max(1e-9, Median(untraced_pass_s));
  const double searches_total =
      CounterSum(&metrics, "cirank_shard_searches_total", config.shards);
  const double early_stops =
      CounterSum(&metrics, "cirank_shard_early_stops_total", config.shards);

  report.Add("serve.parse_us", Median(parse_ns) / 1e3, "us");
  report.Add("serve.render_us", Median(render_ns) / 1e3, "us");
  report.Add("serve.handler_us", Median(handler_ns) / 1e3, "us");
  report.Add("serve.hit_handler_us", handler_us, "us");
  report.Add("serve.transport_us", round_trip_us - handler_us, "us");
  report.Add("serve.response_bytes", cirank::Mean(body_bytes), "bytes");
  report.Add("serve.start_s", start_s, "s");
  report.Add("core.search_ms", Median(one_shard_search_ns) / 1e6, "ms");
  report.Add("core.prepare_ms", per_miss(prepare_s) * 1e3, "ms");
  report.Add("core.expand_ms", per_miss(expand_s) * 1e3, "ms");
  report.Add("core.emit_ms", per_miss(emit_s) * 1e3, "ms");
  report.Add("core.unstaged_ms", cirank::Mean(core_unstaged_ns) / 1e6, "ms");
  report.Add("core.misses", misses, "count");
  report.Add("core.popped", static_cast<double>(popped), "count");
  report.Add("core.generated", static_cast<double>(generated_candidates),
             "count");
  report.Add("core.pruned", static_cast<double>(pruned), "count");
  report.Add("core.bound_calls", static_cast<double>(bound_calls), "count");
  report.Add("core.prune_ratio",
             generated_candidates + pruned > 0
                 ? static_cast<double>(pruned) /
                       static_cast<double>(generated_candidates + pruned)
                 : 0.0,
             "ratio");
  report.Add("core.expand_ns_per_candidate",
             generated_candidates > 0
                 ? expand_s * 1e9 / static_cast<double>(generated_candidates)
                 : 0.0,
             "ns");
  report.Add("core.arena_kb", per_miss(arena_bytes) / 1024.0, "KiB");
  report.Add("core.cache_hit_ratio", hit_ratio, "ratio");
  report.Add("core.cache_hit_us", Median(probe_hit_ns.empty()
                                             ? hit_search_ns
                                             : probe_hit_ns) /
                                      1e3,
             "us");
  report.Add("core.cache_invalidations", static_cast<double>(invalidations),
             "count");
  report.Add("core.feedback_click_us", Median(click_ns) / 1e3, "us");
  report.Add("core.engine_build_s", engine_build_s, "s");
  report.Add("text.index_build_s", index_build_s, "s");
  report.Add("rw.pagerank_s", pagerank_s, "s");
  report.Add("index.star_build_s", star_build_s, "s");
  report.Add("index.star_mb",
             static_cast<double>(star_index.MemoryBytes()) / (1024.0 * 1024.0),
             "MB");
  report.Add("datasets.generate_s", generate_s, "s");
  report.Add("shard.plan_s", plan_s, "s");
  report.Add("shard.scope_replication",
             scope_nodes / static_cast<double>(graph.num_nodes()), "ratio");
  report.Add("shard.search_ms", Median(miss_search_ns) / 1e6, "ms");
  report.Add("shard.gather_overhead_ms", Median(miss_unstaged_ns) / 1e6, "ms");
  report.Add("shard.early_stop_ratio",
             searches_total > 0 ? early_stops / searches_total : 0.0,
             "ratio");
  report.Add("shard.redundancy",
             unsharded == nullptr || unsharded_popped == 0
                 ? 1.0
                 : static_cast<double>(sharded_popped) /
                       static_cast<double>(unsharded_popped),
             "ratio");
  report.Add("shard.cache_hit_ratio", hit_ratio, "ratio");
  report.Add("obs.trace_overhead_pct",
             untraced_qps > 0 ? (untraced_qps - traced_qps) / untraced_qps * 100
                              : 0.0,
             "%");

  std::printf("traced %s seed %llu: %zu requests replayed (%zu handler "
              "calls, %.0f misses at 1 shard, %zu spans), %lld sharded "
              "mismatches\n",
              config.name.c_str(), static_cast<unsigned long long>(seed),
              replayed, handler_times.size(), misses, spans.size(),
              static_cast<long long>(unsharded_mismatches));
  std::printf("  hit path: %.2f us handler + %.2f us transport = %.2f us "
              "loopback round trip\n",
              handler_us, round_trip_us - handler_us, round_trip_us);
  if (!first_error.empty()) {
    std::printf("  first failure: %s\n", first_error.c_str());
  }
  if (!trace_out.empty()) {
    if (!WriteFile(trace_out, spans.RenderChromeJson())) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("  %zu spans written to %s\n", spans.size(),
                trace_out.c_str());
  }
  report.Print(ops.failed == 0 && ops.attempted > 0, ops.attempted,
               ops.failed);
  return 0;
}

}  // namespace perfbench
