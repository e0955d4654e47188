// The end-to-end run: the serving stack in this process, closed-loop
// clients on loopback keep-alive connections, every response checked, and
// the user-visible metrics printed. The benchmark adds no tracing here; the
// program's own span ring stays on, as deployed.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "answers.h"
#include "config.h"
#include "eval/metrics.h"
#include "eval/oracle.h"
#include "http_client.h"
#include "report.h"
#include "stack.h"
#include "stats.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "workload.h"

namespace perfbench {

using cirank::Status;

namespace {

using Clock = std::chrono::steady_clock;

// Latency samples per connection, allocated and zeroed before the window so
// the client's memory does not grow with the request rate.
constexpr size_t kMaxSamplesPerConnection = 1u << 20;

// The first response to each distinct query. Later responses to the same
// query must carry byte-identical answers; the first one is fully checked
// after the window.
struct FirstResponse {
  enum : int { kEmpty = 0, kWriting = 1, kReady = 2 };
  std::atomic<int> state{kEmpty};
  std::string body;
  std::atomic<int64_t> repeats{0};  // later responses that matched it
};

// The timed window; requests sent outside it pass no window.
struct Window {
  Clock::time_point start;
  Clock::time_point deadline;
};

struct ConnectionResult {
  std::vector<double> latencies_ms;
  size_t samples = 0;
  size_t samples_dropped = 0;
  int64_t completed_in_window = 0;
  OpCounts ops;
  int64_t mismatches = 0;
  int64_t clicks = 0;
  std::string first_error;
};

class EndToEndRun {
 public:
  EndToEndRun(ServingStack* stack, const WorkloadInput& input)
      : stack_(stack),
        input_(input),
        slots_(input.queries.size()) {}

  // Sends one request and records its outcome. Returns false only on a
  // transport failure that leaves the connection unusable.
  bool Issue(LoopbackClient* client, const StreamEntry& entry,
             ConnectionResult* out, const Window* window) {
    const WireRequest& request = input_.requests[entry.query];
    int status_code = 0;
    std::string_view body;
    const Clock::time_point start = Clock::now();
    const Status st = client->RoundTrip(request.bytes, &status_code, &body);
    const Clock::time_point end = Clock::now();
    if (window != nullptr) {
      if (out->samples < out->latencies_ms.size()) {
        out->latencies_ms[out->samples++] =
            std::chrono::duration<double, std::milli>(end - start).count();
      } else {
        ++out->samples_dropped;
      }
      if (end <= window->deadline) ++out->completed_in_window;
    }
    if (!st.ok()) {
      out->ops.Add(false);
      if (out->first_error.empty()) out->first_error = st.ToString();
      return false;
    }
    bool ok = status_code == 200 && Record(entry.query, body, out);
    if (status_code != 200 && out->first_error.empty()) {
      out->first_error = "HTTP " + std::to_string(status_code) + ": " +
                         std::string(body.substr(0, 200));
    }
    out->ops.Add(ok);
    if (entry.click_after) {
      cirank::NodeId root = 0;
      const bool clicked =
          ok && TopAnswerRoot(body, &root) &&
          stack_->built.sharded->RecordClick(root).ok();
      out->ops.Add(clicked);
      ++out->clicks;
    }
    return true;
  }

  std::vector<FirstResponse>& slots() { return slots_; }

 private:
  // Stores the first response to `query`, or compares a later one to it.
  bool Record(uint32_t query, std::string_view body, ConnectionResult* out) {
    FirstResponse& slot = slots_[query];
    int state = slot.state.load(std::memory_order_acquire);
    if (state == FirstResponse::kEmpty &&
        slot.state.compare_exchange_strong(state, FirstResponse::kWriting,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
      slot.body.assign(body);
      slot.state.store(FirstResponse::kReady, std::memory_order_release);
      return true;
    }
    while (slot.state.load(std::memory_order_acquire) !=
           FirstResponse::kReady) {
      // Another connection is copying the first response (a memcpy).
    }
    const std::string_view first = AnswersSection(slot.body);
    if (first.empty() || first != AnswersSection(body)) {
      ++out->mismatches;
      if (out->first_error.empty()) {
        out->first_error = "answers differ from the first response";
      }
      return false;
    }
    slot.repeats.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  ServingStack* stack_;
  const WorkloadInput& input_;
  std::vector<FirstResponse> slots_;
};

}  // namespace

int RunEndToEnd(const WorkloadConfig& config, uint64_t seed, double seconds) {
  // --- Set-up, repeated; the last stack stays up and serves the run. ------
  std::vector<double> setup_seconds;
  std::unique_ptr<ServingStack> stack;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    if (stack != nullptr) {
      stack->server->Stop();
      stack.reset();
    }
    cirank::Timer setup_timer;
    auto started = StartServingStack(config.shards);
    setup_seconds.push_back(setup_timer.ElapsedSeconds());
    if (!started.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    stack = std::move(started).value();
  }
  const int port = stack->server->port();

  auto made = MakeWorkloadInput(config, *stack->dataset, seed);
  if (!made.ok()) {
    std::fprintf(stderr, "workload input failed: %s\n",
                 made.status().ToString().c_str());
    return 1;
  }
  const WorkloadInput& input = *made;
  EndToEndRun run(stack.get(), input);

  std::vector<ConnectionResult> results(config.connections);
  for (ConnectionResult& r : results) {
    r.latencies_ms.assign(kMaxSamplesPerConnection, 0.0);
  }
  OpCounts untimed_ops;
  std::string untimed_error;

  // Sends `entries` untimed over `width` connections.
  auto send_untimed = [&](const std::vector<StreamEntry>& entries, int width) {
    std::vector<ConnectionResult> side(width);
    std::atomic<size_t> next{0};
    cirank::ThreadPool pool(width);
    pool.ParallelFor(static_cast<size_t>(width), [&](size_t c) {
      auto client = LoopbackClient::Connect(port);
      if (!client.ok()) {
        side[c].ops.Add(false);
        side[c].first_error = client.status().ToString();
        return;
      }
      for (size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < entries.size();
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        if (!run.Issue(&*client, entries[i], &side[c], nullptr)) {
          return;
        }
      }
    });
    for (const ConnectionResult& r : side) {
      untimed_ops.Merge(r.ops);
      if (untimed_error.empty()) untimed_error = r.first_error;
    }
  };

  // --- Warm the set (serve_hot): one untimed miss per distinct query. -----
  if (!input.warmup.empty()) send_untimed(input.warmup, kWarmupConnections);
  const cirank::QueryCacheStats cache_before =
      stack->built.sharded->cache_stats();

  // --- The timed window: closed loop on every connection. ----------------
  std::vector<LoopbackClient> clients;
  for (int c = 0; c < config.connections; ++c) {
    auto client = LoopbackClient::Connect(port);
    if (!client.ok()) {
      std::fprintf(stderr, "connect failed: %s\n",
                   client.status().ToString().c_str());
      return 1;
    }
    clients.push_back(std::move(client).value());
  }
  std::atomic<size_t> next_position{0};  // shared cursor (each-once streams)
  std::atomic<bool> exhausted{false};
  const bool each_once = config.shape == StreamShape::kEachOnce;
  Window window;
  Clock::time_point exhausted_at;
  {
    cirank::ThreadPool pool(config.connections);
    window.start = Clock::now();
    window.deadline = window.start +
                      std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(seconds));
    exhausted_at = window.deadline;
    pool.ParallelFor(clients.size(), [&](size_t c) {
      ConnectionResult& out = results[c];
      // Zipf streams: each connection cycles through its own slice start.
      size_t cursor = c * input.stream.size() / clients.size();
      while (Clock::now() < window.deadline) {
        size_t position = 0;
        if (each_once) {
          position = next_position.fetch_add(1, std::memory_order_relaxed);
          if (position >= input.stream.size()) {
            exhausted.store(true, std::memory_order_relaxed);
            break;
          }
        } else {
          position = cursor;
          cursor = (cursor + 1) % input.stream.size();
        }
        if (!run.Issue(&clients[c], input.stream[position], &out, &window)) {
          break;
        }
      }
    });
  }
  if (exhausted.load(std::memory_order_relaxed)) exhausted_at = Clock::now();
  clients.clear();
  const double window_seconds = std::min(
      seconds,
      std::chrono::duration<double>(exhausted_at - window.start).count());
  const cirank::QueryCacheStats cache_after =
      stack->built.sharded->cache_stats();

  // --- The quality set; queries the window did not reach, sent untimed. --
  std::vector<size_t> quality_queries;
  if (each_once) {
    const size_t n = std::min(kQualityPositions, input.stream.size());
    for (size_t p = 0; p < n; ++p) {
      quality_queries.push_back(input.stream[p].query);
    }
  } else {
    for (uint32_t q = 0; q < input.queries.size(); ++q) {
      quality_queries.push_back(q);
    }
  }
  std::vector<StreamEntry> missing;
  for (size_t q : quality_queries) {
    if (run.slots()[q].state.load(std::memory_order_acquire) !=
        FirstResponse::kReady) {
      missing.push_back({static_cast<uint32_t>(q), false});
    }
  }
  if (!missing.empty()) send_untimed(missing, 1);

  // --- Check every first response; score the quality set. ---------------
  const cirank::CiRankEngine& engine = stack->built.sharded->engine();
  CheckContext check;
  check.index = &engine.index();
  check.max_diameter = engine.options().search.max_diameter;
  check.k = kTopK;
  const cirank::RelevanceOracle oracle(*stack->dataset, engine.index());
  OpCounts ops = untimed_ops;
  int64_t mismatches = 0;
  int64_t clicks = 0;
  std::string first_error = untimed_error;
  std::vector<double> latencies;
  int64_t completed = 0;
  size_t dropped = 0;
  for (const ConnectionResult& r : results) {
    ops.Merge(r.ops);
    mismatches += r.mismatches;
    clicks += r.clicks;
    completed += r.completed_in_window;
    dropped += r.samples_dropped;
    latencies.insert(latencies.end(), r.latencies_ms.begin(),
                     r.latencies_ms.begin() + static_cast<long>(r.samples));

    if (first_error.empty()) first_error = r.first_error;
  }
  std::vector<std::vector<cirank::RankedAnswer>> checked(input.queries.size());
  std::vector<bool> valid(input.queries.size(), false);
  int64_t invalid = 0;
  for (uint32_t q = 0; q < input.queries.size(); ++q) {
    FirstResponse& slot = run.slots()[q];
    if (slot.state.load(std::memory_order_acquire) != FirstResponse::kReady) {
      continue;
    }
    auto answers = CheckResponse(slot.body, input.queries[q].query, check);
    if (!answers.ok()) {
      // The first response and every byte-identical repeat of it fail.
      const int64_t charged =
          1 + slot.repeats.load(std::memory_order_relaxed);
      ops.failed += charged;
      invalid += charged;
      if (first_error.empty()) first_error = answers.status().ToString();
      continue;
    }
    valid[q] = true;
    checked[q] = std::move(answers).value();
  }
  std::vector<double> precision;
  std::vector<double> reciprocal_rank;
  bool quality_complete = true;
  for (size_t q : quality_queries) {
    if (!valid[q]) {
      quality_complete = false;
      continue;
    }
    const AnswerQuality quality =
        ScoreAnswers(input.queries[q], checked[q], oracle);
    precision.push_back(quality.precision);
    reciprocal_rank.push_back(quality.reciprocal_rank);
  }

  stack->server->Stop();
  const double peak_rss_mb = PeakRssMb();

  // --- Report. -----------------------------------------------------------
  const size_t n = latencies.size();
  const double tail_pct = kTailPercentile;
  const uint64_t lookups = (cache_after.hits + cache_after.misses) -
                           (cache_before.hits + cache_before.misses);
  const uint64_t hits = cache_after.hits - cache_before.hits;
  std::printf("workload %s seed %llu: %zu distinct queries, %d connection(s), "
              "%u shard(s), window %.2f s\n",
              config.name.c_str(), static_cast<unsigned long long>(seed),
              input.queries.size(), config.connections, config.shards,
              window_seconds);
  std::printf("  requests completed in window %lld, latency samples %zu "
              "(dropped %zu), clicks %lld\n",
              static_cast<long long>(completed), n, dropped,
              static_cast<long long>(clicks));
  std::printf("  tail p%.0f: %zu samples beyond it (rule picks p%.0f); "
              "p90 %.4f p95 %.4f p99 %.4f ms\n",
              tail_pct, SamplesBeyond(n, tail_pct), TailPercentileFor(n),
              Percentile(latencies, 90), Percentile(latencies, 95),
              Percentile(latencies, 99));

  std::printf("  cache hits %llu of %llu lookups in the window\n",
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(lookups));
  std::printf("  operations %lld attempted, %lld failed (%lld answer "
              "mismatches, %lld invalid); error_rate %.6f\n",
              static_cast<long long>(ops.attempted),
              static_cast<long long>(ops.failed),
              static_cast<long long>(mismatches),
              static_cast<long long>(invalid), ops.ErrorRate());
  std::printf("  quality over %zu responses%s\n", precision.size(),
              quality_complete ? "" : " (incomplete)");
  if (!first_error.empty()) {
    std::printf("  first failure: %s\n", first_error.c_str());
  }

  Report report;
  report.Add("qps", window_seconds > 0.0
                        ? static_cast<double>(completed) / window_seconds
                        : 0.0,
             "1/s");
  report.Add("latency_p50_ms", Median(latencies), "ms");
  report.Add("latency_tail_ms", Percentile(latencies, tail_pct), "ms");
  report.Add("success_rate", 1.0 - ops.ErrorRate(), "ratio");
  report.Add("setup_s", Median(setup_seconds), "s");
  report.Add("peak_rss_mb", peak_rss_mb, "MB");
  report.Add("precision_at_k", cirank::Mean(precision), "ratio");
  report.Add("mrr_at_k", cirank::Mean(reciprocal_rank), "ratio");
  if (SamplesBeyond(n, tail_pct) < 10) {
    std::printf("  warning: fewer than 10 samples beyond p%.0f\n", tail_pct);
  }
  const bool correct = ops.failed == 0 && quality_complete && n > 0;
  report.Print(correct, ops.attempted, ops.failed);
  return 0;
}

}  // namespace perfbench
