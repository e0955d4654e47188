#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/json_string.h"
#include "util/mutex.h"

namespace cirank {
namespace obs {

namespace {

// Splits "family{label=\"v\"}" into family and the label body (without
// braces). Names without labels return an empty body.
void SplitName(const std::string& name, std::string* family,
               std::string* labels) {
  const size_t brace = name.find('{');
  if (brace == std::string::npos) {
    *family = name;
    labels->clear();
    return;
  }
  *family = name.substr(0, brace);
  const size_t close = name.rfind('}');
  *labels = name.substr(brace + 1,
                        close == std::string::npos || close <= brace
                            ? std::string::npos
                            : close - brace - 1);
}

// Shortest round-trippable decimal ("1e-05", not "1.0000000000000001e-05");
// JSON has no Inf/NaN literals so non-finite values (which only a buggy
// Observe could produce) clamp to 0.
std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  for (int precision = 6; precision <= 17; ++precision) {
    std::ostringstream os;
    os.precision(precision);
    os << v;
    std::string s = os.str();
    if (std::stod(s) == v) return s;
  }
  return "0";  // unreachable: precision 17 always round-trips
}

void AtomicAddDouble(std::atomic<double>* target, double delta) {
  double cur = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(cur, cur + delta,
                                        std::memory_order_relaxed,
                                        std::memory_order_relaxed)) {
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) bounds_ = DefaultLatencyBoundsSeconds();
  counts_ = std::make_unique<std::atomic<int64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::Observe(double value) {
  const size_t bucket =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin();
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(&sum_, value);
}

std::vector<double> Histogram::DefaultLatencyBoundsSeconds() {
  return {1e-5,   2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3,
          5e-3,   1e-2,   2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1, 1.0,
          2.5,    5.0,    10.0};
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  Snapshot snap;
  snap.cumulative.resize(bounds_.size() + 1);
  int64_t running = 0;
  std::vector<int64_t> per_bucket(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    per_bucket[i] = counts_[i].load(std::memory_order_relaxed);
    running += per_bucket[i];
    snap.cumulative[i] = running;
  }
  snap.count = running;
  snap.sum = sum_.load(std::memory_order_relaxed);
  if (snap.count == 0) return snap;

  auto percentile = [&](double q) {
    // Nearest-rank target, then linear interpolation across the bucket that
    // holds it. Bucket i spans (lower, bounds_[i]] with lower = previous
    // bound (0 for the first); the overflow bucket has no upper edge, so it
    // reports the last bound.
    const int64_t rank = std::max<int64_t>(
        1, static_cast<int64_t>(
               std::ceil(q * static_cast<double>(snap.count))));
    size_t i = 0;
    while (i <= bounds_.size() && snap.cumulative[i] < rank) ++i;
    if (i >= bounds_.size()) return bounds_.back();
    const double lower = i == 0 ? 0.0 : bounds_[i - 1];
    const double upper = bounds_[i];
    const int64_t before = i == 0 ? 0 : snap.cumulative[i - 1];
    const int64_t in_bucket = per_bucket[i];
    if (in_bucket == 0) return upper;
    return lower + (upper - lower) *
                       (static_cast<double>(rank - before) /
                        static_cast<double>(in_bucket));
  };
  snap.p50 = percentile(0.50);
  snap.p95 = percentile(0.95);
  snap.p99 = percentile(0.99);
  return snap;
}

// ---------------------------------------------------------------------------
// MetricsRegistry

MetricsRegistry& MetricsRegistry::Default() {
  // Leaked singleton: engine instances and bench reports may reference it
  // during static destruction.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  MutexLock lk(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::make_unique<Counter>()).first;
    std::string family, labels;
    SplitName(name, &family, &labels);
    if (!help.empty()) help_.emplace(family, help);
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  MutexLock lk(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
    std::string family, labels;
    SplitName(name, &family, &labels);
    if (!help.empty()) help_.emplace(family, help);
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help,
                                         std::vector<double> bounds) {
  MutexLock lk(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name, std::make_unique<Histogram>(std::move(bounds)))
             .first;
    std::string family, labels;
    SplitName(name, &family, &labels);
    if (!help.empty()) help_.emplace(family, help);
  }
  return *it->second;
}

std::string MetricsRegistry::RenderPrometheus() const {
  MutexLock lk(mu_);
  std::ostringstream out;
  out.precision(17);

  auto header = [&](const std::string& family, const char* type,
                    std::string* last_family) {
    if (family == *last_family) return;
    *last_family = family;
    auto h = help_.find(family);
    if (h != help_.end()) {
      out << "# HELP " << family << ' ' << h->second << '\n';
    }
    out << "# TYPE " << family << ' ' << type << '\n';
  };

  // std::map iterates names lexicographically; labeled variants of one
  // family ("fam{...}") sort directly after the bare family name, so the
  // last_family tracker emits each header once.
  std::string last;
  for (const auto& [name, counter] : counters_) {
    std::string family, labels;
    SplitName(name, &family, &labels);
    header(family, "counter", &last);
    out << name << ' ' << counter->Value() << '\n';
  }
  last.clear();
  for (const auto& [name, gauge] : gauges_) {
    std::string family, labels;
    SplitName(name, &family, &labels);
    header(family, "gauge", &last);
    out << name << ' ' << Num(gauge->Value()) << '\n';
  }
  last.clear();
  for (const auto& [name, histogram] : histograms_) {
    std::string family, labels;
    SplitName(name, &family, &labels);
    header(family, "histogram", &last);
    const Histogram::Snapshot snap = histogram->TakeSnapshot();
    const std::vector<double>& bounds = histogram->bounds();
    auto bucket_line = [&](const std::string& le, int64_t cum) {
      out << family << "_bucket{";
      if (!labels.empty()) out << labels << ',';
      out << "le=\"" << le << "\"} " << cum << '\n';
    };
    for (size_t i = 0; i < bounds.size(); ++i) {
      bucket_line(Num(bounds[i]), snap.cumulative[i]);
    }
    bucket_line("+Inf", snap.count);
    const std::string suffix = labels.empty() ? "" : "{" + labels + "}";
    out << family << "_sum" << suffix << ' ' << Num(snap.sum) << '\n';
    out << family << "_count" << suffix << ' ' << snap.count << '\n';
  }
  return std::move(out).str();
}

std::string MetricsRegistry::RenderJson() const {
  MutexLock lk(mu_);
  std::ostringstream out;
  out.precision(17);
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    out << (first ? "\n" : ",\n") << "    " << JsonString(name) << ": "
        << counter->Value();
    first = false;
  }
  out << (first ? "},\n" : "\n  },\n");
  out << "  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    out << (first ? "\n" : ",\n") << "    " << JsonString(name) << ": "
        << Num(gauge->Value());
    first = false;
  }
  out << (first ? "},\n" : "\n  },\n");
  out << "  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    const Histogram::Snapshot snap = histogram->TakeSnapshot();
    const std::vector<double>& bounds = histogram->bounds();
    out << (first ? "\n" : ",\n") << "    " << JsonString(name)
        << ": { \"count\": " << snap.count << ", \"sum\": " << Num(snap.sum)
        << ", \"p50\": " << Num(snap.p50) << ", \"p95\": " << Num(snap.p95)
        << ", \"p99\": " << Num(snap.p99) << ", \"buckets\": [";
    for (size_t i = 0; i < bounds.size(); ++i) {
      out << (i == 0 ? "" : ", ") << "{ \"le\": " << Num(bounds[i])
          << ", \"count\": " << snap.cumulative[i] << " }";
    }
    out << (bounds.empty() ? "" : ", ") << "{ \"le\": \"+Inf\", \"count\": "
        << snap.count << " }] }";
    first = false;
  }
  out << (first ? "}\n" : "\n  }\n") << "}";
  return std::move(out).str();
}

void MetricsRegistry::Reset() {
  MutexLock lk(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  help_.clear();
}

}  // namespace obs
}  // namespace cirank
