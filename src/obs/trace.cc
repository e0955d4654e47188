#include "obs/trace.h"

#include <sstream>

#include "obs/request_context.h"
#include "util/json_string.h"
#include "util/mutex.h"

namespace cirank {
namespace obs {

TraceCollector::TraceCollector(size_t max_spans)
    : epoch_(std::chrono::steady_clock::now()), max_spans_(max_spans) {}

int64_t TraceCollector::NowMicros() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void TraceCollector::Record(Span span) {
  MutexLock lk(mu_);
  if (max_spans_ == 0 || spans_.size() < max_spans_) {
    spans_.push_back(std::move(span));
  } else {
    spans_[next_] = std::move(span);
    next_ = (next_ + 1) % max_spans_;
  }
}

size_t TraceCollector::size() const {
  MutexLock lk(mu_);
  return spans_.size();
}

std::vector<TraceCollector::Span> TraceCollector::Snapshot() const {
  MutexLock lk(mu_);
  // Once the ring is full, next_ points at the oldest entry; re-linearize
  // so callers always see oldest-first.
  if (max_spans_ == 0 || spans_.size() < max_spans_) return spans_;
  std::vector<Span> out;
  out.reserve(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    out.push_back(spans_[(next_ + i) % spans_.size()]);
  }
  return out;
}

std::string TraceCollector::RenderChromeJson() const {
  const std::vector<Span> spans = Snapshot();
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":" << JsonString(s.name)
        << ",\"cat\":" << JsonString(s.category)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.track
        << ",\"ts\":" << s.start_us << ",\"dur\":" << s.duration_us;
    if (s.trace_id != 0) {
      out << ",\"args\":{\"trace_id\":\"" << FormatTraceId(s.trace_id)
          << "\"}";
    }
    out << "}";
  }
  out << (spans.empty() ? "" : "\n") << "],\"displayTimeUnit\":\"ms\"}";
  return std::move(out).str();
}

}  // namespace obs
}  // namespace cirank
