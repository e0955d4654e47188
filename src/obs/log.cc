#include "obs/log.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <utility>

#include "obs/request_context.h"
#include "util/json_string.h"

namespace cirank {
namespace obs {
namespace {

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash ? slash + 1 : path;
}

char LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return 'D';
    case LogLevel::kInfo:
      return 'I';
    case LogLevel::kWarning:
      return 'W';
    case LogLevel::kError:
      return 'E';
    case LogLevel::kOff:
      break;
  }
  return '?';
}

int64_t WallClockMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

void StderrSink(const std::string& line, const LogEntry& /*entry*/) {
  // The one sanctioned raw write in src/ (see the analyzer `raw-output`
  // rule): every CIRANK_LOG in the tree funnels through here by default.
  std::fprintf(stderr, "%s\n", line.c_str());
}

// The thread's current request correlation id (0 = none). Plain
// thread-local, not atomic: only its own thread touches it.
thread_local uint64_t tls_log_trace_id = 0;

}  // namespace

bool ParseLogLevel(std::string_view text, LogLevel* level) {
  if (text == "debug" || text == "d") {
    *level = LogLevel::kDebug;
  } else if (text == "info" || text == "i") {
    *level = LogLevel::kInfo;
  } else if (text == "warning" || text == "warn" || text == "w") {
    *level = LogLevel::kWarning;
  } else if (text == "error" || text == "e") {
    *level = LogLevel::kError;
  } else if (text == "off" || text == "none") {
    *level = LogLevel::kOff;
  } else {
    return false;
  }
  return true;
}

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarning:
      return "warning";
    case LogLevel::kError:
      return "error";
    case LogLevel::kOff:
      return "off";
  }
  return "unknown";
}

std::string RenderLogText(const LogEntry& entry) {
  std::string out;
  out.reserve(entry.message.size() + 64);
  out.push_back('[');
  out.push_back(LevelTag(entry.level));
  out.push_back(' ');
  out.append(Basename(entry.file));
  out.push_back(':');
  out.append(std::to_string(entry.line));
  if (entry.timestamp_us != 0) {
    out.append(" ts=");
    out.append(std::to_string(entry.timestamp_us));
  }
  if (entry.trace_id != 0) {
    out.append(" trace=");
    out.append(FormatTraceId(entry.trace_id));
  }
  out.append("] ");
  out.append(entry.message);
  return out;
}

std::string RenderLogJson(const LogEntry& entry) {
  std::string out;
  out.reserve(entry.message.size() + 96);
  out.append("{\"level\":\"");
  out.append(LogLevelName(entry.level));
  out.append("\",\"file\":");
  AppendJsonString(&out, Basename(entry.file));
  out.append(",\"line\":");
  out.append(std::to_string(entry.line));
  out.append(",\"ts_us\":");
  out.append(std::to_string(entry.timestamp_us));
  if (entry.trace_id != 0) {
    out.append(",\"trace_id\":\"");
    out.append(FormatTraceId(entry.trace_id));
    out.push_back('"');
  }
  out.append(",\"msg\":");
  AppendJsonString(&out, entry.message);
  out.push_back('}');
  return out;
}

Logger& Logger::Default() {
  static Logger* logger = new Logger;  // leaked: alive for static dtors
  return *logger;
}

Logger::Logger() : sink_(StderrSink), clock_(WallClockMicros) {}

void Logger::SetSink(Sink sink) {
  MutexLock lock(sink_mu_);
  sink_ = sink ? std::move(sink) : Sink(StderrSink);
}

void Logger::SetClockForTest(std::function<int64_t()> clock) {
  MutexLock lock(sink_mu_);
  clock_ = clock ? std::move(clock) : std::function<int64_t()>(WallClockMicros);
}

void Logger::Log(LogEntry entry) {
  if (!Enabled(entry.level)) return;
  const LogFormat format = this->format();
  // Clock read, rendering, and the sink call all happen under one lock
  // acquisition so concurrent emitters cannot interleave mid-line and a
  // test swapping the sink never races a render in flight. Rendering is
  // string building only — no I/O until the sink call.
  MutexLock lock(sink_mu_);
  entry.timestamp_us = clock_();
  const std::string line =
      format == LogFormat::kJson ? RenderLogJson(entry) : RenderLogText(entry);
  sink_(line, entry);
  lines_emitted_.fetch_add(1, std::memory_order_relaxed);
}

uint64_t CurrentLogTraceId() { return tls_log_trace_id; }

ScopedLogTraceId::ScopedLogTraceId(uint64_t trace_id)
    : previous_(tls_log_trace_id) {
  tls_log_trace_id = trace_id;
}

ScopedLogTraceId::~ScopedLogTraceId() { tls_log_trace_id = previous_; }

}  // namespace obs
}  // namespace cirank
