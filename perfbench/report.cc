#include "report.h"

#include <cmath>
#include <cstdio>
#include <utility>

#include "serve/json.h"

namespace perfbench {

void Report::Add(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Report::Print(bool correct, int64_t attempted, int64_t failed) const {
  for (const Metric& m : metrics_) {
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\":";
  json += correct ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(attempted);
  json += ",\"failed\":" + std::to_string(failed);
  json += ",\"metrics\":{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) json += ',';
    cirank::serve::AppendJsonString(&json, m.name);
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += ":{\"value\":";
    json += value;
    json += ",\"unit\":";
    cirank::serve::AppendJsonString(&json, m.unit);
    json += '}';
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
