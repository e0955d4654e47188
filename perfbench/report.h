// The run's result: a table for people, then — as the last line of standard
// output — one JSON object {"correct", "attempted", "failed", "metrics"}.
#ifndef CIRANK_PERFBENCH_REPORT_H_
#define CIRANK_PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Report {
 public:
  void Add(std::string name, double value, std::string unit);

  // Prints the table and the JSON line (values with full precision).
  void Print(bool correct, int64_t attempted, int64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

}  // namespace perfbench

#endif  // CIRANK_PERFBENCH_REPORT_H_
