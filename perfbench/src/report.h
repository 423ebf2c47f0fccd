#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// One named figure of the result: a value with its unit and the sample
/// count it rests on (0 for computed values and single measurements).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t n = 0;
};

/// Collects metrics and prints them one per line as
///   metric <workload> <phase> <name> <value> <unit> n=<count>
/// so every figure the benchmark takes is readable by name and unit.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  void Add(const std::string& phase, Metric m) {
    std::printf("metric %s %s %s %.6g %s n=%zu\n", workload_.c_str(),
                phase.c_str(), m.name.c_str(), m.value, m.unit.c_str(), m.n);
    metrics_.push_back(std::move(m));
  }

  /// A free-form report line, prefixed so it never reads as a result.
  void Note(const std::string& text) {
    std::printf("# %s %s\n", workload_.c_str(), text.c_str());
  }

  const std::vector<Metric>& metrics() const { return metrics_; }

  /// The metric named `name`, or null.
  const Metric* Find(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }

 private:
  std::string workload_;
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
