// What one benchmark process reports: the metrics that go into the JSON
// result line, plus human-readable lines printed above it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sessionbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  std::uint64_t attempted = 0;     // events offered to every checked run
  std::uint64_t failed = 0;        // of those, shed/refused/dropped/quarantined
  std::uint64_t results_wrong = 0; // missed + spurious + out-of-order results
  std::uint64_t replayed = 0;      // recovery replays in fault-free runs

  bool correct() const { return failed == 0 && results_wrong == 0 && replayed == 0; }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
};

}  // namespace sessionbench
