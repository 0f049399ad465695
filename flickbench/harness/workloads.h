// The four workloads, each a fresh instance of one FLICK service on its own
// sim fabric, and the benchmark's self-tests.
#ifndef FLICKBENCH_HARNESS_WORKLOADS_H_
#define FLICKBENCH_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace fb {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;    // the JSON metrics, in print order
  std::vector<std::string> notes;  // human-readable lines
};

const std::vector<std::string>& WorkloadNames();

// Runs `workload` with inputs drawn from `seed`, measuring for `seconds`.
// Untraced runs report the end-to-end metrics; traced runs the per-layer
// metrics. A workload that cannot be set up reports correct == false.
Report RunWorkload(const std::string& workload, uint64_t seed, double seconds,
                   bool trace);

// The benchmark's own checks (farm pause, injected faults, CPU and span
// reconciliation, thread and connection budget). Returns failures.
int RunSelfTests();

}  // namespace fb

#endif  // FLICKBENCH_HARNESS_WORKLOADS_H_
