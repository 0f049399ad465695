// flickbench: one command for the FLICK service plane.
//
//   flickbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//   flickbench --selftest
//
// Prints a human-readable report, then as its last line one JSON object:
//   {"correct": bool, "attempted": n, "failed": n,
//    "metrics": {"<name>": {"value": v, "unit": "<unit>"}, ...}}
// Untraced runs carry the end-to-end metrics, traced runs the per-layer ones.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness/common.h"
#include "harness/workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: flickbench --workload <name|all> --seed <n> --seconds <s> "
               "--trace <0|1>\n       flickbench --selftest\nworkloads:",
               why);
  for (const std::string& w : fb::WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void PrintReport(const std::string& prefix, const fb::Report& rep) {
  for (const std::string& note : rep.notes) {
    std::printf("# %s\n", note.c_str());
  }
  for (const fb::Metric& m : rep.metrics) {
    std::printf("%-44s %16.4f %s\n", (prefix + m.name).c_str(), m.value, m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  fb::NameThisThread("fb-load");
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Usage(("missing value for " + arg).c_str());
    }
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      trace = std::string(value) != "0";
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (selftest) {
    const int failures = fb::RunSelfTests();
    std::printf("self-tests: %s\n", failures == 0 ? "all passed" : "FAILED");
    return failures == 0 ? 0 : 1;
  }
  if (workload.empty() || !(seconds > 0 && seconds <= 120)) {
    return Usage("need --workload and 0 < --seconds <= 120");
  }

  std::vector<std::string> names;
  if (workload == "all") {
    names = fb::WorkloadNames();
  } else {
    names.push_back(workload);
  }
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string metrics;
  for (const std::string& name : names) {
    const fb::Report rep = fb::RunWorkload(name, seed, seconds, trace);
    const std::string prefix = names.size() > 1 ? name + "." : "";
    PrintReport(prefix, rep);
    std::fflush(stdout);
    if (rep.metrics.empty()) {
      std::fprintf(stderr, "workload %s produced no result\n", name.c_str());
      return 1;
    }
    correct = correct && rep.correct;
    attempted += rep.attempted;
    failed += rep.failed;
    for (const fb::Metric& m : rep.metrics) {
      metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + prefix + m.name +
                 "\": {\"value\": " + JsonNumber(m.value) + ", \"unit\": \"" + m.unit +
                 "\"}";
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return 0;
}
