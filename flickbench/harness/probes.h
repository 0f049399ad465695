// Outside-in layer probes.
//
//   * CPU by thread role, read from /proc/self/task/*/{comm,schedstat} using
//     the names the runtime gives its threads (flick-wrk-N, flick-poller)
//     and the harness gives its own (fb-load, fb-farm);
//   * the thread budget, asserted from the same /proc view while a run is
//     live;
//   * micro-timings of public layer functions (grammar parser/serializer,
//     HTTP parser, StateStore, FLICK compiler, lowered and interpreted
//     dispatch handlers) over the inputs a workload actually sent.
#ifndef FLICKBENCH_HARNESS_PROBES_H_
#define FLICKBENCH_HARNESS_PROBES_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "grammar/message.h"
#include "grammar/unit.h"

namespace fb {

// CPU nanoseconds per thread role, and thread counts per role.
struct RoleCpu {
  uint64_t worker_ns = 0;
  uint64_t poller_ns = 0;
  uint64_t load_ns = 0;
  uint64_t farm_ns = 0;
  uint64_t other_ns = 0;
  int workers = 0;
  int pollers = 0;
  int loads = 0;
  int farms = 0;
  int others = 0;

  uint64_t program_ns() const { return worker_ns + poller_ns; }
  uint64_t harness_ns() const { return load_ns + farm_ns; }
  uint64_t total_ns() const { return program_ns() + harness_ns() + other_ns; }
  int threads() const { return workers + pollers + loads + farms + others; }
};

RoleCpu ReadRoleCpu();
// CPU time of each role between two reads (thread counts from `later`).
RoleCpu Delta(const RoleCpu& later, const RoleCpu& earlier);
// Process CPU (user + system) from getrusage, in nanoseconds.
uint64_t ProcessCpuNs();

// The load shape's thread budget: at most 2 workers, 1 poller, 1 load
// thread, 1 farm thread, nothing else. Empty string when it holds.
std::string CheckThreadBudget(const RoleCpu& live);

// ------------------------------------------------------- layer timings ----

// ns per message to parse `bytes` with `unit`'s incremental parser; the
// parsed messages are returned for the serializer probe.
double ParseNsPerMsg(const flick::grammar::Unit* unit, const std::string& bytes,
                     std::vector<flick::grammar::Message>* parsed);
double SerializeNsPerMsg(const flick::grammar::Unit* unit,
                         std::vector<flick::grammar::Message>& msgs);
double HttpParseNsPerReq(const std::string& bytes);

// Replays a workload's (opcode, key) stream on a fresh StateStore: the
// median cost of a lookup per op, and of a cache populate per op. With
// `populates` false the dict stays empty (every lookup misses) and put_ns
// is 0, as for a workload whose program never populates.
struct StoreTimes {
  double get_ns = 0.0;
  double put_ns = 0.0;
};
StoreTimes ReplayStateStore(const std::vector<std::pair<uint8_t, uint32_t>>& ops,
                            bool populates);

double CompileMs(const std::string& source);

// Lowered and interpreted dispatch of `proc` over the captured client
// requests, with `backends` backend channels, in ns per message.
struct DispatchTimes {
  double lowered_ns = 0.0;
  double interp_ns = 0.0;
};
DispatchTimes DslDispatchNs(const std::string& source, const std::string& proc,
                            size_t backends, const std::string& request_bytes);

}  // namespace fb

#endif  // FLICKBENCH_HARNESS_PROBES_H_
