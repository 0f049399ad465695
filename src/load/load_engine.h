// The load plane's one client engine: ApacheBench-style HTTP and
// libmemcached-style binary memcached clients (§6.2), driven closed-loop for
// throughput series or open-loop for tail-latency series.
//
// `connections` clients are multiplexed over `threads` generator threads;
// each client runs one connect -> send -> receive state machine. Two things
// vary, and only two:
//
//   * Protocol. An HTTP GET (persistent or a connection per request), or a
//     binary memcached request: `opcode` on a key drawn from `key_space`, or
//     a SET with probability `set_fraction`.
//   * Arrival policy. `offered_rps == 0` is CLOSED loop: a client starts its
//     next request as soon as its reply is parsed, and latency is taken from
//     send start. Offered load is whatever the system absorbs, which is the
//     right shape for throughput. `offered_rps > 0` is OPEN loop: Poisson
//     arrivals at that total rate are scheduled on a fine-tick
//     runtime::TimerWheel whether or not the server keeps up; arrivals that
//     find every client busy queue in a backlog, and latency is taken from
//     the SCHEDULED arrival, so time queued behind a stall is charged to the
//     stall (free of coordinated omission; see docs/BENCHMARKS.md).
//
// The run offers arrivals for `duration_ns`. A closed-loop run stops there;
// an open-loop run then drains in-flight work for a fixed grace period.
// Every arrival ends up either completed or abandoned.
#ifndef FLICK_LOAD_LOAD_ENGINE_H_
#define FLICK_LOAD_LOAD_ENGINE_H_

#include <cstdint>

#include "base/histogram.h"
#include "net/transport.h"

namespace flick::load {

enum class Protocol { kHttp, kMemcached };

struct LoadConfig {
  Protocol protocol = Protocol::kHttp;
  uint16_t port = 80;
  int connections = 100;  // total clients, split over threads
  int threads = 2;        // generator threads
  uint64_t duration_ns = 500'000'000;
  bool persistent = true;  // keep-alive vs a connection per request

  // Memcached requests: keys key-0 .. key-(key_space - 1); `opcode` (GETK by
  // default, the router's cacheable op), or SET for `set_fraction` of them.
  int key_space = 1000;
  uint8_t opcode = 0x0c;
  double set_fraction = 0.0;

  // 0 = closed loop. Otherwise the total offered arrival rate
  // (requests/second, split evenly over threads): offered, not achieved.
  double offered_rps = 0.0;
};

struct LoadResult {
  // Arrivals inside the window: requests started (closed loop) or scheduled
  // (open loop). offered == completed + abandoned.
  uint64_t offered = 0;
  uint64_t completed = 0;  // replies parsed; one latency sample each
  uint64_t errors = 0;     // failed dials, resets, malformed replies
  // Arrivals whose connection failed, or still queued or in flight when the
  // run ended (the window for closed loop, the drain grace for open loop).
  uint64_t abandoned = 0;
  // Sum over generator threads of each thread's own backlog high-water mark
  // (always 0 closed loop). The threads' peaks need not coincide, so this
  // bounds the run's largest instantaneous backlog from above.
  uint64_t backlog_peak = 0;
  double seconds = 0.0;  // the arrival window

  // Nanoseconds from send start (closed) or scheduled arrival (open) to the
  // reply parsed.
  Histogram latency;

  double OfferedRps() const {
    return seconds > 0 ? static_cast<double>(offered) / seconds : 0.0;
  }
  double AchievedRps() const {
    return seconds > 0 ? static_cast<double>(completed) / seconds : 0.0;
  }
  double MeanMs() const { return latency.Mean() / 1e6; }
  double P50Ms() const { return static_cast<double>(latency.Quantile(0.50)) / 1e6; }
  double P99Ms() const { return static_cast<double>(latency.Quantile(0.99)) / 1e6; }
  double P999Ms() const { return static_cast<double>(latency.Quantile(0.999)) / 1e6; }
};

LoadResult RunLoad(Transport* transport, const LoadConfig& config);

}  // namespace flick::load

#endif  // FLICK_LOAD_LOAD_ENGINE_H_
