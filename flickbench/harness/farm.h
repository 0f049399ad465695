// The backend farm: ONE harness thread serving every backend port of a
// workload — memcached servers, HTTP servers and the Hadoop reducer sink —
// over the harness side of the sim fabric (StackCostModel::Null(), so no
// simulated stack cost lands on the harness).
//
// The farm is the authority the correctness checks compare against: it
// holds the current version of every memcached key (advanced by SETs), it
// answers each HTTP request with a body derived from the request id, and it
// sums the per-word counts the reducer receives.
//
// When tracing is on it stamps, per request id, when it read the forwarded
// request and when it started writing the reply (the program-side span
// boundaries the benchmark can see from outside).
#ifndef FLICKBENCH_HARNESS_FARM_H_
#define FLICKBENCH_HARNESS_FARM_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness/common.h"
#include "net/sim_transport.h"

namespace fb {

// Per-request-id farm stamps. Written by the farm thread; read only after
// Farm::Stop() has joined it.
struct FarmStamps {
  std::vector<uint64_t> read_ns;   // forwarded request read (0 = never seen)
  std::vector<uint64_t> write_ns;  // reply write started
  std::vector<uint32_t> key;       // key index the request named (memcached)
};

class Farm {
 public:
  Farm(flick::SimNetwork* net, uint32_t key_space, uint64_t seed);
  ~Farm();

  Farm(const Farm&) = delete;
  Farm& operator=(const Farm&) = delete;

  flick::Status AddMemcached(uint16_t port);
  flick::Status AddHttp(uint16_t port);
  flick::Status AddReducer(uint16_t port);

  void Start();
  // Joins the farm thread and closes every connection and listener.
  void Stop();

  // Ids below `capacity` are stamped while tracing is on.
  void PrepareStamps(size_t capacity);
  void SetTracing(bool on) { tracing_.store(on, std::memory_order_release); }
  const FarmStamps& stamps() const { return stamps_; }

  // Self-test hook: the farm stops serving every port for `ns`.
  void Pause(uint64_t ns) {
    pause_until_.store(Now() + ns, std::memory_order_release);
  }

  // Reducer sink totals (sum of counts, pairs received), readable live.
  uint64_t reducer_count_total() const {
    return reducer_total_.load(std::memory_order_acquire);
  }
  uint64_t reducer_pairs() const { return reducer_pairs_.load(std::memory_order_acquire); }
  // Per-word sums; read after Stop().
  const std::map<std::string, uint64_t>& reducer_counts() const { return reducer_counts_; }

  // Requests the farm could not make sense of (bad frame, unknown key or
  // version, malformed kv). Nonzero means the program mangled a request.
  uint64_t malformed() const { return malformed_.load(std::memory_order_acquire); }

 private:
  enum class Kind { kMemcached, kHttp, kReducer };
  struct Port {
    Kind kind;
    std::unique_ptr<flick::Listener> listener;
  };
  struct Conn {
    Kind kind;
    Wire wire;
    std::vector<uint32_t> unstamped;  // reply ids awaiting a write stamp
  };

  flick::Status Add(Kind kind, uint16_t port);
  void Loop();
  // Returns false when the connection must be dropped.
  bool Serve(Conn& c, uint64_t read_ns);
  bool ServeMemcached(Conn& c, uint64_t read_ns);
  bool ServeHttp(Conn& c, uint64_t read_ns);
  bool ServeReducer(Conn& c);
  void StampRead(uint64_t id, uint64_t read_ns, uint32_t key, Conn& c);

  flick::SimTransport transport_;
  const uint64_t seed_;
  std::vector<Port> ports_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<uint32_t> versions_;  // per key; farm thread only

  FarmStamps stamps_;
  std::atomic<bool> tracing_{false};
  std::atomic<uint64_t> pause_until_{0};

  std::map<std::string, uint64_t> reducer_counts_;
  std::atomic<uint64_t> reducer_total_{0};
  std::atomic<uint64_t> reducer_pairs_{0};
  std::atomic<uint64_t> malformed_{0};

  std::atomic<bool> running_{false};
  std::thread thread_;  // last: joined before the members it uses go away
};

}  // namespace fb

#endif  // FLICKBENCH_HARNESS_FARM_H_
