// The load generators: everything the benchmark offers the program runs on ONE
// harness thread (the caller's) over the harness side of the sim fabric.
//
//   McLoad      memcached binary, open loop: Poisson arrivals at a fixed
//               rate, pipelined over at most four persistent connections;
//               latency is charged from each request's SCHEDULED arrival,
//               so a stall also delays the requests queued behind it.
//   HttpLoad    HTTP/1.1, closed loop: four non-persistent connections, one
//               GET each; latency runs from connect to reply complete.
//   HadoopLoad  four mapper streams of sorted 8-char wordcount pairs per
//               batch, closed loop over batches; latency is a batch's time
//               from the first connect until the reducer sink has counted
//               every pair.
//
// Every reply is checked against the farm (see harness/farm.h); the result
// separates wrong output from honest failures.
#ifndef FLICKBENCH_HARNESS_LOAD_H_
#define FLICKBENCH_HARNESS_LOAD_H_

#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "harness/common.h"
#include "harness/farm.h"

namespace fb {

// Client-side span boundaries of one traced, correctly answered op.
struct SpanRec {
  uint64_t id = 0;
  uint32_t key = 0;       // memcached key index (joined against the farm's)
  uint64_t start_ns = 0;  // scheduled arrival (open loop) or connect start
  uint64_t write_ns = 0;  // request write started
  uint64_t done_ns = 0;   // reply complete
};

struct RunResult {
  uint64_t attempted = 0;  // ops offered, in workload units
  uint64_t ok = 0;         // ops answered correctly
  uint64_t wrong = 0;      // wrong bytes, status, key or id: incorrect output
  uint64_t stale = 0;      // a value older than the last SET sent before the GET
  uint64_t errors = 0;     // error replies and connection failures
  uint64_t abandoned = 0;  // unanswered when the drain ended
  Samples latency;         // ns per correct op (request, connection or batch)
  Samples latency_traced;    // the same, split by trace slice
  Samples latency_untraced;
  // The same again, split into windows of RunControl::window_ns by op start
  // time, with the ops each window completed correctly.
  std::vector<Samples> windows;
  std::vector<uint64_t> window_ops;
  uint64_t window_ns = 1'000'000'000;
  uint64_t run_start_ns = 0;
  uint64_t elapsed_ns = 0;   // goodput denominator
  uint64_t backlog_peak = 0;  // max ops due but not yet answered
  double generator_lag_ns = 0.0;  // mean lateness of sends behind schedule
  int max_open_conns = 0;
  std::vector<SpanRec> spans;

  // Ops not answered correctly: wrong, stale, error, or abandoned. (A reply
  // nobody asked for counts as wrong but completes no op.)
  uint64_t failed() const { return attempted - ok; }
  // Each window's quantile q, ascending, over the windows holding at least
  // `min_samples` latency samples.
  std::vector<double> WindowQuantiles(double q, size_t min_samples);
  // Over those windows: the mean of the window quantiles q with the worst
  // third of windows dropped, and the interquartile mean of each window's
  // correct ops per second. Both fall back to the whole run when no window
  // qualifies.
  double WindowedQuantile(double q, size_t min_samples);
  double WindowedRate(size_t min_samples) const;
};

// What a run does besides offering load.
struct RunControl {
  // Alternate untraced and traced slices of this length; requests scheduled
  // in odd slices are traced (client stamps + farm stamps).
  bool trace = false;
  uint64_t trace_slice_ns = 250'000'000;
  Farm* farm = nullptr;
  // Called once, half way through the window (live /proc checks).
  std::function<void()> midpoint;
  // Self-test: pause the farm for pause_ns at pause_at_ns into the window.
  uint64_t pause_at_ns = 0;
  uint64_t pause_ns = 0;
  // Measured runs number their ops from 0 (the farm's stamp index) and
  // capture inputs for the layer probes; warm-up runs do neither.
  bool measured = true;
  // Length of the windows RunResult bins latency and ops into.
  uint64_t window_ns = 1'000'000'000;
};

// The load shape every workload shares.
inline constexpr uint16_t kServicePort = 7000;
inline constexpr int kClientConns = 4;       // memcached conns, HTTP concurrency, mappers
inline constexpr double kOpenLoopRate = 10'000.0;  // memcached requests per second

// Captured program inputs of a measured run, replayed by the layer probes.
struct Capture {
  std::string bytes;                               // request bytes as sent
  std::vector<std::pair<uint8_t, uint32_t>> ops;   // (opcode, key index)
};

// One load generator, driven from the calling thread.
class Load {
 public:
  Load() = default;
  Load(const Load&) = delete;
  Load& operator=(const Load&) = delete;
  virtual ~Load() = default;
  virtual RunResult Run(uint64_t duration_ns, const RunControl& control) = 0;
  // Closes persistent client connections (the program retires their graphs).
  virtual void Close() {}
  const Capture& capture() const { return capture_; }

 protected:
  Capture capture_;
};

// What varies between the memcached workloads.
struct McSpec {
  uint32_t key_space = 0;
  double set_fraction = 0.0;
  uint8_t get_opcode = kMcGet;
  uint64_t seed = 1;
};

class McLoad : public Load {
 public:
  McLoad(flick::Transport* edge, McSpec spec);

  flick::Status Connect();
  // One GET of key 0, to be answered correctly within the timeout.
  RunResult Probe(uint64_t timeout_ns);
  // GETs every key once (cache warm-up), at most kWarmWindow requests in
  // flight per connection.
  RunResult WarmKeys(uint64_t timeout_ns);
  // Sends one `op` per entry of `keys` at once and waits for every reply.
  RunResult Burst(const std::vector<uint32_t>& keys, uint8_t op, uint64_t timeout_ns);
  RunResult Run(uint64_t duration_ns, const RunControl& control) override;
  void Close() override;

 private:
  struct Pending {
    uint64_t sched_ns = 0;
    uint64_t write_ns = 0;
    uint32_t key = 0;
    uint32_t expect_version = 0;
    uint8_t op = 0;
    uint8_t conn = 0;
    bool traced = false;
    bool done = false;
  };

  // Queues request `slot` (opaque = base + slot) on its key's connection.
  void Enqueue(uint32_t base, uint32_t slot, uint8_t op, uint32_t key,
             std::vector<Pending>& pending, bool capture);
  // Parses every complete reply on every connection; returns replies seen
  // and adds the requests they completed to *completed.
  size_t Collect(uint32_t base, std::vector<Pending>& pending, const RunControl& ctl,
                 RunResult* r, size_t* completed);
  // Stamps and flushes every connection's queued requests.
  void FlushAll(bool stamp, std::vector<Pending>& pending);

  flick::Transport* edge_;
  McSpec spec_;
  std::vector<Wire> conns_;
  std::vector<bool> conn_dead_;
  std::vector<std::vector<uint32_t>> unstamped_;  // per conn: slots to stamp
  std::vector<uint32_t> set_version_;  // last SET version sent, per key
  uint32_t next_base_ = 0x40000000;    // opaque bases of unmeasured runs
  std::mt19937_64 rng_;
};

class HttpLoad : public Load {
 public:
  explicit HttpLoad(flick::Transport* edge) : edge_(edge) {}

  bool Probe(uint64_t timeout_ns);
  RunResult Run(uint64_t duration_ns, const RunControl& control) override;

 private:
  flick::Transport* edge_;
  uint64_t next_unmeasured_id_ = uint64_t{1} << 40;
};

class HadoopLoad : public Load {
 public:
  HadoopLoad(flick::Transport* edge, uint64_t seed, Farm* farm);

  // One small batch (the first pairs of each mapper block), answered within
  // the batch timeout.
  bool Probe();
  RunResult Run(uint64_t duration_ns, const RunControl& control) override;

  // Per-word counts sent so far (every batch, probes included).
  const std::map<std::string, uint64_t>& sent_counts() const { return sent_; }

 private:
  // Streams `blocks` over fresh mapper connections and waits for the sink;
  // returns the batch latency, or 0 on failure.
  uint64_t Batch(const std::vector<std::string>& blocks, uint64_t pairs,
                 const std::map<std::string, uint64_t>& counts, int* open_conns);

  flick::Transport* edge_;
  Farm* farm_;
  std::vector<std::string> blocks_;       // one sorted block per mapper
  std::map<std::string, uint64_t> batch_counts_;
  uint64_t pairs_per_batch_ = 0;
  std::vector<std::string> probe_blocks_;
  std::map<std::string, uint64_t> probe_counts_;
  uint64_t probe_pairs_ = 0;
  std::map<std::string, uint64_t> sent_;
  uint64_t sent_total_ = 0;
};

}  // namespace fb

#endif  // FLICKBENCH_HARNESS_LOAD_H_
