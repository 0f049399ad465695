// Shared plumbing for FLICK services: per-connection graph construction with
// automatic retirement (the graph-dispatcher role of §5 (ii)).
#ifndef FLICK_SERVICES_SERVICE_UTIL_H_
#define FLICK_SERVICES_SERVICE_UTIL_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "base/time_util.h"
#include "runtime/io_tasks.h"
#include "runtime/platform.h"
#include "runtime/task_graph.h"

namespace flick::services {

// Sentinel for service Options lifetime knobs: inherit the platform's
// policy (PlatformConfig{idle_timeout_ns, header_deadline_ns}) instead of
// overriding it per service. 0 explicitly disables the window.
inline constexpr uint64_t kInheritLifetimeNs = UINT64_MAX;

// How a service reaches its backends: through a shared BackendPool lease, or
// through dedicated per-client-graph connections (the paper's original
// kernel-stack shape).
enum class BackendMode { kPooled, kPerClient };

// What the pool does with a request whose wire died or whose response
// deadline expired before an answer arrived.
//
//   kNone        — fail fast: the issuing leg receives a kError reply and the
//                  dispatch stage translates it (502 / memcached error).
//                  Response order per lease is preserved, so this is the
//                  default for protocol paths where clients correlate by
//                  arrival order.
//   kSameBackend — re-issue on a sibling connection of the SAME backend
//                  (key-partitioned protocols must not change backend).
//   kAnyBackend  — re-issue on any healthy (closed-breaker, connected)
//                  backend, preferring a different one than the failed dial.
//
// Retried responses are handed back through the origin connection task (the
// reply channel's bound producer), so a retry may REORDER responses within a
// lease relative to requests that failed outright — only enable retries on
// paths that correlate responses explicitly or serialize their requests.
enum class RetryPolicy : uint8_t { kNone, kSameBackend, kAnyBackend };

struct BackendPoolConfig;  // backend_pool.h
class GraphBuilder;        // graph_builder.h

// The wire-policy knobs every client-facing service shares, in ONE struct.
// Each service embeds this as `Options::wire` instead of hand-copying the
// fields (mode, conns_per_backend, pipelining, batching, sharding, lifetime
// windows) into its own Options — adding a knob here reaches every service
// and its two plumbing sinks at once via the ApplyTo overloads.
struct WireOptions {
  // Backend transport shape. Services without a backend leg ignore it.
  BackendMode mode = BackendMode::kPooled;

  // Multiplexed pool connections per backend per stripe (see
  // BackendPoolConfig::conns_per_backend).
  size_t conns_per_backend = 2;

  // In-flight requests allowed per pooled connection (see
  // BackendPoolConfig::max_pipeline_depth).
  size_t max_pipeline_depth = 256;

  // Forced-flush threshold for batched writes — pooled backend wires AND the
  // service's client-facing sinks (1 = write per message).
  size_t flush_watermark_bytes = runtime::kDefaultFlushWatermark;

  // Adaptive rx fill-window cap for client sources and pooled reply legs
  // (1 = one-buffer reads).
  size_t fill_window = runtime::kDefaultFillWindow;

  // Pool stripes (see BackendPoolConfig::io_shards; 0 = one stripe per
  // platform IO shard, derived when the pool starts).
  size_t io_shards = 0;

  // Client-leg lifetime windows (see runtime/conn_lifetime.h): close idle
  // keep-alive clients / stalled partial requests after this long. Default
  // inherits the platform policy; 0 disables. Timer closes count into
  // RegistryStats{idle_closed, deadline_closed}.
  uint64_t idle_timeout_ns = kInheritLifetimeNs;
  uint64_t header_deadline_ns = kInheritLifetimeNs;

  // --- backend health plane (see BackendPoolConfig for semantics) ----------
  // Per-request response deadline on pooled wires, armed on the shard wheel
  // when the request enters the wire FIFO. Services arm a generous default so
  // a silently stalled backend fails requests instead of pinning leases to
  // the 30 s detach timeout; 0 disables.
  uint64_t request_deadline_ns = 2'000'000'000;
  // Circuit breaker: consecutive failures per (backend, stripe) that open
  // the circuit, and how long it stays open before a half-open probe.
  uint32_t breaker_failure_threshold = 3;
  uint64_t breaker_open_ns = 100'000'000;
  // Budgeted retries for failed in-flight requests (see RetryPolicy for the
  // ordering caveat; default off).
  RetryPolicy retry_policy = RetryPolicy::kNone;
  uint32_t max_retries_per_request = 1;
  // Token bucket shared by the whole pool: sustained retries/sec and burst.
  double retry_budget_per_sec = 100.0;
  uint32_t retry_burst = 32;

  // Copies the backend-facing knobs into a pool config (ports and codecs
  // remain the service's business).
  void ApplyTo(BackendPoolConfig& cfg) const;

  // Applies the builder-facing knobs to one connection's graph build:
  // batching/fill on every leg, lifetime overrides only when not inherited.
  GraphBuilder& ApplyTo(GraphBuilder& b) const;
};

// Non-owning connection proxy: lets an OutputTask write to a connection whose
// lifetime is owned by the peer InputTask of the same graph.
class SharedConn : public Connection {
 public:
  explicit SharedConn(Connection* conn) : conn_(conn) {}

  Result<size_t> Read(void* buf, size_t len) override { return conn_->Read(buf, len); }
  Result<size_t> Readv(const MutIoSlice* slices, size_t count) override {
    return conn_->Readv(slices, count);  // keep the underlying vectored path
  }
  Result<size_t> Write(const void* buf, size_t len) override { return conn_->Write(buf, len); }
  Result<size_t> Writev(const IoSlice* slices, size_t count) override {
    return conn_->Writev(slices, count);  // keep the underlying vectored path
  }
  void Close() override { conn_->Close(); }
  bool IsOpen() const override { return conn_->IsOpen(); }
  bool ReadReady() const override { return conn_->ReadReady(); }
  bool SetReadReadyHook(std::function<void()> hook) override {
    return conn_->SetReadReadyHook(std::move(hook));
  }
  uint64_t id() const override { return conn_->id(); }

 private:
  Connection* conn_;
};

// Registry-wide construction/retirement counters, exposed so scaling work
// (sharded dispatchers, pooled backends) can observe graph churn without
// instrumenting every service.
struct RegistryStats {
  uint64_t graphs_adopted = 0;
  uint64_t graphs_unwatched = 0;  // passed retirement stage 1 (unwatch sweep)
  uint64_t graphs_retired = 0;    // passed stage 2 (drained and destroyed)
  uint64_t tasks_adopted = 0;
  uint64_t channels_adopted = 0;
  uint64_t detaches_run = 0;      // on_unwatch hooks executed (pool leases)
  uint64_t detaches_timed_out = 0;  // stage 1 forced past a stuck detach_ready

  // Output-batching counters aggregated over every OutputTask this registry
  // has hosted (live graphs summed at stats() time, retired graphs folded in
  // at destruction): vectored writes issued, high-water-forced flushes, and
  // the high-water of messages coalesced into one flush. With writev batching
  // writev_calls stays well below the message count — the per-PR perf
  // trajectory tracks that ratio.
  uint64_t writev_calls = 0;
  uint64_t flushes_forced = 0;
  uint64_t msgs_per_writev = 0;  // high-water, not a sum

  // Ingest-coalescing counters, aggregated the same way over every InputTask:
  // vectored fills that moved bytes, the high-water of bytes one fill moved,
  // and fills that proved the wire drained (each one a would-block probe the
  // legacy per-buffer read loop would have paid).
  uint64_t readv_calls = 0;
  uint64_t bytes_per_readv = 0;  // high-water, not a sum
  uint64_t fills_short = 0;
  // Records the input tasks parsed, and messages they pushed downstream:
  // fewer pushed than parsed where MergeTree leaves fold runs.
  uint64_t records_in = 0;
  uint64_t records_pushed = 0;

  // Connection lifetime plane (see runtime/conn_lifetime.h). idle_closed /
  // deadline_closed count this registry's graphs whose client leg was closed
  // by a timer; the rest are summed over the IO shards this registry has
  // adopted graphs from: admission sheds (the conn never reached a service,
  // so attribution is per-shard), sweep duty cycle, and wheel health.
  uint64_t idle_closed = 0;
  uint64_t deadline_closed = 0;
  uint64_t admissions_shed = 0;
  uint64_t sweeps = 0;
  uint64_t sweeps_idle = 0;
  uint64_t timers_armed = 0;
  uint64_t timers_fired = 0;
  uint64_t timers_cancelled = 0;
  uint64_t timer_cascades = 0;

  // Memory plane, summed over the pools this registry's graphs draw from
  // (shard slices and their global spill parents, deduped at Adopt):
  // msg acquires that fell through to the HEAP, and acquires a shard slice
  // could not serve locally (buffer or msg) and delegated to the global
  // spill pool. Both 0 in a well-sized steady state.
  uint64_t msg_pool_misses = 0;
  uint64_t pool_slice_spills = 0;

  // Look-aside cache plane (services running in cache mode; all 0 otherwise).
  // hits: GETs answered from the StateStore without touching the backend
  // plane. misses: GETs forwarded to a backend with a populate armed on the
  // response path. invalidations: write-throughs (SET/DELETE) that purged the
  // key before forwarding. stale_populates_dropped: response-path populates
  // discarded because an invalidation won the race (the StateStore epoch
  // moved between miss and response) — nonzero is correct behaviour under a
  // racing write mix, but on a read-only steady state it must be exactly 0.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_invalidations = 0;
  uint64_t cache_stale_populates_dropped = 0;
  // GETs answered from the stale fallback dict while the backend's circuit
  // was open (memcached_proxy cache mode degrade path). 0 outside outages.
  uint64_t cache_stale_served = 0;

  // Graph builds whose Launch failed (listener/dial/adopt error). The client
  // connection is closed and the build discarded; nonzero under backend
  // outages or port exhaustion, 0 in a healthy steady state.
  uint64_t launch_failures = 0;

  // DSL dispatch plane (DslService; all 0 otherwise). lowered_msgs: messages
  // executed by a lowered native plan (lang/lower.h). interp_fallbacks:
  // messages that fell back to the bounded evaluator — an unprovable rule
  // shape or a non-grammar message. A fully lowered program under normal
  // traffic keeps interp_fallbacks at exactly 0.
  uint64_t dsl_lowered_msgs = 0;
  uint64_t dsl_interp_fallbacks = 0;
};

// Cache-plane counters, owned by the GraphRegistry (like
// runtime::ConnLifetimeCounters) and incremented by a service's dispatch
// stages; folded into RegistryStats at stats() time.
struct CacheCounters {
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
  std::atomic<uint64_t> invalidations{0};
  std::atomic<uint64_t> stale_populates_dropped{0};
  std::atomic<uint64_t> stale_served{0};  // degrade path: see RegistryStats
};

// DSL dispatch counters, owned by the GraphRegistry like CacheCounters and
// incremented by DslService's (lowered or interpreted) proc handlers.
struct DslCounters {
  std::atomic<uint64_t> lowered_msgs{0};
  std::atomic<uint64_t> interp_fallbacks{0};
};

// Tracks live graphs for a service and reaps them (unwatching their
// connections, quiescing their tasks, destroying the graph) once all IO
// tasks have closed. Thread-safe; reaping runs on the poller thread.
class GraphRegistry {
 public:
  // Upper bound on how long a graph's detach_ready gate may hold retirement
  // stage 1 open. Generous against real drains (which finish in
  // milliseconds) while keeping graph lifetime bounded when the gated
  // dependency is wedged.
  static constexpr uint64_t kDetachReadyTimeoutNs = 30'000'000'000;

  // Retirement starts when the graph's last IO task closes: that close hands
  // the staged check below to the adopting shard's poller, which runs it on
  // its next IoPoller::kSweepPollAttempts sweeps. A check that is still not
  // done by then (in practice a pooled graph whose detach gate waits for the
  // pool to consume its EOF) falls back to a backoff poll on the shard's
  // wheel, from kRetireCheckMinNs doubling to kRetireCheckMaxNs. Nothing
  // walks live graphs: an open graph costs the poller nothing.
  static constexpr uint64_t kRetireCheckMinNs = 1'000'000;
  static constexpr uint64_t kRetireCheckMaxNs = 64'000'000;

  // The platform must be stopped (pollers joined) before a registry with
  // adopted graphs is destroyed — queued retirement checks reference `this`.
  ~GraphRegistry();

  // Adopts `graph` and installs its retirement hook. `conns` are the
  // connections the graph's tasks watch (unwatched at retirement). Call
  // before activating the graph's IO; a graph whose IO already closed still
  // retires, from this call. `on_unwatch`, when set, runs exactly once at
  // retirement stage 1 — GraphBuilder uses it to return pool leases,
  // severing every producer/consumer the graph shares with external tasks.
  // `detach_ready`, when set, DELAYS stage 1 until it returns true — pooled
  // graphs use it (BackendPool::LeaseFinished) so a lease is not returned
  // while requests the graph committed still sit in its channels. It must
  // be cheap and non-blocking; it is polled per retirement check.
  // The delay is BOUNDED: after kDetachReadyTimeoutNs of refusals stage 1
  // proceeds anyway (counted in detaches_timed_out) — a pathologically
  // wedged dependency may cost a graph its queued output, never an unbounded
  // graph leak.
  //
  // Retirement is staged and NON-BLOCKING (the check runs on the poller
  // thread, which must never spin-wait): once all IO tasks have closed (and
  // `detach_ready` holds), the graph's connections are unwatched and
  // `on_unwatch` runs — after that no external party (poller or backend pool)
  // can notify a graph task; on a later check, once every task has gone idle
  // (no pending notifications can exist then — all inputs are closed, drained
  // or detached), the graph is destroyed.
  void Adopt(std::unique_ptr<runtime::TaskGraph> graph,
             std::vector<Connection*> conns, runtime::PlatformEnv& env,
             std::function<void()> on_unwatch = {},
             std::function<bool()> detach_ready = {});

  size_t live_graphs() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return graphs_.size();
  }

  // Close-reason counters for this registry's client legs; GraphBuilder
  // hands this to every adopted leg's InputTask at Launch.
  runtime::ConnLifetimeCounters& lifetime_counters() { return lifetime_; }

  // Cache-plane counters for this registry's dispatch stages (services
  // running in look-aside cache mode increment these; see RegistryStats).
  CacheCounters& cache_counters() { return cache_; }
  const CacheCounters& cache_counters() const { return cache_; }

  // DSL dispatch counters (DslService proc handlers; see RegistryStats).
  DslCounters& dsl_counters() { return dsl_; }
  const DslCounters& dsl_counters() const { return dsl_; }

  // Records a failed GraphBuilder::Launch (the builder already closed the
  // legs and returned any pool leases).
  void CountLaunchFailure() {
    launch_failures_.fetch_add(1, std::memory_order_relaxed);
  }

  RegistryStats stats() const {
    RegistryStats s;
    s.graphs_adopted = graphs_adopted_.load(std::memory_order_relaxed);
    s.graphs_unwatched = graphs_unwatched_.load(std::memory_order_relaxed);
    s.graphs_retired = graphs_retired_.load(std::memory_order_relaxed);
    s.tasks_adopted = tasks_adopted_.load(std::memory_order_relaxed);
    s.channels_adopted = channels_adopted_.load(std::memory_order_relaxed);
    s.detaches_run = detaches_run_.load(std::memory_order_relaxed);
    s.detaches_timed_out = detaches_timed_out_.load(std::memory_order_relaxed);
    s.idle_closed = lifetime_.idle_closed.load(std::memory_order_relaxed);
    s.deadline_closed = lifetime_.deadline_closed.load(std::memory_order_relaxed);
    s.cache_hits = cache_.hits.load(std::memory_order_relaxed);
    s.cache_misses = cache_.misses.load(std::memory_order_relaxed);
    s.cache_invalidations = cache_.invalidations.load(std::memory_order_relaxed);
    s.cache_stale_populates_dropped =
        cache_.stale_populates_dropped.load(std::memory_order_relaxed);
    s.cache_stale_served = cache_.stale_served.load(std::memory_order_relaxed);
    s.launch_failures = launch_failures_.load(std::memory_order_relaxed);
    s.dsl_lowered_msgs = dsl_.lowered_msgs.load(std::memory_order_relaxed);
    s.dsl_interp_fallbacks = dsl_.interp_fallbacks.load(std::memory_order_relaxed);
    // Batching counters: accumulators AND live-graph fold-in are read under
    // the same lock the retirement check folds+erases under, so a retiring graph is
    // counted by exactly one of the two paths and the aggregate never
    // transiently dips.
    std::lock_guard<std::mutex> lock(mutex_);
    s.writev_calls = writev_calls_.load(std::memory_order_relaxed);
    s.flushes_forced = flushes_forced_.load(std::memory_order_relaxed);
    s.msgs_per_writev = msgs_per_writev_.load(std::memory_order_relaxed);
    s.readv_calls = readv_calls_.load(std::memory_order_relaxed);
    s.bytes_per_readv = bytes_per_readv_.load(std::memory_order_relaxed);
    s.fills_short = fills_short_.load(std::memory_order_relaxed);
    s.records_in = records_in_.load(std::memory_order_relaxed);
    s.records_pushed = records_pushed_.load(std::memory_order_relaxed);
    for (const auto& live : graphs_) {
      const runtime::TaskGraph* graph = live->graph.get();
      for (const runtime::OutputTask* out : graph->output_tasks()) {
        s.writev_calls += out->writev_calls();
        s.flushes_forced += out->flushes_forced();
        if (out->msgs_per_writev() > s.msgs_per_writev) {
          s.msgs_per_writev = out->msgs_per_writev();
        }
      }
      for (const runtime::InputTask* in : graph->input_tasks()) {
        s.readv_calls += in->readv_calls();
        s.fills_short += in->fills_short();
        s.records_in += in->messages_in();
        s.records_pushed += in->messages_out();
        if (in->bytes_per_readv() > s.bytes_per_readv) {
          s.bytes_per_readv = in->bytes_per_readv();
        }
      }
    }
    for (runtime::IoPoller* poller : pollers_) {
      s.admissions_shed += poller->admission().shed();
      s.sweeps += poller->sweeps();
      s.sweeps_idle += poller->sweeps_idle();
      const runtime::TimerStats t = poller->wheel().stats();
      s.timers_armed += t.armed;
      s.timers_fired += t.fired;
      s.timers_cancelled += t.cancelled;
      s.timer_cascades += t.cascade_moves;
    }
    for (runtime::MsgPool* pool : msg_pools_) {
      s.msg_pool_misses += pool->pool_misses();
      s.pool_slice_spills += pool->slice_spills();
    }
    for (BufferPool* pool : buffer_pools_) {
      s.pool_slice_spills += pool->stats().slice_spills;
    }
    return s;
  }

 private:
  // One adopted graph and its retirement state. Stage fields are touched
  // only by the retirement check (the adopting shard's poller thread) and by
  // the destructor after the pollers stopped.
  struct LiveGraph {
    std::unique_ptr<runtime::TaskGraph> graph;
    runtime::IoPoller* poller = nullptr;
    std::vector<Connection*> conns;  // watched until stage 1 unwatches
    std::function<void()> on_unwatch;
    std::function<bool()> detach_ready;
    uint64_t detach_deadline_ns = 0;
    bool unwatched = false;
    size_t index = 0;  // position in graphs_ (mutex_)
  };

  // The staged check for one graph whose IO has closed; true once the graph
  // is destroyed.
  bool RetireStep(LiveGraph& live);

  // Caller holds mutex_. Registries usually span a handful of shards, so a
  // linear dedup beats a set.
  void TrackPollerLocked(runtime::IoPoller* poller) {
    if (std::find(pollers_.begin(), pollers_.end(), poller) == pollers_.end()) {
      pollers_.push_back(poller);
    }
  }

  // Caller holds mutex_. Dedups the memory-plane pools an adopting env draws
  // from, walking each slice's spill chain so the global parent (where msg
  // heap misses are counted — slices spill, they never heap-allocate) is
  // tracked even when every env hands out a slice. A registry spans at most
  // shards + 1 pools of each kind, so linear dedup is fine.
  void TrackPoolsLocked(runtime::PlatformEnv& env) {
    for (runtime::MsgPool* pool = env.msgs; pool != nullptr; pool = pool->spill()) {
      if (std::find(msg_pools_.begin(), msg_pools_.end(), pool) == msg_pools_.end()) {
        msg_pools_.push_back(pool);
      }
    }
    for (BufferPool* pool = env.buffers; pool != nullptr; pool = pool->spill()) {
      if (std::find(buffer_pools_.begin(), buffer_pools_.end(), pool) ==
          buffer_pools_.end()) {
        buffer_pools_.push_back(pool);
      }
    }
  }

  // Caller holds mutex_ (folded and erased in one critical section so a
  // concurrent stats() never counts a retiring graph twice).
  void AccumulateBatchStats(const runtime::TaskGraph& graph) {
    for (const runtime::OutputTask* out : graph.output_tasks()) {
      writev_calls_.fetch_add(out->writev_calls(), std::memory_order_relaxed);
      flushes_forced_.fetch_add(out->flushes_forced(), std::memory_order_relaxed);
      runtime::AtomicStoreMax(msgs_per_writev_, out->msgs_per_writev());
    }
    for (const runtime::InputTask* in : graph.input_tasks()) {
      readv_calls_.fetch_add(in->readv_calls(), std::memory_order_relaxed);
      fills_short_.fetch_add(in->fills_short(), std::memory_order_relaxed);
      records_in_.fetch_add(in->messages_in(), std::memory_order_relaxed);
      records_pushed_.fetch_add(in->messages_out(), std::memory_order_relaxed);
      runtime::AtomicStoreMax(bytes_per_readv_, in->bytes_per_readv());
    }
  }

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<LiveGraph>> graphs_;
  std::vector<runtime::IoPoller*> pollers_;  // shards graphs were adopted from
  std::vector<runtime::MsgPool*> msg_pools_;  // slices + spill parents, deduped
  std::vector<BufferPool*> buffer_pools_;
  runtime::ConnLifetimeCounters lifetime_;
  CacheCounters cache_;
  DslCounters dsl_;
  std::atomic<uint64_t> launch_failures_{0};
  std::atomic<uint64_t> graphs_adopted_{0};
  std::atomic<uint64_t> graphs_unwatched_{0};
  std::atomic<uint64_t> graphs_retired_{0};
  std::atomic<uint64_t> tasks_adopted_{0};
  std::atomic<uint64_t> channels_adopted_{0};
  std::atomic<uint64_t> detaches_run_{0};
  std::atomic<uint64_t> detaches_timed_out_{0};
  std::atomic<uint64_t> writev_calls_{0};
  std::atomic<uint64_t> flushes_forced_{0};
  std::atomic<uint64_t> msgs_per_writev_{0};
  std::atomic<uint64_t> readv_calls_{0};
  std::atomic<uint64_t> bytes_per_readv_{0};
  std::atomic<uint64_t> fills_short_{0};
  std::atomic<uint64_t> records_in_{0};
  std::atomic<uint64_t> records_pushed_{0};
};

}  // namespace flick::services

#endif  // FLICK_SERVICES_SERVICE_UTIL_H_
