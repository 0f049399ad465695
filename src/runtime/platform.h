// The FLICK platform facade (Figure 2).
//
// Owns the scheduler, the IO plane, buffer/message pools and global state
// store; hosts program instances. The application dispatcher maps a listening
// port to a program (§5 (i)); each program's OnConnection implements the graph
// dispatcher role (§5 (ii)). The paper pre-allocates a pool of task graphs for
// that role; here OnConnection builds a fresh graph per connection
// (services::GraphBuilder) and the graph is retired as soon as its last IO
// task closes (see runtime/task_graph.h for the construct cost).
//
// The IO plane is SHARDED (§5's many-small-task-graphs-across-cores scaling):
// `io_shards` IoPoller threads, each owning a slice of the listeners and all
// the connection watches of the graphs launched from it. A connection accepted
// on shard k is wired, watched and retired entirely on shard k's poller —
// the share-nothing per-core event-loop shape (Seastar, mTCP) — so accept
// rate and readiness sweeping scale with shards instead of funnelling through
// one dispatcher thread. Worker threads (the scheduler) stay shared.
//
// Multiple programs share one platform: that is the multi-tenancy the
// cooperative scheduler exists for (§6.4).
#ifndef FLICK_RUNTIME_PLATFORM_H_
#define FLICK_RUNTIME_PLATFORM_H_

#include <memory>
#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "net/transport.h"
#include "runtime/io_poller.h"
#include "runtime/msg.h"
#include "runtime/scheduler.h"
#include "runtime/state_store.h"
#include "runtime/task_graph.h"

namespace flick::runtime {

struct PlatformConfig {
  SchedulerConfig scheduler;
  size_t io_buffer_count = 4096;
  size_t io_buffer_size = 16 * 1024;
  size_t msg_pool_size = 4096;
  uint64_t poll_interval_ns = 5'000;
  // Cap on a poller shard's adaptive idle sleep (see IoPoller): consecutive
  // idle sweeps back off from poll_interval_ns toward this, bounded by the
  // shard's next timer deadline.
  uint64_t poll_idle_cap_ns = 200'000;
  size_t state_entries_per_dict = 65536;

  // Connection lifetime plane (see runtime/conn_lifetime.h). All zero by
  // default: no deadlines, unlimited admission — existing behaviour.
  // Close accepted connections idle longer than this (0 = never).
  uint64_t idle_timeout_ns = 0;
  // Close accepted connections whose partial request makes no progress for
  // this long (0 = never).
  uint64_t header_deadline_ns = 0;
  // Shed (accept-then-close, counted) connections past this per-shard cap
  // (0 = unlimited).
  size_t max_conns_per_shard = 0;

  // IO poller shards. Each shard accepts on its own listener (SO_REUSEPORT
  // on the kernel transport, round-robin accept groups in the sim) and owns
  // the watches of the graphs launched from it; a BackendPool started
  // through a sharded env stripes its wires one-per-shard. 1 = the single-
  // dispatcher shape.
  size_t io_shards = 1;
};

// One watched connection of a freshly built graph: readiness events on
// `conn` wake `task` (the graph's input task reading that connection).
struct IoBinding {
  Connection* conn = nullptr;
  Task* task = nullptr;
};

// Everything a program needs to build and run task graphs. Under a sharded
// IO plane the platform hands each accepted connection the env of the shard
// that accepted it: `poller` is that shard's poller, so every watch, timer
// and pool stripe derived from this env stays on the accepting shard.
struct PlatformEnv {
  Scheduler* scheduler = nullptr;
  IoPoller* poller = nullptr;
  BufferPool* buffers = nullptr;
  MsgPool* msgs = nullptr;
  StateStore* state = nullptr;
  Transport* transport = nullptr;

  // Which shard this env views the platform from, and the whole IO plane
  // (null for hand-built single-poller envs, e.g. in tests).
  size_t io_shard = 0;
  const std::vector<IoPoller*>* io_pollers = nullptr;

  // Per-shard memory-plane slices (null/empty when the IO plane is unsharded:
  // `buffers`/`msgs` then ARE the whole pools). On a sharded platform
  // `buffers`/`msgs` already point at THIS shard's slice; the vectors exist so
  // cross-shard machinery (BackendPool stripes) can fetch a sibling shard's
  // slice through any env.
  const std::vector<BufferPool*>* shard_buffer_pools = nullptr;
  const std::vector<MsgPool*>* shard_msg_pools = nullptr;

  // Platform-wide connection lifetime policy; null for hand-built envs means
  // "all disabled". Services/builders may override per graph.
  const ConnLifetimeConfig* lifetime = nullptr;

  size_t io_shard_count() const {
    return io_pollers != nullptr && !io_pollers->empty() ? io_pollers->size() : 1;
  }
  IoPoller* shard_poller(size_t shard) const {
    return io_pollers != nullptr && !io_pollers->empty()
               ? (*io_pollers)[shard % io_pollers->size()]
               : poller;
  }
  BufferPool* shard_buffers(size_t shard) const {
    return shard_buffer_pools != nullptr && !shard_buffer_pools->empty()
               ? (*shard_buffer_pools)[shard % shard_buffer_pools->size()]
               : buffers;
  }
  MsgPool* shard_msgs(size_t shard) const {
    return shard_msg_pools != nullptr && !shard_msg_pools->empty()
               ? (*shard_msg_pools)[shard % shard_msg_pools->size()]
               : msgs;
  }

  // Activates a graph's IO in one correctly ordered step: every watch is
  // registered before any task is notified, so a readiness event delivered
  // mid-activation cannot schedule one input task ahead of a sibling's
  // registration. Graph assembly code (services::GraphBuilder) must use this
  // instead of interleaving WatchConnection/NotifyRunnable by hand.
  void ActivateIo(const std::vector<IoBinding>& bindings);
};

// A network service: receives each accepted client connection (on the
// accepting shard's poller thread) and wires it into a task graph.
class ServiceProgram {
 public:
  virtual ~ServiceProgram() = default;

  virtual const char* name() const = 0;
  virtual void OnConnection(std::unique_ptr<Connection> conn, PlatformEnv& env) = 0;
};

class Platform {
 public:
  Platform(PlatformConfig config, Transport* transport);
  ~Platform();

  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  // Application dispatcher: binds `program` to `port` on EVERY shard. The
  // platform keeps a non-owning pointer; programs must outlive Stop().
  // A port already registered on this platform is rejected here — the
  // sharded accept path sets SO_REUSEPORT on every kernel listening socket,
  // so the kernel would otherwise happily hash clients across two programs.
  Status RegisterProgram(uint16_t port, ServiceProgram* program);

  void Start();
  void Stop();

  // Shard 0's view — the single-shard shape every existing caller expects.
  PlatformEnv& env() { return envs_[0]; }
  PlatformEnv& env(size_t shard) { return envs_[shard]; }
  Scheduler& scheduler() { return *scheduler_; }
  IoPoller& poller(size_t shard = 0) { return *pollers_[shard]; }
  size_t io_shards() const { return pollers_.size(); }
  // The GLOBAL pools. On a sharded platform these are the spill parents of
  // the per-shard slices; env(s).buffers / env(s).msgs are shard s's slices.
  BufferPool& buffers() { return *buffers_; }
  MsgPool& msgs() { return *msgs_; }
  StateStore& state() { return *state_; }

  // Acquires any shard slice (buffer or msg) could not serve locally and
  // delegated to the global spill pool. 0 when unsharded, and 0 in a
  // well-sized sharded steady state — the bench gate asserts exactly that.
  uint64_t pool_slice_spills() const;
  // Heap fallbacks of the message plane (counted on the global pool: slices
  // spill there first and never heap-allocate themselves).
  uint64_t msg_pool_misses() const { return msgs_->pool_misses(); }

 private:
  void AddAccept(size_t shard, Listener* listener, ServiceProgram* program);

  PlatformConfig config_;
  Transport* transport_;
  std::unique_ptr<Scheduler> scheduler_;
  std::vector<std::unique_ptr<IoPoller>> pollers_;
  std::vector<IoPoller*> poller_ptrs_;  // the plane view shared by every env
  std::unique_ptr<BufferPool> buffers_;
  std::unique_ptr<MsgPool> msgs_;
  // Per-shard slices (empty when io_shards == 1). Declared AFTER the global
  // pools: slices spill into them, so they must be destroyed first.
  std::vector<std::unique_ptr<BufferPool>> buffer_slices_;
  std::vector<std::unique_ptr<MsgPool>> msg_slices_;
  std::vector<BufferPool*> buffer_slice_ptrs_;  // shared by every env
  std::vector<MsgPool*> msg_slice_ptrs_;
  std::unique_ptr<StateStore> state_;
  ConnLifetimeConfig lifetime_config_;  // referenced by every env
  std::vector<PlatformEnv> envs_;  // one per shard; stable after construction
  std::vector<std::unique_ptr<Listener>> listeners_;
  std::vector<uint16_t> registered_ports_;
  bool started_ = false;
};

}  // namespace flick::runtime

#endif  // FLICK_RUNTIME_PLATFORM_H_
