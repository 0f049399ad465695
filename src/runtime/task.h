// Schedulable unit of computation (§3.2: "A task is a schedulable unit of
// computation. Each task processes a stream of input values and generates a
// stream of output values.").
//
// Contract: Run() processes available input and returns
//   kIdle     — nothing left to do; the task re-enters the scheduler when a
//               channel push or IO readiness notifies it, or
//   kMoreWork — work remains (timeslice expired, downstream full, ...);
//               the scheduler requeues the task at the back of its queue
//               (§5: "placing itself at the back of the queue if it has
//               remaining work to do").
// Long-running loops must poll TaskContext::ShouldYield() at item
// granularity; the FLICK compiler guarantees this for generated code, and
// hand-written tasks in this repo follow the same rule.
#ifndef FLICK_RUNTIME_TASK_H_
#define FLICK_RUNTIME_TASK_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "base/intrusive_list.h"
#include "base/time_util.h"

namespace flick::runtime {

// §6.4 / Figure 7 scheduling policies.
enum class SchedulingPolicy {
  kCooperative,     // yield after a fixed timeslice (FLICK's policy)
  kNonCooperative,  // run until the task has no more work
  kRoundRobin,      // yield after every data item
};

class TaskContext {
 public:
  TaskContext(SchedulingPolicy policy, uint64_t timeslice_ns, int worker_index)
      : policy_(policy), timeslice_ns_(timeslice_ns), worker_index_(worker_index) {}

  // Called by the scheduler immediately before Task::Run.
  void BeginSlice() {
    slice_start_ns_ = MonotonicNanos();
    items_ = 0;
    clock_checks_ = 0;
  }

  // Tasks call this after finishing each data item.
  void ItemDone() { ++items_; }

  // True when the task must return control to the scheduler. Under the
  // cooperative policy the clock is only consulted every few calls: a clock
  // read per data item would dominate small-item workloads.
  bool ShouldYield() {
    switch (policy_) {
      case SchedulingPolicy::kCooperative:
        if (++clock_checks_ < kClockCheckStride) {
          return false;
        }
        clock_checks_ = 0;
        return MonotonicNanos() - slice_start_ns_ >= timeslice_ns_;
      case SchedulingPolicy::kNonCooperative:
        return false;
      case SchedulingPolicy::kRoundRobin:
        return items_ >= 1;
    }
    return false;
  }

  SchedulingPolicy policy() const { return policy_; }
  int worker_index() const { return worker_index_; }
  uint64_t timeslice_ns() const { return timeslice_ns_; }

 private:
  static constexpr uint64_t kClockCheckStride = 8;

  SchedulingPolicy policy_;
  uint64_t timeslice_ns_;
  int worker_index_;
  uint64_t slice_start_ns_ = 0;
  uint64_t items_ = 0;
  uint64_t clock_checks_ = 0;
};

enum class TaskRunResult { kIdle, kMoreWork };

class Scheduler;

// The scheduler worker the calling thread is. Each worker publishes its
// identity for its lifetime (ScopedWorkerIndex); every other thread —
// pollers, load generators, tests — reads index -1. Per-worker caches key on
// the index (MsgPool's magazines); the scheduler checks `owner` to tell its
// own workers from another scheduler's.
struct WorkerIdentity {
  const Scheduler* owner = nullptr;
  int index = -1;
};

inline thread_local WorkerIdentity t_current_worker;

inline int CurrentWorkerIndex() { return t_current_worker.index; }

// Publishes `index` as the calling thread's worker index until destroyed.
// Scheduler workers use it; a harness may use it to drive the per-worker
// paths from its own threads (per-worker caches stay correct when two
// threads share an index, only slower).
class ScopedWorkerIndex {
 public:
  explicit ScopedWorkerIndex(int index, const Scheduler* owner = nullptr)
      : saved_(t_current_worker) {
    t_current_worker = WorkerIdentity{owner, index};
  }
  ~ScopedWorkerIndex() { t_current_worker = saved_; }

  ScopedWorkerIndex(const ScopedWorkerIndex&) = delete;
  ScopedWorkerIndex& operator=(const ScopedWorkerIndex&) = delete;

 private:
  const WorkerIdentity saved_;
};

// Bumps a counter that only its task's Run writes. The scheduler never runs
// one task on two workers at once and orders one run before the next, so a
// relaxed load and store does what a fetch_add would without its locked
// read-modify-write per message. Off-thread readers keep relaxed loads.
inline void BumpOwned(std::atomic<uint64_t>& counter) {
  counter.store(counter.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

class Task {
 public:
  explicit Task(std::string name)
      : id_(next_id_.fetch_add(1, std::memory_order_relaxed)), name_(std::move(name)) {}
  virtual ~Task() = default;

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  virtual TaskRunResult Run(TaskContext& ctx) = 0;

  uint64_t id() const { return id_; }
  const std::string& name() const { return name_; }

  // --- scheduler-owned state -------------------------------------------------
  // Lifecycle: kIdle -> (NotifyRunnable) -> kQueued -> (worker pops) ->
  // kRunning -> back to kIdle or kQueued. A notification that lands while
  // running sets kRunningNotified so the worker requeues after Run returns —
  // this is what makes channel-push wakeups race-free.
  enum class SchedState : uint8_t { kIdle, kQueued, kRunning, kRunningNotified };

  std::atomic<SchedState> sched_state{SchedState::kIdle};
  IntrusiveListNode queue_node;  // guarded by the owning worker queue's lock

  // Queue-affinity key. Tasks of one graph share a key so they land on the
  // same worker queue (§5: rescheduling to the same queue reduces cache
  // misses; it also makes producer->consumer hand-off a queue-local pop
  // instead of a cross-core wakeup). 0 = use the task's own id.
  uint64_t affinity_key = 0;

  // IO-shard pinning (share-nothing compute plane). >= 0 routes the task to
  // the worker GROUP serving shard `shard_affinity % groups` (see
  // SchedulerConfig::shard_groups): the task runs only on that group's
  // workers, so compute stays on the cores whose caches hold the shard's
  // buffers. -1 = unpinned; the task hashes across the whole worker pool and
  // any group may steal it. GraphBuilder stamps launched graphs with the
  // accepting shard; BackendPool stamps each wire task with its stripe.
  int shard_affinity = -1;

  // Aggregate runtime stats (relaxed; read for tests/benches).
  std::atomic<uint64_t> run_count{0};
  std::atomic<uint64_t> run_ns{0};

 private:
  static inline std::atomic<uint64_t> next_id_{1};

  const uint64_t id_;
  const std::string name_;
};

}  // namespace flick::runtime

#endif  // FLICK_RUNTIME_TASK_H_
