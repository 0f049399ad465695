// Cooperative task scheduler (§5).
//
//   * fixed worker pool, one FIFO run queue per worker, threads pinned to
//     cores (best effort);
//   * task -> queue affinity by hash of the task id ("when a task is to be
//     scheduled, it is always added to the same queue to reduce cache
//     misses");
//   * idle workers scavenge work from sibling queues, then sleep until
//     notified;
//   * the policy (cooperative / non-cooperative / round-robin, §6.4) decides
//     when TaskContext::ShouldYield() fires inside Task::Run.
//
// Share-nothing shard groups: with shard_groups > 1 the workers are
// partitioned into per-IO-shard groups. A shard-pinned task
// (Task::shard_affinity >= 0) lives entirely inside its home group — queued
// there, run there, stolen only by that group's workers — so a graph
// accepted on shard k keeps its compute on the cores whose caches hold
// shard k's buffers (the Seastar/mTCP endgame of the sharded IO plane).
// Stealing is ordered shard-local-first: an idle worker scavenges its own
// group's queues before looking outside, and a cross-group steal takes only
// UNPINNED tasks (counted in SchedulerStats::cross_shard_steals) — pinned
// work never migrates, which is what makes cross_shard_steals == 0
// assertable in steady state.
#ifndef FLICK_RUNTIME_SCHEDULER_H_
#define FLICK_RUNTIME_SCHEDULER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "base/intrusive_list.h"
#include "concurrency/notifier.h"
#include "runtime/task.h"

namespace flick::runtime {

struct SchedulerConfig {
  int num_workers = 2;
  SchedulingPolicy policy = SchedulingPolicy::kCooperative;
  uint64_t timeslice_ns = 50'000;  // 50us, middle of the paper's 10-100us band
  bool pin_threads = true;
  uint64_t idle_sleep_ns = 100'000;  // sleep bound while queues are empty

  // Worker groups for shard-pinned tasks. 0 or 1 = one group spanning every
  // worker (the pre-sharding shape; shard_affinity is then ignored). The
  // Platform derives this from PlatformConfig::io_shards when left 0, so a
  // sharded IO plane gets a matching compute plane by default. Clamped to
  // num_workers; workers are split as evenly as possible (leading groups get
  // the remainder), and shard s maps to group s % groups.
  size_t shard_groups = 0;
};

struct SchedulerStats {
  uint64_t tasks_run = 0;
  uint64_t steals = 0;
  uint64_t notifications = 0;
  // Steals that crossed a shard-group boundary (always unpinned tasks —
  // pinned work never migrates). Nonzero in steady state means unpinned work
  // is landing on saturated groups: a placement or sizing bug.
  uint64_t cross_shard_steals = 0;
  // Tasks still queued when Stop() tore the workers down. Each was drained
  // (popped, reset to kIdle) instead of silently vanishing; nonzero at the
  // end of an orderly drain points at a teardown-ordering bug upstream.
  uint64_t tasks_dropped_at_stop = 0;
};

class Scheduler {
 public:
  explicit Scheduler(SchedulerConfig config);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  void Start();
  // Joins the workers, then DRAINS every queue: leftover entries are popped,
  // reset to kIdle (so Quiesce cannot hang on them) and counted in
  // stats().tasks_dropped_at_stop instead of silently vanishing.
  void Stop();

  // Marks `task` runnable. Safe from any thread, including from inside
  // Task::Run. The task must outlive the scheduler or be quiesced first
  // (see Quiesce).
  void NotifyRunnable(Task* task);

  // Blocks until `task` is neither queued nor running. Callers must ensure no
  // further notifications for the task arrive; used when retiring graphs.
  void Quiesce(Task* task);

  const SchedulerConfig& config() const { return config_; }
  SchedulerStats stats() const;
  int num_workers() const { return config_.num_workers; }

  // Resolved group count (config clamped to num_workers; >= 1).
  size_t shard_groups() const { return group_begin_.size(); }
  // Worker-index range [begin, end) of the group serving `shard`.
  int group_begin(size_t shard) const;
  int group_end(size_t shard) const;

 private:
  struct Worker {
    std::mutex mutex;
    IntrusiveList<Task, &Task::queue_node> queue;
    Notifier notifier;
    std::thread thread;
    int group = 0;  // immutable after construction
    // Relaxed atomics: bumped by the owning worker thread, summed by
    // stats() from any thread while workers are still running. Kept off the
    // cacheline of `mutex`, which every enqueuing thread writes.
    alignas(64) std::atomic<uint64_t> tasks_run{0};
    std::atomic<uint64_t> steals{0};
    std::atomic<uint64_t> cross_shard_steals{0};
    // NotifyRunnable calls made on this worker's thread.
    std::atomic<uint64_t> notifications{0};
  };

  void WorkerLoop(int index);
  Task* PopLocal(Worker& w);
  Task* Steal(int thief_index);
  int HomeQueue(const Task* task) const;
  void Enqueue(Task* task);

  SchedulerConfig config_;
  std::vector<std::unique_ptr<Worker>> workers_;
  // First worker index of each group; group g ends where group g+1 begins
  // (the last group ends at num_workers). size() == resolved group count.
  std::vector<int> group_begin_;
  std::atomic<bool> running_{false};
  // NotifyRunnable calls from threads that are not this scheduler's workers
  // (pollers, timers, tests); worker calls count in Worker::notifications.
  std::atomic<uint64_t> foreign_notifications_{0};
  std::atomic<uint64_t> tasks_dropped_at_stop_{0};
};

}  // namespace flick::runtime

#endif  // FLICK_RUNTIME_SCHEDULER_H_
