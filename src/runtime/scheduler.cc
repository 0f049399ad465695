#include "runtime/scheduler.h"

#include <pthread.h>
#include <sched.h>

#include <chrono>

#include "base/hash.h"
#include "base/logging.h"

namespace flick::runtime {

Scheduler::Scheduler(SchedulerConfig config) : config_(config) {
  FLICK_CHECK(config_.num_workers > 0);
  const size_t n = static_cast<size_t>(config_.num_workers);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }

  // Group layout: clamp to [1, num_workers] so every group owns at least one
  // worker (a zero-width group would strand its pinned tasks forever), split
  // as evenly as possible with the leading groups taking the remainder.
  size_t groups = config_.shard_groups == 0 ? 1 : config_.shard_groups;
  if (groups > n) {
    groups = n;
  }
  group_begin_.reserve(groups);
  const size_t base = n / groups;
  const size_t rem = n % groups;
  size_t begin = 0;
  for (size_t g = 0; g < groups; ++g) {
    group_begin_.push_back(static_cast<int>(begin));
    begin += base + (g < rem ? 1 : 0);
  }
  for (size_t g = 0; g < groups; ++g) {
    const int end =
        g + 1 < groups ? group_begin_[g + 1] : config_.num_workers;
    for (int w = group_begin_[g]; w < end; ++w) {
      workers_[static_cast<size_t>(w)]->group = static_cast<int>(g);
    }
  }
}

Scheduler::~Scheduler() { Stop(); }

void Scheduler::Start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) {
    return;
  }
  for (int i = 0; i < config_.num_workers; ++i) {
    workers_[static_cast<size_t>(i)]->thread = std::thread([this, i] { WorkerLoop(i); });
    if (config_.pin_threads) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(static_cast<size_t>(i) % std::thread::hardware_concurrency(), &set);
      // Best effort; pinning failures (e.g. restricted cpusets) are benign.
      pthread_setaffinity_np(workers_[static_cast<size_t>(i)]->thread.native_handle(),
                             sizeof(set), &set);
    }
  }
}

void Scheduler::Stop() {
  bool expected = true;
  if (!running_.compare_exchange_strong(expected, false)) {
    return;
  }
  for (auto& w : workers_) {
    w->notifier.Notify();
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) {
      w->thread.join();
    }
  }
  // Workers are gone: drain leftovers so retirement paths (Quiesce) cannot
  // hang on a task parked in kQueued forever, and count them instead of
  // letting the drop pass silently.
  for (auto& w : workers_) {
    std::lock_guard<std::mutex> lock(w->mutex);
    while (Task* task = w->queue.PopFront()) {
      task->sched_state.store(Task::SchedState::kIdle, std::memory_order_release);
      tasks_dropped_at_stop_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

int Scheduler::group_begin(size_t shard) const {
  return group_begin_[shard % group_begin_.size()];
}

int Scheduler::group_end(size_t shard) const {
  const size_t g = shard % group_begin_.size();
  return g + 1 < group_begin_.size() ? group_begin_[g + 1] : config_.num_workers;
}

int Scheduler::HomeQueue(const Task* task) const {
  const uint64_t key = task->affinity_key != 0 ? task->affinity_key : task->id();
  if (task->shard_affinity >= 0 && group_begin_.size() > 1) {
    // Pinned: hash within the home group's worker range only.
    const auto shard = static_cast<size_t>(task->shard_affinity);
    const int begin = group_begin(shard);
    const int size = group_end(shard) - begin;
    return begin + static_cast<int>(MixU64(key) % static_cast<uint64_t>(size));
  }
  return static_cast<int>(MixU64(key) % static_cast<uint64_t>(config_.num_workers));
}

void Scheduler::Enqueue(Task* task) {
  Worker& w = *workers_[static_cast<size_t>(HomeQueue(task))];
  {
    std::lock_guard<std::mutex> lock(w.mutex);
    w.queue.PushBack(task);
  }
  w.notifier.Notify();
}

void Scheduler::NotifyRunnable(Task* task) {
  // Count on the calling worker's own cacheline: one process-wide counter
  // bounced between every core that hands a message downstream.
  const WorkerIdentity& caller = t_current_worker;
  if (caller.owner == this) {
    workers_[static_cast<size_t>(caller.index)]->notifications.fetch_add(
        1, std::memory_order_relaxed);
  } else {
    foreign_notifications_.fetch_add(1, std::memory_order_relaxed);
  }
  auto state = task->sched_state.load(std::memory_order_acquire);
  while (true) {
    switch (state) {
      case Task::SchedState::kIdle:
        if (task->sched_state.compare_exchange_weak(state, Task::SchedState::kQueued,
                                                    std::memory_order_acq_rel)) {
          Enqueue(task);
          return;
        }
        break;  // state reloaded; retry
      case Task::SchedState::kRunning:
        if (task->sched_state.compare_exchange_weak(state, Task::SchedState::kRunningNotified,
                                                    std::memory_order_acq_rel)) {
          return;  // the running worker will requeue on return
        }
        break;
      case Task::SchedState::kQueued:
      case Task::SchedState::kRunningNotified:
        return;  // already pending
      default:
        // Out-of-range state: the task memory is not a live Task (freed or
        // corrupted). Crash loudly — spinning here turns a lifecycle bug
        // into a silent 100%-CPU hang.
        FLICK_CHECK(false && "NotifyRunnable: corrupt sched_state");
    }
  }
}

void Scheduler::Quiesce(Task* task) {
  while (task->sched_state.load(std::memory_order_acquire) != Task::SchedState::kIdle) {
    std::this_thread::yield();
  }
}

Task* Scheduler::PopLocal(Worker& w) {
  std::lock_guard<std::mutex> lock(w.mutex);
  return w.queue.PopFront();
}

Task* Scheduler::Steal(int thief_index) {
  // Shard-local first: scan the thief's own group round-robin starting after
  // the thief (§5: "the worker attempts to scavenge work from other queues").
  // Any task may move inside its group — pinning constrains the group, not
  // the worker.
  Worker& self = *workers_[static_cast<size_t>(thief_index)];
  const int gbegin = group_begin(static_cast<size_t>(self.group));
  const int gsize = group_end(static_cast<size_t>(self.group)) - gbegin;
  for (int d = 1; d < gsize; ++d) {
    const int v = gbegin + (thief_index - gbegin + d) % gsize;
    Worker& victim = *workers_[static_cast<size_t>(v)];
    std::lock_guard<std::mutex> lock(victim.mutex);
    Task* task = victim.queue.PopFront();
    if (task != nullptr) {
      return task;
    }
  }
  if (group_begin_.size() == 1) {
    return nullptr;  // single group: the scan above covered every sibling
  }
  // Cross-group: take only UNPINNED tasks. Pinned work never leaves its home
  // group, which is what keeps cross_shard_steals == 0 assertable when every
  // task is pinned (the sharded benches).
  const int n = config_.num_workers;
  for (int d = 1; d < n; ++d) {
    const int v = (thief_index + d) % n;
    Worker& victim = *workers_[static_cast<size_t>(v)];
    if (victim.group == self.group) {
      continue;
    }
    std::lock_guard<std::mutex> lock(victim.mutex);
    for (Task* task = victim.queue.Front(); task != nullptr;
         task = victim.queue.Next(task)) {
      if (task->shard_affinity < 0) {
        victim.queue.Remove(task);
        self.cross_shard_steals.fetch_add(1, std::memory_order_relaxed);
        return task;
      }
    }
  }
  return nullptr;
}

void Scheduler::WorkerLoop(int index) {
  pthread_setname_np(pthread_self(),
                     ("flick-wrk-" + std::to_string(index)).c_str());
  Worker& self = *workers_[static_cast<size_t>(index)];
  TaskContext ctx(config_.policy, config_.timeslice_ns, index);
  const ScopedWorkerIndex identity(index, this);

  while (running_.load(std::memory_order_acquire)) {
    Task* task = PopLocal(self);
    if (task == nullptr) {
      task = Steal(index);
      if (task != nullptr) {
        self.steals.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (task == nullptr) {
      const uint64_t token = self.notifier.PrepareWait();
      // Re-check after arming the waiter to avoid a lost wakeup.
      {
        std::lock_guard<std::mutex> lock(self.mutex);
        if (!self.queue.empty()) {
          continue;
        }
      }
      if (!running_.load(std::memory_order_acquire)) {
        break;
      }
      self.notifier.Wait(token, std::chrono::nanoseconds(config_.idle_sleep_ns));
      continue;
    }

    task->sched_state.store(Task::SchedState::kRunning, std::memory_order_release);
    ctx.BeginSlice();
    const uint64_t t0 = MonotonicNanos();
    const TaskRunResult result = task->Run(ctx);
    task->run_ns.fetch_add(MonotonicNanos() - t0, std::memory_order_relaxed);
    task->run_count.fetch_add(1, std::memory_order_relaxed);
    self.tasks_run.fetch_add(1, std::memory_order_relaxed);

    auto state = Task::SchedState::kRunning;
    if (result == TaskRunResult::kMoreWork) {
      task->sched_state.store(Task::SchedState::kQueued, std::memory_order_release);
      Enqueue(task);
    } else if (!task->sched_state.compare_exchange_strong(state, Task::SchedState::kIdle,
                                                          std::memory_order_acq_rel)) {
      // A notification arrived while running: requeue.
      task->sched_state.store(Task::SchedState::kQueued, std::memory_order_release);
      Enqueue(task);
    }
  }
}

SchedulerStats Scheduler::stats() const {
  SchedulerStats s;
  for (const auto& w : workers_) {
    s.tasks_run += w->tasks_run.load(std::memory_order_relaxed);
    s.steals += w->steals.load(std::memory_order_relaxed);
    s.cross_shard_steals += w->cross_shard_steals.load(std::memory_order_relaxed);
    s.notifications += w->notifications.load(std::memory_order_relaxed);
  }
  s.notifications += foreign_notifications_.load(std::memory_order_relaxed);
  s.tasks_dropped_at_stop = tasks_dropped_at_stop_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace flick::runtime
