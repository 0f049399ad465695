// Scheduler shard-group tests: pinned tasks never leave their home worker
// group, stealing is shard-local-first with cross-group steals taking only
// unpinned work (counted), group layout clamps/splits correctly, and Stop
// drains leftover queue entries instead of dropping them silently.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "base/hash.h"
#include "runtime/scheduler.h"

namespace flick::runtime {
namespace {

using namespace std::chrono_literals;

// Records every worker index it ran on; optionally requeues itself a fixed
// number of times so one task samples several scheduling decisions.
class RecordingTask : public Task {
 public:
  RecordingTask(std::string name, int reruns = 0)
      : Task(std::move(name)), reruns_left_(reruns) {}

  TaskRunResult Run(TaskContext& ctx) override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      workers_seen_.push_back(ctx.worker_index());
    }
    runs_.fetch_add(1, std::memory_order_relaxed);
    if (reruns_left_.fetch_sub(1, std::memory_order_relaxed) > 0) {
      return TaskRunResult::kMoreWork;
    }
    return TaskRunResult::kIdle;
  }

  std::vector<int> workers_seen() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return workers_seen_;
  }
  uint64_t runs() const { return runs_.load(std::memory_order_relaxed); }

 private:
  mutable std::mutex mutex_;
  std::vector<int> workers_seen_;
  std::atomic<uint64_t> runs_{0};
  std::atomic<int> reruns_left_;
};

// Occupies its worker until released; used to force queue build-up behind a
// busy worker.
class BlockerTask : public Task {
 public:
  explicit BlockerTask(std::string name) : Task(std::move(name)) {}

  TaskRunResult Run(TaskContext&) override {
    entered_.store(true, std::memory_order_release);
    while (!released_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(100us);
    }
    return TaskRunResult::kIdle;
  }

  bool entered() const { return entered_.load(std::memory_order_acquire); }
  void Release() { released_.store(true, std::memory_order_release); }

 private:
  std::atomic<bool> entered_{false};
  std::atomic<bool> released_{false};
};

template <typename Cond>
bool WaitFor(Cond cond, std::chrono::milliseconds timeout = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) {
      return true;
    }
    std::this_thread::sleep_for(200us);
  }
  return cond();
}

SchedulerConfig Config(int workers, size_t groups) {
  SchedulerConfig config;
  config.num_workers = workers;
  config.shard_groups = groups;
  config.pin_threads = false;
  return config;
}

TEST(SchedulerGroups, LayoutClampsAndSplitsEvenly) {
  {
    // 5 workers, 2 groups: leading group takes the remainder -> [0,3) [3,5).
    Scheduler s(Config(5, 2));
    EXPECT_EQ(s.shard_groups(), 2u);
    EXPECT_EQ(s.group_begin(0), 0);
    EXPECT_EQ(s.group_end(0), 3);
    EXPECT_EQ(s.group_begin(1), 3);
    EXPECT_EQ(s.group_end(1), 5);
    // Shards beyond the group count wrap.
    EXPECT_EQ(s.group_begin(2), 0);
    EXPECT_EQ(s.group_begin(3), 3);
  }
  {
    // More groups than workers: clamped so every group owns >= 1 worker.
    Scheduler s(Config(3, 8));
    EXPECT_EQ(s.shard_groups(), 3u);
    for (size_t g = 0; g < 3; ++g) {
      EXPECT_EQ(s.group_end(g) - s.group_begin(g), 1);
    }
  }
  {
    // 0 (and 1) groups = the pre-sharding single-group shape.
    Scheduler s(Config(4, 0));
    EXPECT_EQ(s.shard_groups(), 1u);
    EXPECT_EQ(s.group_begin(0), 0);
    EXPECT_EQ(s.group_end(0), 4);
  }
}

TEST(SchedulerGroups, PinnedTasksNeverRunOffGroup) {
  Scheduler sched(Config(4, 2));
  sched.Start();

  // Many multi-run pinned tasks per shard: every observed placement — home
  // queue or steal — must stay inside the task's home group even while both
  // groups are saturated.
  std::vector<std::unique_ptr<RecordingTask>> tasks;
  for (int shard = 0; shard < 2; ++shard) {
    for (int i = 0; i < 16; ++i) {
      auto task = std::make_unique<RecordingTask>(
          "pinned-" + std::to_string(shard) + "-" + std::to_string(i),
          /*reruns=*/8);
      task->shard_affinity = shard;
      tasks.push_back(std::move(task));
    }
  }
  for (auto& task : tasks) {
    sched.NotifyRunnable(task.get());
  }
  ASSERT_TRUE(WaitFor([&] {
    for (auto& task : tasks) {
      if (task->runs() < 9) {
        return false;
      }
    }
    return true;
  }));
  for (auto& task : tasks) {
    sched.Quiesce(task.get());
  }

  for (auto& task : tasks) {
    const auto shard = static_cast<size_t>(task->shard_affinity);
    const int begin = sched.group_begin(shard);
    const int end = sched.group_end(shard);
    for (int w : task->workers_seen()) {
      EXPECT_GE(w, begin) << task->name();
      EXPECT_LT(w, end) << task->name();
    }
  }
  // Pinned-only load: no steal may have crossed a group boundary.
  EXPECT_EQ(sched.stats().cross_shard_steals, 0u);
  sched.Stop();
}

TEST(SchedulerGroups, CrossGroupStealTakesOnlyUnpinnedWork) {
  // Two workers, two single-worker groups. Worker 0 is occupied by a pinned
  // blocker while pinned and unpinned tasks queue behind it; the only idle
  // worker (group 1) may relieve the backlog of UNPINNED tasks only.
  Scheduler sched(Config(2, 2));
  sched.Start();

  BlockerTask blocker("blocker");
  blocker.shard_affinity = 0;  // group 0 == worker 0
  sched.NotifyRunnable(&blocker);
  ASSERT_TRUE(WaitFor([&] { return blocker.entered(); }));

  // Unpinned tasks whose affinity hashes them onto busy worker 0.
  std::vector<std::unique_ptr<RecordingTask>> unpinned;
  for (uint64_t key = 1; unpinned.size() < 8; ++key) {
    if (MixU64(key) % 2 != 0) {
      continue;
    }
    auto task = std::make_unique<RecordingTask>("unpinned-" +
                                                std::to_string(unpinned.size()));
    task->affinity_key = key;
    unpinned.push_back(std::move(task));
  }
  // Pinned backlog on the same worker: must WAIT for the blocker, not
  // migrate to the idle group.
  std::vector<std::unique_ptr<RecordingTask>> pinned;
  for (int i = 0; i < 4; ++i) {
    auto task = std::make_unique<RecordingTask>("pinned-" + std::to_string(i));
    task->shard_affinity = 0;
    pinned.push_back(std::move(task));
  }
  for (auto& task : pinned) {
    sched.NotifyRunnable(task.get());
  }
  for (auto& task : unpinned) {
    sched.NotifyRunnable(task.get());
  }

  // Worker 1 drains every unpinned task while worker 0 is still blocked.
  ASSERT_TRUE(WaitFor([&] {
    for (auto& task : unpinned) {
      if (task->runs() == 0) {
        return false;
      }
    }
    return true;
  }));
  for (auto& task : unpinned) {
    for (int w : task->workers_seen()) {
      EXPECT_EQ(w, 1) << task->name();
    }
  }
  // The pinned backlog has not moved: worker 0 never ran it (blocked) and
  // worker 1 must not have taken it.
  for (auto& task : pinned) {
    EXPECT_EQ(task->runs(), 0u) << task->name();
  }
  EXPECT_GE(sched.stats().cross_shard_steals, static_cast<uint64_t>(unpinned.size()));

  blocker.Release();
  ASSERT_TRUE(WaitFor([&] {
    for (auto& task : pinned) {
      if (task->runs() == 0) {
        return false;
      }
    }
    return true;
  }));
  for (auto& task : pinned) {
    sched.Quiesce(task.get());
    for (int w : task->workers_seen()) {
      EXPECT_EQ(w, 0) << task->name();
    }
  }
  sched.Quiesce(&blocker);
  for (auto& task : unpinned) {
    sched.Quiesce(task.get());
  }
  sched.Stop();
}

TEST(SchedulerGroups, StealPrefersOwnGroupBeforeCrossing) {
  // 4 workers, 2 groups. Group 0's two workers share a pinned backlog: the
  // idle group-0 worker must relieve its sibling (shard-local steal), so the
  // whole backlog completes inside group 0 with zero cross-group steals even
  // though group 1 is idle and hungry.
  Scheduler sched(Config(4, 2));
  sched.Start();

  std::vector<std::unique_ptr<RecordingTask>> tasks;
  for (int i = 0; i < 32; ++i) {
    auto task = std::make_unique<RecordingTask>(std::string("t").append(std::to_string(i)),
                                                /*reruns=*/4);
    task->shard_affinity = 0;
    tasks.push_back(std::move(task));
  }
  for (auto& task : tasks) {
    sched.NotifyRunnable(task.get());
  }
  ASSERT_TRUE(WaitFor([&] {
    for (auto& task : tasks) {
      if (task->runs() < 5) {
        return false;
      }
    }
    return true;
  }));
  for (auto& task : tasks) {
    sched.Quiesce(task.get());
  }

  std::set<int> seen;
  for (auto& task : tasks) {
    for (int w : task->workers_seen()) {
      seen.insert(w);
    }
  }
  for (int w : seen) {
    EXPECT_GE(w, sched.group_begin(0));
    EXPECT_LT(w, sched.group_end(0));
  }
  EXPECT_EQ(sched.stats().cross_shard_steals, 0u);
  sched.Stop();
}

TEST(SchedulerStop, DrainsQueuedTasksAndCountsThem) {
  SchedulerConfig config = Config(1, 1);
  Scheduler sched(config);
  sched.Start();

  BlockerTask blocker("blocker");
  sched.NotifyRunnable(&blocker);
  ASSERT_TRUE(WaitFor([&] { return blocker.entered(); }));

  // Queue a backlog behind the (only) busy worker, then stop. The worker
  // exits after the blocker returns; the backlog must be drained and counted,
  // and every drained task reset to kIdle so Quiesce cannot hang.
  std::vector<std::unique_ptr<RecordingTask>> backlog;
  for (int i = 0; i < 6; ++i) {
    backlog.push_back(
        std::make_unique<RecordingTask>(std::string("q").append(std::to_string(i))));
    sched.NotifyRunnable(backlog.back().get());
  }

  std::thread stopper([&] { sched.Stop(); });
  std::this_thread::sleep_for(20ms);  // let Stop clear running_ first
  blocker.Release();
  stopper.join();

  uint64_t ran = 0;
  for (auto& task : backlog) {
    ran += task->runs();
    sched.Quiesce(task.get());  // must return immediately after the drain
    EXPECT_EQ(task->sched_state.load(), Task::SchedState::kIdle);
  }
  const SchedulerStats stats = sched.stats();
  EXPECT_EQ(ran + stats.tasks_dropped_at_stop, backlog.size());
  EXPECT_GT(stats.tasks_dropped_at_stop, 0u);
}

}  // namespace
}  // namespace flick::runtime
