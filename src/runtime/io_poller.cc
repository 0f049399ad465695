#include "runtime/io_poller.h"

#include <pthread.h>

#include <algorithm>
#include <chrono>

#include "base/time_util.h"

namespace flick::runtime {

IoPoller::IoPoller(Scheduler* scheduler, uint64_t sweep_interval_ns,
                   uint64_t idle_sleep_cap_ns)
    : scheduler_(scheduler),
      sweep_interval_ns_(sweep_interval_ns == 0 ? 1 : sweep_interval_ns),
      idle_sleep_cap_ns_(std::max(idle_sleep_cap_ns, sweep_interval_ns_)),
      wheel_(MonotonicNanos()) {}

IoPoller::~IoPoller() { Stop(); }

void IoPoller::Start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) {
    return;
  }
  thread_ = std::thread([this] { Loop(); });
}

void IoPoller::Stop() {
  bool expected = true;
  if (!running_.compare_exchange_strong(expected, false)) {
    return;
  }
  if (thread_.joinable()) {
    thread_.join();
  }
}

void IoPoller::AddListener(Listener* listener, AcceptFn on_accept) {
  std::lock_guard<std::mutex> lock(mutex_);
  listeners_.push_back(ListenerEntry{listener, std::move(on_accept)});
}

void IoPoller::RemoveListener(Listener* listener) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::erase_if(listeners_, [&](const ListenerEntry& e) { return e.listener == listener; });
}

void IoPoller::WatchConnection(Connection* conn, Task* task) {
  // Prefer the transport's edge hook (sim fabric): the writer notifies the
  // task directly and this connection costs the sweep NOTHING while idle —
  // the property the idle-conn bench gates. The install itself delivers a
  // catch-up notification if bytes already wait. Pure-polling transports
  // decline and join the per-sweep ReadReady() scan.
  const bool hooked = conn->SetReadReadyHook(
      [scheduler = scheduler_, task] { scheduler->NotifyRunnable(task); });
  std::lock_guard<std::mutex> lock(mutex_);
  watches_.push_back(Watch{conn, task, hooked});
}

void IoPoller::UnwatchConnection(Connection* conn) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::erase_if(watches_, [&](const Watch& w) {
    if (w.conn != conn) {
      return false;
    }
    if (w.hooked) {
      // Blocks until no hook invocation is in flight: after this, nothing
      // can touch the task, so the graph may be destroyed.
      conn->SetReadReadyHook(nullptr);
    }
    return true;
  });
}

void IoPoller::AddSweepPoll(std::function<bool()> check, uint64_t fallback_min_ns,
                            uint64_t fallback_max_ns) {
  std::lock_guard<std::mutex> lock(sweep_poll_mutex_);
  sweep_poll_inbox_.push_back(
      SweepPoll{std::move(check), fallback_min_ns, fallback_max_ns});
}

bool IoPoller::RunSweepPolls() {
  {
    std::lock_guard<std::mutex> lock(sweep_poll_mutex_);
    for (SweepPoll& poll : sweep_poll_inbox_) {
      sweep_polls_.push_back(std::move(poll));
    }
    sweep_poll_inbox_.clear();
  }
  // Checks run outside the lock: they may re-enter the poller (unwatch).
  bool finished = false;
  for (size_t i = 0; i < sweep_polls_.size();) {
    SweepPoll& poll = sweep_polls_[i];
    if (poll.check()) {
      finished = true;
    } else if (++poll.attempts == kSweepPollAttempts) {
      wheel_.AddBackoffPoll(poll.fallback_min_ns, poll.fallback_max_ns,
                            std::move(poll.check));
    } else {
      ++i;
      continue;
    }
    if (i + 1 != sweep_polls_.size()) {
      poll = std::move(sweep_polls_.back());
    }
    sweep_polls_.pop_back();
  }
  return finished;
}

void IoPoller::Loop() {
  pthread_setname_np(pthread_self(), "flick-poller");
  // Consecutive idle sweeps; resets to zero the moment a sweep does work.
  uint64_t idle_streak = 0;
  while (running_.load(std::memory_order_acquire)) {
    const uint64_t sweep_start = MonotonicNanos();
    bool did_work = false;

    // Fire every deadline the clock has crossed since the last sweep.
    if (wheel_.Advance(sweep_start) > 0) {
      did_work = true;
    }

    // Accept pending connections. The callback may mutate the registries
    // (WatchConnection etc.), so collect outside the lock.
    std::vector<std::pair<AcceptFn*, std::unique_ptr<Connection>>> accepted;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (ListenerEntry& entry : listeners_) {
        // Drain up to a batch per sweep per listener to bound hold time.
        for (int i = 0; i < 64; ++i) {
          auto conn = entry.listener->Accept();
          if (conn == nullptr) {
            break;
          }
          accepted.emplace_back(&entry.on_accept, std::move(conn));
        }
      }
    }
    for (auto& [fn, conn] : accepted) {
      (*fn)(std::move(conn));
      did_work = true;
    }

    // Readiness notifications for hook-less (pure-polling) transports only;
    // hooked connections are notified by the writer at the write itself.
    // Tasks are only poked when idle; a queued or running task will see the
    // data itself.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (const Watch& w : watches_) {
        if (w.hooked) {
          continue;
        }
        if (w.conn->ReadReady() &&
            w.task->sched_state.load(std::memory_order_acquire) ==
                Task::SchedState::kIdle) {
          scheduler_->NotifyRunnable(w.task);
          did_work = true;
        }
      }
    }

    if (RunSweepPolls()) {
      did_work = true;
    }

    sweeps_.fetch_add(1, std::memory_order_relaxed);
    busy_ns_.fetch_add(MonotonicNanos() - sweep_start, std::memory_order_relaxed);
    if (did_work) {
      idle_streak = 0;
      continue;
    }
    sweeps_idle_.fetch_add(1, std::memory_order_relaxed);

    // Adaptive idle sleep: double from the base interval per consecutive idle
    // sweep up to the cap, but never past the wheel's next deadline — an
    // all-idle shard with 100k armed keep-alive timers wakes at the cap's
    // cadence, not every 5µs, and still fires each timer within a tick.
    uint64_t sleep_ns = sweep_interval_ns_ << std::min<uint64_t>(idle_streak, 20);
    sleep_ns = std::min(sleep_ns, idle_sleep_cap_ns_);
    const uint64_t next_deadline = wheel_.NextDeadlineNs();
    if (next_deadline != TimerWheel::kNoDeadline) {
      const uint64_t now = MonotonicNanos();
      sleep_ns = std::min(
          sleep_ns, next_deadline > now ? next_deadline - now : uint64_t{1});
    }
    ++idle_streak;
    std::this_thread::sleep_for(std::chrono::nanoseconds(sleep_ns));
  }
}

}  // namespace flick::runtime
