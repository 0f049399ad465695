// IO readiness poller.
//
// Plays the role of the event layer under the platform: the application
// dispatcher's accept path for listening sockets (§5 (i)) and the epoll-like
// readiness notification for connection-bound tasks ("input tasks use
// non-blocking sockets and epoll event handlers"). The platform runs
// `io_shards` instances — each is ONE SHARD of the IO plane owning its own
// listeners, watches, timer wheel and admission ledger (see
// runtime/platform.h). One thread sweeps:
//   * listeners — accepted connections are handed to the registered callback
//     (the program's connection-binding logic);
//   * connections — a ReadReady()/WriteReady-equivalent transition notifies
//     the registered task via the scheduler;
//   * the shard's TimerWheel — Advance fires every deadline the clock
//     crossed (connection lifetimes, pool redial pacing, graph retirement);
//   * sweep polls — short-lived convergence checks (graph retirement) run
//     once per sweep for a few sweeps, then handed to the wheel.
//
// Sweep pacing is adaptive: a sweep that did work is followed immediately by
// the next one; consecutive idle sweeps back off exponentially from
// `sweep_interval_ns` toward `idle_sleep_cap_ns`, always bounded by the
// wheel's next deadline so a sleeping shard can never fire a timer late by
// more than the cap. `sweeps` vs `sweeps_idle` makes the duty cycle visible.
#ifndef FLICK_RUNTIME_IO_POLLER_H_
#define FLICK_RUNTIME_IO_POLLER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/transport.h"
#include "runtime/conn_lifetime.h"
#include "runtime/scheduler.h"
#include "runtime/timer_wheel.h"

namespace flick::runtime {

class IoPoller {
 public:
  using AcceptFn = std::function<void(std::unique_ptr<Connection>)>;

  explicit IoPoller(Scheduler* scheduler, uint64_t sweep_interval_ns = 5'000,
                    uint64_t idle_sleep_cap_ns = 200'000);
  ~IoPoller();

  IoPoller(const IoPoller&) = delete;
  IoPoller& operator=(const IoPoller&) = delete;

  void Start();
  void Stop();

  // Listener registration; `on_accept` runs on the poller thread.
  void AddListener(Listener* listener, AcceptFn on_accept);
  void RemoveListener(Listener* listener);

  // Notify `task` whenever `conn` becomes readable while the task is idle.
  void WatchConnection(Connection* conn, Task* task);
  void UnwatchConnection(Connection* conn);

  // This shard's time source. Arm/Cancel from any thread; Advance is driven
  // by the sweep loop. Valid for the poller's whole lifetime (before Start
  // and after Stop included) — owners may Cancel in their destructors.
  TimerWheel& wheel() { return wheel_; }

  // Sweeps a sweep poll gets before it moves to the wheel.
  static constexpr int kSweepPollAttempts = 8;

  // Runs `check` on the poller thread at each of the next
  // kSweepPollAttempts sweeps until it returns true; the first run is the
  // sweep after this call, not the next wheel tick. A check still false
  // after that becomes wheel().AddBackoffPoll(fallback_min_ns,
  // fallback_max_ns, check). Callable from any thread; `check` must be cheap
  // and non-blocking. Checks still queued when the poller is destroyed are
  // dropped unrun.
  void AddSweepPoll(std::function<bool()> check, uint64_t fallback_min_ns,
                    uint64_t fallback_max_ns);

  // This shard's admission ledger (cap set by the platform; TryAdmit on the
  // accept path, Release when an admitted connection is destroyed).
  ShardAdmission& admission() { return admission_; }

  uint64_t sweeps() const { return sweeps_.load(std::memory_order_relaxed); }
  // Sweeps that found nothing to do (no accept, no readiness edge, no timer).
  uint64_t sweeps_idle() const { return sweeps_idle_.load(std::memory_order_relaxed); }
  // Nanoseconds spent inside sweep work (sleeps excluded): the numerator of
  // the idle-conn bench's "what does an idle wire cost the poller" metric.
  uint64_t busy_ns() const { return busy_ns_.load(std::memory_order_relaxed); }
  size_t watch_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return watches_.size();
  }

 private:
  struct Watch {
    Connection* conn;
    Task* task;
    // Readiness arrives via the transport's edge hook; the sweep scan skips
    // this entry. False = pure-polling transport, scanned every sweep.
    bool hooked;
  };
  struct ListenerEntry {
    Listener* listener;
    AcceptFn on_accept;
  };
  struct SweepPoll {
    std::function<bool()> check;
    uint64_t fallback_min_ns;
    uint64_t fallback_max_ns;
    int attempts = 0;
  };

  void Loop();
  // One attempt for every sweep poll; true when at least one finished.
  bool RunSweepPolls();

  Scheduler* scheduler_;
  const uint64_t sweep_interval_ns_;
  const uint64_t idle_sleep_cap_ns_;
  TimerWheel wheel_;
  ShardAdmission admission_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> sweeps_{0};
  std::atomic<uint64_t> sweeps_idle_{0};
  std::atomic<uint64_t> busy_ns_{0};

  mutable std::mutex mutex_;
  std::vector<ListenerEntry> listeners_;
  std::vector<Watch> watches_;

  std::mutex sweep_poll_mutex_;
  std::vector<SweepPoll> sweep_poll_inbox_;  // AddSweepPoll -> next sweep
  std::vector<SweepPoll> sweep_polls_;       // poller thread only
};

}  // namespace flick::runtime

#endif  // FLICK_RUNTIME_IO_POLLER_H_
