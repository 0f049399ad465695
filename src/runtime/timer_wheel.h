// Hierarchical timer wheel: the runtime's ONE source of time.
//
// The IO plane had no notion of time beyond the poller's fixed sweep —
// reapers polled every sweep, redial pacing hid inside per-connection
// timestamps, and nothing could expire an idle wire or bound a stalled
// request. The wheel makes deadlines first-class: every IoPoller shard owns
// one TimerWheel, drives it from its sweep loop, and derives its idle sleep
// from the wheel's next deadline.
//
// Layout: kLevels levels of kSlotsPerLevel slots each. Level 0 slots are one
// tick (~1ms) wide; each higher level's slots are kSlotsPerLevel times wider,
// so four levels cover ~19 years of deadline at millisecond granularity.
// Arm/Cancel/Rearm are O(1): a TimerEntry is an intrusive doubly-linked node
// hashed to slot (deadline / slot_width) % kSlotsPerLevel of the first level
// whose horizon contains it. Advance walks the slots the clock crossed,
// firing level-0 entries and CASCADING higher-level entries down one level
// (counted in TimerStats::cascade_moves) — the classic hashed hierarchical
// design (Varghese & Lauck).
//
// Threading: Arm/Cancel/Rearm may be called from any thread (worker tasks
// arm their own deadlines); Advance runs on the owning poller thread.
// Callbacks fire OUTSIDE the wheel lock, on the poller thread, after the
// entry is unlinked — a callback may re-arm its own entry. Cancel only
// guarantees the callback will not fire for entries still pending; an entry
// being fired concurrently is the owner's race to close (the runtime's
// pattern: callbacks only set a flag and notify a task, never touch state
// the owner might be freeing).
#ifndef FLICK_RUNTIME_TIMER_WHEEL_H_
#define FLICK_RUNTIME_TIMER_WHEEL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "base/intrusive_list.h"

namespace flick::runtime {

// One pending deadline. Embed in the owning object (task, stripe, graph
// record); the owner must Cancel (or know the entry fired) before the entry
// is destroyed. POD-cheap when idle: an unlinked entry costs three pointers.
struct TimerEntry {
  IntrusiveListNode wheel_node;           // slot linkage (wheel lock only)
  uint64_t deadline_ns = 0;               // absolute, monotonic clock
  std::function<void()> on_fire;          // poller thread, outside the lock
  // Mirrors wheel_node.linked(); the wheel writes it under its lock whenever
  // it links or unlinks the entry. Owners ask pending() from their own
  // thread while the poller's Advance may be unlinking the entry, so the
  // answer must not come from the list pointers.
  std::atomic<bool> armed{false};

  bool pending() const { return armed.load(std::memory_order_acquire); }
};

// Monotonic wheel health counters (relaxed; read off-thread by stats/benches).
struct TimerStats {
  uint64_t armed = 0;
  uint64_t fired = 0;
  uint64_t cancelled = 0;
  uint64_t cascade_moves = 0;  // entries re-hashed down a level by Advance
};

class TimerWheel {
 public:
  static constexpr size_t kLevels = 4;
  static constexpr size_t kSlotsPerLevel = 256;
  // ~1.05ms; power of two so slot math is shifts, not divides.
  static constexpr uint64_t kDefaultTickNs = uint64_t{1} << 20;
  static constexpr uint64_t kNoDeadline = UINT64_MAX;

  // `now_ns` anchors the wheel clock (deadlines at or before it fire on the
  // first Advance).
  explicit TimerWheel(uint64_t now_ns, uint64_t tick_ns = kDefaultTickNs);
  ~TimerWheel();

  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  uint64_t tick_ns() const { return tick_ns_; }

  // Schedules `entry` to fire at `deadline_ns` (absolute). `entry->on_fire`
  // must already be set. Arming a pending entry is a CHECK failure — use
  // Rearm. A deadline in the past fires on the next Advance.
  void Arm(TimerEntry* entry, uint64_t deadline_ns);

  // Unschedules a pending entry. Returns false when the entry was not
  // pending (never armed, already fired, or firing right now on the poller
  // thread).
  bool Cancel(TimerEntry* entry);

  // Cancel + Arm under one lock (deadline moved forward on IO progress).
  void Rearm(TimerEntry* entry, uint64_t deadline_ns);

  // Fires every entry whose deadline lies at or before `now_ns`, cascading
  // higher levels as their slots are crossed. Runs on the owning poller
  // thread; callbacks run outside the lock. Returns the number fired.
  size_t Advance(uint64_t now_ns);

  // Earliest pending deadline, or kNoDeadline when the wheel is empty. The
  // answer is slot-granular above level 0 (an upper bound never LATER than
  // the true deadline is returned, so sleeping until it can never miss a
  // fire). Used by the poller's adaptive idle sleep.
  uint64_t NextDeadlineNs() const;

  size_t armed_count() const { return armed_count_.load(std::memory_order_relaxed); }
  TimerStats stats() const;

  // --- periodic timers -------------------------------------------------------
  // Self-owning repeating timer: `fn` runs on the poller thread every
  // `interval_ns` until it returns true (finished), after which the timer
  // destroys itself. This is the replacement for the old IoPoller reaper
  // list, with the cancellation handle reapers never had: CancelPeriodic
  // guarantees `fn` never runs again once it returns.
  uint64_t AddPeriodic(uint64_t interval_ns, std::function<bool()> fn);
  bool CancelPeriodic(uint64_t token);

  // AddPeriodic with exponential backoff: the interval doubles after every
  // false return, from `min_interval_ns` up to `max_interval_ns`. For cheap
  // convergence checks (graph retirement) that must not cost a tick-rate
  // poll per instance when 100k of them sit idle. Cancel via CancelPeriodic.
  uint64_t AddBackoffPoll(uint64_t min_interval_ns, uint64_t max_interval_ns,
                          std::function<bool()> fn);

 private:
  struct Periodic {
    TimerEntry entry;
    uint64_t token = 0;
    uint64_t interval_ns = 0;
    uint64_t max_interval_ns = 0;  // 0 = fixed interval
    std::function<bool()> fn;
  };

  uint64_t AddPeriodicImpl(uint64_t interval_ns, uint64_t max_interval_ns,
                           std::function<bool()> fn);

  struct Slot {
    IntrusiveList<TimerEntry, &TimerEntry::wheel_node> entries;
  };

  // Hashes `deadline_ns` to its (level, slot) under lock and links the entry.
  void ArmLocked(TimerEntry* entry, uint64_t deadline_ns);
  // Unlinks a pending entry from its slot (the node knows its neighbours,
  // not its slot).
  void UnlinkLocked(TimerEntry* entry);
  // Earliest future tick at which any occupied slot drains (UINT64_MAX when
  // the wheel is empty) — lets Advance skip empty stretches wholesale.
  uint64_t NextEventTickLocked() const;
  // Pops every entry of `slot`, re-arming (cascade) or collecting (fire).
  void DrainSlotLocked(size_t level, size_t slot_index,
                       std::vector<TimerEntry*>& fire_list);

  const uint64_t tick_ns_;

  mutable std::mutex mutex_;
  uint64_t current_tick_;  // ticks since epoch, floor(now / tick_ns)
  std::vector<std::vector<Slot>> levels_;

  // Periodic bookkeeping. A periodic being FIRED is temporarily detached
  // from the map (owned by Advance's stack); cancelling it then lands in
  // cancelled_detached_ so the fire path drops it instead of re-arming.
  std::unordered_map<uint64_t, std::unique_ptr<Periodic>> periodics_;
  std::vector<uint64_t> cancelled_detached_;
  uint64_t next_periodic_token_ = 1;

  std::atomic<size_t> armed_count_{0};
  std::atomic<uint64_t> armed_total_{0};
  std::atomic<uint64_t> fired_total_{0};
  std::atomic<uint64_t> cancelled_total_{0};
  std::atomic<uint64_t> cascade_moves_{0};
};

}  // namespace flick::runtime

#endif  // FLICK_RUNTIME_TIMER_WHEEL_H_
