#include "runtime/timer_wheel.h"

#include <algorithm>

#include "base/check.h"

namespace flick::runtime {

namespace {
// log2(kSlotsPerLevel): slot indices are byte-sized shifts of the tick count.
constexpr uint64_t kLevelShift = 8;
static_assert(TimerWheel::kSlotsPerLevel == (size_t{1} << kLevelShift));
}  // namespace

TimerWheel::TimerWheel(uint64_t now_ns, uint64_t tick_ns)
    : tick_ns_(tick_ns == 0 ? kDefaultTickNs : tick_ns),
      current_tick_(now_ns / tick_ns_) {
  levels_.resize(kLevels);
  for (auto& level : levels_) {
    level = std::vector<Slot>(kSlotsPerLevel);
  }
}

TimerWheel::~TimerWheel() {
  // Entries are owned by their arming objects; periodics are ours. Unlink
  // everything so no TimerEntry outliving the wheel sees a dangling list.
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& level : levels_) {
    for (Slot& slot : level) {
      while (TimerEntry* entry = slot.entries.PopFront()) {
        entry->armed.store(false, std::memory_order_release);
      }
    }
  }
}

void TimerWheel::ArmLocked(TimerEntry* entry, uint64_t deadline_ns) {
  entry->deadline_ns = deadline_ns;
  // A deadline at or before the current tick fires on the next tick — the
  // slot for the current tick has already been drained.
  const uint64_t deadline_tick =
      std::max(deadline_ns / tick_ns_, current_tick_ + 1);
  const uint64_t delta = deadline_tick - current_tick_;
  size_t level = 0;
  while (level + 1 < kLevels &&
         delta >= (uint64_t{1} << (kLevelShift * (level + 1)))) {
    ++level;
  }
  // Beyond the top level's horizon: clamp into the farthest top-level slot;
  // the entry re-hashes closer every wheel revolution.
  uint64_t slot_tick = deadline_tick >> (kLevelShift * level);
  const uint64_t max_slot_tick =
      (current_tick_ >> (kLevelShift * level)) + (kSlotsPerLevel - 1);
  if (level == kLevels - 1 && slot_tick > max_slot_tick) {
    slot_tick = max_slot_tick;
  }
  levels_[level][slot_tick % kSlotsPerLevel].entries.PushBack(entry);
  entry->armed.store(true, std::memory_order_release);
  armed_count_.fetch_add(1, std::memory_order_relaxed);
}

void TimerWheel::UnlinkLocked(TimerEntry* entry) {
  IntrusiveListNode* n = &entry->wheel_node;
  n->prev->next = n->next;
  n->next->prev = n->prev;
  n->prev = nullptr;
  n->next = nullptr;
  entry->armed.store(false, std::memory_order_release);
  armed_count_.fetch_sub(1, std::memory_order_relaxed);
}

void TimerWheel::Arm(TimerEntry* entry, uint64_t deadline_ns) {
  FLICK_CHECK(entry->on_fire != nullptr);
  std::lock_guard<std::mutex> lock(mutex_);
  FLICK_CHECK(!entry->pending());
  ArmLocked(entry, deadline_ns);
  armed_total_.fetch_add(1, std::memory_order_relaxed);
}

bool TimerWheel::Cancel(TimerEntry* entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!entry->pending()) {
    return false;
  }
  UnlinkLocked(entry);
  cancelled_total_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void TimerWheel::Rearm(TimerEntry* entry, uint64_t deadline_ns) {
  FLICK_CHECK(entry->on_fire != nullptr);
  std::lock_guard<std::mutex> lock(mutex_);
  if (entry->pending()) {
    UnlinkLocked(entry);
  }
  ArmLocked(entry, deadline_ns);
  armed_total_.fetch_add(1, std::memory_order_relaxed);
}

void TimerWheel::DrainSlotLocked(size_t level, size_t slot_index,
                                 std::vector<TimerEntry*>& fire_list) {
  Slot& slot = levels_[level][slot_index];
  // Pop into a local chain first: re-hashing (cascade) pushes into OTHER
  // slots of lower levels, never back into this one mid-drain.
  while (TimerEntry* entry = slot.entries.PopFront()) {
    entry->armed.store(false, std::memory_order_release);
    armed_count_.fetch_sub(1, std::memory_order_relaxed);
    if (level == 0 || entry->deadline_ns / tick_ns_ <= current_tick_) {
      fire_list.push_back(entry);
    } else {
      ArmLocked(entry, entry->deadline_ns);
      cascade_moves_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

uint64_t TimerWheel::NextEventTickLocked() const {
  // Earliest tick at which any occupied slot drains: level-k slot s drains
  // when the clock crosses s << (8k). Empty stretches between events can be
  // skipped wholesale — Advance over an idle hour is O(slots), not O(ticks).
  uint64_t best = UINT64_MAX;
  for (size_t level = 0; level < kLevels; ++level) {
    const uint64_t cur = current_tick_ >> (kLevelShift * level);
    for (uint64_t i = 1; i <= kSlotsPerLevel; ++i) {
      if (!levels_[level][(cur + i) % kSlotsPerLevel].entries.empty()) {
        best = std::min(best, (cur + i) << (kLevelShift * level));
        break;  // later slots of this level drain later
      }
    }
  }
  return best;
}

size_t TimerWheel::Advance(uint64_t now_ns) {
  const uint64_t target_tick = now_ns / tick_ns_;
  std::vector<TimerEntry*> fire_list;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    while (current_tick_ < target_tick) {
      const uint64_t next_event = NextEventTickLocked();
      if (next_event > target_tick) {
        current_tick_ = target_tick;  // nothing drains in between
        break;
      }
      current_tick_ = next_event;
      DrainSlotLocked(0, current_tick_ % kSlotsPerLevel, fire_list);
      // Crossing a level boundary cascades that level's next slot down.
      uint64_t tick = current_tick_;
      for (size_t level = 1; level < kLevels; ++level) {
        tick >>= kLevelShift;
        if ((current_tick_ & ((uint64_t{1} << (kLevelShift * level)) - 1)) != 0) {
          break;
        }
        DrainSlotLocked(level, tick % kSlotsPerLevel, fire_list);
      }
    }
  }
  for (TimerEntry* entry : fire_list) {
    fired_total_.fetch_add(1, std::memory_order_relaxed);
    entry->on_fire();  // may re-arm `entry`; must not touch the wheel lock state
  }
  return fire_list.size();
}

uint64_t TimerWheel::NextDeadlineNs() const {
  if (armed_count_.load(std::memory_order_relaxed) == 0) {
    return kNoDeadline;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t best = kNoDeadline;
  for (size_t level = 0; level < kLevels; ++level) {
    const uint64_t width_ticks = uint64_t{1} << (kLevelShift * level);
    const uint64_t cur = current_tick_ >> (kLevelShift * level);
    for (uint64_t i = 1; i <= kSlotsPerLevel; ++i) {
      if (!levels_[level][(cur + i) % kSlotsPerLevel].entries.empty()) {
        // Slot start is a lower bound on every deadline it holds, so a
        // sleeper waking at it can never miss a fire.
        best = std::min(best, (cur + i) * width_ticks * tick_ns_);
        break;  // later slots of this level are later in time
      }
    }
  }
  return best;
}

TimerStats TimerWheel::stats() const {
  TimerStats s;
  s.armed = armed_total_.load(std::memory_order_relaxed);
  s.fired = fired_total_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_total_.load(std::memory_order_relaxed);
  s.cascade_moves = cascade_moves_.load(std::memory_order_relaxed);
  return s;
}

uint64_t TimerWheel::AddPeriodic(uint64_t interval_ns, std::function<bool()> fn) {
  return AddPeriodicImpl(interval_ns, 0, std::move(fn));
}

uint64_t TimerWheel::AddBackoffPoll(uint64_t min_interval_ns,
                                    uint64_t max_interval_ns,
                                    std::function<bool()> fn) {
  return AddPeriodicImpl(min_interval_ns, std::max(max_interval_ns, min_interval_ns),
                         std::move(fn));
}

uint64_t TimerWheel::AddPeriodicImpl(uint64_t interval_ns,
                                     uint64_t max_interval_ns,
                                     std::function<bool()> fn) {
  auto periodic = std::make_unique<Periodic>();
  Periodic* raw = periodic.get();
  raw->interval_ns = interval_ns == 0 ? tick_ns_ : interval_ns;
  raw->max_interval_ns = max_interval_ns;
  raw->fn = std::move(fn);
  raw->entry.on_fire = [this, raw] {
    // Poller thread. The entry is already unlinked; decide re-arm vs done.
    const bool done = raw->fn();
    std::lock_guard<std::mutex> lock(mutex_);
    const auto cancelled = std::find(cancelled_detached_.begin(),
                                     cancelled_detached_.end(), raw->token);
    if (cancelled != cancelled_detached_.end()) {
      cancelled_detached_.erase(cancelled);
      periodics_.erase(raw->token);  // destroys raw->fn AFTER it returned
      return;
    }
    if (done) {
      periodics_.erase(raw->token);
      return;
    }
    if (raw->max_interval_ns != 0) {
      raw->interval_ns = std::min(raw->interval_ns * 2, raw->max_interval_ns);
    }
    ArmLocked(&raw->entry, raw->entry.deadline_ns + raw->interval_ns);
    armed_total_.fetch_add(1, std::memory_order_relaxed);
  };
  std::lock_guard<std::mutex> lock(mutex_);
  raw->token = next_periodic_token_++;
  const uint64_t token = raw->token;
  periodics_[token] = std::move(periodic);
  ArmLocked(&raw->entry, (current_tick_ + 1) * tick_ns_ + raw->interval_ns);
  armed_total_.fetch_add(1, std::memory_order_relaxed);
  return token;
}

bool TimerWheel::CancelPeriodic(uint64_t token) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = periodics_.find(token);
  if (it == periodics_.end()) {
    return false;
  }
  TimerEntry& entry = it->second->entry;
  if (entry.pending()) {
    UnlinkLocked(&entry);
    cancelled_total_.fetch_add(1, std::memory_order_relaxed);
    periodics_.erase(it);
    return true;
  }
  // Mid-fire on the poller thread: the fire path sees the token here and
  // destroys the periodic instead of re-arming. (A callback already entered
  // may still finish its current run — same in-flight caveat as Cancel.)
  cancelled_detached_.push_back(token);
  cancelled_total_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace flick::runtime
