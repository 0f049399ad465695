// Task channel: bounded SPSC message queue wiring two tasks of a graph (§5:
// "channels move data between tasks").
//
// Pushing notifies the consumer task via the scheduler. A full channel is
// backpressure: the producer records itself blocked and the consumer wakes it
// once space frees — no busy spinning, bounded in-flight memory.
#ifndef FLICK_RUNTIME_CHANNEL_H_
#define FLICK_RUNTIME_CHANNEL_H_

#include <atomic>

#include "concurrency/spsc_ring.h"
#include "runtime/msg.h"
#include "runtime/scheduler.h"
#include "runtime/task.h"

namespace flick::runtime {

class Channel {
 public:
  explicit Channel(size_t capacity) : ring_(capacity) {}

  // A null scheduler leaves any previously bound scheduler in place, so
  // wiring order (task constructors vs. graph assembly) does not matter.
  void BindConsumer(Task* task, Scheduler* scheduler) {
    consumer_ = task;
    if (scheduler != nullptr) {
      scheduler_ = scheduler;
    }
  }
  void BindProducer(Task* task) { producer_ = task; }

  Task* consumer() const { return consumer_; }
  Task* producer() const { return producer_; }

  // Producer side. On success the consumer is notified. On failure (channel
  // full) the caller's MsgRef is left intact, the producer is registered for
  // a wakeup, and it should return kIdle.
  bool TryPush(MsgRef&& msg) {
    if (!ring_.TryPush(std::move(msg))) {
      BlockProducer();
      return false;
    }
    if (consumer_ != nullptr && scheduler_ != nullptr) {
      scheduler_->NotifyRunnable(consumer_);
    }
    return true;
  }

  // Producer side: registers the producer for a wakeup when the consumer
  // next frees a slot. A producer that found the channel full without
  // pushing (a CanEmit pre-check) calls this before going idle.
  void BlockProducer() {
    producer_blocked_.store(true, std::memory_order_relaxed);
    // Re-check: the consumer may have drained between the full observation
    // and the flag store, in which case nobody would wake us. The fence pairs
    // with the one in TryPop: either this re-check sees the consumer's pop or
    // the consumer sees the flag. Without both, each side's store may sit in
    // its store buffer while it loads the other's stale value, and the
    // wakeup is lost with the producer parked on a channel that has room.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (!Full()) {
      producer_blocked_.store(false, std::memory_order_release);
      if (producer_ != nullptr && scheduler_ != nullptr) {
        scheduler_->NotifyRunnable(producer_);
      }
    }
  }

  // Consumer side.
  MsgRef TryPop() {
    auto msg = ring_.TryPop();
    if (!msg.has_value()) {
      return MsgRef();
    }
    std::atomic_thread_fence(std::memory_order_seq_cst);  // see BlockProducer
    WakeBlockedProducer();
    return std::move(*msg);
  }

  MsgRef* Front() { return ring_.Front(); }

  bool Empty() const { return ring_.Empty(); }
  bool Full() const { return ring_.SizeApprox() >= ring_.capacity(); }
  size_t SizeApprox() const { return ring_.SizeApprox(); }
  size_t capacity() const { return ring_.capacity(); }

 private:
  void WakeBlockedProducer() {
    if (producer_blocked_.load(std::memory_order_relaxed)) {
      producer_blocked_.store(false, std::memory_order_relaxed);
      if (producer_ != nullptr && scheduler_ != nullptr) {
        scheduler_->NotifyRunnable(producer_);
      }
    }
  }

  SpscRing<MsgRef> ring_;
  Task* consumer_ = nullptr;
  Task* producer_ = nullptr;
  Scheduler* scheduler_ = nullptr;
  std::atomic<bool> producer_blocked_{false};
};

}  // namespace flick::runtime

#endif  // FLICK_RUNTIME_CHANNEL_H_
