// Bounded lock-free single-producer/single-consumer ring.
//
// Task channels (§5) are SPSC by construction: exactly one upstream task
// produces and one downstream task consumes. Capacity is fixed at creation,
// which is what bounds a task graph's in-flight memory.
//
// Slots are raw storage: an element is constructed by TryPush and destroyed
// by TryPop, and the destructor destroys only the live range [tail, head).
// Creating or destroying a ring therefore touches no slot it never used —
// a per-connection graph builds and tears down several of these per
// connection, almost always nearly empty.
#ifndef FLICK_CONCURRENCY_SPSC_RING_H_
#define FLICK_CONCURRENCY_SPSC_RING_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <new>
#include <optional>
#include <utility>

#include "base/check.h"

namespace flick {

template <typename T>
class SpscRing {
 public:
  // Slots are rounded up to the power of two above `capacity`, and one slot
  // is sacrificed to tell full from empty: usable slots = capacity() =
  // 2^k - 1 >= `capacity` (64 -> 127).
  explicit SpscRing(size_t capacity) {
    size_t cap = 1;
    while (cap < capacity + 1) {
      cap <<= 1;
    }
    mask_ = cap - 1;
    slots_ = std::make_unique_for_overwrite<Slot[]>(cap);
  }

  ~SpscRing() {
    const size_t head = head_.load(std::memory_order_acquire);
    for (size_t i = tail_.load(std::memory_order_relaxed); i != head; i = (i + 1) & mask_) {
      At(i)->~T();
    }
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  // Producer side. Returns false when full; the value is only moved from on
  // success, so a failed push leaves the caller's object intact (required for
  // lossless backpressure on move-only payloads).
  bool TryPush(T&& value) {
    const size_t head = head_.load(std::memory_order_relaxed);
    const size_t next = (head + 1) & mask_;
    if (next == tail_.load(std::memory_order_acquire)) {
      return false;
    }
    ::new (static_cast<void*>(slots_[head].bytes)) T(std::move(value));
    head_.store(next, std::memory_order_release);
    return true;
  }

  bool TryPush(const T& value) { return TryPush(T(value)); }

  // Consumer side. Returns nullopt when empty.
  std::optional<T> TryPop() {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == head_.load(std::memory_order_acquire)) {
      return std::nullopt;
    }
    T* slot = At(tail);
    std::optional<T> value(std::move(*slot));
    slot->~T();
    tail_.store((tail + 1) & mask_, std::memory_order_release);
    return value;
  }

  // Consumer-side peek without consuming.
  T* Front() {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == head_.load(std::memory_order_acquire)) {
      return nullptr;
    }
    return At(tail);
  }

  bool Empty() const {
    return tail_.load(std::memory_order_acquire) == head_.load(std::memory_order_acquire);
  }

  size_t SizeApprox() const {
    const size_t head = head_.load(std::memory_order_acquire);
    const size_t tail = tail_.load(std::memory_order_acquire);
    return (head - tail) & mask_;
  }

  size_t capacity() const { return mask_; }

 private:
  struct Slot {
    alignas(T) unsigned char bytes[sizeof(T)];
  };

  T* At(size_t index) { return std::launder(reinterpret_cast<T*>(slots_[index].bytes)); }

  std::unique_ptr<Slot[]> slots_;
  size_t mask_ = 0;
  alignas(64) std::atomic<size_t> head_{0};  // next write index (producer-owned)
  alignas(64) std::atomic<size_t> tail_{0};  // next read index (consumer-owned)
};

}  // namespace flick

#endif  // FLICK_CONCURRENCY_SPSC_RING_H_
