// Lock-free SPSC byte ring: the per-direction pipe of a simulated TCP
// connection. Fixed power-of-two capacity; reads/writes move bytes with at
// most two memcpys (wrap-around).
#ifndef FLICK_CONCURRENCY_SPSC_BYTE_RING_H_
#define FLICK_CONCURRENCY_SPSC_BYTE_RING_H_

#include <atomic>
#include <cstring>
#include <memory>

namespace flick {

class SpscByteRing {
 public:
  explicit SpscByteRing(size_t capacity) {
    size_t cap = 1;
    while (cap < capacity) {
      cap <<= 1;
    }
    mask_ = cap - 1;
    // Raw storage: every byte is written before it is read, and zero-filling
    // a default 256 KiB ring per direction dominated a sim dial.
    data_ = std::make_unique_for_overwrite<uint8_t[]>(cap);
  }

  SpscByteRing(const SpscByteRing&) = delete;
  SpscByteRing& operator=(const SpscByteRing&) = delete;

  // Producer: writes up to `len` bytes, returns bytes written (may be 0).
  size_t Write(const void* src, size_t len) {
    const size_t head = head_.load(std::memory_order_relaxed);
    const size_t tail = tail_.load(std::memory_order_acquire);
    const size_t free_space = mask_ + 1 - (head - tail);
    size_t n = len < free_space ? len : free_space;
    if (n == 0) {
      return 0;
    }
    const size_t pos = head & mask_;
    const size_t first = n < (mask_ + 1 - pos) ? n : (mask_ + 1 - pos);
    std::memcpy(data_.get() + pos, src, first);
    if (n > first) {
      std::memcpy(data_.get(), static_cast<const uint8_t*>(src) + first, n - first);
    }
    head_.store(head + n, std::memory_order_release);
    return n;
  }

  // Consumer: reads up to `len` bytes, returns bytes read (may be 0).
  size_t Read(void* dst, size_t len) {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    const size_t head = head_.load(std::memory_order_acquire);
    const size_t avail = head - tail;
    size_t n = len < avail ? len : avail;
    if (n == 0) {
      return 0;
    }
    const size_t pos = tail & mask_;
    const size_t first = n < (mask_ + 1 - pos) ? n : (mask_ + 1 - pos);
    std::memcpy(dst, data_.get() + pos, first);
    if (n > first) {
      std::memcpy(static_cast<uint8_t*>(dst) + first, data_.get(), n - first);
    }
    tail_.store(tail + n, std::memory_order_release);
    return n;
  }

  size_t ReadableBytes() const {
    return head_.load(std::memory_order_acquire) - tail_.load(std::memory_order_acquire);
  }
  size_t WritableBytes() const { return mask_ + 1 - ReadableBytes(); }
  size_t capacity() const { return mask_ + 1; }

 private:
  std::unique_ptr<uint8_t[]> data_;
  size_t mask_ = 0;
  alignas(64) std::atomic<size_t> head_{0};
  alignas(64) std::atomic<size_t> tail_{0};
};

}  // namespace flick

#endif  // FLICK_CONCURRENCY_SPSC_BYTE_RING_H_
