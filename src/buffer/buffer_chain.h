// A byte stream assembled from pooled buffers. Input tasks append network
// fragments; parsers consume across buffer boundaries without copying except
// when a field straddles a boundary (then a bounded scratch copy is made by
// the reader).
#ifndef FLICK_BUFFER_BUFFER_CHAIN_H_
#define FLICK_BUFFER_BUFFER_CHAIN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/io_slice.h"
#include "buffer/buffer_pool.h"

namespace flick {

class BufferChain {
 public:
  BufferChain() = default;
  explicit BufferChain(BufferPool* pool) : pool_(pool) {}

  void set_pool(BufferPool* pool) { pool_ = pool; }
  BufferPool* pool() const { return pool_; }

  size_t readable() const { return readable_; }
  bool empty() const { return readable_ == 0; }

  // Appends `data`; draws buffers from the pool as needed. Returns false if
  // the pool is exhausted mid-append (already-appended bytes stay).
  bool Append(const void* data, size_t size);
  bool Append(std::string_view s) { return Append(s.data(), s.size()); }

  // Moves a filled buffer into the chain (zero copy hand-off from IO).
  void AppendBuffer(BufferRef buffer);

  // Copies up to `size` bytes at `offset` past the read position into `out`
  // without consuming. Returns bytes copied.
  size_t Peek(size_t offset, void* out, size_t size) const;

  // Consumes (discards) `n` readable bytes. n <= readable().
  void Consume(size_t n) {
    // Fast path: `n` ends inside the front buffer, which stays in the chain.
    if (first_ < buffers_.size() && n < buffers_[first_]->readable()) {
      buffers_[first_]->Consume(n);
      readable_ -= n;
      return;
    }
    ConsumeAcross(n);
  }

  // Copies and consumes up to `size` bytes into `out`; returns bytes read.
  size_t Read(void* out, size_t size);

  // Moves all content of `other` to the end of this chain.
  void MoveFrom(BufferChain& other);

  // Contiguous view of the first readable buffer (may be shorter than
  // readable()); empty when the chain is empty.
  std::string_view FrontView() const;

  // Scatter-gather view: fills `out[0..max_slices)` with the readable
  // segments in stream order, starting at the read position, WITHOUT
  // flattening or copying. Returns the number of slices filled; fewer than
  // max_slices means the whole chain is covered. The views stay valid until
  // the next mutating call (Append/Consume/Clear/...).
  size_t PeekSlices(IoSlice* out, size_t max_slices) const;

  // --- vectored fill window (the write-side of a scatter read) --------------
  //
  // ReserveSlices + CommitFill bracket one Connection::Readv: reserve hands
  // out writable iovecs over up to `max_buffers` empty pool buffers, the
  // caller fills a prefix of them, and CommitFill appends exactly the
  // produced prefix to the chain. Unfilled buffers persist inside the chain
  // between calls, so a fill that produces nothing — the would-block wakeup
  // — consumes NO pool buffers: the old acquire-then-release-empty
  // round-trip per wakeup is gone. The cache drains back to the pool as the
  // caller's window shrinks (ReserveSlices trims to `max_buffers`), ending
  // at one buffer per idle connection.

  // Ensures up to `max_buffers` empty buffers are reserved (reusing the
  // cached reservation first, acquiring the rest) and exposes their writable
  // space as iovecs in fill order. Returns the number of slices; fewer than
  // `max_buffers` means pool pressure, 0 means nothing could be reserved.
  size_t ReserveSlices(MutIoSlice* out, size_t max_buffers);

  // Appends exactly the first `bytes` of the reserved window to the chain
  // (bytes <= reserved writable space). Buffers the fill never reached stay
  // reserved for the next fill.
  void CommitFill(size_t bytes);

  // Returns every reserved buffer to the pool (also done by Clear). Call
  // when the connection dies so an idle chain pins nothing.
  void ReleaseReserve();

  size_t reserved_buffers() const { return reserve_.size(); }

  std::string ToString() const;  // copies all readable bytes (tests only)

  void Clear();

 private:
  // Consume's general case: drains and releases front buffers.
  void ConsumeAcross(size_t n);
  void Compact();

  BufferPool* pool_ = nullptr;
  std::vector<BufferRef> buffers_;
  std::vector<BufferRef> reserve_;  // empty buffers staged for the next fill
  size_t first_ = 0;  // index of first buffer with readable bytes
  size_t readable_ = 0;
};

}  // namespace flick

#endif  // FLICK_BUFFER_BUFFER_CHAIN_H_
