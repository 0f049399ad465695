#include "buffer/buffer_chain.h"

#include <cstring>

#include "base/check.h"

namespace flick {

bool BufferChain::Append(const void* data, size_t size) {
  FLICK_CHECK(pool_ != nullptr);
  const auto* p = static_cast<const uint8_t*>(data);
  while (size > 0) {
    if (buffers_.empty() || first_ >= buffers_.size() ||
        buffers_.back()->writable() == 0) {
      BufferRef b = pool_->Acquire();
      if (!b) {
        return false;
      }
      buffers_.push_back(std::move(b));
    }
    Buffer& back = *buffers_.back();
    const size_t n = size < back.writable() ? size : back.writable();
    std::memcpy(back.write_ptr(), p, n);
    back.Produce(n);
    p += n;
    size -= n;
    readable_ += n;
  }
  return true;
}

void BufferChain::AppendBuffer(BufferRef buffer) {
  if (!buffer || buffer->readable() == 0) {
    return;
  }
  readable_ += buffer->readable();
  buffers_.push_back(std::move(buffer));
}

size_t BufferChain::Peek(size_t offset, void* out, size_t size) const {
  auto* dst = static_cast<uint8_t*>(out);
  size_t copied = 0;
  for (size_t i = first_; i < buffers_.size() && copied < size; ++i) {
    const Buffer& b = *buffers_[i];
    size_t avail = b.readable();
    const uint8_t* src = b.read_ptr();
    if (offset >= avail) {
      offset -= avail;
      continue;
    }
    src += offset;
    avail -= offset;
    offset = 0;
    const size_t n = (size - copied) < avail ? (size - copied) : avail;
    std::memcpy(dst + copied, src, n);
    copied += n;
  }
  return copied;
}

void BufferChain::ConsumeAcross(size_t n) {
  FLICK_CHECK(n <= readable_);
  readable_ -= n;
  while (n > 0) {
    Buffer& b = *buffers_[first_];
    const size_t take = n < b.readable() ? n : b.readable();
    b.Consume(take);
    n -= take;
    if (b.readable() > 0) {
      break;  // n == 0 by the accounting invariant
    }
    const bool is_last = first_ + 1 == buffers_.size();
    if (is_last && b.writable() > 0) {
      break;  // keep the tail buffer as the current write target
    }
    buffers_[first_].Release();
    ++first_;
  }
  Compact();
}

size_t BufferChain::Read(void* out, size_t size) {
  const size_t n = Peek(0, out, size);
  Consume(n);
  return n;
}

void BufferChain::MoveFrom(BufferChain& other) {
  for (size_t i = other.first_; i < other.buffers_.size(); ++i) {
    if (other.buffers_[i]->readable() > 0) {
      readable_ += other.buffers_[i]->readable();
      buffers_.push_back(std::move(other.buffers_[i]));
    }
  }
  other.buffers_.clear();
  other.first_ = 0;
  other.readable_ = 0;
}

std::string_view BufferChain::FrontView() const {
  for (size_t i = first_; i < buffers_.size(); ++i) {
    const Buffer& b = *buffers_[i];
    if (b.readable() > 0) {
      return std::string_view(reinterpret_cast<const char*>(b.read_ptr()), b.readable());
    }
  }
  return {};
}

size_t BufferChain::PeekSlices(IoSlice* out, size_t max_slices) const {
  size_t n = 0;
  for (size_t i = first_; i < buffers_.size() && n < max_slices; ++i) {
    const Buffer& b = *buffers_[i];
    if (b.readable() == 0) {
      continue;
    }
    out[n++] = IoSlice{b.read_ptr(), b.readable()};
  }
  return n;
}

size_t BufferChain::ReserveSlices(MutIoSlice* out, size_t max_buffers) {
  FLICK_CHECK(pool_ != nullptr);
  if (reserve_.size() > max_buffers) {
    reserve_.resize(max_buffers);  // window shrank: excess returns to the pool
  }
  while (reserve_.size() < max_buffers) {
    BufferRef b = pool_->Acquire();
    if (!b) {
      break;  // pool pressure: the fill runs over what we have
    }
    reserve_.push_back(std::move(b));
  }
  for (size_t i = 0; i < reserve_.size(); ++i) {
    out[i] = MutIoSlice{reserve_[i]->write_ptr(), reserve_[i]->writable()};
  }
  return reserve_.size();
}

void BufferChain::CommitFill(size_t bytes) {
  size_t taken = 0;
  while (bytes > 0) {
    FLICK_CHECK(taken < reserve_.size());  // commit may not exceed the reserve
    Buffer& b = *reserve_[taken];
    const size_t n = bytes < b.writable() ? bytes : b.writable();
    b.Produce(n);
    readable_ += n;
    bytes -= n;
    buffers_.push_back(std::move(reserve_[taken]));
    ++taken;
  }
  reserve_.erase(reserve_.begin(), reserve_.begin() + static_cast<long>(taken));
  // Unfilled buffers stay reserved for the next fill: a would-block wakeup
  // costs no pool traffic at all. The excess drains back to the pool through
  // ReserveSlices as the caller's fill window shrinks — release-only, never
  // a release-then-reacquire round-trip.
}

void BufferChain::ReleaseReserve() { reserve_.clear(); }

std::string BufferChain::ToString() const {
  std::string out(readable_, '\0');
  Peek(0, out.data(), out.size());
  return out;
}

void BufferChain::Clear() {
  buffers_.clear();
  reserve_.clear();
  first_ = 0;
  readable_ = 0;
}

void BufferChain::Compact() {
  // Reclaim the vector prefix once it grows past a threshold so the chain's
  // footprint stays bounded by in-flight data, not history.
  if (first_ > 32 && first_ * 2 > buffers_.size()) {
    buffers_.erase(buffers_.begin(), buffers_.begin() + static_cast<long>(first_));
    first_ = 0;
  }
  if (readable_ == 0 && first_ >= buffers_.size()) {
    buffers_.clear();
    first_ = 0;
  }
}

}  // namespace flick
