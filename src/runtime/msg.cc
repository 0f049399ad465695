#include "runtime/msg.h"

#include <algorithm>

#include "runtime/task.h"

namespace flick::runtime {

MsgRef& MsgRef::operator=(MsgRef&& other) noexcept {
  if (this != &other) {
    Release();
    msg_ = other.msg_;
    pool_ = other.pool_;
    other.msg_ = nullptr;
    other.pool_ = nullptr;
  }
  return *this;
}

void MsgRef::Release() {
  if (msg_ != nullptr) {
    if (pool_ != nullptr) {
      pool_->Release(msg_);
    } else {
      delete msg_;
    }
    msg_ = nullptr;
    pool_ = nullptr;
  }
}

MsgPool::MsgPool(size_t count, MsgPool* spill) : spill_(spill) {
  storage_.reserve(count);
  free_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    storage_.push_back(std::make_unique<Msg>());
    free_.push_back(storage_.back().get());
  }
}

MsgPool::~MsgPool() {
  size_t returned = 0;
  for (Magazine& mag : magazines_) {
    std::lock_guard<std::mutex> lock(mag.mutex);
    returned += mag.count;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  returned += free_.size();
  FLICK_CHECK(returned == storage_.size());  // all messages returned
}

MsgPool::Magazine* MsgPool::LocalMagazine() {
  const int worker = CurrentWorkerIndex();
  return worker < 0 ? nullptr : &magazines_[static_cast<size_t>(worker) % kMagazines];
}

Msg* MsgPool::TakeShared(Magazine* mag) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (free_.empty()) {
    return nullptr;
  }
  Msg* msg = free_.back();
  free_.pop_back();
  if (mag != nullptr) {
    while (mag->count < kMagazineSize / 2 && !free_.empty()) {
      mag->slots[mag->count++] = free_.back();
      free_.pop_back();
    }
  }
  return msg;
}

Msg* MsgPool::ReclaimOrCount() {
  for (Magazine& mag : magazines_) {
    std::lock_guard<std::mutex> mag_lock(mag.mutex);
    if (mag.count > 0) {
      std::lock_guard<std::mutex> lock(mutex_);
      free_.insert(free_.end(), mag.slots, mag.slots + mag.count);
      mag.count = 0;
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (!free_.empty()) {
    Msg* msg = free_.back();
    free_.pop_back();
    return msg;
  }
  if (spill_ != nullptr) {
    ++slice_spills_;
  } else {
    ++overflow_;
  }
  return nullptr;
}

MsgRef MsgPool::Acquire() {
  Msg* msg = nullptr;
  if (Magazine* mag = LocalMagazine()) {
    std::lock_guard<std::mutex> lock(mag->mutex);
    msg = mag->count > 0 ? mag->slots[--mag->count] : TakeShared(mag);
  } else {
    msg = TakeShared(nullptr);
  }
  if (msg == nullptr) {
    // Messages may be parked in other workers' magazines: only a dry pool
    // after reclaiming them all is a miss (or a spill).
    msg = ReclaimOrCount();
  }
  if (msg != nullptr) {
    msg->Clear();  // outside every lock: only this thread holds the message
    return MsgRef(msg, this);
  }
  if (spill_ != nullptr) {
    // Slice dry: the spill pool serves the acquire (and owns the release —
    // MsgRef carries the acquiring pool). The spill pool counts its own miss
    // if it is dry too.
    return spill_->Acquire();
  }
  // Pool dry: heap-allocate an unpooled message (freed on release).
  return MsgRef(new Msg(), nullptr);
}

void MsgPool::Release(Msg* msg) {
  if (Magazine* mag = LocalMagazine()) {
    std::lock_guard<std::mutex> mag_lock(mag->mutex);
    if (mag->count == kMagazineSize) {
      // Full: hand the older half back to the shared list.
      constexpr size_t kHalf = kMagazineSize / 2;
      std::lock_guard<std::mutex> lock(mutex_);
      free_.insert(free_.end(), mag->slots, mag->slots + kHalf);
      std::copy(mag->slots + kHalf, mag->slots + kMagazineSize, mag->slots);
      mag->count -= kHalf;
    }
    mag->slots[mag->count++] = msg;
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  free_.push_back(msg);
}

size_t MsgPool::pool_misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return overflow_;
}

size_t MsgPool::in_use() const {
  size_t idle = 0;
  for (const Magazine& mag : magazines_) {
    std::lock_guard<std::mutex> lock(mag.mutex);
    idle += mag.count;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  idle += free_.size();
  // Not one snapshot: exact only while no thread acquires or releases.
  return idle >= storage_.size() ? 0 : storage_.size() - idle;
}

size_t MsgPool::slice_spills() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slice_spills_;
}

}  // namespace flick::runtime
