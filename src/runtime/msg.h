// The value that flows through task channels.
//
// A Msg carries exactly one of: a parsed grammar message, a parsed HTTP
// message, or a raw byte chunk (pass-through paths, e.g. the HTTP load
// balancer's return leg, §6.1: "no computation or parsing is needed").
// Control metadata rides along: origin connection, selected output index and
// an EOF marker that propagates connection shutdown through the graph.
//
// Msg objects are pooled (MsgPool) so the steady-state data path does not
// allocate; their internal buffers (grammar arena, HTTP strings) retain
// capacity across reuse.
#ifndef FLICK_RUNTIME_MSG_H_
#define FLICK_RUNTIME_MSG_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "grammar/message.h"
#include "proto/http.h"

namespace flick::runtime {

struct Msg {
  // kError flows DOWN the reply path of a pooled backend leg in place of the
  // response that will never arrive (wire lost, deadline expired, retries
  // exhausted, circuit open). `bytes` carries a short reason; dispatch stages
  // translate it into a protocol-level error (502, memcached error status) so
  // clients fail fast instead of hanging to the detach timeout.
  enum class Kind { kGrammar, kHttp, kBytes, kEof, kError };

  Kind kind = Kind::kBytes;
  grammar::Message gmsg;
  proto::HttpMessage http;
  std::string bytes;

  uint64_t conn_id = 0;   // connection the message arrived on
  int route = -1;         // compute-task routing decision (output index)

  void Clear() {
    // Every writer of `http` marks the message kHttp (HttpDeserializer does
    // so before feeding the parser, so a partial parse counts), so other
    // kinds skip the reset.
    if (kind == Kind::kHttp) {
      http.Reset();
    }
    kind = Kind::kBytes;
    bytes.clear();
    conn_id = 0;
    route = -1;
  }
};

class MsgPool;

// unique_ptr-style handle returning the Msg to its pool.
class MsgRef {
 public:
  MsgRef() = default;
  MsgRef(Msg* msg, MsgPool* pool) : msg_(msg), pool_(pool) {}
  MsgRef(MsgRef&& other) noexcept : msg_(other.msg_), pool_(other.pool_) {
    other.msg_ = nullptr;
    other.pool_ = nullptr;
  }
  MsgRef& operator=(MsgRef&& other) noexcept;
  MsgRef(const MsgRef&) = delete;
  MsgRef& operator=(const MsgRef&) = delete;
  ~MsgRef() { Release(); }

  Msg* get() const { return msg_; }
  Msg* operator->() const { return msg_; }
  Msg& operator*() const { return *msg_; }
  explicit operator bool() const { return msg_ != nullptr; }

  void Release();

 private:
  Msg* msg_ = nullptr;
  MsgPool* pool_ = nullptr;
};

// Pre-allocated message pool. Unlike BufferPool, exhaustion falls back to
// heap allocation with a stat bump (messages are control-plane-sized; hard
// failure would complicate every compute task for little gain).
//
// Scheduler workers acquire and release through a per-worker MAGAZINE (a
// small Msg* stack behind its own lock, which only that worker takes on the
// data path), trading half a magazine with the shared free list when it runs
// empty or full. A message acquired on one worker and released on another
// thus costs two uncontended locks instead of two round trips through one
// contended mutex. Every other thread (pollers, load generators, tests) uses
// the shared free list directly. Before an acquire counts a miss or a spill
// it reclaims every magazine into the free list, so the pool runs dry only
// when all `count` messages are really out.
//
// With `spill` set the pool is a SLICE of `spill` (share-nothing shard
// slices): a dry slice delegates to the spill pool first (counted in
// slice_spills) and only heap-allocates when the spill pool is dry too.
// Released messages return to the pool they were acquired from (MsgRef
// carries the owner), so spilled acquisitions never pollute the slice.
class MsgPool {
 public:
  explicit MsgPool(size_t count, MsgPool* spill = nullptr);
  ~MsgPool();

  MsgPool(const MsgPool&) = delete;
  MsgPool& operator=(const MsgPool&) = delete;

  MsgRef Acquire();

  // Acquires that found the whole pool dry and fell back to the HEAP — the
  // uncounted-exhaustion fix: slice sizing is observable instead of silently
  // degrading to malloc on the data path.
  size_t pool_misses() const;

  // Acquires this slice delegated to its spill parent (0 for non-slices).
  size_t slice_spills() const;

  // Messages taken from this pool's own storage and not yet returned (heap
  // fallbacks and acquires served by the spill parent are not counted).
  // Takes every lock in turn, so it is exact only while no thread acquires
  // or releases: a quiescence check, not a data-path call.
  size_t in_use() const;

  // Spill parent (null for the global pool). Stats aggregators walk this to
  // reach the global pool's heap-miss counter through a slice.
  MsgPool* spill() const { return spill_; }

 private:
  friend class MsgRef;

  // Messages a magazine holds at most; refills and spills move half.
  static constexpr size_t kMagazineSize = 64;
  // Magazines per pool; worker i uses magazine i % kMagazines.
  static constexpr size_t kMagazines = 16;

  struct alignas(64) Magazine {
    mutable std::mutex mutex;  // taken by its worker, and by ReclaimOrCount
    size_t count = 0;
    Msg* slots[kMagazineSize] = {};
  };

  void Release(Msg* msg);
  // Calling worker's magazine; null on non-worker threads.
  Magazine* LocalMagazine();
  // Pops one message from the shared list (null when empty), moving up to
  // half a magazine more into `mag` when given. Takes mutex_.
  Msg* TakeShared(Magazine* mag);
  // Empties every magazine into the shared list, then pops one message;
  // null means the whole pool was dry, and the miss or spill is counted.
  Msg* ReclaimOrCount();

  mutable std::mutex mutex_;  // guards free_, overflow_, slice_spills_
  MsgPool* const spill_;
  std::vector<std::unique_ptr<Msg>> storage_;
  std::vector<Msg*> free_;
  size_t overflow_ = 0;
  size_t slice_spills_ = 0;
  // Lock order: a magazine's mutex, then mutex_; never two magazines at once.
  Magazine magazines_[kMagazines];
};

}  // namespace flick::runtime

#endif  // FLICK_RUNTIME_MSG_H_
