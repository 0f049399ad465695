// Input and output tasks (§3.2): the edges of every task graph.
//
//   InputTask:  connection -> deserialiser [-> run fold] -> output channel
//   OutputTask: input channel -> serialiser -> connection
//
// An InputTask that leads a foldt tree folds equal-keyed runs of its parsed
// records before they cross its channel (see runtime/run_fold.h).
//
// Both are cooperative: they poll TaskContext::ShouldYield() per message and
// propagate shutdown with an EOF Msg (input side) / connection close (output
// side). Every close goes through one MarkClosed() transition, which counts
// the task out of its graph's IoCloseLatch: the close that leaves the graph
// with no open IO task starts the graph's retirement.
#ifndef FLICK_RUNTIME_IO_TASKS_H_
#define FLICK_RUNTIME_IO_TASKS_H_

#include <atomic>
#include <functional>
#include <memory>

#include "buffer/buffer_chain.h"
#include "net/transport.h"
#include "runtime/channel.h"
#include "runtime/codec.h"
#include "runtime/conn_lifetime.h"
#include "runtime/msg.h"
#include "runtime/run_fold.h"
#include "runtime/task.h"
#include "runtime/wire_batch.h"
#include "runtime/wire_fill.h"

namespace flick::runtime {

// Counts a task graph's open IO tasks (§5: "when a task graph has no more
// active input channels, it is shut down"). The count starts at one, a hold
// for whoever installs the retire hook; each IO task adds one. Close() runs
// the hook exactly once, on the thread that takes the count to zero — the
// last IO task's close, or Arm() when every IO task closed first.
class IoCloseLatch {
 public:
  void AddIo() { open_.fetch_add(1, std::memory_order_relaxed); }

  // Installs the hook and drops the hold. Call once.
  void Arm(std::function<void()> on_all_closed) {
    on_all_closed_ = std::move(on_all_closed);
    Close();
  }

  void Close() {
    if (open_.fetch_sub(1, std::memory_order_acq_rel) == 1 && on_all_closed_) {
      on_all_closed_();
    }
  }

 private:
  std::atomic<size_t> open_{1};
  std::function<void()> on_all_closed_;
};

// What the two IO tasks share: the closed state a graph's retirement reads,
// entered only through MarkClosed().
class IoTask : public Task {
 public:
  using Task::Task;

  bool closed() const { return closed_.load(std::memory_order_acquire); }

  // Counts this task into `latch` (TaskGraph::AddTask does this).
  void set_close_latch(IoCloseLatch* latch) { close_latch_ = latch; }

 protected:
  // The one closed transition: sets closed() and, the first time, counts
  // this task out of its graph's latch.
  void MarkClosed() {
    if (!closed_.exchange(true, std::memory_order_acq_rel) && close_latch_ != nullptr) {
      close_latch_->Close();
    }
  }

 private:
  std::atomic<bool> closed_{false};
  IoCloseLatch* close_latch_ = nullptr;
};

class InputTask : public IoTask {
 public:
  InputTask(std::string name, std::unique_ptr<Connection> conn,
            std::unique_ptr<Deserializer> codec, Channel* out, MsgPool* msgs,
            BufferPool* buffers);
  ~InputTask() override;

  TaskRunResult Run(TaskContext& ctx) override;

  Connection* connection() const { return conn_.get(); }
  // Records parsed off the wire, and messages pushed downstream (EOF aside);
  // fewer pushed than parsed when runs fold.
  uint64_t messages_in() const { return messages_in_.load(std::memory_order_relaxed); }
  uint64_t messages_out() const { return messages_out_.load(std::memory_order_relaxed); }

  // Folds each run of equal-keyed records into one message before it is
  // pushed (a foldt leaf; GraphBuilder::MergeTree installs the tree's
  // order/combine here). The run's last record is held until a different key
  // arrives, the wire has nothing more to parse, or EOF; a record that
  // folded leaves its Msg to parse the next one. Set before IO activation.
  void set_run_fold(RunFold fold) { fold_ = std::move(fold); }

  // Arms the connection-lifetime plane for this leg (client legs only; see
  // runtime/conn_lifetime.h): idle keep-alive timeout while the wire is
  // quiescent, progress deadline while a message is partially parsed. A
  // fired deadline closes the connection from this task's own Run slice and
  // counts the reason into `counters`. Call before IO activation; `wheel` is
  // the owning shard's.
  void EnableLifetime(TimerWheel* wheel, Scheduler* scheduler,
                      const ConnLifetimeConfig& config,
                      ConnLifetimeCounters* counters) {
    deadline_.Enable(wheel, scheduler, this, config, counters);
  }

  // Caps the adaptive fill window: pool buffers one vectored read may span
  // (see runtime::kDefaultFillWindow; 1 = legacy one-buffer reads). Set
  // before IO activation; GraphBuilder applies its FillWindow() here.
  void set_fill_window(size_t buffers) { fill_window_.set_max(buffers); }
  size_t fill_window() const { return fill_window_.max(); }
  // Current adapted window. NOT synchronised with Run — only meaningful when
  // the task is quiescent (tests driving Run on their own thread).
  size_t fill_window_current() const { return fill_window_.next(); }

  // --- ingest counters (atomic: read by registry/tests off-thread) ----------
  uint64_t readv_calls() const {
    return read_batch_.readv_calls.load(std::memory_order_relaxed);
  }
  // High-water of bytes moved by a single vectored fill.
  uint64_t bytes_per_readv() const {
    return read_batch_.bytes_per_readv.load(std::memory_order_relaxed);
  }
  uint64_t fills_short() const {
    return read_batch_.fills_short.load(std::memory_order_relaxed);
  }
  uint64_t reads_legacy_equivalent() const {
    return read_batch_.reads_legacy_equivalent.load(std::memory_order_relaxed);
  }

 private:
  // Pushes `pending_` downstream; false if the channel is full.
  bool FlushPending();
  // The wire paused: pushes the held run (kept, as `pending_`, only by a
  // full channel) so it never waits on bytes that may not come.
  void FlushHeld();
  // Pushes what is still owed downstream (`pending_`, then the held run),
  // then EOF; sets eof_pending_ while the channel refuses any of them.
  void EmitEof();

  // The ingest loop proper; `fill_bytes` accumulates bytes moved off the
  // wire this slice (Run's deadline epilogue uses it as the progress signal).
  TaskRunResult RunInner(TaskContext& ctx, size_t& fill_bytes);

  // Parses every complete message buffered in rx_. kContinue = caller may
  // pull more bytes; anything else is the TaskRunResult to return (error and
  // EOF handling already done).
  enum class ParseOutcome { kContinue, kIdle, kMoreWork };
  ParseOutcome ParseBuffered(TaskContext& ctx);

  std::unique_ptr<Connection> conn_;
  std::unique_ptr<Deserializer> codec_;
  Channel* out_;
  MsgPool* msgs_;
  BufferChain rx_;
  MsgRef parse_msg_;      // in-progress parse target (survives kNeedMore)
  MsgRef pending_;        // parsed but not yet accepted by the channel
  RunFold fold_;          // inactive unless this task leads a foldt tree
  MsgRef spare_;          // a folded record's Msg: the next parse target
  bool eof_pending_ = false;
  bool eof_sent_ = false;
  // Read off-thread by tests/stats; written only by Run.
  std::atomic<uint64_t> messages_in_{0};
  std::atomic<uint64_t> messages_out_{0};
  AdaptiveFillWindow fill_window_;
  ReadBatchCounters read_batch_;
  // Last member: destroyed first, so its Cancel runs while conn_ is alive.
  ConnDeadline deadline_;
};

// Backlog bytes an OutputTask (or pooled connection) accumulates before a
// forced mid-slice flush. Small messages batch into one vectored write per
// run slice; the watermark bounds buffer-pool pressure when a slice carries
// bulk data. 1 = flush after every message (the pre-batching shape);
// 0 = never force (slice-end flushes only).
inline constexpr size_t kDefaultFlushWatermark = 32 * 1024;

class OutputTask : public IoTask {
 public:
  OutputTask(std::string name, std::unique_ptr<Connection> conn,
             std::unique_ptr<Serializer> codec, Channel* in, BufferPool* buffers);
  ~OutputTask() override;

  TaskRunResult Run(TaskContext& ctx) override;

  Connection* connection() const { return conn_.get(); }
  uint64_t messages_out() const { return messages_out_.load(std::memory_order_relaxed); }

  // When set, receiving EOF closes the connection after flushing (default).
  // Cleared for shared backend connections that outlive one client.
  void set_close_on_eof(bool v) { close_on_eof_ = v; }

  // Forced-flush threshold (see kDefaultFlushWatermark). Set before IO
  // activation; GraphBuilder applies its FlushWatermark() here.
  void set_flush_watermark(size_t bytes) { flush_watermark_ = bytes; }
  size_t flush_watermark() const { return flush_watermark_; }

  // --- batching counters (atomic: read by registry/tests off-thread) --------
  uint64_t writev_calls() const {
    return batch_.writev_calls.load(std::memory_order_relaxed);
  }
  uint64_t flushes_forced() const {
    return batch_.flushes_forced.load(std::memory_order_relaxed);
  }
  // High-water of messages drained into a single flush (≈ msgs per writev).
  uint64_t msgs_per_writev() const {
    return batch_.msgs_per_writev.load(std::memory_order_relaxed);
  }

 private:
  // Writes buffered bytes to the connection as vectored batches; false on
  // fatal transport error.
  bool FlushWire() { return FlushChainVectored(tx_, *conn_, batch_, msgs_since_flush_); }

  // Fatal error: tear the connection down and go idle (EOF already
  // propagated upstream via closed()).
  TaskRunResult CloseFatal() {
    conn_->Close();
    MarkClosed();
    return TaskRunResult::kIdle;
  }

  std::unique_ptr<Connection> conn_;
  std::unique_ptr<Serializer> codec_;
  Channel* in_;
  BufferChain tx_;
  bool close_on_eof_ = true;
  bool eof_received_ = false;
  // Read off-thread by tests/stats; written only by Run.
  std::atomic<uint64_t> messages_out_{0};
  size_t flush_watermark_ = kDefaultFlushWatermark;
  uint64_t msgs_since_flush_ = 0;
  WriteBatchCounters batch_;
};

}  // namespace flick::runtime

#endif  // FLICK_RUNTIME_IO_TASKS_H_
