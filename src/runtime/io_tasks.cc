#include "runtime/io_tasks.h"

#include "base/time_util.h"

namespace flick::runtime {

InputTask::InputTask(std::string name, std::unique_ptr<Connection> conn,
                     std::unique_ptr<Deserializer> codec, Channel* out, MsgPool* msgs,
                     BufferPool* buffers)
    : IoTask(std::move(name)),
      conn_(std::move(conn)),
      codec_(std::move(codec)),
      out_(out),
      msgs_(msgs),
      rx_(buffers) {
  out_->BindProducer(this);
}

InputTask::~InputTask() = default;

bool InputTask::FlushPending() {
  if (pending_) {
    // On failure TryPush leaves `pending_` intact for the next slice.
    if (!out_->TryPush(std::move(pending_))) {
      return false;
    }
    BumpOwned(messages_out_);
  }
  return true;
}

void InputTask::FlushHeld() {
  if (fold_.holding() && !pending_) {
    pending_ = fold_.Take();
    (void)FlushPending();  // a full channel keeps it and wakes us
  }
}

void InputTask::EmitEof() {
  if (eof_sent_) {
    return;
  }
  if (!FlushPending()) {
    eof_pending_ = true;
    return;
  }
  pending_ = fold_.Take();
  if (!FlushPending()) {
    eof_pending_ = true;
    return;
  }
  MsgRef eof = msgs_->Acquire();
  eof->kind = Msg::Kind::kEof;
  eof->conn_id = conn_ != nullptr ? conn_->id() : 0;
  if (out_->TryPush(std::move(eof))) {
    eof_sent_ = true;
    eof_pending_ = false;
  } else {
    eof_pending_ = true;
  }
}

TaskRunResult InputTask::Run(TaskContext& ctx) {
  // Deadline check first: a fired window closes the wire from OUR slice (the
  // one thread allowed to touch conn_). A fire that raced fresh bytes or a
  // completed parse is stale and dropped; the epilogue re-arms the right
  // window.
  if (deadline_.enabled() && !closed()) {
    const bool stalled = !conn_->ReadReady();
    const ConnDeadline::Expiry expiry = deadline_.ConsumeExpiry(
        /*idle_plausible=*/stalled && rx_.empty() && !parse_msg_ && !pending_ &&
            !fold_.holding(),
        /*progress_plausible=*/stalled && parse_msg_);
    if (expiry != ConnDeadline::Expiry::kNone) {
      deadline_.CountClose(expiry);
      deadline_.Cancel();
      rx_.ReleaseReserve();
      conn_->Close();
      MarkClosed();
      EmitEof();
      return TaskRunResult::kIdle;
    }
  }

  size_t fill_bytes = 0;
  const TaskRunResult result = RunInner(ctx, fill_bytes);

  if (deadline_.enabled()) {
    if (closed()) {
      deadline_.Cancel();
    } else {
      const uint64_t now = MonotonicNanos();
      if (parse_msg_) {
        // Mid-message (any return reason): the progress window slides only
        // when this slice actually moved bytes.
        deadline_.OnPartialMessage(now, fill_bytes > 0);
      } else if (result == TaskRunResult::kIdle && !pending_ && !eof_pending_ &&
                 rx_.empty()) {
        // Fully between messages on a lifetime-managed (client) leg: return
        // the cached fill reserve so an idle connection pins ZERO pool
        // buffers — the per-idle-conn byte cost the bench gates. The next
        // burst re-acquires once: churn per burst, not per sweep. Legs
        // without a lifetime plane keep the PR-4 zero-churn caching (few,
        // transient idle periods; reserve reuse wins there).
        rx_.ReleaseReserve();
        deadline_.OnQuiescent(now);
      }
    }
  }
  return result;
}

TaskRunResult InputTask::RunInner(TaskContext& ctx, size_t& fill_bytes) {
  if (eof_pending_) {
    EmitEof();
    return TaskRunResult::kIdle;  // channel wakes us if still pending
  }
  if (closed()) {
    return TaskRunResult::kIdle;
  }

  // Deliver a message parsed on a previous slice that the channel rejected.
  if (pending_ && !FlushPending()) {
    return TaskRunResult::kIdle;  // channel will wake us
  }

  while (true) {
    switch (ParseBuffered(ctx)) {
      case ParseOutcome::kIdle:
        return TaskRunResult::kIdle;
      case ParseOutcome::kMoreWork:
        return TaskRunResult::kMoreWork;
      case ParseOutcome::kContinue:
        break;
    }

    // Buffered bytes exhausted: ONE vectored fill spanning the adaptive
    // window pulls everything the transport has buffered (up to the window).
    size_t moved = 0;
    const FillOutcome fill =
        FillChainVectored(rx_, *conn_, fill_window_, read_batch_, &moved);
    fill_bytes += moved;
    if (fill == FillOutcome::kError) {
      // Peer closed (or transport error): propagate EOF downstream.
      rx_.ReleaseReserve();
      conn_->Close();
      MarkClosed();
      EmitEof();
      return TaskRunResult::kIdle;
    }
    if (fill == FillOutcome::kNoBuffers) {
      // Pool pressure: requeue and retry next slice. Going idle would strand
      // the buffered bytes on edge-notified transports (no new write, no new
      // edge); the requeue loop is bounded by the consumers whose progress
      // frees the pool, so the held run goes to them too.
      FlushHeld();
      return TaskRunResult::kMoreWork;
    }
    if (fill == FillOutcome::kDrained) {
      if (moved == 0) {
        FlushHeld();
        return TaskRunResult::kIdle;  // would block; poller will wake us
      }
      // Short fill: parse the tail, then go idle WITHOUT a trailing
      // would-block probe — the fill itself proved the wire is drained, and
      // the transport's next readiness edge brings us back.
      switch (ParseBuffered(ctx)) {
        case ParseOutcome::kIdle:
          return TaskRunResult::kIdle;
        case ParseOutcome::kMoreWork:
          return TaskRunResult::kMoreWork;
        case ParseOutcome::kContinue:
          // EOF guard: a peer close whose edge COALESCED into this run's
          // notification leaves no future edge — if the conn still reads
          // ready (peer closed, or capped-read residue), loop for another
          // fill so the close surfaces now instead of stranding the graph.
          // The same holds when a sink sharing this wire closed it under us
          // (a write to a departed client failed): ReadReady() is false on
          // a closed conn and no edge will ever come, so fill once more and
          // let the read error close this task.
          if (conn_->ReadReady() || !conn_->IsOpen()) {
            break;
          }
          FlushHeld();
          return TaskRunResult::kIdle;
      }
    }
    // Full fill: the transport may hold more; parse, then fill again. A
    // yield keeps the held run: the task is requeued and folds on.
    if (ctx.ShouldYield()) {
      return TaskRunResult::kMoreWork;
    }
  }
}

InputTask::ParseOutcome InputTask::ParseBuffered(TaskContext& ctx) {
  // Parse as many complete messages as the buffer holds.
  while (!rx_.empty()) {
    if (!parse_msg_) {
      if (spare_) {
        parse_msg_ = std::move(spare_);
      } else {
        parse_msg_ = msgs_->Acquire();
        parse_msg_->conn_id = conn_->id();
      }
    }
    const ParseStatus s = codec_->Deserialize(rx_, parse_msg_.get());
    if (s == ParseStatus::kNeedMore) {
      break;  // keep parse_msg_ (holds partial field data) and read more
    }
    if (s == ParseStatus::kError) {
      // Framing is unrecoverable on a byte stream: drop the connection.
      rx_.ReleaseReserve();
      conn_->Close();
      MarkClosed();
      EmitEof();
      return ParseOutcome::kIdle;
    }
    BumpOwned(messages_in_);
    if (!fold_.active()) {
      pending_ = std::move(parse_msg_);
    } else if (fold_.Fold(parse_msg_, &pending_)) {
      spare_ = std::move(parse_msg_);  // folded: its Msg parses the next record
    }
    if (!FlushPending()) {
      return ParseOutcome::kIdle;  // backpressure: consumer will wake us
    }
    ctx.ItemDone();
    if (ctx.ShouldYield()) {
      return ParseOutcome::kMoreWork;
    }
  }
  return ParseOutcome::kContinue;
}

OutputTask::OutputTask(std::string name, std::unique_ptr<Connection> conn,
                       std::unique_ptr<Serializer> codec, Channel* in, BufferPool* buffers)
    : IoTask(std::move(name)),
      conn_(std::move(conn)),
      codec_(std::move(codec)),
      in_(in),
      tx_(buffers) {
  in_->BindConsumer(this, nullptr);  // scheduler bound later via TaskGraph
}

OutputTask::~OutputTask() = default;

TaskRunResult OutputTask::Run(TaskContext& ctx) {
  if (closed()) {
    // Drain and drop anything still queued so upstream does not stall.
    while (MsgRef msg = in_->TryPop()) {
    }
    return TaskRunResult::kIdle;
  }

  while (true) {
    if (!FlushWire()) {
      return CloseFatal();
    }
    if (!tx_.empty()) {
      // Transport is full: let other tasks run; retry when rescheduled.
      return TaskRunResult::kMoreWork;
    }
    if (eof_received_) {
      if (close_on_eof_) {
        conn_->Close();
        MarkClosed();
      } else {
        eof_received_ = false;  // shared connection stays up
      }
      return TaskRunResult::kIdle;
    }

    // Drain the channel backlog into tx_ WITHOUT flushing per message: every
    // message waiting in this run slice coalesces into one vectored write.
    // Flush triggers: backlog high-water (forced), slice end (yield), and
    // channel drained (the loop-top flush after `break`).
    while (true) {
      MsgRef msg = in_->TryPop();
      if (!msg) {
        break;  // slice end: loop top flushes the batch, then goes idle
      }
      if (msg->kind == Msg::Kind::kEof) {
        eof_received_ = true;
        break;  // loop top flushes, then closes
      }
      const Status status = codec_->Serialize(*msg, tx_);
      if (!status.ok()) {
        // Output pool exhausted: treat as fatal for this connection rather
        // than silently dropping bytes mid-stream.
        return CloseFatal();
      }
      BumpOwned(messages_out_);
      ++msgs_since_flush_;
      ctx.ItemDone();
      if (flush_watermark_ > 0 && tx_.readable() >= flush_watermark_) {
        batch_.flushes_forced.fetch_add(1, std::memory_order_relaxed);
        if (!FlushWire()) {
          return CloseFatal();
        }
        if (!tx_.empty()) {
          return TaskRunResult::kMoreWork;  // transport full mid-batch
        }
      }
      if (ctx.ShouldYield()) {
        if (!FlushWire()) {
          return CloseFatal();
        }
        return TaskRunResult::kMoreWork;
      }
    }
    if (!eof_received_) {
      // Channel drained: flush the batch and wait for the next push.
      if (!FlushWire()) {
        return CloseFatal();
      }
      return tx_.empty() ? TaskRunResult::kIdle : TaskRunResult::kMoreWork;
    }
    // EOF: loop to the top, which flushes then closes (or re-arms).
  }
}

}  // namespace flick::runtime
