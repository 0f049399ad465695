#include "runtime/compute_task.h"

namespace flick::runtime {

ComputeTask::ComputeTask(std::string name, Handler handler, MsgPool* msgs)
    : Task(std::move(name)), handler_(std::move(handler)), msgs_(msgs) {}

TaskRunResult ComputeTask::Run(TaskContext& ctx) {
  EmitContext emit(&outputs_, msgs_);

  // Drain inputs round-robin, each until empty. A message blocked on a full
  // output parks in its input's stall slot and stops only that input: the
  // others keep draining, so a stage that forwards requests on one input and
  // answers replies from another cannot deadlock against its own backend
  // when the request side fills while replies wait behind it.
  const size_t n = inputs_.size();
  size_t idle_streak = 0;  // consecutive inputs found empty or blocked
  bool blocked = false;
  while (idle_streak < n) {
    const size_t input_index = next_input_;
    MsgRef& stalled = stalled_[input_index];
    MsgRef msg = stalled ? std::move(stalled) : inputs_[input_index]->TryPop();
    if (msg) {
      if (handler_(*msg, input_index, emit) == HandleResult::kConsumed) {
        idle_streak = 0;
        BumpOwned(messages_handled_);
        ctx.ItemDone();
        if (ctx.ShouldYield()) {
          return TaskRunResult::kMoreWork;
        }
        continue;  // keep draining this input
      }
      stalled = std::move(msg);
      blocked = true;
    }
    ++idle_streak;
    next_input_ = (next_input_ + 1) % n;
  }
  return blocked ? Park() : TaskRunResult::kIdle;
}

TaskRunResult ComputeTask::Park() {
  // A handler that blocked after a CanEmit pre-check never called TryPush,
  // so nothing registered it for a wakeup: register on every full output.
  // If none is full any more, the block already cleared — run again.
  bool armed = false;
  for (Channel* out : outputs_) {
    if (out->Full()) {
      out->BlockProducer();
      armed = true;
    }
  }
  return armed ? TaskRunResult::kIdle : TaskRunResult::kMoreWork;
}

MergeTask::MergeTask(std::string name, OrderFn order, CombineFn combine)
    : Task(std::move(name)), fold_(std::move(order), std::move(combine)) {}

bool MergeTask::Step(bool* made_progress) {
  // Flush a previously blocked emission first.
  if (out_pending_) {
    if (!out_->TryPush(std::move(out_pending_))) {
      return false;
    }
    *made_progress = true;
  }

  // Refill pending slots.
  if (!left_pending_ && !left_eof_) {
    left_pending_ = left_->TryPop();
    if (left_pending_ && left_pending_->kind == Msg::Kind::kEof) {
      left_eof_ = true;
      left_pending_ = MsgRef();
    }
  }
  if (!right_pending_ && !right_eof_) {
    right_pending_ = right_->TryPop();
    if (right_pending_ && right_pending_->kind == Msg::Kind::kEof) {
      right_eof_ = true;
      right_pending_ = MsgRef();
    }
  }

  // foldt semantics: elements are combined/ordered across the two streams.
  MsgRef next;
  if (left_pending_ && right_pending_) {
    const int cmp = fold_.order()(*left_pending_, *right_pending_);
    if (cmp == 0) {
      fold_.combine()(*left_pending_, *right_pending_);
      next = std::move(left_pending_);
      right_pending_ = MsgRef();
    } else if (cmp < 0) {
      next = std::move(left_pending_);
    } else {
      next = std::move(right_pending_);
    }
  } else if (left_pending_ && right_eof_) {
    next = std::move(left_pending_);
  } else if (right_pending_ && left_eof_) {
    next = std::move(right_pending_);
  } else if (left_eof_ && right_eof_) {
    // Both streams done: flush the held run, then forward one EOF
    // downstream (a one-off heap control message; MergeTask has no pool).
    if (fold_.holding()) {
      MsgRef last = fold_.Take();
      if (!out_->TryPush(std::move(last))) {
        out_pending_ = std::move(last);
        return false;
      }
      *made_progress = true;
    }
    if (!eof_forwarded_) {
      // Forwarded once queued: a full output delivers it from out_pending_
      // at the top of a later step, and no second EOF is made.
      eof_forwarded_ = true;
      MsgRef eof(new Msg(), nullptr);
      eof->kind = Msg::Kind::kEof;
      if (out_->TryPush(std::move(eof))) {
        *made_progress = true;
      } else {
        out_pending_ = std::move(eof);
      }
    }
    return false;
  } else {
    return false;  // waiting on an input
  }

  // Run-length combining: the most recent output element is held back and
  // equal-keyed successors (within or across streams) fold into it; it is
  // only emitted once a greater key appears. This is what makes the tree a
  // combiner rather than a plain merge.
  *made_progress = true;
  MsgRef ended;
  if (fold_.Fold(next, &ended) || !ended) {
    return true;
  }
  if (!out_->TryPush(std::move(ended))) {
    out_pending_ = std::move(ended);  // output full: retry after it drains
    return false;
  }
  return true;
}

TaskRunResult MergeTask::Run(TaskContext& ctx) {
  while (true) {
    bool made_progress = false;
    const bool more = Step(&made_progress);
    if (made_progress) {
      ctx.ItemDone();
    }
    if (!more) {
      return TaskRunResult::kIdle;  // channel notifications drive us
    }
    if (ctx.ShouldYield()) {
      return TaskRunResult::kMoreWork;
    }
  }
}

}  // namespace flick::runtime
