// Compute tasks: the user-logic nodes of a task graph.
//
// ComputeTask drains its input channels round-robin and hands each message to
// a handler (the FLICK compiler's generated function body, or a native
// functor in src/services). The handler emits results through EmitContext —
// possibly to several outputs (fan-out > 1, §6.1 Memcached proxy).
//
// MergeTask implements `foldt` (§4.3): a binary merge node over two ordered
// input streams, combining equal-ordered elements with a user function.
// Compilers build a balanced tree of MergeTasks for k inputs (k-way merge);
// its output runs fold through the same RunFold the tree's leaf sources use.
#ifndef FLICK_RUNTIME_COMPUTE_TASK_H_
#define FLICK_RUNTIME_COMPUTE_TASK_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "runtime/channel.h"
#include "runtime/msg.h"
#include "runtime/run_fold.h"
#include "runtime/task.h"

namespace flick::runtime {

// Handler-facing emission API. Emit returns false on a full output channel;
// the runtime then re-delivers the SAME input message later, so handlers must
// be idempotent per message or check CanEmit first. Either way a kBlocked
// result is woken when a full output drains. Only the blocked message's input
// waits: messages from the stage's other inputs may be handled before it.
class EmitContext {
 public:
  EmitContext(std::vector<Channel*>* outputs, MsgPool* msgs)
      : outputs_(outputs), msgs_(msgs) {}

  size_t output_count() const { return outputs_->size(); }

  bool CanEmit(size_t output_index) const { return !(*outputs_)[output_index]->Full(); }

  // True when every output has room: the pre-check for an all-or-nothing
  // broadcast. Sound only while this stage is each output's sole producer.
  bool CanEmitAll() const {
    for (size_t i = 0; i < outputs_->size(); ++i) {
      if (!CanEmit(i)) {
        return false;
      }
    }
    return true;
  }

  bool Emit(size_t output_index, MsgRef&& msg) {
    return (*outputs_)[output_index]->TryPush(std::move(msg));
  }

  MsgRef NewMsg() { return msgs_->Acquire(); }

 private:
  std::vector<Channel*>* outputs_;
  MsgPool* msgs_;
};

// Return value of a handler invocation.
enum class HandleResult {
  kConsumed,  // message fully handled
  kBlocked,   // output full: re-deliver this message later (its input waits)
};

// All-or-nothing EOF broadcast: kBlocked unless every output has room,
// otherwise EOF to every output. A dropped EOF would leave a downstream IO
// task open and its graph unretirable, so stages forward EOF through this.
inline HandleResult BroadcastEof(EmitContext& emit) {
  if (!emit.CanEmitAll()) {
    return HandleResult::kBlocked;
  }
  for (size_t out = 0; out < emit.output_count(); ++out) {
    MsgRef eof = emit.NewMsg();
    eof->kind = Msg::Kind::kEof;
    (void)emit.Emit(out, std::move(eof));
  }
  return HandleResult::kConsumed;
}

class ComputeTask : public Task {
 public:
  // handler(msg, input_index, emit) — msg ownership passes to the handler
  // only when it returns kConsumed.
  using Handler = std::function<HandleResult(Msg& msg, size_t input_index, EmitContext& emit)>;

  ComputeTask(std::string name, Handler handler, MsgPool* msgs);

  // Wiring (before scheduling).
  void AddInput(Channel* ch, Scheduler* scheduler) {
    ch->BindConsumer(this, scheduler);
    inputs_.push_back(ch);
    stalled_.emplace_back();
  }
  void AddOutput(Channel* ch) {
    ch->BindProducer(this);
    outputs_.push_back(ch);
  }

  size_t input_count() const { return inputs_.size(); }
  uint64_t messages_handled() const {
    return messages_handled_.load(std::memory_order_relaxed);
  }

  TaskRunResult Run(TaskContext& ctx) override;

 private:
  // Parks the task after a kBlocked handler result.
  TaskRunResult Park();

  Handler handler_;
  MsgPool* msgs_;
  std::vector<Channel*> inputs_;
  std::vector<Channel*> outputs_;
  std::vector<MsgRef> stalled_;  // per input: message whose handling blocked
  size_t next_input_ = 0;    // round-robin drain position
  // Read off-thread by tests/stats; written only by Run.
  std::atomic<uint64_t> messages_handled_{0};
};

// foldt (§4.3): merges two key-ordered input streams, combining values of
// equal keys. Emits in key order. Used pairwise to build aggregation trees
// (Figure 3c).
class MergeTask : public Task {
 public:
  using OrderFn = runtime::OrderFn;
  using CombineFn = runtime::CombineFn;

  MergeTask(std::string name, OrderFn order, CombineFn combine);

  void BindInputs(Channel* left, Channel* right, Scheduler* scheduler) {
    left->BindConsumer(this, scheduler);
    right->BindConsumer(this, scheduler);
    left_ = left;
    right_ = right;
  }
  void BindOutput(Channel* out) {
    out->BindProducer(this);
    out_ = out;
  }

  TaskRunResult Run(TaskContext& ctx) override;

 private:
  // Attempts one merge step; false when blocked on input or output.
  bool Step(bool* made_progress);

  RunFold fold_;  // the output's run: equal-keyed successors fold into it
  Channel* left_ = nullptr;
  Channel* right_ = nullptr;
  Channel* out_ = nullptr;
  MsgRef left_pending_;
  MsgRef right_pending_;
  bool left_eof_ = false;
  bool right_eof_ = false;
  bool eof_forwarded_ = false;
  MsgRef out_pending_;  // emitted but not yet accepted by the channel
};

}  // namespace flick::runtime

#endif  // FLICK_RUNTIME_COMPUTE_TASK_H_
