// foldt's run fold (§4.3): the one place a key-ordered stream combines
// equal-keyed neighbours.
//
// A RunFold holds the last record of a stream; a successor with an equal key
// (the tree's own `order`) folds into it with the tree's `combine`, and a
// successor with a different key ends the run: the held record is handed
// back to be emitted and the successor is held in its place. MergeTask uses
// it on its merged output; every InputTask that GraphBuilder::MergeTree wires
// as a leaf uses it on its parsed records, so a sorted mapper's run crosses
// its channel as one message instead of one message per record.
#ifndef FLICK_RUNTIME_RUN_FOLD_H_
#define FLICK_RUNTIME_RUN_FOLD_H_

#include <functional>
#include <utility>

#include "runtime/msg.h"

namespace flick::runtime {

// order(a, b) < 0 | 0 | > 0 ; combine(into, from) folds `from` into `into`.
// A foldt tree's combine is associative and commutative, so folding a run at
// its source gives the same totals as folding it anywhere above.
using OrderFn = std::function<int(const Msg&, const Msg&)>;
using CombineFn = std::function<void(Msg& into, const Msg& from)>;

class RunFold {
 public:
  RunFold() = default;  // inactive: holds and folds nothing
  RunFold(OrderFn order, CombineFn combine)
      : order_(std::move(order)), combine_(std::move(combine)) {}

  bool active() const { return order_ != nullptr; }
  bool holding() const { return static_cast<bool>(held_); }

  const OrderFn& order() const { return order_; }
  const CombineFn& combine() const { return combine_; }

  // Offers the stream's next record. If its key equals the held record's it
  // is combined into that record and true is returned; `next` stays with the
  // caller, spent, and its Msg may be reused. Otherwise `next` becomes the
  // held record, the run it ends moves to `*ended` (null on the first
  // record), and false is returned.
  bool Fold(MsgRef& next, MsgRef* ended) {
    if (held_ && order_(*held_, *next) == 0) {
      combine_(*held_, *next);
      return true;
    }
    *ended = std::move(held_);
    held_ = std::move(next);
    return false;
  }

  // Releases the held record (null when none): at the end of the stream, or
  // when the stream pauses and the record must not wait for it.
  MsgRef Take() { return std::move(held_); }

 private:
  OrderFn order_;
  CombineFn combine_;
  MsgRef held_;
};

}  // namespace flick::runtime

#endif  // FLICK_RUNTIME_RUN_FOLD_H_
