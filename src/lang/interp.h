// Bounded evaluator for FLICK function bodies.
//
// Guarantees (paper §3.2 / §4.3):
//   * no recursion can execute (sema rejects it; the evaluator additionally
//     enforces a call-depth cap as defence in depth);
//   * every invocation is fuel-limited: each evaluated node consumes one fuel
//     unit, so a handler invocation performs a statically bounded amount of
//     work before returning to the scheduler.
#ifndef FLICK_LANG_INTERP_H_
#define FLICK_LANG_INTERP_H_

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "lang/ast.h"
#include "lang/compile.h"
#include "lang/value.h"
#include "runtime/compute_task.h"
#include "runtime/state_store.h"

namespace flick::lang {

struct CompiledProgram;

class Interp {
 public:
  Interp(const CompiledProgram* program, runtime::StateStore* state, std::string state_prefix)
      : program_(program), state_(state), state_prefix_(std::move(state_prefix)) {}

  // Per-invocation side-channel: emission context + outcome flags.
  struct Effects {
    runtime::EmitContext* emit = nullptr;
    bool blocked = false;        // first send failed before any other send
    bool effects_done = false;   // at least one send happened
    uint64_t dropped_sends = 0;  // sends abandoned after prior sends
    // Dict writes as (dict, key, value), held back until Commit so that a
    // blocked invocation has no effects and replays cleanly. Lookups in the
    // same invocation see them.
    std::vector<std::tuple<std::string, std::string, std::string>> writes;
  };

  using Env = std::map<std::string, Value>;

  // Executes a block; returns the value of the last expression statement.
  Value ExecBlock(const std::vector<StmtPtr>& block, Env& env, Effects& fx);

  Value Eval(const Expr& expr, Env& env, Effects& fx);

  // Calls a user function with positional arguments.
  Value CallFun(const FunDecl& fun, std::vector<Value> args, Effects& fx);

  // Sends `value` to the channel denoted by `target` under `env`.
  // Returns false only when the caller should retry the whole invocation.
  bool Send(const Expr& target, const Value& value, Env& env, Effects& fx);

  // Applies the invocation's dict writes unless it blocked.
  void Commit(Effects& fx);

  // Allocates a temporary record of `type` owned by this Interp. Temps live
  // until ClearTemps().
  Value NewRecord(const std::string& type_name);

  void ClearTemps() { temps_.clear(); }

  void ResetFuel(uint64_t fuel = 1'000'000) { fuel_ = fuel; }
  bool out_of_fuel() const { return fuel_ == 0; }

 private:
  bool Burn() {
    if (fuel_ == 0) {
      return false;
    }
    --fuel_;
    return true;
  }

  Value EvalBinary(const Expr& expr, Env& env, Effects& fx);
  Value EvalCall(const Expr& expr, Env& env, Effects& fx);
  Value EvalField(const Expr& expr, Env& env, Effects& fx);
  Value EvalIndex(const Expr& expr, Env& env, Effects& fx);
  bool EmitValueTo(int output_index, const Value& value, Effects& fx);

  std::string DictName(const std::string& local) const { return state_prefix_ + "." + local; }

  const CompiledProgram* program_;
  runtime::StateStore* state_;
  std::string state_prefix_;
  std::deque<grammar::Message> temps_;
  uint64_t fuel_ = 1'000'000;
  int call_depth_ = 0;
  static constexpr int kMaxCallDepth = 32;
};

}  // namespace flick::lang

#endif  // FLICK_LANG_INTERP_H_
