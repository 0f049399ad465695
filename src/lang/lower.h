// Lowering pass (§4.3 / §5): turns checked proc pipeline rules into native
// dispatch handlers with pre-resolved field indices, bypassing the bounded
// evaluator's per-message Value boxing for the common middlebox shapes:
//
//   kForward             backends => client
//   kHashRoute           client => route(backends)        (keyed hash route)
//   kCacheUpdateForward  backends => update_cache(cache) => client
//   kCacheTestRoute      client => test_cache(client, backends, cache)
//
// AnalyzeProc structurally matches each input's first pipeline rule (inlining
// single-level stage function calls) against these templates. Anything it
// cannot prove falls back to the interpreter — per message, so a proc with
// one lowerable rule and one opaque rule still runs the fast path where it
// can. Lowered handlers reproduce the interpreter's observable semantics
// (hash masking, dict key/value encoding, cache hits emitted as raw bytes)
// and its blocked-retry discipline: a blocked message leaves no side effect,
// so every effect happens once, when the committing emit succeeds.
//
// MakePlanHandler is the only native implementation of rule semantics: the
// lowered service handler and the C++ that codegen_cpp emits both run it.
#ifndef FLICK_LANG_LOWER_H_
#define FLICK_LANG_LOWER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "lang/compile.h"

namespace flick::lang {

// One lowered pipeline rule, bound to a compute input. Field references are
// resolved to indices in the input type's synthesized grammar::Unit.
struct RulePlan {
  enum class Shape {
    kForward,             // copy input record to forward_out
    kHashRoute,           // hash(key) mod |route_outs| selects the output
    kCacheUpdateForward,  // if cmp_field == cmp_value: dict[key] := record; forward
    kCacheTestRoute,      // cached && cmp_field == cmp_value ? emit cached bytes
                          //   : hash-route the record
  };

  Shape shape = Shape::kForward;
  int forward_out = -1;             // kForward / kCacheUpdateForward / cache hits
  std::vector<int> route_outs;      // kHashRoute / kCacheTestRoute miss path
  int key_field = -1;               // hash / dict key field index
  bool key_is_bytes = true;
  int cmp_field = -1;               // field compared against cmp_value
  bool cmp_is_bytes = true;
  uint64_t cmp_value = 0;
  std::string dict;                 // state dict name ("<proc>.<global>")
};

// Per-proc analysis result: rules[i] is the plan for compute input i, or
// nullopt when that input must run through the interpreter.
struct ProcPlan {
  std::vector<std::optional<RulePlan>> rules;

  size_t lowered_inputs() const {
    size_t n = 0;
    for (const auto& r : rules) {
      n += r.has_value() ? 1 : 0;
    }
    return n;
  }
  bool fully_lowered() const {
    return !rules.empty() && lowered_inputs() == rules.size();
  }
};

// Structural pattern match of `proc`'s pipeline rules against the lowerable
// shapes. Never fails: unprovable rules come back as nullopt slots.
ProcPlan AnalyzeProc(const CompiledProgram& program, const ProcDecl& proc,
                     const ProcWiring& wiring);

// Dispatch counters, owned by the caller (services fold them into
// RegistryStats). Either pointer may be null.
struct DslDispatchCounters {
  std::atomic<uint64_t>* lowered_msgs = nullptr;
  std::atomic<uint64_t>* interp_fallbacks = nullptr;
};

// The one native dispatcher for FLICK rules. Runs rules[input] against each
// parsed kGrammar message; every other data message (no plan for its input,
// or not kGrammar) goes to `fallback`, or is dropped when `fallback` is
// empty. EOF is broadcast all-or-nothing (runtime::BroadcastEof). Cache plans
// are demoted to the fallback when `state` is null, and route plans when
// they have no route_outs. Each counter counts a message once, when its
// handling returns kConsumed.
runtime::ComputeTask::Handler MakePlanHandler(ProcPlan plan, runtime::StateStore* state,
                                              runtime::ComputeTask::Handler fallback,
                                              DslDispatchCounters counters = {});

// AnalyzeProc + MakePlanHandler with the interpreter (MakeProcHandler) as the
// per-message fallback. Drop-in replacement for MakeProcHandler.
runtime::ComputeTask::Handler MakeLoweredProcHandler(
    std::shared_ptr<const CompiledProgram> program, const ProcDecl* proc,
    ProcWiring wiring, runtime::StateStore* state, std::string state_prefix,
    DslDispatchCounters counters = {});

}  // namespace flick::lang

#endif  // FLICK_LANG_LOWER_H_
