// FLICK program compilation (§4.3 / §5): source -> checked AST + synthesized
// message grammars + executable task-graph pieces.
//
// The paper's compiler emits C++ linked against the platform; this
// implementation compiles to the same task-graph structures. Dispatch rules
// run natively through the lowering pass's plans (`lower.h`) where it can
// prove them, and through the bounded evaluator here otherwise: the
// evaluator is the reference semantics and the fallback. `codegen_cpp.h`
// emits C++ that fills the same plans ahead of time.
#ifndef FLICK_LANG_COMPILE_H_
#define FLICK_LANG_COMPILE_H_

#include <map>
#include <memory>
#include <string>

#include "base/result.h"
#include "grammar/unit.h"
#include "lang/ast.h"
#include "runtime/compute_task.h"
#include "runtime/state_store.h"

namespace flick::lang {

struct CompiledProgram {
  Program ast;
  // One synthesized wire grammar per record type (paper §4.2: "FLICK
  // generates the corresponding parsing and serialisation code").
  std::map<std::string, grammar::Unit> units;

  const grammar::Unit* UnitFor(const std::string& type_name) const {
    const auto it = units.find(type_name);
    return it == units.end() ? nullptr : &it->second;
  }
};

// Lex + parse + check + synthesize units.
Result<std::shared_ptr<CompiledProgram>> CompileSource(const std::string& source);

// Maps a proc's channel parameters onto a ComputeTask's IO indices.
// For array params, inputs/outputs are ordered by element index.
struct ProcEndpoint {
  std::vector<size_t> inputs;
  std::vector<size_t> outputs;
};
struct ProcWiring {
  std::map<std::string, ProcEndpoint> endpoints;

  // Reverse lookup: which channel param does compute input `index` feed?
  const std::string* ParamForInput(size_t index) const {
    for (const auto& [name, ep] : endpoints) {
      for (size_t i : ep.inputs) {
        if (i == index) {
          return &name;
        }
      }
    }
    return nullptr;
  }
};

// Builds a ComputeTask handler that interprets `proc`'s pipeline rules.
// `state_prefix` namespaces the proc's global dicts inside `state`.
runtime::ComputeTask::Handler MakeProcHandler(std::shared_ptr<const CompiledProgram> program,
                                              const ProcDecl* proc, ProcWiring wiring,
                                              runtime::StateStore* state,
                                              std::string state_prefix);

// foldt support: ordering/combining callbacks for MergeTask trees, driven by
// the DSL combine function and ordering field (Listing 3).
runtime::MergeTask::OrderFn MakeFoldtOrder(std::shared_ptr<const CompiledProgram> program,
                                           const std::string& record_type,
                                           const std::string& order_field);
runtime::MergeTask::CombineFn MakeFoldtCombine(std::shared_ptr<const CompiledProgram> program,
                                               const std::string& combine_fun);

}  // namespace flick::lang

#endif  // FLICK_LANG_COMPILE_H_
