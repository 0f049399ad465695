#include "lang/lower.h"

#include <map>

#include "base/byte_order.h"
#include "base/hash.h"
#include "buffer/buffer_pool.h"
#include "grammar/serializer.h"

namespace flick::lang {
namespace {

// ----------------------------------------------------------------- analysis --

// Analysis-time symbolic value of a name in scope: proc channel params,
// globals, and (inside a stage function) the bound parameters.
struct Sym {
  enum class Kind { kChannel, kChannelArray, kDict };
  Kind kind = Kind::kChannel;
  std::vector<int> outs;  // channel output indices
  std::string dict;       // state dict name
};
using SymEnv = std::map<std::string, Sym>;

const Sym* LookupVar(const SymEnv& env, const Expr& e, Sym::Kind kind) {
  if (e.kind != ExprKind::kVar) {
    return nullptr;
  }
  const auto it = env.find(e.text);
  if (it == env.end() || it->second.kind != kind) {
    return nullptr;
  }
  return &it->second;
}

struct FieldRef {
  int index = -1;
  bool is_bytes = true;
  std::string name;
};

// Matches `<input>.<field>` where <field> exists in the input unit.
std::optional<FieldRef> InputFieldRef(const Expr& e, const std::string& input,
                                      const grammar::Unit& unit) {
  if (e.kind != ExprKind::kField || e.base == nullptr ||
      e.base->kind != ExprKind::kVar || e.base->text != input) {
    return std::nullopt;
  }
  const int idx = unit.FieldIndex(e.text);
  if (idx < 0) {
    return std::nullopt;
  }
  FieldRef ref;
  ref.index = idx;
  ref.is_bytes =
      unit.fields()[static_cast<size_t>(idx)].kind == grammar::FieldKind::kBytes;
  ref.name = e.text;
  return ref;
}

// Matches `hash(<input>.<key>) mod len(<array>)`.
struct HashMod {
  FieldRef key;
  std::string array;
};
std::optional<HashMod> MatchHashMod(const Expr& e, const SymEnv& env,
                                    const std::string& input,
                                    const grammar::Unit& unit) {
  if (e.kind != ExprKind::kBinary || e.op != BinOp::kMod) {
    return std::nullopt;
  }
  const Expr& lhs = *e.base;
  const Expr& rhs = *e.index;
  if (lhs.kind != ExprKind::kCall || lhs.text != "hash" || lhs.args.size() != 1) {
    return std::nullopt;
  }
  auto key = InputFieldRef(*lhs.args[0], input, unit);
  if (!key.has_value()) {
    return std::nullopt;
  }
  if (rhs.kind != ExprKind::kCall || rhs.text != "len" || rhs.args.size() != 1 ||
      LookupVar(env, *rhs.args[0], Sym::Kind::kChannelArray) == nullptr) {
    return std::nullopt;
  }
  HashMod hm;
  hm.key = std::move(*key);
  hm.array = rhs.args[0]->text;
  return hm;
}

// Matches the hash-route block:
//   let target = hash(input.key) mod len(arr)   (optional binding form)
//   input => arr[target]
// or the direct form `input => arr[hash(input.key) mod len(arr)]`.
std::optional<RulePlan> MatchRouteBlock(const std::vector<StmtPtr>& stmts,
                                        const SymEnv& env, const std::string& input,
                                        const grammar::Unit& unit) {
  const Stmt* send = nullptr;
  std::optional<HashMod> hm;
  std::string let_name;
  if (stmts.size() == 2 && stmts[0]->kind == StmtKind::kLet &&
      stmts[1]->kind == StmtKind::kSend) {
    hm = MatchHashMod(*stmts[0]->value, env, input, unit);
    let_name = stmts[0]->name;
    send = stmts[1].get();
  } else if (stmts.size() == 1 && stmts[0]->kind == StmtKind::kSend) {
    send = stmts[0].get();
  } else {
    return std::nullopt;
  }

  if (send->value == nullptr || send->value->kind != ExprKind::kVar ||
      send->value->text != input || send->send_stages.size() != 1) {
    return std::nullopt;
  }
  const Expr& target = *send->send_stages[0];
  if (target.kind != ExprKind::kIndex) {
    return std::nullopt;
  }
  const Sym* arr = LookupVar(env, *target.base, Sym::Kind::kChannelArray);
  if (arr == nullptr || arr->outs.empty()) {
    return std::nullopt;
  }
  if (hm.has_value()) {
    // Binding form: the index must be the let variable over the same array.
    if (target.index->kind != ExprKind::kVar || target.index->text != let_name ||
        target.base->text != hm->array) {
      return std::nullopt;
    }
  } else {
    hm = MatchHashMod(*target.index, env, input, unit);
    if (!hm.has_value() || target.base->text != hm->array) {
      return std::nullopt;
    }
  }

  RulePlan plan;
  plan.shape = RulePlan::Shape::kHashRoute;
  plan.route_outs = arr->outs;
  plan.key_field = hm->key.index;
  plan.key_is_bytes = hm->key.is_bytes;
  return plan;
}

// Matches `input.f = <const>` (kEq) or `input.f <> <const>` (kNeq), either
// operand order.
bool MatchFieldCmpConst(const Expr& e, const std::string& input,
                        const grammar::Unit& unit, BinOp want, FieldRef* field,
                        uint64_t* value) {
  if (e.kind != ExprKind::kBinary || e.op != want) {
    return false;
  }
  const Expr* a = e.base.get();
  const Expr* b = e.index.get();
  for (int swap = 0; swap < 2; ++swap) {
    auto ref = InputFieldRef(*a, input, unit);
    if (ref.has_value() && b->kind == ExprKind::kIntLit) {
      *field = std::move(*ref);
      *value = b->int_value;
      return true;
    }
    std::swap(a, b);
  }
  return false;
}

// Matches `dict[input.key]` against a kDict symbol.
struct DictGet {
  std::string dict;
  FieldRef key;
};
std::optional<DictGet> MatchDictGet(const Expr& e, const SymEnv& env,
                                    const std::string& input,
                                    const grammar::Unit& unit) {
  if (e.kind != ExprKind::kIndex) {
    return std::nullopt;
  }
  const Sym* d = LookupVar(env, *e.base, Sym::Kind::kDict);
  if (d == nullptr) {
    return std::nullopt;
  }
  auto key = InputFieldRef(*e.index, input, unit);
  // Dict keys are strings: a numeric key field would make the interpreter's
  // dict lookup always miss, so only byte fields are lowerable.
  if (!key.has_value() || !key->is_bytes) {
    return std::nullopt;
  }
  DictGet get;
  get.dict = d->dict;
  get.key = std::move(*key);
  return get;
}

// Matches the update_cache shape (non-terminal stage):
//   if input.f = <const>:
//       dict[input.key] := input
//   input
struct CacheUpdate {
  std::string dict;
  FieldRef key;
  FieldRef cmp;
  uint64_t cmp_value = 0;
};
std::optional<CacheUpdate> MatchCacheUpdateFun(const FunDecl& fun, const SymEnv& env,
                                               const std::string& input,
                                               const grammar::Unit& unit) {
  if (fun.body.size() != 2 || fun.body[0]->kind != StmtKind::kIf ||
      fun.body[1]->kind != StmtKind::kExpr) {
    return std::nullopt;
  }
  // The fun must return its input so the next stage forwards the same record.
  const Expr& ret = *fun.body[1]->value;
  if (ret.kind != ExprKind::kVar || ret.text != input) {
    return std::nullopt;
  }
  const Stmt& branch = *fun.body[0];
  CacheUpdate upd;
  if (!MatchFieldCmpConst(*branch.cond, input, unit, BinOp::kEq, &upd.cmp,
                          &upd.cmp_value) ||
      !branch.else_block.empty() || branch.then_block.size() != 1) {
    return std::nullopt;
  }
  const Stmt& store = *branch.then_block[0];
  if (store.kind != StmtKind::kAssign || store.value == nullptr ||
      store.value->kind != ExprKind::kVar || store.value->text != input) {
    return std::nullopt;
  }
  auto get = MatchDictGet(*store.target, env, input, unit);
  if (!get.has_value()) {
    return std::nullopt;
  }
  upd.dict = std::move(get->dict);
  upd.key = std::move(get->key);
  return upd;
}

// Matches the test_cache shape (terminal stage):
//   if dict[input.key] = None or input.f <> <const>:
//       <hash-route block over arr>
//   else:
//       dict[input.key] => client
std::optional<RulePlan> MatchTestCacheFun(const FunDecl& fun, const SymEnv& env,
                                          const std::string& input,
                                          const grammar::Unit& unit) {
  if (fun.body.size() != 1 || fun.body[0]->kind != StmtKind::kIf) {
    return std::nullopt;
  }
  const Stmt& branch = *fun.body[0];
  if (branch.cond->kind != ExprKind::kBinary || branch.cond->op != BinOp::kOr) {
    return std::nullopt;
  }
  // Left: dict[input.key] = None (None may appear on either side).
  const Expr& miss = *branch.cond->base;
  if (miss.kind != ExprKind::kBinary || miss.op != BinOp::kEq) {
    return std::nullopt;
  }
  const Expr* get_expr = miss.base.get();
  const Expr* none_expr = miss.index.get();
  if (none_expr->kind != ExprKind::kNoneLit) {
    std::swap(get_expr, none_expr);
  }
  if (none_expr->kind != ExprKind::kNoneLit) {
    return std::nullopt;
  }
  auto get = MatchDictGet(*get_expr, env, input, unit);
  if (!get.has_value()) {
    return std::nullopt;
  }
  // Right: input.f <> <const>.
  FieldRef cmp;
  uint64_t cmp_value = 0;
  if (!MatchFieldCmpConst(*branch.cond->index, input, unit, BinOp::kNeq, &cmp,
                          &cmp_value)) {
    return std::nullopt;
  }
  // Then: hash-route. Else: cached bytes to the client channel, same key.
  auto route = MatchRouteBlock(branch.then_block, env, input, unit);
  if (!route.has_value() || branch.else_block.size() != 1 ||
      branch.else_block[0]->kind != StmtKind::kSend) {
    return std::nullopt;
  }
  const Stmt& hit = *branch.else_block[0];
  auto hit_get = MatchDictGet(*hit.value, env, input, unit);
  if (!hit_get.has_value() || hit_get->dict != get->dict ||
      hit_get->key.index != get->key.index || hit.send_stages.size() != 1) {
    return std::nullopt;
  }
  const Sym* client = LookupVar(env, *hit.send_stages[0], Sym::Kind::kChannel);
  if (client == nullptr || client->outs.empty()) {
    return std::nullopt;
  }

  RulePlan plan = std::move(*route);
  plan.shape = RulePlan::Shape::kCacheTestRoute;
  plan.forward_out = client->outs.front();
  plan.dict = std::move(get->dict);
  plan.key_field = get->key.index;  // cache key (byte field) doubles as route key
  plan.key_is_bytes = true;
  plan.cmp_field = cmp.index;
  plan.cmp_is_bytes = cmp.is_bytes;
  plan.cmp_value = cmp_value;
  return plan;
}

// Analyses the first pipeline rule sourced from `param_name`.
std::optional<RulePlan> AnalyzeRule(const CompiledProgram& program,
                                    const ProcDecl& proc, const SymEnv& env,
                                    const std::string& param_name,
                                    const grammar::Unit& unit) {
  const Stmt* rule = nullptr;
  for (const StmtPtr& stmt : proc.body) {
    if (stmt->kind == StmtKind::kSend && stmt->value->kind == ExprKind::kVar &&
        stmt->value->text == param_name) {
      rule = stmt.get();
      break;
    }
  }
  if (rule == nullptr) {
    return std::nullopt;
  }

  std::optional<CacheUpdate> pending;  // a matched update_cache stage
  for (size_t si = 0; si < rule->send_stages.size(); ++si) {
    const Expr& stage = *rule->send_stages[si];
    const bool last = si + 1 == rule->send_stages.size();

    if (stage.kind == ExprKind::kVar) {
      // Terminal send to a scalar channel.
      const Sym* chan = LookupVar(env, stage, Sym::Kind::kChannel);
      if (chan == nullptr || chan->outs.empty() || !last) {
        return std::nullopt;
      }
      RulePlan plan;
      plan.forward_out = chan->outs.front();
      if (pending.has_value()) {
        plan.shape = RulePlan::Shape::kCacheUpdateForward;
        plan.dict = std::move(pending->dict);
        plan.key_field = pending->key.index;
        plan.key_is_bytes = true;
        plan.cmp_field = pending->cmp.index;
        plan.cmp_is_bytes = pending->cmp.is_bytes;
        plan.cmp_value = pending->cmp_value;
      } else {
        plan.shape = RulePlan::Shape::kForward;
      }
      return plan;
    }

    if (stage.kind != ExprKind::kCall) {
      return std::nullopt;
    }
    const FunDecl* fun = program.ast.FindFun(stage.text);
    if (fun == nullptr || fun->params.size() != stage.args.size() + 1) {
      return std::nullopt;
    }
    // Bind explicit args (must be plain names in scope) + the piped record.
    SymEnv fenv;
    for (size_t i = 0; i < stage.args.size(); ++i) {
      const Expr& a = *stage.args[i];
      if (a.kind != ExprKind::kVar) {
        return std::nullopt;
      }
      const auto it = env.find(a.text);
      if (it == env.end()) {
        return std::nullopt;
      }
      fenv[fun->params[i].name] = it->second;
    }
    const std::string& input = fun->params.back().name;

    if (!pending.has_value() && !last) {
      pending = MatchCacheUpdateFun(*fun, fenv, input, unit);
      if (pending.has_value()) {
        continue;
      }
      return std::nullopt;
    }
    if (!last || pending.has_value()) {
      return std::nullopt;  // terminal fun shapes cannot be composed further
    }
    if (auto plan = MatchRouteBlock(fun->body, fenv, input, unit)) {
      return plan;
    }
    if (auto plan = MatchTestCacheFun(*fun, fenv, input, unit)) {
      return plan;
    }
    return std::nullopt;
  }
  return std::nullopt;  // no terminal send: the record is dropped; keep interp
}

// ---------------------------------------------------------------- execution --

// Mirrors the interpreter's SerializeRecord (dict values for records are the
// serialized wire form; serialisation mutates length fields by design).
std::string SerializeGmsg(grammar::Message& msg) {
  static thread_local BufferPool pool(64, 16 * 1024);
  BufferChain chain(&pool);
  grammar::UnitSerializer serializer(msg.unit());
  const Status status = serializer.Serialize(msg, chain);
  FLICK_CHECK(status.ok());
  return chain.ToString();
}

// Numeric view of a field, mirroring the interpreter's mixed string/int
// comparison (short byte fields compare big-endian).
bool FieldNumeric(const grammar::Message& msg, int field, bool is_bytes,
                  uint64_t* out) {
  if (!is_bytes) {
    *out = msg.GetUInt(field);
    return true;
  }
  const std::string_view bytes = msg.GetBytes(field);
  if (bytes.empty() || bytes.size() > 8) {
    return false;
  }
  *out = LoadUInt(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size(),
                  ByteOrder::kBig);
  return true;
}

// Interpreter-parity route index: hash(key) is masked positive, then int64
// mod selects the element.
size_t RouteIndex(const RulePlan& plan, const grammar::Message& msg) {
  uint64_t h = 0;
  if (plan.key_is_bytes) {
    h = HashBytes(msg.GetBytes(plan.key_field)) & 0x7fffffffffffffffull;
  } else {
    h = MixU64(msg.GetUInt(plan.key_field)) >> 1;
  }
  const int64_t n = static_cast<int64_t>(plan.route_outs.size());
  return n == 0 ? 0 : static_cast<size_t>(static_cast<int64_t>(h) % n);
}

bool EmitRecordCopy(runtime::EmitContext& emit, size_t out,
                    const grammar::Message& msg) {
  runtime::MsgRef ref = emit.NewMsg();
  ref->kind = runtime::Msg::Kind::kGrammar;
  ref->gmsg = msg;  // deep copy into the outgoing message
  return emit.Emit(out, std::move(ref));
}

// Executes one lowered plan against a parsed message. Blocked-retry
// discipline: CanEmit is checked before any side effect, so a re-delivered
// message replays cleanly.
runtime::HandleResult RunPlan(const RulePlan& plan, grammar::Message& msg,
                              runtime::EmitContext& emit,
                              runtime::StateStore* state) {
  switch (plan.shape) {
    case RulePlan::Shape::kForward: {
      if (!emit.CanEmit(static_cast<size_t>(plan.forward_out))) {
        return runtime::HandleResult::kBlocked;
      }
      (void)EmitRecordCopy(emit, static_cast<size_t>(plan.forward_out), msg);
      return runtime::HandleResult::kConsumed;
    }
    case RulePlan::Shape::kHashRoute: {
      const size_t out =
          static_cast<size_t>(plan.route_outs[RouteIndex(plan, msg)]);
      if (!emit.CanEmit(out)) {
        return runtime::HandleResult::kBlocked;
      }
      (void)EmitRecordCopy(emit, out, msg);
      return runtime::HandleResult::kConsumed;
    }
    case RulePlan::Shape::kCacheUpdateForward: {
      if (!emit.CanEmit(static_cast<size_t>(plan.forward_out))) {
        return runtime::HandleResult::kBlocked;
      }
      uint64_t v = 0;
      if (FieldNumeric(msg, plan.cmp_field, plan.cmp_is_bytes, &v) &&
          v == plan.cmp_value) {
        state->Put(plan.dict, std::string(msg.GetBytes(plan.key_field)),
                   SerializeGmsg(msg));
      }
      (void)EmitRecordCopy(emit, static_cast<size_t>(plan.forward_out), msg);
      return runtime::HandleResult::kConsumed;
    }
    case RulePlan::Shape::kCacheTestRoute: {
      uint64_t v = 0;
      const bool cacheable =
          FieldNumeric(msg, plan.cmp_field, plan.cmp_is_bytes, &v) &&
          v == plan.cmp_value;
      if (cacheable) {
        const std::string key(msg.GetBytes(plan.key_field));
        if (auto cached = state->Get(plan.dict, key); cached.has_value()) {
          if (!emit.CanEmit(static_cast<size_t>(plan.forward_out))) {
            return runtime::HandleResult::kBlocked;
          }
          runtime::MsgRef ref = emit.NewMsg();
          ref->kind = runtime::Msg::Kind::kBytes;  // cached wire form, as interp
          ref->bytes = std::move(*cached);
          (void)emit.Emit(static_cast<size_t>(plan.forward_out), std::move(ref));
          return runtime::HandleResult::kConsumed;
        }
      }
      const size_t out =
          static_cast<size_t>(plan.route_outs[RouteIndex(plan, msg)]);
      if (!emit.CanEmit(out)) {
        return runtime::HandleResult::kBlocked;
      }
      (void)EmitRecordCopy(emit, out, msg);
      return runtime::HandleResult::kConsumed;
    }
  }
  return runtime::HandleResult::kConsumed;
}

// A plan MakePlanHandler cannot run natively: a cache shape with no store,
// or a route with no targets (a backend array of size 0).
bool PlanUnrunnable(const RulePlan& plan, const runtime::StateStore* state) {
  const bool cache = plan.shape == RulePlan::Shape::kCacheUpdateForward ||
                     plan.shape == RulePlan::Shape::kCacheTestRoute;
  const bool routes = plan.shape == RulePlan::Shape::kHashRoute ||
                      plan.shape == RulePlan::Shape::kCacheTestRoute;
  return (cache && state == nullptr) || (routes && plan.route_outs.empty());
}

}  // namespace

ProcPlan AnalyzeProc(const CompiledProgram& program, const ProcDecl& proc,
                     const ProcWiring& wiring) {
  ProcPlan result;
  size_t max_input = 0;
  bool any_input = false;
  for (const auto& [name, ep] : wiring.endpoints) {
    for (size_t i : ep.inputs) {
      max_input = std::max(max_input, i);
      any_input = true;
    }
  }
  if (!any_input) {
    return result;
  }
  result.rules.resize(max_input + 1);

  // Names visible to pipeline rules: channel params and global dicts.
  SymEnv env;
  for (const Param& param : proc.params) {
    if (!param.channel.has_value()) {
      continue;
    }
    Sym sym;
    sym.kind = param.channel->is_array ? Sym::Kind::kChannelArray
                                       : Sym::Kind::kChannel;
    const auto ep = wiring.endpoints.find(param.name);
    if (ep != wiring.endpoints.end()) {
      for (size_t out : ep->second.outputs) {
        sym.outs.push_back(static_cast<int>(out));
      }
    }
    env[param.name] = std::move(sym);
  }
  for (const StmtPtr& stmt : proc.body) {
    if (stmt->kind == StmtKind::kGlobal) {
      Sym sym;
      sym.kind = Sym::Kind::kDict;
      sym.dict = proc.name + "." + stmt->name;  // matches MakeProcHandler's env
      env[stmt->name] = std::move(sym);
    }
  }

  for (const Param& param : proc.params) {
    if (!param.channel.has_value() || param.channel->in_type == "-") {
      continue;
    }
    const auto ep = wiring.endpoints.find(param.name);
    if (ep == wiring.endpoints.end()) {
      continue;
    }
    const grammar::Unit* unit = program.UnitFor(param.channel->in_type);
    if (unit == nullptr) {
      continue;
    }
    auto plan = AnalyzeRule(program, proc, env, param.name, *unit);
    if (!plan.has_value()) {
      continue;
    }
    for (size_t i : ep->second.inputs) {
      result.rules[i] = *plan;
    }
  }
  return result;
}

runtime::ComputeTask::Handler MakePlanHandler(ProcPlan plan, runtime::StateStore* state,
                                              runtime::ComputeTask::Handler fallback,
                                              DslDispatchCounters counters) {
  // Demote unrunnable plans to the fallback (the interpreter no-ops dict
  // access without a store, and drops a send to an empty array).
  for (auto& rule : plan.rules) {
    if (rule.has_value() && PlanUnrunnable(*rule, state)) {
      rule.reset();
    }
  }
  return [plan = std::move(plan), fallback = std::move(fallback), state,
          counters](runtime::Msg& msg, size_t input_index,
                    runtime::EmitContext& emit) -> runtime::HandleResult {
    if (msg.kind == runtime::Msg::Kind::kEof) {
      return runtime::BroadcastEof(emit);
    }
    const RulePlan* rule = input_index < plan.rules.size() &&
                                   plan.rules[input_index].has_value()
                               ? &*plan.rules[input_index]
                               : nullptr;
    runtime::HandleResult result = runtime::HandleResult::kConsumed;
    std::atomic<uint64_t>* counter = nullptr;
    if (rule != nullptr && msg.kind == runtime::Msg::Kind::kGrammar) {
      result = RunPlan(*rule, msg.gmsg, emit, state);
      counter = counters.lowered_msgs;
    } else if (fallback) {
      result = fallback(msg, input_index, emit);
      counter = counters.interp_fallbacks;
    }
    if (result == runtime::HandleResult::kConsumed && counter != nullptr) {
      counter->fetch_add(1, std::memory_order_relaxed);
    }
    return result;
  };
}

runtime::ComputeTask::Handler MakeLoweredProcHandler(
    std::shared_ptr<const CompiledProgram> program, const ProcDecl* proc,
    ProcWiring wiring, runtime::StateStore* state, std::string state_prefix,
    DslDispatchCounters counters) {
  ProcPlan plan = AnalyzeProc(*program, *proc, wiring);
  return MakePlanHandler(std::move(plan), state,
                         MakeProcHandler(std::move(program), proc, std::move(wiring),
                                         state, std::move(state_prefix)),
                         counters);
}

}  // namespace flick::lang
