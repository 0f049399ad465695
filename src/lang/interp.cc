#include "lang/interp.h"

#include "base/byte_order.h"
#include "base/hash.h"
#include "buffer/buffer_pool.h"
#include "grammar/serializer.h"

namespace flick::lang {
namespace {

// Numeric view of a short string (the paper compares `resp.opcode = 0x0c`
// where opcode is declared `string {size=1}`): big-endian interpretation.
bool StringAsUInt(const std::string& s, uint64_t* out) {
  if (s.empty() || s.size() > 8) {
    return false;
  }
  *out = LoadUInt(reinterpret_cast<const uint8_t*>(s.data()), s.size(), ByteOrder::kBig);
  return true;
}

std::string SerializeRecord(const Value& value) {
  static thread_local BufferPool pool(64, 16 * 1024);
  BufferChain chain(&pool);
  grammar::UnitSerializer serializer(value.record->unit());
  // Serialisation mutates length fields; that is the defined semantics.
  const Status status = serializer.Serialize(*value.record, chain);
  FLICK_CHECK(status.ok());
  return chain.ToString();
}

}  // namespace

Value Interp::ExecBlock(const std::vector<StmtPtr>& block, Env& env, Effects& fx) {
  Value last = Value::Unit();
  for (const StmtPtr& stmt : block) {
    if (!Burn() || fx.blocked) {
      return Value::Unit();
    }
    switch (stmt->kind) {
      case StmtKind::kGlobal:
        env[stmt->name] = [&] {
          Value v;
          v.kind = Value::Kind::kDict;
          v.dict = DictName(stmt->name);
          return v;
        }();
        break;
      case StmtKind::kLet:
        env[stmt->name] = Eval(*stmt->value, env, fx);
        break;
      case StmtKind::kAssign: {
        // Only dict stores pass sema: target is base[index].
        const Value dict = Eval(*stmt->target->base, env, fx);
        const Value key = Eval(*stmt->target->index, env, fx);
        const Value value = Eval(*stmt->value, env, fx);
        if (dict.kind == Value::Kind::kDict && key.kind == Value::Kind::kString) {
          std::string stored;
          if (value.kind == Value::Kind::kRecord) {
            stored = SerializeRecord(value);
          } else if (value.kind == Value::Kind::kString) {
            stored = value.s;
          } else if (value.kind == Value::Kind::kInt) {
            stored = std::to_string(value.i);
          }
          // No StateStore bound (e.g. stateless env): dict writes no-op.
          if (state_ != nullptr) {
            fx.writes.emplace_back(dict.dict, key.s, std::move(stored));
          }
        }
        break;
      }
      case StmtKind::kSend: {
        Value current = Eval(*stmt->value, env, fx);
        for (const ExprPtr& stage : stmt->send_stages) {
          if (fx.blocked) {
            return Value::Unit();
          }
          if (stage->kind == ExprKind::kCall && program_->ast.FindFun(stage->text) != nullptr) {
            // Pipeline stage function: explicit args + current value last.
            const FunDecl* fun = program_->ast.FindFun(stage->text);
            std::vector<Value> args;
            for (const ExprPtr& a : stage->args) {
              args.push_back(Eval(*a, env, fx));
            }
            args.push_back(current);
            current = CallFun(*fun, std::move(args), fx);
          } else {
            if (!Send(*stage, current, env, fx)) {
              return Value::Unit();
            }
            current = Value::Unit();
          }
        }
        break;
      }
      case StmtKind::kIf: {
        const Value cond = Eval(*stmt->cond, env, fx);
        Env inner = env;  // block scope
        if (cond.Truthy()) {
          last = ExecBlock(stmt->then_block, inner, fx);
        } else {
          last = ExecBlock(stmt->else_block, inner, fx);
        }
        break;
      }
      case StmtKind::kExpr:
        last = Eval(*stmt->value, env, fx);
        break;
      case StmtKind::kFoldt:
        // foldt is compiled to a MergeTask tree, never interpreted inline.
        break;
    }
  }
  return last;
}

Value Interp::CallFun(const FunDecl& fun, std::vector<Value> args, Effects& fx) {
  if (call_depth_ >= kMaxCallDepth || !Burn()) {
    return Value::Unit();
  }
  ++call_depth_;
  Env env;
  const size_t n = std::min(args.size(), fun.params.size());
  for (size_t i = 0; i < n; ++i) {
    env[fun.params[i].name] = std::move(args[i]);
  }
  Value result = ExecBlock(fun.body, env, fx);
  --call_depth_;
  return result;
}

void Interp::Commit(Effects& fx) {
  if (!fx.blocked && state_ != nullptr) {
    for (auto& [dict, key, value] : fx.writes) {
      state_->Put(dict, key, std::move(value));
    }
  }
  fx.writes.clear();
}

bool Interp::EmitValueTo(int output_index, const Value& value, Effects& fx) {
  runtime::MsgRef msg = fx.emit->NewMsg();
  if (value.kind == Value::Kind::kRecord) {
    msg->kind = runtime::Msg::Kind::kGrammar;
    msg->gmsg = *value.record;  // deep copy into the outgoing message
  } else if (value.kind == Value::Kind::kString) {
    msg->kind = runtime::Msg::Kind::kBytes;
    msg->bytes = value.s;
  } else if (value.kind == Value::Kind::kInt) {
    msg->kind = runtime::Msg::Kind::kBytes;
    msg->bytes = std::to_string(value.i);
  } else {
    return true;  // nothing to send (unit/None): treat as no-op
  }
  if (!fx.emit->Emit(static_cast<size_t>(output_index), std::move(msg))) {
    if (!fx.effects_done) {
      fx.blocked = true;
      return false;
    }
    ++fx.dropped_sends;
    return true;
  }
  fx.effects_done = true;
  return true;
}

bool Interp::Send(const Expr& target, const Value& value, Env& env, Effects& fx) {
  if (fx.emit == nullptr) {
    return true;
  }
  // Resolve the channel value (possibly indexed array).
  Value chan;
  if (target.kind == ExprKind::kIndex) {
    const Value array = Eval(*target.base, env, fx);
    const Value idx = Eval(*target.index, env, fx);
    if (array.kind != Value::Kind::kChannelArray || idx.kind != Value::Kind::kInt ||
        array.outs.empty()) {
      return true;
    }
    const size_t element =
        static_cast<size_t>(idx.i) % array.outs.size();  // defensive clamp
    chan.kind = Value::Kind::kChannel;
    chan.outs = {array.outs[element]};
  } else {
    chan = Eval(target, env, fx);
  }
  if (chan.kind != Value::Kind::kChannel || chan.outs.empty()) {
    return true;
  }
  return EmitValueTo(chan.outs.front(), value, fx);
}

Value Interp::NewRecord(const std::string& type_name) {
  const grammar::Unit* unit = program_->UnitFor(type_name);
  const TypeDecl* type = program_->ast.FindType(type_name);
  if (unit == nullptr || type == nullptr) {
    return Value::Unit();
  }
  temps_.emplace_back();
  temps_.back().BindUnit(unit);
  return Value::Record(&temps_.back(), type);
}

Value Interp::Eval(const Expr& expr, Env& env, Effects& fx) {
  if (!Burn()) {
    return Value::Unit();
  }
  switch (expr.kind) {
    case ExprKind::kIntLit: return Value::Int(static_cast<int64_t>(expr.int_value));
    case ExprKind::kStringLit: return Value::Str(expr.text);
    case ExprKind::kBoolLit: return Value::Bool(expr.bool_value);
    case ExprKind::kNoneLit: return Value::None();
    case ExprKind::kVar: {
      const auto it = env.find(expr.text);
      return it == env.end() ? Value::Unit() : it->second;
    }
    case ExprKind::kField: return EvalField(expr, env, fx);
    case ExprKind::kIndex: return EvalIndex(expr, env, fx);
    case ExprKind::kCall: return EvalCall(expr, env, fx);
    case ExprKind::kBinary: return EvalBinary(expr, env, fx);
    case ExprKind::kUnary: {
      const Value v = Eval(*expr.base, env, fx);
      if (expr.unary_op == '!') {
        return Value::Bool(!v.Truthy());
      }
      return Value::Int(-v.i);
    }
  }
  return Value::Unit();
}

Value Interp::EvalField(const Expr& expr, Env& env, Effects& fx) {
  const Value base = Eval(*expr.base, env, fx);
  if (base.kind != Value::Kind::kRecord || base.record == nullptr ||
      base.record_type == nullptr) {
    return Value::Unit();
  }
  const grammar::Unit* unit = base.record->unit();
  const int index = unit->FieldIndex(expr.text);
  if (index < 0) {
    return Value::Unit();
  }
  const auto& field = unit->fields()[static_cast<size_t>(index)];
  if (field.kind == grammar::FieldKind::kUInt || field.kind == grammar::FieldKind::kVar) {
    return Value::Int(static_cast<int64_t>(base.record->GetUInt(index)));
  }
  return Value::Str(std::string(base.record->GetBytes(index)));
}

Value Interp::EvalIndex(const Expr& expr, Env& env, Effects& fx) {
  const Value base = Eval(*expr.base, env, fx);
  const Value idx = Eval(*expr.index, env, fx);
  if (base.kind == Value::Kind::kDict) {
    if (idx.kind != Value::Kind::kString) {
      return Value::None();
    }
    for (auto it = fx.writes.rbegin(); it != fx.writes.rend(); ++it) {
      if (std::get<0>(*it) == base.dict && std::get<1>(*it) == idx.s) {
        return Value::Str(std::get<2>(*it));
      }
    }
    // No StateStore bound: every lookup misses.
    auto stored = state_ != nullptr ? state_->Get(base.dict, idx.s) : std::nullopt;
    if (!stored.has_value()) {
      return Value::None();
    }
    return Value::Str(std::move(*stored));
  }
  if (base.kind == Value::Kind::kChannelArray) {
    if (idx.kind != Value::Kind::kInt || base.outs.empty()) {
      return Value::Unit();
    }
    Value chan;
    chan.kind = Value::Kind::kChannel;
    chan.outs = {base.outs[static_cast<size_t>(idx.i) % base.outs.size()]};
    return chan;
  }
  if (base.kind == Value::Kind::kString) {
    if (idx.kind == Value::Kind::kInt && idx.i >= 0 &&
        static_cast<size_t>(idx.i) < base.s.size()) {
      return Value::Int(static_cast<uint8_t>(base.s[static_cast<size_t>(idx.i)]));
    }
  }
  return Value::Unit();
}

Value Interp::EvalCall(const Expr& expr, Env& env, Effects& fx) {
  // Builtins.
  if (expr.text == "hash") {
    if (expr.args.size() != 1) {
      return Value::Int(0);
    }
    const Value v = Eval(*expr.args[0], env, fx);
    if (v.kind == Value::Kind::kString) {
      return Value::Int(static_cast<int64_t>(HashBytes(v.s) & 0x7fffffffffffffffull));
    }
    if (v.kind == Value::Kind::kInt) {
      return Value::Int(static_cast<int64_t>(MixU64(static_cast<uint64_t>(v.i)) >> 1));
    }
    return Value::Int(0);
  }
  if (expr.text == "len") {
    if (expr.args.size() != 1) {
      return Value::Int(0);
    }
    const Value v = Eval(*expr.args[0], env, fx);
    if (v.kind == Value::Kind::kChannelArray) {
      return Value::Int(static_cast<int64_t>(v.outs.size()));
    }
    if (v.kind == Value::Kind::kString) {
      return Value::Int(static_cast<int64_t>(v.s.size()));
    }
    return Value::Int(0);
  }
  if (expr.text == "all_ready") {
    // Readiness is handled by the runtime's channel wakeups; inside the
    // evaluator the answer is always "yes" (messages only arrive when ready).
    return Value::Bool(true);
  }
  if (expr.text == "add") {
    // add(a, b): decimal string / integer addition (wordcount combine).
    if (expr.args.size() != 2) {
      return Value::Int(0);
    }
    const Value a = Eval(*expr.args[0], env, fx);
    const Value b = Eval(*expr.args[1], env, fx);
    auto as_int = [](const Value& v) -> int64_t {
      if (v.kind == Value::Kind::kInt) {
        return v.i;
      }
      if (v.kind == Value::Kind::kString) {
        int64_t x = 0;
        for (char c : v.s) {
          if (c < '0' || c > '9') {
            break;
          }
          x = x * 10 + (c - '0');
        }
        return x;
      }
      return 0;
    };
    return Value::Str(std::to_string(as_int(a) + as_int(b)));
  }
  if (expr.text == "int") {
    const Value v = expr.args.empty() ? Value::Unit() : Eval(*expr.args[0], env, fx);
    uint64_t n = 0;
    if (v.kind == Value::Kind::kString && StringAsUInt(v.s, &n)) {
      return Value::Int(static_cast<int64_t>(n));
    }
    return Value::Int(v.i);
  }
  if (expr.text == "str") {
    const Value v = expr.args.empty() ? Value::Unit() : Eval(*expr.args[0], env, fx);
    if (v.kind == Value::Kind::kInt) {
      return Value::Str(std::to_string(v.i));
    }
    return v;
  }

  // Record constructor: positional values for accessible (named bytes/uint)
  // fields in declaration order.
  if (program_->ast.FindType(expr.text) != nullptr) {
    Value rec = NewRecord(expr.text);
    if (rec.kind != Value::Kind::kRecord) {
      return Value::Unit();
    }
    const grammar::Unit* unit = rec.record->unit();
    size_t arg_i = 0;
    for (size_t f = 0; f < unit->fields().size() && arg_i < expr.args.size(); ++f) {
      const auto& field = unit->fields()[f];
      if (field.name.empty() || field.name.starts_with("__")) {
        continue;  // anonymous / synthesized length fields
      }
      const Value v = Eval(*expr.args[arg_i], env, fx);
      ++arg_i;
      if (field.kind == grammar::FieldKind::kUInt) {
        rec.record->SetUInt(static_cast<int>(f), static_cast<uint64_t>(v.i));
      } else if (field.kind == grammar::FieldKind::kBytes) {
        rec.record->SetBytes(static_cast<int>(f),
                             v.kind == Value::Kind::kString ? v.s : std::to_string(v.i));
      }
    }
    return rec;
  }

  // User function call.
  const FunDecl* fun = program_->ast.FindFun(expr.text);
  if (fun == nullptr) {
    return Value::Unit();
  }
  std::vector<Value> args;
  args.reserve(expr.args.size());
  for (const ExprPtr& a : expr.args) {
    args.push_back(Eval(*a, env, fx));
  }
  return CallFun(*fun, std::move(args), fx);
}

Value Interp::EvalBinary(const Expr& expr, Env& env, Effects& fx) {
  // Short-circuit logicals first.
  if (expr.op == BinOp::kAnd) {
    const Value l = Eval(*expr.base, env, fx);
    if (!l.Truthy()) {
      return Value::Bool(false);
    }
    return Value::Bool(Eval(*expr.index, env, fx).Truthy());
  }
  if (expr.op == BinOp::kOr) {
    const Value l = Eval(*expr.base, env, fx);
    if (l.Truthy()) {
      return Value::Bool(true);
    }
    return Value::Bool(Eval(*expr.index, env, fx).Truthy());
  }

  const Value l = Eval(*expr.base, env, fx);
  const Value r = Eval(*expr.index, env, fx);

  // Mixed string/int comparison: short strings compare numerically
  // (big-endian), mirroring `opcode = 0x0c` in Listing 1.
  auto numeric = [](const Value& v, int64_t* out) -> bool {
    if (v.kind == Value::Kind::kInt) {
      *out = v.i;
      return true;
    }
    if (v.kind == Value::Kind::kString) {
      uint64_t n = 0;
      if (StringAsUInt(v.s, &n)) {
        *out = static_cast<int64_t>(n);
        return true;
      }
    }
    return false;
  };

  auto compare = [&]() -> int {
    if (l.kind == Value::Kind::kString && r.kind == Value::Kind::kString) {
      return l.s.compare(r.s);
    }
    int64_t a = 0, b = 0;
    if (numeric(l, &a) && numeric(r, &b)) {
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    // None comparisons: None equals only None.
    if (l.kind == Value::Kind::kNone && r.kind == Value::Kind::kNone) {
      return 0;
    }
    return -2;  // incomparable
  };

  switch (expr.op) {
    case BinOp::kEq: {
      if (l.kind == Value::Kind::kNone || r.kind == Value::Kind::kNone) {
        return Value::Bool(l.kind == r.kind);
      }
      return Value::Bool(compare() == 0);
    }
    case BinOp::kNeq: {
      if (l.kind == Value::Kind::kNone || r.kind == Value::Kind::kNone) {
        return Value::Bool(l.kind != r.kind);
      }
      const int c = compare();
      return Value::Bool(c != 0);
    }
    case BinOp::kLt: return Value::Bool(compare() == -1);
    case BinOp::kGt: return Value::Bool(compare() == 1);
    case BinOp::kLe: {
      const int c = compare();
      return Value::Bool(c == 0 || c == -1);
    }
    case BinOp::kGe: {
      const int c = compare();
      return Value::Bool(c == 0 || c == 1);
    }
    case BinOp::kAdd:
      if (l.kind == Value::Kind::kString && r.kind == Value::Kind::kString) {
        return Value::Str(l.s + r.s);
      }
      return Value::Int(l.i + r.i);
    case BinOp::kSub: return Value::Int(l.i - r.i);
    case BinOp::kMul: return Value::Int(l.i * r.i);
    case BinOp::kDiv: return Value::Int(r.i == 0 ? 0 : l.i / r.i);
    case BinOp::kMod: return Value::Int(r.i == 0 ? 0 : l.i % r.i);
    case BinOp::kAnd:
    case BinOp::kOr:
      break;  // handled above
  }
  return Value::Unit();
}

}  // namespace flick::lang
