#include "lang/compile.h"

#include "lang/interp.h"
#include "lang/parser.h"
#include "lang/sema.h"

namespace flick::lang {
namespace {

// Lowers a field size annotation into a grammar LenExpr.
Result<grammar::LenExpr> LowerSizeExpr(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kIntLit:
      return grammar::LenExpr::Const(expr.int_value);
    case ExprKind::kVar:
      return grammar::LenExpr::Field(expr.text);
    case ExprKind::kBinary: {
      auto lhs = LowerSizeExpr(*expr.base);
      if (!lhs.ok()) {
        return lhs.status();
      }
      auto rhs = LowerSizeExpr(*expr.index);
      if (!rhs.ok()) {
        return rhs.status();
      }
      switch (expr.op) {
        case BinOp::kAdd: return *lhs + *rhs;
        case BinOp::kSub: return *lhs - *rhs;
        case BinOp::kMul: return *lhs * *rhs;
        default: return InvalidArgument("size expressions support only +, -, *");
      }
    }
    default:
      return InvalidArgument("unsupported size expression");
  }
}

// Synthesizes the wire grammar for a record type (§4.2). Strings without a
// size annotation become length-prefixed ("auto-framed") with a synthesized
// 4-byte length field named "__len_<field>".
Result<grammar::Unit> SynthesizeUnit(const TypeDecl& type) {
  grammar::UnitBuilder builder(type.name);
  builder.ByteOrder(ByteOrder::kBig);
  for (const FieldDecl& field : type.fields) {
    if (field.type == "integer") {
      if (field.annotation.is_ascii) {
        builder.AsciiUInt(field.name);
        continue;
      }
      uint64_t width = 8;
      if (field.annotation.size != nullptr) {
        if (field.annotation.size->kind != ExprKind::kIntLit) {
          return InvalidArgument("integer width must be a constant in field '" + field.name +
                                 "'");
        }
        width = field.annotation.size->int_value;
      }
      builder.UInt(field.name, width);
      continue;
    }
    // string
    if (field.annotation.size != nullptr) {
      auto len = LowerSizeExpr(*field.annotation.size);
      if (!len.ok()) {
        return len.status();
      }
      builder.Bytes(field.name, std::move(len).value());
    } else {
      if (field.name.empty()) {
        return InvalidArgument("anonymous string fields need a {size=...} annotation");
      }
      const std::string len_name = "__len_" + field.name;
      builder.UInt(len_name, 4);
      builder.Bytes(field.name, grammar::LenExpr::Field(len_name));
    }
  }
  return std::move(builder).Build();
}

}  // namespace

Result<std::shared_ptr<CompiledProgram>> CompileSource(const std::string& source) {
  auto parsed = Parse(source);
  if (!parsed.ok()) {
    return parsed.status();
  }
  auto compiled = std::make_shared<CompiledProgram>();
  compiled->ast = std::move(parsed).value();

  const Status checked = CheckOk(compiled->ast);
  if (!checked.ok()) {
    return checked;
  }

  for (const TypeDecl& type : compiled->ast.types) {
    auto unit = SynthesizeUnit(type);
    if (!unit.ok()) {
      return Status(unit.status().code(),
                    "type '" + type.name + "': " + unit.status().message());
    }
    compiled->units.emplace(type.name, std::move(unit).value());
  }
  return compiled;
}

runtime::ComputeTask::Handler MakeProcHandler(std::shared_ptr<const CompiledProgram> program,
                                              const ProcDecl* proc, ProcWiring wiring,
                                              runtime::StateStore* state,
                                              std::string state_prefix) {
  // The interpreter is shared by all invocations of this handler; compute
  // tasks are single-threaded by construction so no locking is needed.
  auto interp = std::make_shared<Interp>(program.get(), state,
                                         state_prefix.empty() ? proc->name : state_prefix);

  // Pre-build the base environment: channel endpoints and globals.
  auto base_env = std::make_shared<Interp::Env>();
  for (const Param& param : proc->params) {
    if (!param.channel.has_value()) {
      continue;
    }
    const auto ep = wiring.endpoints.find(param.name);
    Value v;
    if (param.channel->is_array) {
      v.kind = Value::Kind::kChannelArray;
    } else {
      v.kind = Value::Kind::kChannel;
    }
    if (ep != wiring.endpoints.end()) {
      for (size_t out : ep->second.outputs) {
        v.outs.push_back(static_cast<int>(out));
      }
    }
    (*base_env)[param.name] = std::move(v);
  }

  return [program, proc, wiring = std::move(wiring), interp,
          base_env](runtime::Msg& msg, size_t input_index,
                    runtime::EmitContext& emit) -> runtime::HandleResult {
    if (msg.kind == runtime::Msg::Kind::kEof) {
      // Forward EOF to every output so downstream IO tasks can close.
      return runtime::BroadcastEof(emit);
    }

    const std::string* param_name = wiring.ParamForInput(input_index);
    if (param_name == nullptr) {
      return runtime::HandleResult::kConsumed;  // unwired input: drop
    }

    // Find the first pipeline rule whose source is this channel param.
    const Stmt* rule = nullptr;
    for (const StmtPtr& stmt : proc->body) {
      if (stmt->kind == StmtKind::kSend && stmt->value->kind == ExprKind::kVar &&
          stmt->value->text == *param_name) {
        rule = stmt.get();
        break;
      }
    }
    if (rule == nullptr) {
      return runtime::HandleResult::kConsumed;  // no rule: drop
    }

    // Execute: current value = the arrived record; stages transform/send.
    Interp::Effects fx;
    fx.emit = &emit;
    interp->ResetFuel();

    Interp::Env env = *base_env;
    // Globals must exist in scope even when declared mid-body.
    for (const StmtPtr& stmt : proc->body) {
      if (stmt->kind == StmtKind::kGlobal) {
        Value v;
        v.kind = Value::Kind::kDict;
        v.dict = (proc->name) + "." + stmt->name;
        env[stmt->name] = std::move(v);
      }
    }

    const TypeDecl* in_type = nullptr;
    for (const Param& p : proc->params) {
      if (p.name == *param_name && p.channel.has_value() && p.channel->in_type != "-") {
        in_type = program->ast.FindType(p.channel->in_type);
      }
    }
    Value current;
    if (msg.kind == runtime::Msg::Kind::kGrammar) {
      current = Value::Record(&msg.gmsg, in_type);
    } else {
      current = Value::Str(msg.bytes);
    }

    for (const ExprPtr& stage : rule->send_stages) {
      if (fx.blocked) {
        break;
      }
      if (stage->kind == ExprKind::kCall && program->ast.FindFun(stage->text) != nullptr) {
        const FunDecl* fun = program->ast.FindFun(stage->text);
        std::vector<Value> args;
        for (const ExprPtr& a : stage->args) {
          args.push_back(interp->Eval(*a, env, fx));
        }
        args.push_back(current);
        current = interp->CallFun(*fun, std::move(args), fx);
      } else {
        if (!interp->Send(*stage, current, env, fx)) {
          break;
        }
        current = Value::Unit();
      }
    }

    interp->Commit(fx);
    interp->ClearTemps();
    return fx.blocked ? runtime::HandleResult::kBlocked : runtime::HandleResult::kConsumed;
  };
}

runtime::MergeTask::OrderFn MakeFoldtOrder(std::shared_ptr<const CompiledProgram> program,
                                           const std::string& record_type,
                                           const std::string& order_field) {
  const grammar::Unit* unit = program->UnitFor(record_type);
  FLICK_CHECK(unit != nullptr);
  const int field = unit->FieldIndex(order_field);
  FLICK_CHECK(field >= 0);
  const bool is_bytes =
      unit->fields()[static_cast<size_t>(field)].kind == grammar::FieldKind::kBytes;
  return [field, is_bytes](const runtime::Msg& a, const runtime::Msg& b) -> int {
    if (is_bytes) {
      const auto ka = a.gmsg.GetBytes(field);
      const auto kb = b.gmsg.GetBytes(field);
      return ka.compare(kb) < 0 ? -1 : (ka == kb ? 0 : 1);
    }
    const uint64_t ka = a.gmsg.GetUInt(field);
    const uint64_t kb = b.gmsg.GetUInt(field);
    return ka < kb ? -1 : (ka == kb ? 0 : 1);
  };
}

runtime::MergeTask::CombineFn MakeFoldtCombine(std::shared_ptr<const CompiledProgram> program,
                                               const std::string& combine_fun) {
  const FunDecl* fun = program->ast.FindFun(combine_fun);
  FLICK_CHECK(fun != nullptr);
  // One interpreter per combine callback; MergeTasks are single-threaded.
  auto interp = std::make_shared<Interp>(program.get(), nullptr, "foldt");
  return [program, fun, interp](runtime::Msg& into, const runtime::Msg& from) {
    Interp::Effects fx;  // no emission inside combine
    interp->ResetFuel();
    const TypeDecl* type = nullptr;
    if (!fun->params.empty()) {
      type = program->ast.FindType(fun->params[0].value_type);
    }
    std::vector<Value> args;
    args.push_back(Value::Record(&into.gmsg, type));
    args.push_back(Value::Record(const_cast<grammar::Message*>(&from.gmsg), type));
    const Value result = interp->CallFun(*fun, std::move(args), fx);
    if (result.kind == Value::Kind::kRecord && result.record != nullptr) {
      into.gmsg = *result.record;
    }
    interp->ClearTemps();
  };
}

}  // namespace flick::lang
