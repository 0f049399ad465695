#include "lang/codegen_cpp.h"

#include <sstream>
#include <string>
#include <vector>

#include "lang/lower.h"

namespace flick::lang {
namespace {

// ------------------------------------------------------------------- sizes ----

// C++ rendering of a size annotation as a grammar::LenExpr value. At the top
// level a plain integer literal uses the Bytes(name, uint64_t) overload
// (identical to LenExpr::Const); nested literals must spell the constructor.
void EmitLenExpr(const Expr& expr, std::ostringstream& out, bool top_level) {
  switch (expr.kind) {
    case ExprKind::kIntLit:
      if (top_level) {
        out << expr.int_value;
      } else {
        out << "grammar::LenExpr::Const(" << expr.int_value << ")";
      }
      return;
    case ExprKind::kVar:
      out << "grammar::LenExpr::Field(\"" << expr.text << "\")";
      return;
    case ExprKind::kBinary: {
      out << "(";
      EmitLenExpr(*expr.base, out, /*top_level=*/false);
      out << (expr.op == BinOp::kAdd ? " + " : expr.op == BinOp::kSub ? " - " : " * ");
      EmitLenExpr(*expr.index, out, /*top_level=*/false);
      out << ")";
      return;
    }
    default:
      out << "/*unsupported*/0";
  }
}

// --------------------------------------------------------- canonical shape ----

// The canonical service wiring: scalar channels take compute indices in
// declaration order; the (single) channel array takes the tail block starting
// at `array_base` — one slot per backend, count known only at graph-build
// time. Matches services::DslService::OnConnection.
struct CanonicalShape {
  ProcWiring wiring;                  // array gets ONE analysis slot at array_base
  std::vector<const Param*> scalars;  // channel params, index = position in list
  const Param* array = nullptr;
  int array_base = -1;
  bool supported = false;  // false: >1 array — no rule gets a plan
};

CanonicalShape ShapeOf(const ProcDecl& proc) {
  CanonicalShape shape;
  size_t arrays = 0;
  for (const Param& p : proc.params) {
    if (!p.channel.has_value()) {
      continue;
    }
    if (p.channel->is_array) {
      ++arrays;
      shape.array = &p;
    } else {
      shape.scalars.push_back(&p);
    }
  }
  shape.supported = arrays <= 1;
  if (!shape.supported) {
    return shape;
  }
  int next = 0;
  for (const Param* p : shape.scalars) {
    shape.wiring.endpoints[p->name].inputs = {static_cast<size_t>(next)};
    shape.wiring.endpoints[p->name].outputs = {static_cast<size_t>(next)};
    ++next;
  }
  if (shape.array != nullptr) {
    shape.array_base = next;
    shape.wiring.endpoints[shape.array->name].inputs = {static_cast<size_t>(next)};
    shape.wiring.endpoints[shape.array->name].outputs = {static_cast<size_t>(next)};
  }
  return shape;
}

// ---------------------------------------------------------------- plan table ----

const char* ShapeEnum(RulePlan::Shape shape) {
  switch (shape) {
    case RulePlan::Shape::kForward: return "kForward";
    case RulePlan::Shape::kHashRoute: return "kHashRoute";
    case RulePlan::Shape::kCacheUpdateForward: return "kCacheUpdateForward";
    case RulePlan::Shape::kCacheTestRoute: return "kCacheTestRoute";
  }
  return "kForward";
}

// Emits `<target> = lang::RulePlan{...};` with every member spelled out. A
// plan that routes takes its targets from the local `backends`.
void EmitRuleSlot(const RulePlan& plan, const std::string& target,
                  const std::string& label, const std::string& pad,
                  std::ostringstream& out) {
  const std::string field = pad + "    .";
  out << pad << "// " << label << "\n"
      << pad << target << " = lang::RulePlan{\n"
      << field << "shape = lang::RulePlan::Shape::" << ShapeEnum(plan.shape) << ",\n"
      << field << "forward_out = " << plan.forward_out << ",\n"
      << field << "route_outs = " << (plan.route_outs.empty() ? "{}" : "backends") << ",\n"
      << field << "key_field = " << plan.key_field << ",\n"
      << field << "key_is_bytes = " << (plan.key_is_bytes ? "true" : "false") << ",\n"
      << field << "cmp_field = " << plan.cmp_field << ",\n"
      << field << "cmp_is_bytes = " << (plan.cmp_is_bytes ? "true" : "false") << ",\n"
      << field << "cmp_value = " << plan.cmp_value << "u,\n"
      << field << "dict = \"" << plan.dict << "\"};\n";
}

}  // namespace

std::string GenerateCpp(const CompiledProgram& program) {
  std::ostringstream out;
  out << "// Generated by the FLICK compiler (codegen_cpp pass).\n"
         "// Types -> grammar units; procs -> the lowering pass's rule plans as a\n"
         "// constant table, run by lang::MakePlanHandler; graphs -> GraphBuilder\n"
         "// wiring on the pooled runtime. Inputs without a plan dispatch to the\n"
         "// optional `fallback` handler.\n"
         "#include <cstddef>\n"
         "#include <memory>\n"
         "#include <numeric>\n"
         "#include <utility>\n"
         "#include <vector>\n"
         "\n"
         "#include \"grammar/unit.h\"\n"
         "#include \"lang/lower.h\"\n"
         "#include \"runtime/compute_task.h\"\n"
         "#include \"runtime/state_store.h\"\n"
         "#include \"services/graph_builder.h\"\n"
         "\n"
         "namespace flick::flickgen {\n\n";
  // ------------------------------------------------------------- units ------
  for (const TypeDecl& type : program.ast.types) {
    out << "// type " << type.name << "\n";
    out << "grammar::Unit Make_" << type.name << "_Unit() {\n";
    out << "  return grammar::UnitBuilder(\"" << type.name << "\")\n";
    out << "      .ByteOrder(ByteOrder::kBig)\n";
    for (const FieldDecl& field : type.fields) {
      const std::string& name = field.name;
      if (field.type == "integer") {
        if (field.annotation.is_ascii) {
          out << "      .AsciiUInt(\"" << name << "\")\n";
          continue;
        }
        uint64_t width = 8;
        if (field.annotation.size != nullptr &&
            field.annotation.size->kind == ExprKind::kIntLit) {
          width = field.annotation.size->int_value;
        }
        out << "      .UInt(\"" << name << "\", " << width << ")\n";
      } else if (field.annotation.size != nullptr) {
        std::ostringstream size;
        EmitLenExpr(*field.annotation.size, size, /*top_level=*/true);
        out << "      .Bytes(\"" << name << "\", " << size.str() << ")\n";
      } else {
        out << "      .UInt(\"__len_" << name << "\", 4)\n";
        out << "      .Bytes(\"" << name << "\", grammar::LenExpr::Field(\"__len_"
            << name << "\"))\n";
      }
    }
    out << "      .Build().value();\n}\n\n";
    out << "const grammar::Unit& " << type.name << "_Unit() {\n"
        << "  static const grammar::Unit unit = Make_" << type.name << "_Unit();\n"
        << "  return unit;\n}\n\n";
  }

  // ----------------------------------------------------------- handlers ------
  for (const ProcDecl& proc : program.ast.procs) {
    const CanonicalShape shape = ShapeOf(proc);
    ProcPlan plan;
    if (shape.supported) {
      plan = AnalyzeProc(program, proc, shape.wiring);
    }
    bool routes = false;
    for (const auto& rule : plan.rules) {
      routes = routes || (rule.has_value() && !rule->route_outs.empty());
    }

    out << "// proc " << proc.name << " -> ComputeTask handler: the lowering pass's\n"
           "// plans, one per input. `backend_count` is the size of the backend\n"
           "// channel array at graph-build time (0 if the proc has none); inputs\n"
           "// without a plan dispatch to `fallback` (pass the interpreter handler,\n"
           "// or {} to drop).\n";
    out << "runtime::ComputeTask::Handler Make_" << proc.name << "_Handler(\n"
           "    runtime::StateStore* state, size_t backend_count,\n"
           "    runtime::ComputeTask::Handler fallback) {\n";
    if (routes) {
      out << "  std::vector<int> backends(backend_count);\n"
          << "  std::iota(backends.begin(), backends.end(), " << shape.array_base << ");\n";
    }
    out << "  lang::ProcPlan plan;\n"
        << "  plan.rules.resize(" << shape.scalars.size() << " + backend_count);\n";
    for (size_t si = 0; si < shape.scalars.size() && si < plan.rules.size(); ++si) {
      if (plan.rules[si].has_value()) {
        EmitRuleSlot(*plan.rules[si], "plan.rules[" + std::to_string(si) + "]",
                     shape.scalars[si]->name, "  ", out);
      }
    }
    if (shape.array != nullptr &&
        static_cast<size_t>(shape.array_base) < plan.rules.size() &&
        plan.rules[static_cast<size_t>(shape.array_base)].has_value()) {
      out << "  for (size_t i = " << shape.array_base << "; i < plan.rules.size(); ++i) {\n";
      EmitRuleSlot(*plan.rules[static_cast<size_t>(shape.array_base)], "plan.rules[i]",
                   shape.array->name, "    ", out);
      out << "  }\n";
    }
    out << "  return lang::MakePlanHandler(std::move(plan), state, std::move(fallback));\n"
           "}\n\n";

    // ------------------------------------------------------ graph wiring ----
    // Only the canonical middlebox shape gets wiring: one scalar channel the
    // service reads from (the accepted client) plus an optional backend array.
    const Param* client = nullptr;
    for (const Param* p : shape.scalars) {
      if (p->channel->in_type != "-") {
        client = p;
        break;
      }
    }
    if (!shape.supported || client == nullptr || shape.scalars.size() != 1) {
      out << "// proc " << proc.name << ": no canonical client/backends shape — "
             "graph wiring not generated.\n\n";
      continue;
    }
    const std::string in_unit = client->channel->in_type + "_Unit()";
    const std::string out_unit = client->channel->out_type == "-"
                                     ? in_unit
                                     : client->channel->out_type + "_Unit()";
    out << "// proc " << proc.name << " -> per-connection graph (Fig. 3 shape):\n"
           "// client source -> proc stage -> client sink + pooled backend legs.\n"
           "// Call per accepted connection, then b.Launch(registry).\n";
    out << "void Build_" << proc.name << "_Graph(\n"
           "    services::GraphBuilder& b, std::unique_ptr<Connection> client_conn,\n";
    if (shape.array != nullptr) {
      out << "    services::BackendPool& pool,\n";
    }
    out << "    runtime::StateStore* state, runtime::ComputeTask::Handler fallback) {\n";
    out << "  auto client = b.Adopt(std::move(client_conn));\n";
    out << "  auto request = b.Source(\n"
           "      \"client-in\", client,\n"
           "      std::make_unique<runtime::GrammarDeserializer>(&" << in_unit << "));\n";
    if (shape.array != nullptr) {
      out << "  auto legs = b.FanOutPooled(pool, /*capacity=*/64);\n";
      out << "  auto proc = b.Stage(\"proc:" << proc.name << "\",\n"
             "                      Make_" << proc.name << "_Handler(state, legs.size(),\n"
             "                                                       std::move(fallback)))\n"
             "                  .From(request);  // proc input 0\n";
    } else {
      out << "  auto proc = b.Stage(\"proc:" << proc.name << "\",\n"
             "                      Make_" << proc.name << "_Handler(state, 0,\n"
             "                                                       std::move(fallback)))\n"
             "                  .From(request);  // proc input 0\n";
    }
    out << "  b.Sink(\"client-out\", client,\n"
           "         std::make_unique<runtime::GrammarSerializer>(&" << out_unit
        << "))\n"
           "      .From(proc);  // proc output 0\n";
    if (shape.array != nullptr) {
      out << "  for (auto& leg : legs) {\n"
             "    leg.sink.From(proc);  // proc outputs 1..n\n"
             "  }\n"
             "  for (auto& leg : legs) {\n"
             "    proc.From(leg.source);  // proc inputs 1..n\n"
             "  }\n";
    }
    out << "}\n\n";
  }

  out << "}  // namespace flick::flickgen\n";
  return out.str();
}

}  // namespace flick::lang
