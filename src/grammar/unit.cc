#include "grammar/unit.h"

#include <set>

namespace flick::grammar {

UnitBuilder& UnitBuilder::UInt(std::string name, size_t bytes) {
  FieldSpec f;
  f.name = std::move(name);
  f.kind = FieldKind::kUInt;
  f.fixed_size = bytes;
  fields_.push_back(std::move(f));
  return *this;
}

UnitBuilder& UnitBuilder::AsciiUInt(std::string name) {
  FieldSpec f;
  f.name = std::move(name);
  f.kind = FieldKind::kUInt;
  f.ascii = true;
  fields_.push_back(std::move(f));
  return *this;
}

UnitBuilder& UnitBuilder::Bytes(std::string name, LenExpr length) {
  FieldSpec f;
  f.name = std::move(name);
  f.kind = FieldKind::kBytes;
  f.length = std::move(length);
  if (f.length.is_const()) {
    f.fixed_size = f.length.const_value();
  }
  fields_.push_back(std::move(f));
  return *this;
}

UnitBuilder& UnitBuilder::Var(std::string name, LenExpr parse_expr) {
  FieldSpec f;
  f.name = std::move(name);
  f.kind = FieldKind::kVar;
  f.parse_expr = std::move(parse_expr);
  fields_.push_back(std::move(f));
  return *this;
}

UnitBuilder& UnitBuilder::SerializeWriteback(std::string target, LenExpr expr,
                                             std::string dollar_source) {
  FLICK_CHECK(!fields_.empty());
  FieldSpec& f = fields_.back();
  f.serialize_target = std::move(target);
  f.serialize_expr = std::move(expr);
  f.dollar_source = std::move(dollar_source);
  return *this;
}

UnitBuilder& UnitBuilder::NoMaterialize(const std::string& name) {
  for (FieldSpec& f : fields_) {
    if (f.name == name) {
      f.materialize = false;
      return *this;
    }
  }
  FLICK_CHECK(false && "NoMaterialize: unknown field");
  return *this;
}

Result<Unit> UnitBuilder::Build() {
  Unit unit;
  unit.name_ = std::move(name_);
  unit.byte_order_ = byte_order_;
  unit.fields_ = std::move(fields_);

  // Validate names are unique (anonymous fields excepted).
  std::set<std::string> seen;
  for (const FieldSpec& f : unit.fields_) {
    if (f.name.empty()) {
      continue;
    }
    if (!seen.insert(f.name).second) {
      return InvalidArgument("duplicate field name: " + f.name);
    }
  }

  // Integer widths must be 1..8 (ascii integers have no fixed wire width).
  for (const FieldSpec& f : unit.fields_) {
    if (f.kind == FieldKind::kUInt && !f.ascii &&
        (f.fixed_size == 0 || f.fixed_size > 8)) {
      return InvalidArgument("integer field width out of range: " + f.name);
    }
  }

  // Resolve expressions; every referenced field must be an *earlier* numeric
  // field (uint or var) so incremental parsing is single-pass (LL(1)-style).
  for (size_t i = 0; i < unit.fields_.size(); ++i) {
    FieldSpec& f = unit.fields_[i];
    auto resolver_before = [&](const std::string& name) -> int {
      for (size_t j = 0; j < i; ++j) {
        const FieldSpec& g = unit.fields_[j];
        if (g.name == name &&
            (g.kind == FieldKind::kUInt || g.kind == FieldKind::kVar)) {
          return static_cast<int>(j);
        }
      }
      return -1;
    };
    if (f.kind == FieldKind::kBytes && !f.length.Resolve(resolver_before)) {
      return InvalidArgument("length of '" + f.name +
                             "' references an unknown or later field");
    }
    if (f.kind == FieldKind::kVar && !f.parse_expr.Resolve(resolver_before)) {
      return InvalidArgument("parse expr of '" + f.name +
                             "' references an unknown or later field");
    }
    if (!f.serialize_target.empty()) {
      // Write-back targets/sources may be anywhere in the unit.
      auto resolver_any = [&](const std::string& name) -> int {
        for (size_t j = 0; j < unit.fields_.size(); ++j) {
          if (unit.fields_[j].name == name) {
            return static_cast<int>(j);
          }
        }
        return -1;
      };
      if (resolver_any(f.serialize_target) < 0) {
        return InvalidArgument("serialize target '" + f.serialize_target + "' unknown");
      }
      if (!f.dollar_source.empty() && resolver_any(f.dollar_source) < 0) {
        return InvalidArgument("dollar source '" + f.dollar_source + "' unknown");
      }
      if (!f.serialize_expr.Resolve(resolver_any)) {
        return InvalidArgument("serialize expr of '" + f.name + "' references unknown field");
      }
    }
  }

  // Fixed prefix: leading constant-size wire fields.
  size_t prefix = 0;
  for (const FieldSpec& f : unit.fields_) {
    if (f.kind == FieldKind::kVar) {
      continue;  // no wire bytes
    }
    if ((f.kind == FieldKind::kUInt && !f.ascii) ||
        (f.kind == FieldKind::kBytes && f.length.is_const())) {
      prefix += f.fixed_size;
    } else {
      break;  // ascii ints and expression-sized bytes have variable width
    }
  }
  unit.fixed_prefix_size_ = prefix;
  unit.BuildPlan();

  return unit;
}

void Unit::BuildPlan() {
  plan_.clear();
  plan_.reserve(fields_.size());
  for (const FieldSpec& f : fields_) {
    ParseStep step;
    step.materialize = f.materialize;
    if (f.kind == FieldKind::kVar) {
      step.op = ParseStep::Op::kVar;
    } else if (f.kind == FieldKind::kUInt) {
      step.op = f.ascii ? ParseStep::Op::kAsciiUInt : ParseStep::Op::kUInt;
      step.arg = f.fixed_size;
    } else if (f.length.is_const()) {
      step.op = ParseStep::Op::kConstBytes;
      step.arg = f.length.const_value();
    } else if (f.length.is_single_field()) {
      step.op = ParseStep::Op::kFieldBytes;
      step.arg = static_cast<uint64_t>(f.length.single_field_index());
    } else {
      step.op = ParseStep::Op::kExprBytes;
    }
    plan_.push_back(step);
  }
}

int Unit::FieldIndex(const std::string& name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (!fields_[i].name.empty() && fields_[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

Unit Unit::Project(const std::vector<std::string>& accessed) const {
  Unit projected = *this;
  std::set<std::string> keep(accessed.begin(), accessed.end());
  // Fields feeding any parse-side expression must stay materialised; bytes
  // fields outside the accessed set become pass-through. (Serialize-side
  // references are deliberately ignored: a projected unit serves the parse
  // path, and re-serialising a projected message is unsupported by design —
  // pass-through fields have lost their payload.)
  std::set<std::string> needed;
  for (const FieldSpec& f : projected.fields_) {
    std::vector<std::string> refs;
    f.length.CollectFieldNames(&refs);
    f.parse_expr.CollectFieldNames(&refs);
    needed.insert(refs.begin(), refs.end());
  }
  for (FieldSpec& f : projected.fields_) {
    if (f.kind != FieldKind::kBytes) {
      continue;
    }
    if (f.name.empty() || (keep.count(f.name) == 0 && needed.count(f.name) == 0)) {
      f.materialize = false;
    }
  }
  projected.BuildPlan();
  return projected;
}

}  // namespace flick::grammar
