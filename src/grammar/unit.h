// Message grammar units (§4.2): ordered field sequences with fixed-size
// integers, dependent-length byte/string fields, computed `var` fields and
// anonymous skip fields. Built with UnitBuilder, validated at Build() time.
//
// Projection (§4.2 "FLICK programs make accesses to message fields explicit")
// is expressed per field: a field that is not in the accessed set is still
// framed (its length still drives parsing) but its bytes are not materialised
// into the message, only counted and passed through.
#ifndef FLICK_GRAMMAR_UNIT_H_
#define FLICK_GRAMMAR_UNIT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/byte_order.h"
#include "base/result.h"
#include "grammar/len_expr.h"

namespace flick::grammar {

enum class FieldKind {
  kUInt,   // fixed 1..8-byte unsigned integer, endian per unit
  kBytes,  // byte/string field; fixed or expression-driven length
  kVar,    // no wire bytes; value computed by parse_expr / serialize writes
};

struct FieldSpec {
  std::string name;  // empty => anonymous ("_", not accessible)
  FieldKind kind = FieldKind::kBytes;

  // kUInt: byte width. kBytes with !length.is_const(): ignored.
  size_t fixed_size = 0;

  // kUInt only: wire form is ASCII decimal digits terminated by "\r\n"
  // (the terminator is consumed with the field). Wire width is variable,
  // so ascii fields end the unit's fixed prefix. fixed_size is ignored.
  bool ascii = false;

  // kBytes: length in bytes (may reference earlier numeric fields).
  LenExpr length;

  // kVar: value computed during parse.
  LenExpr parse_expr;

  // Serialisation write-back: after the sized fields' actual lengths are
  // known, `serialize_target` (a field name) is assigned serialize_expr
  // evaluated with $$ = actual size of the field named `dollar_source`.
  std::string serialize_target;
  LenExpr serialize_expr;
  std::string dollar_source;

  // Projection: materialise bytes into the message? (numeric fields are
  // always materialised — they may drive later lengths.)
  bool materialize = true;
};

// One row of a unit's parse plan: what the whole-message parse does for the
// field at the same index. Built once per Unit (Build and Project), so the
// per-message walk branches on one op and reads lengths without walking a
// LenExpr tree in the common cases.
struct ParseStep {
  enum class Op : uint8_t {
    kUInt,        // fixed-width integer; `arg` = width
    kAsciiUInt,   // decimal digits + CRLF
    kConstBytes,  // bytes of constant length; `arg` = length
    kFieldBytes,  // bytes sized by one earlier field; `arg` = its index
    kExprBytes,   // bytes sized by a compound LenExpr (FieldSpec::length)
    kVar,         // no wire bytes; FieldSpec::parse_expr
  };
  Op op = Op::kVar;
  bool materialize = true;
  uint64_t arg = 0;
};

class Unit;

class UnitBuilder {
 public:
  explicit UnitBuilder(std::string name) : name_(std::move(name)) {}

  UnitBuilder& ByteOrder(flick::ByteOrder order) {
    byte_order_ = order;
    return *this;
  }

  // Fixed-width unsigned integer field.
  UnitBuilder& UInt(std::string name, size_t bytes);
  // Anonymous fixed-width integer (reserved wire space).
  UnitBuilder& SkipUInt(size_t bytes) { return UInt("", bytes); }

  // ASCII-decimal unsigned integer terminated by "\r\n" (RESP-style line
  // framing). Participates in length expressions like any numeric field.
  UnitBuilder& AsciiUInt(std::string name);

  // Byte/string field with constant or computed length.
  UnitBuilder& Bytes(std::string name, LenExpr length);
  UnitBuilder& Bytes(std::string name, uint64_t fixed_length) {
    return Bytes(std::move(name), LenExpr::Const(fixed_length));
  }
  UnitBuilder& SkipBytes(LenExpr length) { return Bytes("", std::move(length)); }

  // var field: computed on parse, optional write-back on serialise.
  UnitBuilder& Var(std::string name, LenExpr parse_expr);

  // Declares: on serialise, set `target` := expr($$ = size of `dollar_source`).
  // Attaches to the most recently added field.
  UnitBuilder& SerializeWriteback(std::string target, LenExpr expr, std::string dollar_source);

  // Marks a named field as pass-through (framed but not materialised).
  UnitBuilder& NoMaterialize(const std::string& name);

  Result<Unit> Build();

 private:
  std::string name_;
  flick::ByteOrder byte_order_ = flick::ByteOrder::kBig;
  std::vector<FieldSpec> fields_;
};

class Unit {
 public:
  const std::string& name() const { return name_; }
  flick::ByteOrder byte_order() const { return byte_order_; }
  const std::vector<FieldSpec>& fields() const { return fields_; }

  // Index of a named field, or -1.
  int FieldIndex(const std::string& name) const;

  // Sum of fixed sizes of the leading run of constant-size fields — the
  // minimum bytes needed before any dynamic length can be computed.
  size_t fixed_prefix_size() const { return fixed_prefix_size_; }

  // Returns a copy of this unit where only `accessed` fields (and fields
  // feeding their lengths) are materialised.
  Unit Project(const std::vector<std::string>& accessed) const;

  // One step per field, in field order (UnitParser's whole-message path).
  const std::vector<ParseStep>& parse_plan() const { return plan_; }

 private:
  friend class UnitBuilder;

  void BuildPlan();

  std::string name_;
  flick::ByteOrder byte_order_ = flick::ByteOrder::kBig;
  std::vector<FieldSpec> fields_;
  size_t fixed_prefix_size_ = 0;
  std::vector<ParseStep> plan_;
};

}  // namespace flick::grammar

#endif  // FLICK_GRAMMAR_UNIT_H_
