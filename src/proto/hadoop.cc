#include "proto/hadoop.h"

#include <charconv>

#include "base/byte_order.h"

namespace flick::proto {
namespace {

using grammar::LenExpr;
using grammar::Unit;
using grammar::UnitBuilder;

Unit BuildHadoopKvUnit() {
  auto unit = UnitBuilder("kv")
                  .ByteOrder(ByteOrder::kBig)
                  .UInt("key_len", 2)
                  .Bytes("key", LenExpr::Field("key_len"))
                  .UInt("value_len", 4)
                  .Bytes("value", LenExpr::Field("value_len"))
                  .Build();
  FLICK_CHECK(unit.ok());
  return std::move(unit).value();
}

}  // namespace

const Unit& HadoopKvUnit() {
  static const Unit* unit = new Unit(BuildHadoopKvUnit());
  return *unit;
}

void BuildKv(grammar::Message* msg, std::string_view key, std::string_view value) {
  msg->BindUnit(&HadoopKvUnit());
  msg->SetBytes(HadoopKv::kKey, key);
  msg->SetBytes(HadoopKv::kValue, value);
}

void EncodeKv(std::string_view key, std::string_view value, std::string* out) {
  uint8_t raw[4];
  StoreUInt(raw, 2, ByteOrder::kBig, key.size());
  out->append(reinterpret_cast<char*>(raw), 2);
  out->append(key);
  StoreUInt(raw, 4, ByteOrder::kBig, value.size());
  out->append(reinterpret_cast<char*>(raw), 4);
  out->append(value);
}

uint64_t ParseCount(std::string_view value) {
  uint64_t n = 0;
  for (char c : value) {
    n = n * 10 + static_cast<uint64_t>(c - '0');
  }
  return n;
}

CountText CombineCounts(std::string_view v1, std::string_view v2) {
  CountText out;
  const auto end =
      std::to_chars(out.digits, out.digits + sizeof(out.digits), ParseCount(v1) + ParseCount(v2))
          .ptr;
  out.size = static_cast<uint8_t>(end - out.digits);
  return out;
}

}  // namespace flick::proto
