// Hadoop intermediate key/value wire format (§2.1/§6.1: the shuffle-phase
// stream a combiner consumes). Framed as length-prefixed pairs:
//
//   kv := key_len : uint16  | key : bytes &length=key_len
//       | value_len : uint32 | value : bytes &length=value_len
//
// For the wordcount workload, values are decimal counts; Combine() adds them
// (the paper's `combine` function in Listing 3).
#ifndef FLICK_PROTO_HADOOP_H_
#define FLICK_PROTO_HADOOP_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "grammar/message.h"
#include "grammar/parser.h"
#include "grammar/unit.h"

namespace flick::proto {

const grammar::Unit& HadoopKvUnit();

class HadoopKv {
 public:
  explicit HadoopKv(grammar::Message* msg) : msg_(msg) {}

  std::string_view key() const { return msg_->GetBytes(kKey); }
  std::string_view value() const { return msg_->GetBytes(kValue); }

  static constexpr int kKeyLen = 0;
  static constexpr int kKey = 1;
  static constexpr int kValueLen = 2;
  static constexpr int kValue = 3;

 private:
  grammar::Message* msg_;
};

void BuildKv(grammar::Message* msg, std::string_view key, std::string_view value);

// Appends the wire form of (key, value) to `out`.
void EncodeKv(std::string_view key, std::string_view value, std::string* out);

// A wordcount value: the decimal count it carries.
uint64_t ParseCount(std::string_view value);

// A decimal count formatted in place (room for any uint64_t).
struct CountText {
  char digits[20] = {};
  uint8_t size = 0;
  std::string_view view() const { return {digits, size}; }
};

// Wordcount combine: decimal-add two values (Listing 3's `combine`), with no
// heap string: write the result with Message::SetBytes(index, sum.view()).
CountText CombineCounts(std::string_view v1, std::string_view v2);

}  // namespace flick::proto

#endif  // FLICK_PROTO_HADOOP_H_
