// Tests for the message-grammar engine: unit building/validation, length
// expressions, incremental parsing under arbitrary fragmentation, projection,
// and serialisation round-trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "buffer/buffer_chain.h"
#include "buffer/buffer_pool.h"
#include "grammar/len_expr.h"
#include "grammar/message.h"
#include "grammar/parser.h"
#include "grammar/serializer.h"
#include "grammar/unit.h"
#include "lang/compile.h"
#include "proto/hadoop.h"
#include "proto/memcached.h"
#include "services/dsl_service.h"

namespace flick::grammar {
namespace {

// ----------------------------------------------------------------- LenExpr ----

TEST(LenExprTest, ConstEval) {
  EXPECT_EQ(LenExpr::Const(7).Eval({}), 7u);
  EXPECT_TRUE(LenExpr::Const(7).is_const());
}

TEST(LenExprTest, Arithmetic) {
  const LenExpr e = LenExpr::Const(10) + LenExpr::Const(5) * LenExpr::Const(2);
  EXPECT_EQ(e.Eval({}), 20u);
  EXPECT_FALSE(e.is_const());
}

TEST(LenExprTest, SubClampsAtZero) {
  const LenExpr e = LenExpr::Const(3) - LenExpr::Const(10);
  EXPECT_EQ(e.Eval({}), 0u) << "malformed lengths must not wrap around";
}

TEST(LenExprTest, FieldResolutionAndEval) {
  LenExpr e = LenExpr::Field("a") + LenExpr::Field("b");
  ASSERT_TRUE(e.Resolve([](const std::string& n) { return n == "a" ? 0 : (n == "b" ? 1 : -1); }));
  EXPECT_EQ(e.Eval({4, 6}), 10u);
}

TEST(LenExprTest, UnknownFieldFailsResolve) {
  LenExpr e = LenExpr::Field("nope");
  EXPECT_FALSE(e.Resolve([](const std::string&) { return -1; }));
}

TEST(LenExprTest, DollarSubstitution) {
  const LenExpr e = LenExpr::Field("a") + LenExpr::Dollar();
  LenExpr copy = e;
  ASSERT_TRUE(copy.Resolve([](const std::string&) { return 0; }));
  EXPECT_EQ(copy.Eval({5}, 37), 42u);
  EXPECT_TRUE(copy.uses_dollar());
}

// -------------------------------------------------------------------- Unit ----

TEST(UnitTest, BuildSimple) {
  auto unit = UnitBuilder("t").UInt("len", 2).Bytes("data", LenExpr::Field("len")).Build();
  ASSERT_TRUE(unit.ok());
  EXPECT_EQ(unit->name(), "t");
  EXPECT_EQ(unit->fields().size(), 2u);
  EXPECT_EQ(unit->FieldIndex("len"), 0);
  EXPECT_EQ(unit->FieldIndex("data"), 1);
  EXPECT_EQ(unit->FieldIndex("missing"), -1);
  EXPECT_EQ(unit->fixed_prefix_size(), 2u);
}

TEST(UnitTest, DuplicateNameRejected) {
  auto unit = UnitBuilder("t").UInt("x", 1).UInt("x", 2).Build();
  EXPECT_FALSE(unit.ok());
  EXPECT_EQ(unit.status().code(), StatusCode::kInvalidArgument);
}

TEST(UnitTest, AnonymousFieldsMayRepeat) {
  auto unit = UnitBuilder("t").SkipUInt(1).SkipUInt(2).SkipBytes(LenExpr::Const(3)).Build();
  EXPECT_TRUE(unit.ok());
}

TEST(UnitTest, ForwardLengthReferenceRejected) {
  // LL(1) rule: lengths may only depend on earlier fields.
  auto unit =
      UnitBuilder("t").Bytes("data", LenExpr::Field("len")).UInt("len", 2).Build();
  EXPECT_FALSE(unit.ok());
}

TEST(UnitTest, LengthReferencingBytesFieldRejected) {
  auto unit = UnitBuilder("t")
                  .Bytes("blob", LenExpr::Const(4))
                  .Bytes("data", LenExpr::Field("blob"))
                  .Build();
  EXPECT_FALSE(unit.ok()) << "lengths must reference numeric fields";
}

TEST(UnitTest, ZeroWidthIntRejected) {
  auto unit = UnitBuilder("t").UInt("x", 0).Build();
  EXPECT_FALSE(unit.ok());
}

TEST(UnitTest, NineByteIntRejected) {
  auto unit = UnitBuilder("t").UInt("x", 9).Build();
  EXPECT_FALSE(unit.ok());
}

TEST(UnitTest, UnknownSerializeTargetRejected) {
  auto unit = UnitBuilder("t")
                  .UInt("len", 2)
                  .Var("v", LenExpr::Field("len"))
                  .SerializeWriteback("ghost", LenExpr::Dollar(), "len")
                  .Build();
  EXPECT_FALSE(unit.ok());
}

TEST(UnitTest, FixedPrefixStopsAtDynamicField) {
  auto unit = UnitBuilder("t")
                  .UInt("a", 4)
                  .Bytes("pad", 8)
                  .UInt("len", 2)
                  .Bytes("data", LenExpr::Field("len"))
                  .UInt("trailer", 4)
                  .Build();
  ASSERT_TRUE(unit.ok());
  EXPECT_EQ(unit->fixed_prefix_size(), 14u);
}

// ------------------------------------------------------------ Parse basics ----

class ParserTest : public ::testing::Test {
 protected:
  ParserTest() {
    auto unit = UnitBuilder("msg")
                    .ByteOrder(ByteOrder::kBig)
                    .UInt("tag", 1)
                    .UInt("key_len", 2)
                    .UInt("val_len", 4)
                    .Bytes("key", LenExpr::Field("key_len"))
                    .Bytes("val", LenExpr::Field("val_len"))
                    .Build();
    FLICK_CHECK(unit.ok());
    unit_ = std::move(unit).value();
  }

  // Wire encoding of (tag, key, val) under unit_.
  static std::string Encode(uint8_t tag, std::string_view key, std::string_view val) {
    std::string out;
    out.push_back(static_cast<char>(tag));
    uint8_t raw[4];
    StoreUInt(raw, 2, ByteOrder::kBig, key.size());
    out.append(reinterpret_cast<char*>(raw), 2);
    StoreUInt(raw, 4, ByteOrder::kBig, val.size());
    out.append(reinterpret_cast<char*>(raw), 4);
    out.append(key);
    out.append(val);
    return out;
  }

  Unit unit_;
  BufferPool pool_{256, 128};
};

TEST_F(ParserTest, ParsesWholeMessage) {
  BufferChain input(&pool_);
  ASSERT_TRUE(input.Append(Encode(7, "hello", "world!")));
  UnitParser parser(&unit_);
  Message msg;
  ASSERT_EQ(parser.Feed(input, &msg), ParseStatus::kDone);
  EXPECT_EQ(msg.GetUInt("tag"), 7u);
  EXPECT_EQ(msg.GetBytes("key"), "hello");
  EXPECT_EQ(msg.GetBytes("val"), "world!");
  EXPECT_EQ(msg.wire_size(), 7u + 5 + 6);
  EXPECT_TRUE(input.empty());
}

TEST_F(ParserTest, EmptyVariableFields) {
  BufferChain input(&pool_);
  ASSERT_TRUE(input.Append(Encode(1, "", "")));
  UnitParser parser(&unit_);
  Message msg;
  ASSERT_EQ(parser.Feed(input, &msg), ParseStatus::kDone);
  EXPECT_EQ(msg.GetBytes("key"), "");
  EXPECT_EQ(msg.GetBytes("val"), "");
}

TEST_F(ParserTest, BackToBackMessages) {
  BufferChain input(&pool_);
  ASSERT_TRUE(input.Append(Encode(1, "a", "x") + Encode(2, "b", "y")));
  UnitParser parser(&unit_);
  Message m1, m2;
  ASSERT_EQ(parser.Feed(input, &m1), ParseStatus::kDone);
  ASSERT_EQ(parser.Feed(input, &m2), ParseStatus::kDone);
  EXPECT_EQ(m1.GetUInt("tag"), 1u);
  EXPECT_EQ(m2.GetUInt("tag"), 2u);
  EXPECT_EQ(m2.GetBytes("key"), "b");
}

TEST_F(ParserTest, NeedMoreOnPartialHeader) {
  BufferChain input(&pool_);
  const std::string wire = Encode(1, "abc", "defg");
  ASSERT_TRUE(input.Append(wire.substr(0, 3)));  // mid key_len/val_len
  UnitParser parser(&unit_);
  Message msg;
  EXPECT_EQ(parser.Feed(input, &msg), ParseStatus::kNeedMore);
  ASSERT_TRUE(input.Append(wire.substr(3)));
  EXPECT_EQ(parser.Feed(input, &msg), ParseStatus::kDone);
  EXPECT_EQ(msg.GetBytes("key"), "abc");
  EXPECT_EQ(msg.GetBytes("val"), "defg");
}

TEST_F(ParserTest, OversizeFieldIsError) {
  BufferChain input(&pool_);
  ASSERT_TRUE(input.Append(Encode(1, "k", std::string(2000, 'v'))));
  UnitParser parser(&unit_);
  parser.set_max_field_size(1000);
  Message msg;
  EXPECT_EQ(parser.Feed(input, &msg), ParseStatus::kError);
}

// Property: for EVERY split point, feeding the message in two fragments
// yields the same result as one-shot parsing (§4.2 incremental parsing).
class FragmentationTest : public ParserTest,
                          public ::testing::WithParamInterface<size_t> {};

TEST_P(FragmentationTest, SplitAtEveryOffset) {
  const std::string wire = Encode(9, "fragmented-key", "fragmented-value-bytes");
  const size_t split = GetParam() % (wire.size() + 1);
  BufferChain input(&pool_);
  UnitParser parser(&unit_);
  Message msg;

  ASSERT_TRUE(input.Append(wire.substr(0, split)));
  const ParseStatus first = parser.Feed(input, &msg);
  if (split < wire.size()) {
    ASSERT_EQ(first, ParseStatus::kNeedMore) << "split=" << split;
    ASSERT_TRUE(input.Append(wire.substr(split)));
    ASSERT_EQ(parser.Feed(input, &msg), ParseStatus::kDone) << "split=" << split;
  } else {
    ASSERT_EQ(first, ParseStatus::kDone);
  }
  EXPECT_EQ(msg.GetUInt("tag"), 9u);
  EXPECT_EQ(msg.GetBytes("key"), "fragmented-key");
  EXPECT_EQ(msg.GetBytes("val"), "fragmented-value-bytes");
}

INSTANTIATE_TEST_SUITE_P(AllSplits, FragmentationTest,
                         ::testing::Range<size_t>(0, 44));

TEST_F(ParserTest, RandomFragmentationStress) {
  Rng rng(2024);
  UnitParser parser(&unit_);
  for (int round = 0; round < 200; ++round) {
    const std::string key(rng.NextInRange(0, 40), 'k');
    const std::string val(rng.NextInRange(0, 60), 'v');
    const std::string wire = Encode(static_cast<uint8_t>(round), key, val);
    BufferChain input(&pool_);
    Message msg;
    size_t sent = 0;
    ParseStatus status = ParseStatus::kNeedMore;
    while (status == ParseStatus::kNeedMore) {
      if (sent < wire.size()) {
        const size_t n = rng.NextInRange(1, 7);
        const size_t take = std::min(n, wire.size() - sent);
        ASSERT_TRUE(input.Append(wire.substr(sent, take)));
        sent += take;
      }
      status = parser.Feed(input, &msg);
      ASSERT_NE(status, ParseStatus::kError);
      if (status == ParseStatus::kNeedMore && sent >= wire.size()) {
        FAIL() << "parser did not complete after full message";
      }
    }
    ASSERT_EQ(msg.GetBytes("key"), key) << "round " << round;
    ASSERT_EQ(msg.GetBytes("val"), val) << "round " << round;
  }
}

// -------------------------------------------------------------- Projection ----

TEST_F(ParserTest, ProjectionSkipsUnaccessedBytes) {
  const Unit projected = unit_.Project({"key"});
  BufferChain input(&pool_);
  ASSERT_TRUE(input.Append(Encode(3, "wanted", "unwanted-payload")));
  UnitParser parser(&projected);
  Message msg;
  ASSERT_EQ(parser.Feed(input, &msg), ParseStatus::kDone);
  EXPECT_EQ(msg.GetBytes("key"), "wanted");
  EXPECT_EQ(msg.GetBytes("val"), "") << "val must not be materialised";
  EXPECT_EQ(msg.FieldWireSize(unit_.FieldIndex("val")), 16u)
      << "val must still be framed and counted";
}

TEST(ProjectionTest, LengthDrivingFieldsAreKept) {
  auto unit = UnitBuilder("t")
                  .UInt("len", 2)
                  .Bytes("data", LenExpr::Field("len"))
                  .Build();
  ASSERT_TRUE(unit.ok());
  const Unit projected = unit->Project({});  // nothing accessed
  // `len` still drives framing: parsing must consume exactly the message.
  EXPECT_EQ(projected.fields()[0].materialize, true);
  EXPECT_EQ(projected.fields()[1].materialize, false);
}

// The parse plan carries the projection: a whole message parsed in one pass
// through the routing unit frames every field but copies only the key.
TEST(ProjectionTest, PlanSkipsUnmaterialisedBytes) {
  const Unit& routing = proto::MemcachedRoutingUnit();
  const int extras = routing.FieldIndex("extras");
  const int key = routing.FieldIndex("key");
  const int value = routing.FieldIndex("value");
  const std::vector<ParseStep>& plan = routing.parse_plan();
  ASSERT_EQ(plan.size(), routing.fields().size());
  EXPECT_EQ(plan[static_cast<size_t>(key)].op, ParseStep::Op::kFieldBytes);
  EXPECT_TRUE(plan[static_cast<size_t>(key)].materialize);
  EXPECT_FALSE(plan[static_cast<size_t>(extras)].materialize);
  EXPECT_FALSE(plan[static_cast<size_t>(value)].materialize);
  EXPECT_TRUE(proto::MemcachedUnit().parse_plan()[static_cast<size_t>(value)].materialize);

  Message request;
  proto::BuildRequest(&request, 0x01, "routed-key", "a-value-the-router-never-reads", 7);
  BufferPool pool(4, 4096);
  BufferChain input(&pool);
  ASSERT_TRUE(UnitSerializer(&proto::MemcachedUnit()).Serialize(request, input).ok());
  const size_t wire = input.readable();
  ASSERT_EQ(input.FrontView().size(), wire) << "one buffer: the one-pass path";

  UnitParser parser(&routing);
  Message msg;
  ASSERT_EQ(parser.Feed(input, &msg), ParseStatus::kDone);
  EXPECT_TRUE(input.empty());
  EXPECT_EQ(msg.wire_size(), wire);
  EXPECT_EQ(msg.GetBytes(key), "routed-key");
  EXPECT_EQ(msg.GetBytes(value), "");
  EXPECT_EQ(msg.FieldWireSize(value), 30u);
  EXPECT_EQ(msg.arena_bytes(), 10u) << "only the key reaches the arena";
}

// ----------------------------------------------------------- Serialisation ----

TEST_F(ParserTest, SerializeRoundTrip) {
  Message msg;
  msg.BindUnit(&unit_);
  msg.SetUInt("tag", 5);
  msg.SetBytes("key", "round");
  msg.SetBytes("val", "trip-payload");
  // Lengths left stale on purpose; serializer must fix them up.
  BufferChain out(&pool_);
  UnitSerializer serializer(&unit_);
  ASSERT_TRUE(serializer.Serialize(msg, out).ok());

  UnitParser parser(&unit_);
  Message parsed;
  ASSERT_EQ(parser.Feed(out, &parsed), ParseStatus::kDone);
  EXPECT_EQ(parsed.GetUInt("tag"), 5u);
  EXPECT_EQ(parsed.GetBytes("key"), "round");
  EXPECT_EQ(parsed.GetBytes("val"), "trip-payload");
  EXPECT_EQ(parsed.GetUInt("key_len"), 5u);
  EXPECT_EQ(parsed.GetUInt("val_len"), 12u);
}

// A foldt combine rewrites the held record's value once per folded record:
// an overwritten field must reuse its arena slot, not append a copy per
// write, and the other fields must survive.
TEST_F(ParserTest, OverwrittenFieldsKeepTheArenaBounded) {
  BufferChain input(&pool_);
  ASSERT_TRUE(input.Append(Encode(3, "middle-key", "tail-value")));
  UnitParser parser(&unit_);
  Message msg;
  ASSERT_EQ(parser.Feed(input, &msg), ParseStatus::kDone);
  const size_t parsed_arena = msg.arena_bytes();

  // The last field, growing like a running count.
  for (uint64_t i = 0; i < 100000; ++i) {
    msg.SetBytes("val", std::to_string(i));
  }
  EXPECT_EQ(msg.GetBytes("val"), "99999");
  EXPECT_EQ(msg.GetBytes("key"), "middle-key");
  EXPECT_EQ(msg.GetUInt("tag"), 3u);
  EXPECT_LE(msg.arena_bytes(), parsed_arena);

  // A middle field and the last one, alternately shrinking and outgrowing
  // their slots: once each slot has reached its largest size, no write may
  // grow the arena.
  const auto key_of = [](uint64_t i) { return std::string(1 + i % 17, 'k'); };
  const auto val_of = [](uint64_t i) { return std::string(1 + (i * 7) % 13, 'v'); };
  size_t settled = 0;
  for (uint64_t i = 0; i < 100000; ++i) {
    msg.SetBytes("key", key_of(i));
    msg.SetBytes("val", val_of(i));
    if (i == 1000) {
      settled = msg.arena_bytes();
    }
  }
  EXPECT_EQ(msg.arena_bytes(), settled);
  EXPECT_LE(settled, 2 * (parsed_arena + 17 + 13));
  EXPECT_EQ(msg.GetBytes("key"), key_of(99999));
  EXPECT_EQ(msg.GetBytes("val"), val_of(99999));
  EXPECT_EQ(msg.GetUInt("tag"), 3u);
  EXPECT_EQ(msg.GetUInt("key_len"), 10u);
  EXPECT_EQ(msg.GetUInt("val_len"), 10u);
}

TEST_F(ParserTest, SerializeWireSizeMatches) {
  Message msg;
  msg.BindUnit(&unit_);
  msg.SetUInt("tag", 1);
  msg.SetBytes("key", "abc");
  msg.SetBytes("val", "defgh");
  UnitSerializer serializer(&unit_);
  EXPECT_EQ(serializer.WireSize(msg), 7u + 3 + 5);
}

TEST_F(ParserTest, SerializeUnitMismatchFails) {
  auto other = UnitBuilder("other").UInt("x", 1).Build();
  ASSERT_TRUE(other.ok());
  Message msg;
  msg.BindUnit(&*other);
  msg.SetUInt("x", 1);
  BufferChain out(&pool_);
  UnitSerializer serializer(&unit_);
  EXPECT_EQ(serializer.Serialize(msg, out).code(), StatusCode::kFailedPrecondition);
}

TEST_F(ParserTest, SerializeFailsOnExhaustedPool) {
  BufferPool tiny(1, 8);
  BufferChain out(&tiny);
  Message msg;
  msg.BindUnit(&unit_);
  msg.SetUInt("tag", 1);
  msg.SetBytes("key", "0123456789");
  msg.SetBytes("val", "0123456789");
  UnitSerializer serializer(&unit_);
  EXPECT_EQ(serializer.Serialize(msg, out).code(), StatusCode::kResourceExhausted);
}

// Property sweep: random messages round-trip bit-exactly.
TEST_F(ParserTest, RandomRoundTripProperty) {
  Rng rng(77);
  UnitSerializer serializer(&unit_);
  UnitParser parser(&unit_);
  for (int i = 0; i < 300; ++i) {
    std::string key, val;
    for (size_t k = rng.NextBelow(30); k > 0; --k) {
      key.push_back(static_cast<char>(rng.NextInRange(32, 126)));
    }
    for (size_t v = rng.NextBelow(50); v > 0; --v) {
      val.push_back(static_cast<char>(rng.NextInRange(0, 255)));
    }
    Message msg;
    msg.BindUnit(&unit_);
    msg.SetUInt("tag", rng.NextBelow(256));
    msg.SetBytes("key", key);
    msg.SetBytes("val", val);
    BufferChain wire(&pool_);
    ASSERT_TRUE(serializer.Serialize(msg, wire).ok());
    Message parsed;
    ASSERT_EQ(parser.Feed(wire, &parsed), ParseStatus::kDone);
    ASSERT_EQ(parsed.GetBytes("key"), key);
    ASSERT_EQ(parsed.GetBytes("val"), val);
  }
}

// ---------------------------------------------------------- ASCII integers ----
// RESP-style line framing: AsciiUInt fields are decimal digit runs whose CRLF
// terminator is consumed with the field, and their value can drive the length
// of a later Bytes field (the `$<len>\r\n<data>\r\n` bulk-string shape).

class AsciiParserTest : public ::testing::Test {
 protected:
  AsciiParserTest() {
    auto unit = UnitBuilder("bulk")
                    .Bytes("marker", 1)
                    .AsciiUInt("len")
                    .Bytes("data", LenExpr::Field("len"))
                    .Bytes("crlf", 2)
                    .Build();
    FLICK_CHECK(unit.ok());
    unit_ = std::move(unit).value();
  }
  Unit unit_;
  BufferPool pool_{256, 128};
};

TEST_F(AsciiParserTest, ParsesBulkString) {
  BufferChain input(&pool_);
  ASSERT_TRUE(input.Append("$5\r\nhello\r\n"));
  UnitParser parser(&unit_);
  Message msg;
  ASSERT_EQ(parser.Feed(input, &msg), ParseStatus::kDone);
  EXPECT_EQ(msg.GetUInt("len"), 5u);
  EXPECT_EQ(msg.GetBytes("data"), "hello");
}

// Digits and the CRLF terminator may straddle reads at any byte boundary.
TEST_F(AsciiParserTest, SplitAtEveryOffset) {
  const std::string wire = "$12\r\nsplit-me-now\r\n";
  for (size_t split = 1; split < wire.size(); ++split) {
    BufferChain input(&pool_);
    ASSERT_TRUE(input.Append(wire.substr(0, split)));
    UnitParser parser(&unit_);
    Message msg;
    ASSERT_EQ(parser.Feed(input, &msg), ParseStatus::kNeedMore) << "split=" << split;
    ASSERT_TRUE(input.Append(wire.substr(split)));
    ASSERT_EQ(parser.Feed(input, &msg), ParseStatus::kDone) << "split=" << split;
    EXPECT_EQ(msg.GetBytes("data"), "split-me-now");
  }
}

TEST_F(AsciiParserTest, NonDigitIsError) {
  BufferChain input(&pool_);
  ASSERT_TRUE(input.Append("$x5\r\nhello\r\n"));
  UnitParser parser(&unit_);
  Message msg;
  EXPECT_EQ(parser.Feed(input, &msg), ParseStatus::kError);
}

TEST_F(AsciiParserTest, EmptyDigitRunIsError) {
  BufferChain input(&pool_);
  ASSERT_TRUE(input.Append("$\r\n\r\n"));
  UnitParser parser(&unit_);
  Message msg;
  EXPECT_EQ(parser.Feed(input, &msg), ParseStatus::kError);
}

TEST_F(AsciiParserTest, BareCarriageReturnIsError) {
  BufferChain input(&pool_);
  ASSERT_TRUE(input.Append("$5\rXhello\r\n"));
  UnitParser parser(&unit_);
  Message msg;
  EXPECT_EQ(parser.Feed(input, &msg), ParseStatus::kError);
}

TEST_F(AsciiParserTest, OverflowGuardIsError) {
  BufferChain input(&pool_);
  ASSERT_TRUE(input.Append("$" + std::string(20, '9') + "\r\n"));
  UnitParser parser(&unit_);
  Message msg;
  EXPECT_EQ(parser.Feed(input, &msg), ParseStatus::kError);
}

TEST_F(AsciiParserTest, SerializeRecomputesDigitRun) {
  Message msg;
  msg.BindUnit(&unit_);
  msg.SetBytes("marker", "$");
  msg.SetUInt("len", 999);  // stale on purpose; serializer must fix it up
  msg.SetBytes("data", "abcdefghij");
  msg.SetBytes("crlf", "\r\n");
  BufferChain out(&pool_);
  UnitSerializer serializer(&unit_);
  ASSERT_TRUE(serializer.Serialize(msg, out).ok());
  EXPECT_EQ(out.ToString(), "$10\r\nabcdefghij\r\n");

  UnitParser parser(&unit_);
  Message parsed;
  ASSERT_EQ(parser.Feed(out, &parsed), ParseStatus::kDone);
  EXPECT_EQ(parsed.GetUInt("len"), 10u);
  EXPECT_EQ(parsed.GetBytes("data"), "abcdefghij");
}

// ------------------------------------------------- One pass vs incremental ----
// Feed takes the whole-message path when the chain's front buffer holds the
// entire message and the incremental path otherwise; chunking alone picks
// which. Every built-in unit is fed random streams three ways (one large
// buffer, buffers smaller than any message, random chunks over mid-size
// buffers), and all three must report the same outcomes.

// How a generated message is broken.
enum class Defect {
  kNone,
  kOversize,     // a length-driving field exceeds the parser's max_field_size
  kNonDigit,     // ascii field: a letter in the digit run
  kEmptyDigits,  // ascii field: CRLF with no digits
  kBareCr,       // ascii field: CR not followed by LF
  kTwentyDigits  // ascii field: past the 19-digit guard
};

constexpr size_t kMaxFieldSize = 64;

// Appends one random message of `unit` to `wire`. Fields that drive a length
// get small values, so valid messages stay under kMaxFieldSize. A defect
// breaks one field; the rest of the message follows as if it were valid, so
// a parser that missed the defect would read a whole message.
void AppendRandomMessage(const Unit& unit, Rng& rng, Defect defect, std::string* wire) {
  std::vector<std::string> length_refs;
  for (const FieldSpec& f : unit.fields()) {
    f.length.CollectFieldNames(&length_refs);
    f.parse_expr.CollectFieldNames(&length_refs);
  }
  auto drives = [&](const std::string& name) {
    return !name.empty() &&
           std::find(length_refs.begin(), length_refs.end(), name) != length_refs.end();
  };
  // Which field carries the defect: the first ascii field, or the first
  // length-driving field for kOversize.
  int broken = -1;
  for (size_t i = 0; defect != Defect::kNone && i < unit.fields().size() && broken < 0; ++i) {
    const FieldSpec& f = unit.fields()[i];
    if (defect == Defect::kOversize ? drives(f.name) : (f.kind == FieldKind::kUInt && f.ascii)) {
      broken = static_cast<int>(i);
    }
  }
  FLICK_CHECK(defect == Defect::kNone || broken >= 0);

  std::vector<uint64_t> nums(unit.fields().size(), 0);
  for (size_t i = 0; i < unit.fields().size(); ++i) {
    const FieldSpec& f = unit.fields()[i];
    const bool is_broken = static_cast<int>(i) == broken;
    switch (f.kind) {
      case FieldKind::kVar:
        nums[i] = f.parse_expr.Eval(nums);
        break;
      case FieldKind::kUInt: {
        uint64_t v = drives(f.name) ? rng.NextInRange(0, 40) : rng.Next();
        if (is_broken && defect == Defect::kOversize) {
          v = rng.NextInRange(kMaxFieldSize + 40, 255);
        }
        if (!f.ascii) {
          if (f.fixed_size < 8) {
            v &= (uint64_t{1} << (8 * f.fixed_size)) - 1;
          }
          uint8_t raw[8];
          StoreUInt(raw, f.fixed_size, unit.byte_order(), v);
          wire->append(reinterpret_cast<const char*>(raw), f.fixed_size);
          nums[i] = v;
          break;
        }
        if (!drives(f.name)) {
          v %= 1000000;
        }
        std::string digits = std::to_string(v);
        std::string terminator = "\r\n";
        if (is_broken) {
          switch (defect) {
            case Defect::kNonDigit: digits.insert(rng.NextBelow(digits.size() + 1), "x"); break;
            case Defect::kEmptyDigits: v = 0; digits.clear(); break;
            case Defect::kBareCr: terminator = "\rX"; break;
            // Zero-padded: the value still fits, only the digit count is wrong.
            case Defect::kTwentyDigits: digits.insert(0, 20 - digits.size(), '0'); break;
            default: break;
          }
        }
        wire->append(digits + terminator);
        nums[i] = v;
        break;
      }
      case FieldKind::kBytes: {
        const uint64_t size = f.length.is_const() ? f.length.const_value() : f.length.Eval(nums);
        for (uint64_t b = 0; b < size && b < 4 * kMaxFieldSize; ++b) {
          wire->push_back(static_cast<char>(rng.NextBelow(256)));
        }
        break;
      }
    }
  }
}

// Everything a parse reports about one message.
struct Outcome {
  ParseStatus status;
  std::vector<uint64_t> nums;
  std::vector<std::string> bytes;
  std::vector<size_t> field_wire;
  size_t wire_size = 0;
  size_t consumed = 0;

  bool operator==(const Outcome&) const = default;
};

// Feeds `wire` through a chain drawing `buffer_size`-byte buffers. With no
// `chunks` the stream is appended at once; otherwise in random 1..max_chunk
// pieces, feeding after each. Returns each kDone, then the final status.
std::vector<Outcome> ParseStream(const Unit& unit, std::string_view wire, size_t buffer_size,
                                 Rng* chunks = nullptr, size_t max_chunk = 0) {
  BufferPool pool(wire.size() / buffer_size + 4, buffer_size);
  BufferChain input(&pool);
  UnitParser parser(&unit);
  parser.set_max_field_size(kMaxFieldSize);
  Message msg;
  std::vector<Outcome> outcomes;
  size_t sent = 0;
  size_t consumed = 0;  // by earlier kDone messages
  while (true) {
    if (sent < wire.size()) {
      const size_t take = chunks == nullptr
                              ? wire.size()
                              : std::min<size_t>(chunks->NextInRange(1, max_chunk),
                                                 wire.size() - sent);
      FLICK_CHECK(input.Append(wire.substr(sent, take)));
      sent += take;
    }
    ParseStatus status = ParseStatus::kNeedMore;
    while ((status = parser.Feed(input, &msg)) == ParseStatus::kDone) {
      Outcome o{status, msg.nums(), {}, {}, msg.wire_size(), sent - input.readable() - consumed};
      for (size_t i = 0; i < unit.fields().size(); ++i) {
        o.bytes.emplace_back(msg.GetBytes(static_cast<int>(i)));
        o.field_wire.push_back(msg.FieldWireSize(static_cast<int>(i)));
      }
      consumed += o.consumed;
      outcomes.push_back(std::move(o));
    }
    if (status == ParseStatus::kError || sent == wire.size()) {
      outcomes.push_back(Outcome{status, {}, {}, {}, 0, 0});
      return outcomes;
    }
  }
}

struct NamedUnit {
  std::string name;
  const Unit* unit;
};

std::vector<NamedUnit> BuiltInUnits() {
  static const std::shared_ptr<lang::CompiledProgram> listing1 = [] {
    auto compiled = lang::CompileSource(services::kMemcachedRouterSource);
    FLICK_CHECK(compiled.ok());
    return std::move(compiled).value();
  }();
  static const std::shared_ptr<lang::CompiledProgram> resp = [] {
    auto compiled = lang::CompileSource(services::kRespRouterSource);
    FLICK_CHECK(compiled.ok());
    return std::move(compiled).value();
  }();
  return {
      {"memcached", &proto::MemcachedUnit()},
      {"memcached_routing", &proto::MemcachedRoutingUnit()},
      {"listing1_cmd", listing1->UnitFor("cmd")},
      {"resp_reply", resp->UnitFor("reply")},
      {"resp_req", resp->UnitFor("req")},
      {"hadoop_kv", &proto::HadoopKvUnit()},
  };
}

bool HasAsciiField(const Unit& unit) {
  for (const FieldSpec& f : unit.fields()) {
    if (f.kind == FieldKind::kUInt && f.ascii) {
      return true;
    }
  }
  return false;
}

// Parses `wire` all three ways and requires identical outcomes; returns the
// one-buffer run's.
std::vector<Outcome> ParseAllWays(const NamedUnit& u, const std::string& wire, Rng& rng) {
  // Smaller than any message of these units, so every message straddles.
  constexpr size_t kTinyBuffer = 4;
  const std::vector<Outcome> whole = ParseStream(*u.unit, wire, wire.size() + 1);
  const std::vector<Outcome> straddled = ParseStream(*u.unit, wire, kTinyBuffer);
  const std::vector<Outcome> chunked = ParseStream(*u.unit, wire, 64, &rng, 40);
  for (const Outcome& o : whole) {
    EXPECT_TRUE(o.status != ParseStatus::kDone || o.wire_size > kTinyBuffer) << u.name;
  }
  EXPECT_TRUE(whole == straddled) << u.name << ": one buffer vs every message straddling";
  EXPECT_TRUE(whole == chunked) << u.name << ": one buffer vs random chunks";
  return whole;
}

TEST(OnePassParseTest, MatchesIncrementalOnRandomStreams) {
  for (const NamedUnit& u : BuiltInUnits()) {
    ASSERT_NE(u.unit, nullptr) << u.name;
    Rng rng(4242);
    for (int round = 0; round < 20; ++round) {
      std::string wire;
      const int messages = static_cast<int>(rng.NextInRange(1, 30));
      for (int m = 0; m < messages; ++m) {
        AppendRandomMessage(*u.unit, rng, Defect::kNone, &wire);
      }
      const std::vector<Outcome> outcomes = ParseAllWays(u, wire, rng);
      ASSERT_EQ(outcomes.size(), static_cast<size_t>(messages) + 1) << u.name;
      EXPECT_EQ(outcomes.back().status, ParseStatus::kNeedMore) << u.name;
      size_t consumed = 0;
      for (int m = 0; m < messages; ++m) {
        consumed += outcomes[static_cast<size_t>(m)].consumed;
      }
      EXPECT_EQ(consumed, wire.size()) << u.name;
    }
  }
}

TEST(OnePassParseTest, MalformedInputFailsTheSameWay) {
  for (const NamedUnit& u : BuiltInUnits()) {
    std::vector<Defect> defects = {Defect::kOversize};
    if (HasAsciiField(*u.unit)) {
      defects.insert(defects.end(), {Defect::kNonDigit, Defect::kEmptyDigits, Defect::kBareCr,
                                     Defect::kTwentyDigits});
    }
    Rng rng(977);
    for (const Defect defect : defects) {
      for (int round = 0; round < 10; ++round) {
        std::string wire;
        const int valid = static_cast<int>(rng.NextBelow(4));
        for (int m = 0; m < valid; ++m) {
          AppendRandomMessage(*u.unit, rng, Defect::kNone, &wire);
        }
        AppendRandomMessage(*u.unit, rng, defect, &wire);
        const std::vector<Outcome> outcomes = ParseAllWays(u, wire, rng);
        ASSERT_EQ(outcomes.size(), static_cast<size_t>(valid) + 1) << u.name;
        EXPECT_EQ(outcomes.back().status, ParseStatus::kError)
            << u.name << " defect " << static_cast<int>(defect);
      }
    }
  }
}

}  // namespace
}  // namespace flick::grammar
