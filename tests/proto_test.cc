// Tests for the protocol grammars: Memcached binary (Listing 2), HTTP/1.x,
// and the Hadoop KV stream.
#include <gtest/gtest.h>

#include <string>

#include "base/rng.h"
#include "buffer/buffer_chain.h"
#include "buffer/buffer_pool.h"
#include "proto/hadoop.h"
#include "proto/http.h"
#include "proto/memcached.h"

namespace flick::proto {
namespace {

using grammar::Message;
using grammar::ParseStatus;
using grammar::UnitParser;
using grammar::UnitSerializer;

class MemcachedTest : public ::testing::Test {
 protected:
  BufferPool pool_{256, 256};
};

TEST_F(MemcachedTest, UnitMatchesListing2Layout) {
  const auto& unit = MemcachedUnit();
  EXPECT_EQ(unit.name(), "cmd");
  EXPECT_EQ(unit.fixed_prefix_size(), kMemcachedHeaderSize);
  EXPECT_EQ(unit.FieldIndex("magic_code"), MemcachedCommand::kMagic);
  EXPECT_EQ(unit.FieldIndex("opcode"), MemcachedCommand::kOpcode);
  EXPECT_EQ(unit.FieldIndex("total_len"), MemcachedCommand::kTotalLen);
  EXPECT_EQ(unit.FieldIndex("value"), MemcachedCommand::kValue);
}

TEST_F(MemcachedTest, RequestRoundTrip) {
  Message msg;
  BuildRequest(&msg, kMemcachedGetK, "user:42", "", /*opaque=*/7);
  const std::string wire = ToWire(msg);
  ASSERT_EQ(wire.size(), kMemcachedHeaderSize + 7);
  EXPECT_EQ(static_cast<uint8_t>(wire[0]), kMemcachedMagicRequest);
  EXPECT_EQ(static_cast<uint8_t>(wire[1]), kMemcachedGetK);

  BufferChain input(&pool_);
  ASSERT_TRUE(input.Append(wire));
  UnitParser parser(&MemcachedUnit());
  Message parsed;
  ASSERT_EQ(parser.Feed(input, &parsed), ParseStatus::kDone);
  MemcachedCommand cmd(&parsed);
  EXPECT_TRUE(cmd.is_request());
  EXPECT_EQ(cmd.opcode(), kMemcachedGetK);
  EXPECT_EQ(cmd.key(), "user:42");
  EXPECT_EQ(cmd.value(), "");
  EXPECT_EQ(cmd.opaque(), 7u);
}

TEST_F(MemcachedTest, ResponseRoundTripWithValue) {
  Message msg;
  BuildResponse(&msg, kMemcachedGetK, kMemcachedStatusOk, "k1", "payload-bytes", 3);
  const std::string wire = ToWire(msg);

  BufferChain input(&pool_);
  ASSERT_TRUE(input.Append(wire));
  UnitParser parser(&MemcachedUnit());
  Message parsed;
  ASSERT_EQ(parser.Feed(input, &parsed), ParseStatus::kDone);
  MemcachedCommand cmd(&parsed);
  EXPECT_TRUE(cmd.is_response());
  EXPECT_EQ(cmd.status(), kMemcachedStatusOk);
  EXPECT_EQ(cmd.key(), "k1");
  EXPECT_EQ(cmd.value(), "payload-bytes");
}

TEST_F(MemcachedTest, TotalLenWritebackIsCorrect) {
  Message msg;
  BuildResponse(&msg, kMemcachedGetK, 0, "abc", "0123456789", 0);
  const std::string wire = ToWire(msg);
  // total_len (big-endian u32 at offset 8) = key + extras + value.
  const uint32_t total = static_cast<uint8_t>(wire[8]) << 24 |
                         static_cast<uint8_t>(wire[9]) << 16 |
                         static_cast<uint8_t>(wire[10]) << 8 |
                         static_cast<uint8_t>(wire[11]);
  EXPECT_EQ(total, 3u + 0 + 10);
}

TEST_F(MemcachedTest, ValueLenComputedOnParse) {
  Message msg;
  BuildResponse(&msg, kMemcachedGetK, 0, "abc", "0123456789", 0);
  const std::string wire = ToWire(msg);
  BufferChain input(&pool_);
  ASSERT_TRUE(input.Append(wire));
  UnitParser parser(&MemcachedUnit());
  Message parsed;
  ASSERT_EQ(parser.Feed(input, &parsed), ParseStatus::kDone);
  EXPECT_EQ(parsed.GetUInt("value_len"), 10u);
}

TEST_F(MemcachedTest, RoutingUnitSkipsValueBytes) {
  Message msg;
  BuildResponse(&msg, kMemcachedGetK, 0, "routed-key", std::string(100, 'v'), 0);
  const std::string wire = ToWire(msg);
  BufferChain input(&pool_);
  ASSERT_TRUE(input.Append(wire));
  UnitParser parser(&MemcachedRoutingUnit());
  Message parsed;
  ASSERT_EQ(parser.Feed(input, &parsed), ParseStatus::kDone);
  MemcachedCommand cmd(&parsed);
  EXPECT_EQ(cmd.key(), "routed-key");
  EXPECT_EQ(cmd.value(), "") << "projected unit must not materialise value";
  EXPECT_EQ(parsed.wire_size(), wire.size()) << "framing must still consume everything";
}

TEST_F(MemcachedTest, FragmentedAcrossHeaderBoundary) {
  Message msg;
  BuildRequest(&msg, kMemcachedGet, "split-key", "vvv");
  const std::string wire = ToWire(msg);
  UnitParser parser(&MemcachedUnit());
  Message parsed;
  for (size_t split : {1ul, 8ul, 23ul, 24ul, 25ul, wire.size() - 1}) {
    BufferChain input(&pool_);
    ASSERT_TRUE(input.Append(wire.substr(0, split)));
    ASSERT_EQ(parser.Feed(input, &parsed), ParseStatus::kNeedMore) << split;
    ASSERT_TRUE(input.Append(wire.substr(split)));
    ASSERT_EQ(parser.Feed(input, &parsed), ParseStatus::kDone) << split;
    MemcachedCommand cmd(&parsed);
    EXPECT_EQ(cmd.key(), "split-key");
    EXPECT_EQ(cmd.value(), "vvv");
  }
}

TEST_F(MemcachedTest, PipelinedCommands) {
  std::string wire;
  for (int i = 0; i < 10; ++i) {
    Message msg;
    BuildRequest(&msg, kMemcachedGet, "key-" + std::to_string(i), "");
    wire += ToWire(msg);
  }
  BufferChain input(&pool_);
  ASSERT_TRUE(input.Append(wire));
  UnitParser parser(&MemcachedUnit());
  for (int i = 0; i < 10; ++i) {
    Message parsed;
    ASSERT_EQ(parser.Feed(input, &parsed), ParseStatus::kDone) << i;
    EXPECT_EQ(MemcachedCommand(&parsed).key(), "key-" + std::to_string(i));
  }
  EXPECT_TRUE(input.empty());
}

// --------------------------------------------------------------------- HTTP ----

class HttpTest : public ::testing::Test {
 protected:
  BufferPool pool_{256, 256};
};

TEST_F(HttpTest, ParsesSimpleRequest) {
  BufferChain input(&pool_);
  ASSERT_TRUE(input.Append("GET /index.html HTTP/1.1\r\nHost: example.com\r\n\r\n"));
  HttpParser parser(HttpParser::Mode::kRequest);
  HttpMessage msg;
  ASSERT_EQ(parser.Feed(input, &msg), ParseStatus::kDone);
  EXPECT_EQ(msg.method, "GET");
  EXPECT_EQ(msg.target, "/index.html");
  EXPECT_EQ(msg.version, "HTTP/1.1");
  EXPECT_EQ(msg.Header("Host"), "example.com");
  EXPECT_TRUE(msg.keep_alive);
  EXPECT_EQ(msg.content_length, 0u);
}

TEST_F(HttpTest, ParsesRequestWithBody) {
  BufferChain input(&pool_);
  ASSERT_TRUE(input.Append("POST /submit HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world"));
  HttpParser parser(HttpParser::Mode::kRequest);
  HttpMessage msg;
  ASSERT_EQ(parser.Feed(input, &msg), ParseStatus::kDone);
  EXPECT_EQ(msg.method, "POST");
  EXPECT_EQ(msg.body, "hello world");
}

TEST_F(HttpTest, ParsesResponse) {
  BufferChain input(&pool_);
  ASSERT_TRUE(input.Append("HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc"));
  HttpParser parser(HttpParser::Mode::kResponse);
  HttpMessage msg;
  ASSERT_EQ(parser.Feed(input, &msg), ParseStatus::kDone);
  EXPECT_FALSE(msg.is_request);
  EXPECT_EQ(msg.status_code, 200);
  EXPECT_EQ(msg.body, "abc");
}

TEST_F(HttpTest, ConnectionCloseDisablesKeepAlive) {
  BufferChain input(&pool_);
  ASSERT_TRUE(input.Append("GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
  HttpParser parser(HttpParser::Mode::kRequest);
  HttpMessage msg;
  ASSERT_EQ(parser.Feed(input, &msg), ParseStatus::kDone);
  EXPECT_FALSE(msg.keep_alive);
}

TEST_F(HttpTest, Http10DefaultsToClose) {
  BufferChain input(&pool_);
  ASSERT_TRUE(input.Append("GET / HTTP/1.0\r\n\r\n"));
  HttpParser parser(HttpParser::Mode::kRequest);
  HttpMessage msg;
  ASSERT_EQ(parser.Feed(input, &msg), ParseStatus::kDone);
  EXPECT_FALSE(msg.keep_alive);
}

TEST_F(HttpTest, HeaderLookupIsCaseInsensitive) {
  BufferChain input(&pool_);
  ASSERT_TRUE(input.Append("GET / HTTP/1.1\r\ncOnTeNt-TyPe: text/html\r\n\r\n"));
  HttpParser parser(HttpParser::Mode::kRequest);
  HttpMessage msg;
  ASSERT_EQ(parser.Feed(input, &msg), ParseStatus::kDone);
  EXPECT_EQ(msg.Header("content-type"), "text/html");
}

TEST_F(HttpTest, BareLfLineEndingsAccepted) {
  BufferChain input(&pool_);
  ASSERT_TRUE(input.Append("GET / HTTP/1.1\nHost: x\n\n"));
  HttpParser parser(HttpParser::Mode::kRequest);
  HttpMessage msg;
  ASSERT_EQ(parser.Feed(input, &msg), ParseStatus::kDone);
  EXPECT_EQ(msg.Header("Host"), "x");
}

TEST_F(HttpTest, MalformedStartLineIsError) {
  BufferChain input(&pool_);
  ASSERT_TRUE(input.Append("NONSENSE\r\n\r\n"));
  HttpParser parser(HttpParser::Mode::kRequest);
  HttpMessage msg;
  EXPECT_EQ(parser.Feed(input, &msg), ParseStatus::kError);
}

TEST_F(HttpTest, HeaderWithoutColonIsError) {
  BufferChain input(&pool_);
  ASSERT_TRUE(input.Append("GET / HTTP/1.1\r\nBadHeader\r\n\r\n"));
  HttpParser parser(HttpParser::Mode::kRequest);
  HttpMessage msg;
  EXPECT_EQ(parser.Feed(input, &msg), ParseStatus::kError);
}

// --- strict numeric fields -----------------------------------------------
// atoi/strtoull used to coerce garbage into 0 (a phantom zero-length body
// desyncing the stream) or wrap overflow into a bogus size_t the framing
// loop then waited on forever — on a pooled wire that stalled every lease.
// Malformed values must be parse ERRORS so the pool drops the wire instead.

TEST_F(HttpTest, NonNumericStatusCodeIsError) {
  BufferChain input(&pool_);
  ASSERT_TRUE(input.Append("HTTP/1.1 2x0 OK\r\n\r\n"));
  HttpParser parser(HttpParser::Mode::kResponse);
  HttpMessage msg;
  EXPECT_EQ(parser.Feed(input, &msg), ParseStatus::kError);
}

TEST_F(HttpTest, StatusCodeMustBeThreeDigits) {
  for (const char* code : {"20", "2000", "099", "", "-20"}) {
    BufferChain input(&pool_);
    ASSERT_TRUE(input.Append(std::string("HTTP/1.1 ") + code + " OK\r\n\r\n"));
    HttpParser parser(HttpParser::Mode::kResponse);
    HttpMessage msg;
    EXPECT_EQ(parser.Feed(input, &msg), ParseStatus::kError) << code;
  }
}

TEST_F(HttpTest, NonNumericContentLengthIsError) {
  // (A whitespace-only value trims to empty and means "no header".)
  for (const char* cl : {"abc", "12abc", "-1", "+5", "1e3"}) {
    BufferChain input(&pool_);
    ASSERT_TRUE(input.Append(std::string("HTTP/1.1 200 OK\r\nContent-Length: ") +
                             cl + "\r\n\r\n"));
    HttpParser parser(HttpParser::Mode::kResponse);
    HttpMessage msg;
    EXPECT_EQ(parser.Feed(input, &msg), ParseStatus::kError) << cl;
  }
}

TEST_F(HttpTest, OverflowingContentLengthIsError) {
  // 2^64 and beyond: strtoull wrapped these into a bogus size_t; they must
  // be rejected outright, before any narrowing.
  for (const char* cl : {"18446744073709551616", "99999999999999999999999999"}) {
    BufferChain input(&pool_);
    ASSERT_TRUE(input.Append(std::string("GET / HTTP/1.1\r\nContent-Length: ") +
                             cl + "\r\n\r\n"));
    HttpParser parser(HttpParser::Mode::kRequest);
    HttpMessage msg;
    EXPECT_EQ(parser.Feed(input, &msg), ParseStatus::kError) << cl;
  }
}

TEST_F(HttpTest, ContentLengthAboveBodyCapIsError) {
  BufferChain input(&pool_);
  HttpParser parser(HttpParser::Mode::kResponse);
  parser.set_max_body_bytes(1024);
  ASSERT_TRUE(input.Append("HTTP/1.1 200 OK\r\nContent-Length: 2048\r\n\r\n"));
  HttpMessage msg;
  EXPECT_EQ(parser.Feed(input, &msg), ParseStatus::kError);
}

TEST_F(HttpTest, ValidContentLengthStillFramesBody) {
  BufferChain input(&pool_);
  ASSERT_TRUE(input.Append("HTTP/1.1 404 Not Found\r\nContent-Length: 4\r\n\r\ngone"));
  HttpParser parser(HttpParser::Mode::kResponse);
  HttpMessage msg;
  ASSERT_EQ(parser.Feed(input, &msg), ParseStatus::kDone);
  EXPECT_EQ(msg.status_code, 404);
  EXPECT_EQ(msg.body, "gone");
}

TEST_F(HttpTest, OversizeHeadersRejected) {
  BufferChain input(&pool_);
  HttpParser parser(HttpParser::Mode::kRequest);
  parser.set_max_header_bytes(64);
  ASSERT_TRUE(input.Append("GET / HTTP/1.1\r\nX: " + std::string(200, 'a') + "\r\n\r\n"));
  HttpMessage msg;
  EXPECT_EQ(parser.Feed(input, &msg), ParseStatus::kError);
}

TEST_F(HttpTest, PipelinedRequests) {
  BufferChain input(&pool_);
  ASSERT_TRUE(input.Append("GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n"));
  HttpParser parser(HttpParser::Mode::kRequest);
  HttpMessage m1, m2;
  ASSERT_EQ(parser.Feed(input, &m1), ParseStatus::kDone);
  ASSERT_EQ(parser.Feed(input, &m2), ParseStatus::kDone);
  EXPECT_EQ(m1.target, "/a");
  EXPECT_EQ(m2.target, "/b");
}

TEST_F(HttpTest, SerializeRequestRoundTrip) {
  HttpMessage msg = MakeRequest("POST", "/path", "body-data");
  msg.SetHeader("Host", "unit.test");
  std::string wire;
  SerializeRequest(msg, &wire);

  BufferChain input(&pool_);
  ASSERT_TRUE(input.Append(wire));
  HttpParser parser(HttpParser::Mode::kRequest);
  HttpMessage parsed;
  ASSERT_EQ(parser.Feed(input, &parsed), ParseStatus::kDone);
  EXPECT_EQ(parsed.method, "POST");
  EXPECT_EQ(parsed.target, "/path");
  EXPECT_EQ(parsed.Header("Host"), "unit.test");
  EXPECT_EQ(parsed.body, "body-data");
}

TEST_F(HttpTest, SerializeFixesContentLength) {
  HttpMessage msg = MakeResponse(200, "12345");
  msg.SetHeader("Content-Length", "999");  // stale; serializer must rewrite
  std::string wire;
  SerializeResponse(msg, &wire);
  EXPECT_NE(wire.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_EQ(wire.find("999"), std::string::npos);
}

// Property: every split point of a request with body parses identically.
class HttpFragmentationTest : public HttpTest,
                              public ::testing::WithParamInterface<size_t> {};

TEST_P(HttpFragmentationTest, SplitAtEveryOffset) {
  const std::string wire =
      "POST /frag HTTP/1.1\r\nHost: h\r\nContent-Length: 10\r\n\r\n0123456789";
  const size_t split = GetParam() % (wire.size() + 1);
  BufferChain input(&pool_);
  HttpParser parser(HttpParser::Mode::kRequest);
  HttpMessage msg;
  ASSERT_TRUE(input.Append(wire.substr(0, split)));
  ParseStatus s = parser.Feed(input, &msg);
  if (split < wire.size()) {
    ASSERT_EQ(s, ParseStatus::kNeedMore) << "split=" << split;
    ASSERT_TRUE(input.Append(wire.substr(split)));
    s = parser.Feed(input, &msg);
  }
  ASSERT_EQ(s, ParseStatus::kDone) << "split=" << split;
  EXPECT_EQ(msg.target, "/frag");
  EXPECT_EQ(msg.body, "0123456789");
}

INSTANTIATE_TEST_SUITE_P(AllSplits, HttpFragmentationTest,
                         ::testing::Range<size_t>(0, 64));

// ------------------------------------------------------------------- Hadoop ----

class HadoopTest : public ::testing::Test {
 protected:
  BufferPool pool_{256, 256};
};

TEST_F(HadoopTest, EncodeParseRoundTrip) {
  std::string wire;
  EncodeKv("word", "12", &wire);
  BufferChain input(&pool_);
  ASSERT_TRUE(input.Append(wire));
  UnitParser parser(&HadoopKvUnit());
  Message msg;
  ASSERT_EQ(parser.Feed(input, &msg), ParseStatus::kDone);
  HadoopKv kv(&msg);
  EXPECT_EQ(kv.key(), "word");
  EXPECT_EQ(kv.value(), "12");
}

TEST_F(HadoopTest, StreamOfPairs) {
  std::string wire;
  for (int i = 0; i < 50; ++i) {
    EncodeKv(std::string("w").append(std::to_string(i)), std::to_string(i), &wire);
  }
  BufferChain input(&pool_);
  ASSERT_TRUE(input.Append(wire));
  UnitParser parser(&HadoopKvUnit());
  for (int i = 0; i < 50; ++i) {
    Message msg;
    ASSERT_EQ(parser.Feed(input, &msg), ParseStatus::kDone) << i;
    EXPECT_EQ(HadoopKv(&msg).key(), std::string("w").append(std::to_string(i)));
  }
}

TEST_F(HadoopTest, CombineCountsAdds) {
  EXPECT_EQ(CombineCounts("1", "2").view(), "3");
  EXPECT_EQ(CombineCounts("999", "1").view(), "1000");
  EXPECT_EQ(CombineCounts("0", "0").view(), "0");
  EXPECT_EQ(CombineCounts("123456789", "987654321").view(), "1111111110");
}

TEST_F(HadoopTest, BuildKvSerializes) {
  Message msg;
  BuildKv(&msg, "the", "42");
  BufferChain out(&pool_);
  UnitSerializer serializer(&HadoopKvUnit());
  ASSERT_TRUE(serializer.Serialize(msg, out).ok());
  std::string expect;
  EncodeKv("the", "42", &expect);
  EXPECT_EQ(out.ToString(), expect);
}

}  // namespace
}  // namespace flick::proto
