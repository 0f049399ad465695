// Codec strategies binding protocol grammars to IO tasks.
//
// An input task owns a Deserializer (the "parsing code generated by the FLICK
// compiler from the types specified in the program", §3.2); an output task
// owns a Serializer. Three codecs cover the use cases: grammar units
// (Memcached, Hadoop), HTTP, and raw pass-through chunks.
#ifndef FLICK_RUNTIME_CODEC_H_
#define FLICK_RUNTIME_CODEC_H_

#include <memory>

#include "buffer/buffer_chain.h"
#include "grammar/parser.h"
#include "grammar/serializer.h"
#include "proto/http.h"
#include "runtime/msg.h"

namespace flick::runtime {

using grammar::ParseStatus;

class Deserializer {
 public:
  virtual ~Deserializer() = default;
  virtual ParseStatus Deserialize(BufferChain& in, Msg* out) = 0;
  virtual void Reset() = 0;
};

class Serializer {
 public:
  virtual ~Serializer() = default;
  virtual Status Serialize(Msg& msg, BufferChain& out) = 0;
};

// --- grammar units -----------------------------------------------------------

class GrammarDeserializer : public Deserializer {
 public:
  explicit GrammarDeserializer(const grammar::Unit* unit) : parser_(unit) {}

  ParseStatus Deserialize(BufferChain& in, Msg* out) override {
    const ParseStatus s = parser_.Feed(in, &out->gmsg);
    if (s == ParseStatus::kDone) {
      out->kind = Msg::Kind::kGrammar;
    }
    return s;
  }
  void Reset() override { parser_.Reset(); }

 private:
  grammar::UnitParser parser_;
};

class GrammarSerializer : public Serializer {
 public:
  explicit GrammarSerializer(const grammar::Unit* unit) : serializer_(unit) {}

  Status Serialize(Msg& msg, BufferChain& out) override {
    if (msg.kind == Msg::Kind::kBytes) {
      // Mixed pipelines may forward raw chunks through a grammar output.
      return out.Append(msg.bytes) ? OkStatus() : ResourceExhausted("buffer pool");
    }
    return serializer_.Serialize(msg.gmsg, out);
  }

 private:
  grammar::UnitSerializer serializer_;
};

// --- HTTP ---------------------------------------------------------------------

class HttpDeserializer : public Deserializer {
 public:
  explicit HttpDeserializer(proto::HttpParser::Mode mode) : parser_(mode) {}

  ParseStatus Deserialize(BufferChain& in, Msg* out) override {
    // Marked before feeding: a partial parse has written `http` too, and
    // Msg::Clear resets `http` only on kHttp messages.
    out->kind = Msg::Kind::kHttp;
    return parser_.Feed(in, &out->http);
  }
  void Reset() override { parser_.Reset(); }

 private:
  proto::HttpParser parser_;
};

class HttpSerializer : public Serializer {
 public:
  Status Serialize(Msg& msg, BufferChain& out) override {
    if (msg.kind == Msg::Kind::kBytes) {
      return out.Append(msg.bytes) ? OkStatus() : ResourceExhausted("buffer pool");
    }
    scratch_.clear();
    if (msg.http.is_request) {
      proto::SerializeRequest(msg.http, &scratch_);
    } else {
      proto::SerializeResponse(msg.http, &scratch_);
    }
    return out.Append(scratch_) ? OkStatus() : ResourceExhausted("buffer pool");
  }

 private:
  std::string scratch_;  // reused across messages
};

// --- raw pass-through ----------------------------------------------------------

// Emits whatever bytes are available as chunks of at most `max_chunk` (§6.1:
// the load balancer's return path forwards data "without change").
class RawDeserializer : public Deserializer {
 public:
  explicit RawDeserializer(size_t max_chunk = 16 * 1024) : max_chunk_(max_chunk) {}

  ParseStatus Deserialize(BufferChain& in, Msg* out) override {
    if (in.empty()) {
      return ParseStatus::kNeedMore;
    }
    const size_t n = in.readable() < max_chunk_ ? in.readable() : max_chunk_;
    out->bytes.resize(n);
    in.Read(out->bytes.data(), n);
    out->kind = Msg::Kind::kBytes;
    return ParseStatus::kDone;
  }
  void Reset() override {}

 private:
  const size_t max_chunk_;
};

class RawSerializer : public Serializer {
 public:
  Status Serialize(Msg& msg, BufferChain& out) override {
    return out.Append(msg.bytes) ? OkStatus() : ResourceExhausted("buffer pool");
  }
};

}  // namespace flick::runtime

#endif  // FLICK_RUNTIME_CODEC_H_
