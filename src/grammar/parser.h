// Incremental unit parser (§4.2: "supports the incremental parsing of
// messages as new data arrives").
//
// Feed() consumes bytes from a BufferChain and fills a Message. If the chain
// runs dry mid-message, the parser keeps its position (current field, bytes
// consumed within it) and resumes on the next Feed — input tasks call it once
// per network read with whatever fragment arrived.
//
// At a message boundary Feed first tries the whole message in one pass: it
// walks the unit's parse plan over the chain's front buffer, and when that
// buffer holds the entire message it fills the Message and consumes once.
// Anything else (a message straddling buffers, a short chain, malformed
// bytes) goes to the field-at-a-time incremental path, which defines the
// semantics; the one-pass path commits only messages it parses cleanly.
#ifndef FLICK_GRAMMAR_PARSER_H_
#define FLICK_GRAMMAR_PARSER_H_

#include <cstdint>
#include <string_view>

#include "buffer/buffer_chain.h"
#include "grammar/message.h"
#include "grammar/unit.h"

namespace flick::grammar {

enum class ParseStatus {
  kDone,      // a complete message was produced
  kNeedMore,  // ran out of input mid-message; state kept
  kError,     // irrecoverable framing error
};

class UnitParser {
 public:
  explicit UnitParser(const Unit* unit) : unit_(unit) { Reset(); }

  const Unit* unit() const { return unit_; }

  // Attempts to complete one message from `input`. On kDone, `out` holds the
  // message and the consumed bytes are removed from `input`. On kNeedMore,
  // partial bytes are consumed and parsing resumes on the next call with the
  // SAME `out` message.
  ParseStatus Feed(BufferChain& input, Message* out);

  // Abandons any partial message.
  void Reset();

  bool mid_message() const { return field_index_ > 0 || field_consumed_ > 0; }

  // Guard against absurd lengths from corrupt peers (bounded resource use).
  void set_max_field_size(size_t n) { max_field_size_ = n; }

 private:
  // The one-pass path: true when `view` (the front of `input`) held the
  // whole message and `out` was filled from it; false leaves `input`
  // untouched and `out` partly written.
  bool ParseWhole(std::string_view view, BufferChain& input, Message* out);

  const Unit* unit_;
  size_t field_index_ = 0;     // current field
  size_t field_consumed_ = 0;  // bytes of current field consumed so far
  size_t field_size_ = 0;      // resolved size of current field
  bool field_started_ = false;
  size_t message_bytes_ = 0;   // wire bytes consumed for this message
  size_t max_field_size_ = 64 * 1024 * 1024;

  // ascii integer in flight (digits and the CRLF terminator may arrive split
  // across reads).
  uint64_t ascii_value_ = 0;
  size_t ascii_digits_ = 0;
  bool ascii_seen_cr_ = false;
};

}  // namespace flick::grammar

#endif  // FLICK_GRAMMAR_PARSER_H_
