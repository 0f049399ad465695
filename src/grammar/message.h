// Parsed message representation.
//
// Numeric fields land in a flat vector; byte fields are copied into a single
// reusable arena (one allocation amortised across the message's lifetime —
// the input task reuses Message objects, so the steady state allocates
// nothing, matching §4.2's "does not dynamically allocate memory").
// Pass-through (non-materialised) fields record only their size.
#ifndef FLICK_GRAMMAR_MESSAGE_H_
#define FLICK_GRAMMAR_MESSAGE_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "base/check.h"
#include "grammar/unit.h"

namespace flick::grammar {

class Message {
 public:
  Message() = default;

  void BindUnit(const Unit* unit) {
    unit_ = unit;
    Reset();
  }

  const Unit* unit() const { return unit_; }

  // Clears every field in place; sizes the field vectors only when the
  // unit's field count differs from theirs.
  void Reset() {
    FLICK_DCHECK(unit_ != nullptr);
    const size_t n = unit_->fields().size();
    if (nums_.size() == n) {
      std::fill(nums_.begin(), nums_.end(), 0);
      std::fill(spans_.begin(), spans_.end(), Span{});
    } else {
      nums_.assign(n, 0);
      spans_.assign(n, Span{});
    }
    arena_.clear();
  }

  // --- numeric fields -------------------------------------------------------
  uint64_t GetUInt(int index) const {
    FLICK_DCHECK(InRange(index));
    return nums_[static_cast<size_t>(index)];
  }
  uint64_t GetUInt(const std::string& name) const { return GetUInt(MustIndex(name)); }
  void SetUInt(int index, uint64_t value) {
    FLICK_DCHECK(InRange(index));
    nums_[static_cast<size_t>(index)] = value;
  }
  void SetUInt(const std::string& name, uint64_t value) { SetUInt(MustIndex(name), value); }

  // --- byte fields ----------------------------------------------------------
  std::string_view GetBytes(int index) const {
    FLICK_DCHECK(InRange(index));
    const Span& s = spans_[static_cast<size_t>(index)];
    return std::string_view(arena_.data() + s.offset, s.materialized_size);
  }
  std::string_view GetBytes(const std::string& name) const { return GetBytes(MustIndex(name)); }

  // Wire size of the field (equals GetBytes().size() unless pass-through).
  size_t FieldWireSize(int index) const {
    FLICK_DCHECK(InRange(index));
    return spans_[static_cast<size_t>(index)].wire_size;
  }

  // Overwrites the field's arena slot in place when the new bytes fit, and
  // truncates the arena first when the slot is its tail, so a field
  // overwritten N times costs O(its size) arena bytes, not N copies (a
  // foldt combine rewrites the held record's value once per folded record).
  void SetBytes(int index, std::string_view data) {
    FLICK_DCHECK(InRange(index));
    Span& s = spans_[static_cast<size_t>(index)];
    if (data.size() <= s.capacity) {
      if (!data.empty()) {
        std::memmove(arena_.data() + s.offset, data.data(), data.size());
      }
    } else {
      // Bytes read from this arena keep the append path: truncating could
      // cut under them.
      const bool tail = s.offset + s.capacity == arena_.size();
      const bool aliases = data.data() >= arena_.data() &&
                           data.data() < arena_.data() + arena_.size();
      if (tail && !aliases) {
        arena_.resize(s.offset);
      } else {
        s.offset = arena_.size();
      }
      arena_.append(data.data(), data.size());
      s.capacity = data.size();
    }
    s.materialized_size = data.size();
    s.wire_size = data.size();
  }
  void SetBytes(const std::string& name, std::string_view data) {
    SetBytes(MustIndex(name), data);
  }

  // --- parser-side whole-message fill ---------------------------------------
  // UnitParser's one-pass path writes every field exactly once, so it skips
  // Reset's clearing pass: BeginFill binds `unit` and empties the arena, and
  // each Fill call sets its field's number and span outright, leaving what
  // Reset plus the incremental path's writes would.
  void BeginFill(const Unit* unit) {
    unit_ = unit;
    const size_t n = unit_->fields().size();
    if (nums_.size() != n) {
      nums_.resize(n);
      spans_.resize(n);
    }
    arena_.clear();
  }
  void FillUInt(int index, uint64_t value) {
    FLICK_DCHECK(InRange(index));
    nums_[static_cast<size_t>(index)] = value;
    spans_[static_cast<size_t>(index)] = Span{};
  }
  void FillBytes(int index, const uint8_t* data, size_t n, bool materialize) {
    FLICK_DCHECK(InRange(index));
    nums_[static_cast<size_t>(index)] = 0;
    Span& s = spans_[static_cast<size_t>(index)];
    s.offset = arena_.size();
    s.wire_size = n;
    s.capacity = materialize ? n : 0;
    s.materialized_size = s.capacity;
    if (materialize) {
      arena_.append(reinterpret_cast<const char*>(data), n);
    }
  }

  // --- parser-side incremental append --------------------------------------
  void BeginBytesField(int index) {
    Span& s = spans_[static_cast<size_t>(index)];
    s.offset = arena_.size();
    s.capacity = 0;
    s.materialized_size = 0;
    s.wire_size = 0;
  }
  void AppendBytes(int index, const uint8_t* data, size_t n, bool materialize) {
    Span& s = spans_[static_cast<size_t>(index)];
    if (materialize) {
      arena_.append(reinterpret_cast<const char*>(data), n);
      s.capacity += n;
      s.materialized_size += n;
    }
    s.wire_size += n;
  }

  // Total bytes this message would occupy on the wire (valid after parse).
  size_t wire_size() const { return wire_size_; }
  void set_wire_size(size_t n) { wire_size_ = n; }

  // Flat numeric-field view, in field order (length expressions evaluate
  // against this).
  const std::vector<uint64_t>& nums() const { return nums_; }

  // Bytes the arena holds across all byte fields.
  size_t arena_bytes() const { return arena_.size(); }

 private:
  struct Span {
    size_t offset = 0;
    size_t capacity = 0;  // arena bytes the slot at `offset` owns
    size_t materialized_size = 0;
    size_t wire_size = 0;
  };

  bool InRange(int index) const {
    return unit_ != nullptr && index >= 0 && static_cast<size_t>(index) < nums_.size();
  }

  int MustIndex(const std::string& name) const {
    const int index = unit_->FieldIndex(name);
    FLICK_CHECK(index >= 0);
    return index;
  }

  const Unit* unit_ = nullptr;
  std::vector<uint64_t> nums_;
  std::vector<Span> spans_;
  std::string arena_;
  size_t wire_size_ = 0;
};

}  // namespace flick::grammar

#endif  // FLICK_GRAMMAR_MESSAGE_H_
