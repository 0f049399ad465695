#include "grammar/parser.h"

namespace flick::grammar {

void UnitParser::Reset() {
  field_index_ = 0;
  field_consumed_ = 0;
  field_size_ = 0;
  field_started_ = false;
  message_bytes_ = 0;
  ascii_value_ = 0;
  ascii_digits_ = 0;
  ascii_seen_cr_ = false;
}

bool UnitParser::ParseWhole(std::string_view view, BufferChain& input, Message* out) {
  const auto* wire = reinterpret_cast<const uint8_t*>(view.data());
  const size_t end = view.size();
  const std::vector<FieldSpec>& fields = unit_->fields();
  const std::vector<ParseStep>& plan = unit_->parse_plan();
  out->BeginFill(unit_);
  size_t pos = 0;
  for (size_t i = 0; i < plan.size(); ++i) {
    const ParseStep& step = plan[i];
    const int index = static_cast<int>(i);
    uint64_t size = 0;
    switch (step.op) {
      case ParseStep::Op::kVar:
        out->FillUInt(index, fields[i].parse_expr.Eval(out->nums()));
        continue;
      case ParseStep::Op::kUInt:
        if (step.arg > max_field_size_ || end - pos < step.arg) {
          return false;
        }
        out->FillUInt(index, LoadUInt(wire + pos, step.arg, unit_->byte_order()));
        pos += step.arg;
        continue;
      case ParseStep::Op::kAsciiUInt: {
        // The incremental path's guards: 1..19 digits, then exactly CRLF.
        uint64_t value = 0;
        size_t digits = 0;
        while (pos + digits < end && wire[pos + digits] >= '0' && wire[pos + digits] <= '9') {
          if (++digits > 19) {
            return false;
          }
          value = value * 10 + (wire[pos + digits - 1] - '0');
        }
        if (digits == 0 || end - pos - digits < 2 || wire[pos + digits] != '\r' ||
            wire[pos + digits + 1] != '\n') {
          return false;
        }
        out->FillUInt(index, value);
        pos += digits + 2;
        continue;
      }
      case ParseStep::Op::kConstBytes:
        size = step.arg;
        break;
      case ParseStep::Op::kFieldBytes:
        size = out->GetUInt(static_cast<int>(step.arg));
        break;
      case ParseStep::Op::kExprBytes:
        size = fields[i].length.Eval(out->nums());
        break;
    }
    if (size > max_field_size_ || end - pos < size) {
      return false;
    }
    out->FillBytes(index, wire + pos, size, step.materialize);
    pos += size;
  }
  input.Consume(pos);
  out->set_wire_size(pos);
  return true;
}

ParseStatus UnitParser::Feed(BufferChain& input, Message* out) {
  FLICK_CHECK(out != nullptr);
  if (field_index_ == 0 && field_consumed_ == 0 && !field_started_) {
    const std::string_view front = input.FrontView();
    if (!front.empty() && ParseWhole(front, input, out)) {
      return ParseStatus::kDone;
    }
    // Fresh message on the incremental path: bind (or re-bind) the output,
    // clearing whatever a failed one-pass attempt wrote.
    if (out->unit() != unit_) {
      out->BindUnit(unit_);
    } else {
      out->Reset();
    }
    message_bytes_ = 0;
  }

  const auto& fields = unit_->fields();
  while (field_index_ < fields.size()) {
    const FieldSpec& f = fields[field_index_];
    const int index = static_cast<int>(field_index_);

    if (f.kind == FieldKind::kVar) {
      out->SetUInt(index, f.parse_expr.Eval(out->nums()));
      ++field_index_;
      continue;
    }

    if (!field_started_) {
      // Resolve this field's size; dynamic lengths depend only on earlier
      // numeric fields, already present in `out`.
      if (f.kind == FieldKind::kUInt && f.ascii) {
        field_size_ = 0;  // variable: digits + CRLF, consumed byte-by-byte
        ascii_value_ = 0;
        ascii_digits_ = 0;
        ascii_seen_cr_ = false;
      } else if (f.kind == FieldKind::kUInt) {
        field_size_ = f.fixed_size;
      } else if (f.length.is_const()) {
        field_size_ = f.length.const_value();
      } else {
        field_size_ = f.length.Eval(out->nums());
      }
      if (field_size_ > max_field_size_) {
        Reset();
        return ParseStatus::kError;
      }
      field_consumed_ = 0;
      field_started_ = true;
      if (f.kind == FieldKind::kBytes) {
        out->BeginBytesField(index);
      }
    }

    if (f.kind == FieldKind::kUInt && f.ascii) {
      // ASCII decimal digits terminated by CRLF; digits and the terminator
      // may straddle reads, so consume one byte at a time.
      bool done = false;
      while (!done) {
        std::string_view front = input.FrontView();
        if (front.empty()) {
          return ParseStatus::kNeedMore;
        }
        const uint8_t c = static_cast<uint8_t>(front[0]);
        if (ascii_seen_cr_) {
          if (c != '\n') {
            Reset();
            return ParseStatus::kError;
          }
          done = true;
        } else if (c == '\r') {
          if (ascii_digits_ == 0) {
            Reset();
            return ParseStatus::kError;
          }
          ascii_seen_cr_ = true;
        } else if (c >= '0' && c <= '9') {
          if (++ascii_digits_ > 19) {  // uint64 overflow guard
            Reset();
            return ParseStatus::kError;
          }
          ascii_value_ = ascii_value_ * 10 + (c - '0');
        } else {
          Reset();
          return ParseStatus::kError;
        }
        input.Consume(1);
        ++field_consumed_;
        ++message_bytes_;
      }
      out->SetUInt(index, ascii_value_);
      field_started_ = false;
      field_consumed_ = 0;
      ++field_index_;
      continue;
    }

    if (f.kind == FieldKind::kUInt) {
      // Integers decode atomically: wait for the full width.
      if (input.readable() < field_size_) {
        return ParseStatus::kNeedMore;
      }
      uint8_t raw[8];
      input.Read(raw, field_size_);
      message_bytes_ += field_size_;
      out->SetUInt(index, LoadUInt(raw, field_size_, unit_->byte_order()));
      field_started_ = false;
      ++field_index_;
      continue;
    }

    // Bytes field: consume incrementally.
    while (field_consumed_ < field_size_) {
      std::string_view front = input.FrontView();
      if (front.empty()) {
        return ParseStatus::kNeedMore;
      }
      const size_t want = field_size_ - field_consumed_;
      const size_t take = front.size() < want ? front.size() : want;
      out->AppendBytes(index, reinterpret_cast<const uint8_t*>(front.data()), take,
                       f.materialize);
      input.Consume(take);
      field_consumed_ += take;
      message_bytes_ += take;
    }
    field_started_ = false;
    field_consumed_ = 0;
    ++field_index_;
  }

  out->set_wire_size(message_bytes_);
  Reset();
  return ParseStatus::kDone;
}

}  // namespace flick::grammar
