// Endian-aware loads/stores used by the grammar engine and protocol parsers.
// FLICK grammars declare a %byteorder per unit (Listing 2); these helpers do
// the wire <-> host transformation byte-by-byte so they are safe on any
// alignment and any host endianness.
#ifndef FLICK_BASE_BYTE_ORDER_H_
#define FLICK_BASE_BYTE_ORDER_H_

#include <cstdint>
#include <cstddef>

namespace flick {

enum class ByteOrder { kBig, kLittle };

// Loads `size` bytes (1..8) starting at `p` as an unsigned integer.
inline uint64_t LoadUInt(const uint8_t* p, size_t size, ByteOrder order) {
  uint64_t v = 0;
  if (order == ByteOrder::kBig) {
    for (size_t i = 0; i < size; ++i) {
      v = (v << 8) | p[i];
    }
  } else {
    for (size_t i = size; i > 0; --i) {
      v = (v << 8) | p[i - 1];
    }
  }
  return v;
}

// Stores the low `size` bytes (1..8) of `v` at `p`.
inline void StoreUInt(uint8_t* p, size_t size, ByteOrder order, uint64_t v) {
  // Stage the 8 bytes little-endian, then copy at most 8 of them out: with
  // the width bounded by the staging array the compiler can see the copy
  // never overruns an 8-byte destination.
  uint8_t le[sizeof(v)];
  for (size_t i = 0; i < sizeof(v); ++i) {
    le[i] = static_cast<uint8_t>(v >> (8 * i));
  }
  if (size > sizeof(v)) {
    size = sizeof(v);
  }
  for (size_t i = 0; i < size; ++i) {
    p[i] = order == ByteOrder::kBig ? le[size - 1 - i] : le[i];
  }
}

}  // namespace flick

#endif  // FLICK_BASE_BYTE_ORDER_H_
