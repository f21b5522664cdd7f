#include "ais/sixbit.h"

#include <bit>
#include <cstring>

namespace marlin {
namespace {

/// Armor-character validation for the untouched-or-complete contract: the
/// whole payload is validated *before* the first write, so a corrupt payload
/// can never leave a partially overwritten buffer. Valid armor characters
/// are exactly the range 48..119 under the lenient (+48 / skip-8) rule the
/// armoring uses.
Status ValidateArmor(std::string_view payload, int fill_bits) {
  if (fill_bits < 0 || fill_bits > 5) {
    return Status::Invalid("fill bits must be 0..5");
  }
  // Branchless accumulate (auto-vectorizes): one test after the scan instead
  // of a conditional per character.
  unsigned bad = 0;
  for (const char c : payload) {
    bad |= (static_cast<unsigned char>(c) - 48u) > 71u;
  }
  if (bad != 0) {
    return Status::Corruption("invalid armoring character in AIS payload");
  }
  if (static_cast<int>(payload.size()) * 6 < fill_bits) {
    return Status::Corruption("payload shorter than fill bits");
  }
  return Status::OK();
}

/// De-armors one payload character to its 6-bit value. Precondition: `c`
/// passed `ValidateArmor`.
inline uint32_t ArmorCharToSixBits(char c) {
  uint32_t v = static_cast<unsigned char>(c) - 48u;
  if (v > 40u) v -= 8u;
  return v;
}

}  // namespace

std::string ArmorBits(const PackedBits& bits, int* fill_bits) {
  std::string payload;
  const int n = bits.size_bits();
  const int groups = (n + 5) / 6;
  payload.reserve(groups);
  for (int g = 0; g < groups; ++g) {
    uint32_t v = 0;
    for (int b = 0; b < 6; ++b) {
      const int idx = g * 6 + b;
      // Bits past size are the zero fill (tail-zero invariant would also
      // allow reading the word directly, but `idx < n` keeps this safe when
      // the last group starts beyond the final word).
      v = (v << 1) | (idx < n && bits.GetBit(idx) ? 1u : 0u);
    }
    // ITU armoring: add 48; values above 39 skip the 8 chars 'X'..'_'.
    char c = static_cast<char>(v + 48);
    if (v > 39) c = static_cast<char>(v + 56);
    payload.push_back(c);
  }
  if (fill_bits != nullptr) *fill_bits = groups * 6 - n;
  return payload;
}

Status UnarmorPayloadInto(std::string_view payload, int fill_bits,
                          PackedBits* bits) {
  MARLIN_RETURN_NOT_OK(ValidateArmor(payload, fill_bits));
  bits->Clear();
  bits->ReserveBits(payload.size() * 6);
  size_t i = 0;
  if constexpr (std::endian::native == std::endian::little) {
    // SWAR block: de-armor eight characters per step. Each byte is already
    // validated to be in 48..119, so per-byte arithmetic cannot borrow or
    // carry across lanes.
    for (; i + 8 <= payload.size(); i += 8) {
      uint64_t x;
      std::memcpy(&x, payload.data() + i, 8);
      // Armor -> 6-bit value per byte: subtract 48, and 8 more where the
      // byte is >= 89 (the post-'W' armor range).
      const uint64_t ge89 =
          ((x + 0x2727272727272727ull) & 0x8080808080808080ull) >> 7;
      x = x - 0x3030303030303030ull - (ge89 << 3);
      // Gather the eight 6-bit values MSB-first into 48 bits (pair, quad,
      // then halves — the classic base64 bit-merge).
      const uint64_t m6 = 0x003F003F003F003Full;
      const uint64_t pairs = ((x & m6) << 6) | ((x >> 8) & m6);
      const uint64_t m12 = 0x00000FFF00000FFFull;
      const uint64_t quads = ((pairs & m12) << 12) | ((pairs >> 16) & m12);
      const uint64_t v =
          ((quads & 0xFFFFFFull) << 24) | ((quads >> 32) & 0xFFFFFFull);
      bits->AppendBits(v, 48);
    }
  }
  // Tail (and the full payload on big-endian hosts): batch characters into
  // a 60-bit accumulator so appends stay word-granular.
  uint64_t acc = 0;
  int acc_bits = 0;
  for (; i < payload.size(); ++i) {
    acc = (acc << 6) | ArmorCharToSixBits(payload[i]);
    acc_bits += 6;
    if (acc_bits == 60) {
      bits->AppendBits(acc, 60);
      acc = 0;
      acc_bits = 0;
    }
  }
  if (acc_bits != 0) bits->AppendBits(acc, acc_bits);
  bits->Truncate(bits->size_bits() - fill_bits);
  return Status::OK();
}

}  // namespace marlin
