#ifndef MARLIN_COMMON_PACKED_BITS_H_
#define MARLIN_COMMON_PACKED_BITS_H_

/// \file packed_bits.h
/// \brief Bit-packed payload words: a 64-bit-word bit buffer plus
/// shift/mask field readers and writers.
///
/// The AIS decode hot path historically represented a de-armored payload as
/// a `std::vector<uint8_t>` holding one *byte per bit* and extracted fields
/// one bit at a time. `PackedBits` stores the same stream packed MSB-first
/// into 64-bit words, so a field of width w costs one or two shift/mask
/// operations instead of w loads. The layer is generic (nothing
/// AIS-specific except the 6-bit string alphabet helpers, which live here so
/// the packed codec and the frozen byte-per-bit reference codec in
/// tests/reference/byte_codec.h share one table).
///
/// Conventions, shared with that reference codec so the two representations
/// are bit-for-bit convertible:
///  * bit 0 is the MSB of word 0 (big-endian bit order within each word),
///  * unsigned fields are big-endian, signed fields two's-complement,
///  * strings are the AIS 6-bit alphabet, 6 bits per character.
///
/// Invariant: bits at positions >= size_bits() in the last word are zero,
/// which makes `operator==` a plain word compare and keeps armoring of a
/// fill-padded tail deterministic. `Clear()` retains word capacity, so a
/// pooled `PackedBits` scratch keeps the steady state allocation-free.

#include <cctype>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace marlin {

/// \brief Maps a 6-bit value (0..63) to the AIS string alphabet character.
inline char SixBitToChar(uint32_t v) {
  v &= 0x3F;
  // 0..31 -> '@','A'..'Z','[','\',']','^','_' ; 32..63 -> ' '..'?'
  return v < 32 ? static_cast<char>(v + 64) : static_cast<char>(v);
}

/// \brief Maps an AIS text character to its 6-bit value; returns 0 ('@') for
/// characters outside the alphabet.
inline uint32_t CharToSixBit(char c) {
  const unsigned char u =
      static_cast<unsigned char>(std::toupper(static_cast<unsigned char>(c)));
  if (u >= 64 && u < 96) return u - 64;  // '@'..'_'
  if (u >= 32 && u < 64) return u;       // ' '..'?'
  return 0;                              // outside alphabet -> '@'
}

/// \brief Append-only bit buffer packed MSB-first into 64-bit words.
class PackedBits {
 public:
  /// \brief Drops all bits but keeps word capacity (pooled-scratch reuse).
  void Clear() {
    words_.clear();
    size_bits_ = 0;
  }

  /// \brief Ensures capacity for `bits` total bits without changing size.
  void ReserveBits(size_t bits) { words_.reserve((bits + 63) / 64); }

  /// \brief Appends the low `width` bits of `value`, MSB first. Width 1..64.
  void AppendBits(uint64_t value, int width) {
    if (width < 64) value &= (uint64_t{1} << width) - 1;
    const int offset = size_bits_ & 63;
    if (offset == 0) {
      // Fresh word: the field starts at the word's MSB.
      words_.push_back(width == 64 ? value : value << (64 - width));
    } else {
      const int space = 64 - offset;
      if (width <= space) {
        words_.back() |= value << (space - width);
      } else {
        const int rem = width - space;  // 1..63
        words_.back() |= value >> rem;
        words_.push_back(value << (64 - rem));
      }
    }
    size_bits_ += width;
  }

  /// \brief Shortens the stream to `new_size_bits`, zeroing the freed tail
  /// (fill-bit truncation). Precondition: 0 <= new_size_bits <= size_bits().
  void Truncate(int new_size_bits) {
    size_bits_ = new_size_bits;
    words_.resize((static_cast<size_t>(new_size_bits) + 63) / 64);
    const int tail = new_size_bits & 63;
    if (tail != 0) {
      words_.back() &= ~uint64_t{0} << (64 - tail);
    }
  }

  int size_bits() const { return size_bits_; }
  bool empty() const { return size_bits_ == 0; }

  /// \brief Bit at `index` (0 = MSB of word 0). Precondition: in range.
  bool GetBit(int index) const {
    return (words_[static_cast<size_t>(index) >> 6] >>
            (63 - (index & 63))) & 1u;
  }

  size_t word_count() const { return words_.size(); }
  uint64_t word(size_t i) const { return words_[i]; }

  friend bool operator==(const PackedBits& a, const PackedBits& b) {
    return a.size_bits_ == b.size_bits_ && a.words_ == b.words_;
  }
  friend bool operator!=(const PackedBits& a, const PackedBits& b) {
    return !(a == b);
  }

 private:
  std::vector<uint64_t> words_;
  int size_bits_ = 0;
};

/// \brief Field-level writer over an owned `PackedBits`.
class PackedBitWriter {
 public:
  /// \brief Appends the low `width` bits of `value`, MSB first. Width 1..64.
  void WriteUnsigned(uint64_t value, int width) {
    bits_.AppendBits(value, width);
  }

  /// \brief Appends a two's-complement signed field of `width` bits.
  void WriteSigned(int64_t value, int width) {
    bits_.AppendBits(static_cast<uint64_t>(value), width);
  }

  /// \brief Appends a string in the AIS 6-bit alphabet, padded/truncated to
  /// exactly `chars` characters ('@' = 0 pads the tail).
  void WriteString(std::string_view text, int chars) {
    for (int i = 0; i < chars; ++i) {
      if (i < static_cast<int>(text.size())) {
        bits_.AppendBits(CharToSixBit(text[i]), 6);
      } else {
        bits_.AppendBits(0, 6);  // '@' padding
      }
    }
  }

  int size_bits() const { return bits_.size_bits(); }
  const PackedBits& bits() const { return bits_; }
  PackedBits TakeBits() && { return std::move(bits_); }

 private:
  PackedBits bits_;
};

/// \brief Sequential bounds-checked field reader over a `PackedBits`.
///
/// Every read crosses at most one word boundary, so extraction is one or
/// two shift/mask operations regardless of width.
class PackedBitReader {
 public:
  explicit PackedBitReader(const PackedBits& bits) : bits_(&bits) {}

  /// \brief Reads `width` bits as an unsigned value. Width 1..64.
  Result<uint64_t> ReadUnsigned(int width) {
    if (width < 1 || width > 64) {
      return Status::Invalid("bit field width out of range");
    }
    if (remaining() < width) {
      return Status::OutOfRange("bit stream exhausted");
    }
    const size_t word_i = static_cast<size_t>(pos_) >> 6;
    const int offset = pos_ & 63;
    const int avail = 64 - offset;
    uint64_t v;
    if (width <= avail) {
      v = bits_->word(word_i) >> (avail - width);
      if (width < 64) v &= (uint64_t{1} << width) - 1;
    } else {
      // Straddles the word boundary: avail < 64 here, so both shifts are
      // in range.
      const int rem = width - avail;  // 1..63
      const uint64_t hi = bits_->word(word_i) & ((uint64_t{1} << avail) - 1);
      v = (hi << rem) | (bits_->word(word_i + 1) >> (64 - rem));
    }
    pos_ += width;
    return v;
  }

  /// \brief Reads `width` bits as a two's-complement signed value.
  Result<int64_t> ReadSigned(int width) {
    MARLIN_ASSIGN_OR_RETURN(uint64_t raw, ReadUnsigned(width));
    // Sign-extend from `width` bits.
    if (width < 64 && (raw & (uint64_t{1} << (width - 1)))) {
      raw |= ~((uint64_t{1} << width) - 1);
    }
    return static_cast<int64_t>(raw);
  }

  /// \brief Reads `chars` characters of AIS 6-bit text; trailing '@' padding
  /// and trailing spaces are stripped.
  Result<std::string> ReadString(int chars) {
    std::string out;
    out.reserve(chars);
    for (int i = 0; i < chars; ++i) {
      MARLIN_ASSIGN_OR_RETURN(uint64_t v, ReadUnsigned(6));
      out.push_back(SixBitToChar(static_cast<uint32_t>(v)));
    }
    // Strip '@' padding and trailing spaces.
    size_t end = out.find('@');
    if (end != std::string::npos) out.resize(end);
    while (!out.empty() && out.back() == ' ') out.pop_back();
    return out;
  }

  /// \brief Skips `width` bits (spare fields).
  Status Skip(int width) {
    if (remaining() < width) return Status::OutOfRange("bit stream exhausted");
    pos_ += width;
    return Status::OK();
  }

  int remaining() const { return bits_->size_bits() - pos_; }
  int position() const { return pos_; }

 private:
  const PackedBits* bits_;
  int pos_ = 0;
};

}  // namespace marlin

#endif  // MARLIN_COMMON_PACKED_BITS_H_
