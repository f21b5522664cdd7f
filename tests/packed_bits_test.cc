// Packed-bits battery (CTest labels: equivalence, tsan-critical).
//
// Production decodes and encodes AIS payloads as 64-bit packed words
// (`PackedBits` + `PackedBitReader`/`PackedBitWriter`,
// common/packed_bits.h). The frozen byte-per-bit codec lives in
// tests/reference/byte_codec.h (`reference::BitWriter`/`BitReader`, byte
// armor/de-armor, a field-by-field decode and encode of every supported
// type), and this suite proves the two representations equivalent three
// ways:
//
//  1. randomized round-trip *property* tests on the packed reader/writer
//     (random field scripts of widths 1..57 and beyond, sign extension,
//     word-boundary straddles, fill-bit truncation, 6-bit strings);
//  2. bit-for-bit *differential* tests of every primitive against the
//     reference (writer output, armor/de-armor, statuses);
//  3. a payload *corpus differential*: valid / truncated / bad-fill /
//     corrupted / multi-fragment payloads of every supported message type
//     decode byte-identically (re-encoded bit streams and exact `Status`
//     values) through production and through the reference, whose layout
//     code is written separately from production's wide-read layouts.
//
// The untouched-or-complete `UnarmorPayloadInto` contract and the
// shard-concurrency independence of pooled decoder scratch are pinned here
// too (the latter is why this binary carries the tsan-critical label).

#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ais/codec.h"
#include "ais/messages.h"
#include "ais/nmea.h"
#include "ais/sixbit.h"
#include "common/packed_bits.h"
#include "common/rng.h"
#include "reference/byte_codec.h"

namespace marlin {
namespace {

uint64_t MaskOf(int width) {
  return width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
}

/// Asserts the packed stream is the bit-for-bit image of the byte-per-bit
/// stream.
void ExpectBitsEqual(const std::vector<uint8_t>& byte_bits,
                     const PackedBits& packed) {
  ASSERT_EQ(static_cast<int>(byte_bits.size()), packed.size_bits());
  for (int i = 0; i < packed.size_bits(); ++i) {
    ASSERT_EQ(byte_bits[i] != 0, packed.GetBit(i)) << "bit " << i;
  }
}

/// Writes the same `width`-bit value to the frozen byte writer, splitting
/// fields wider than its 32-bit limit (MSB-first, so the high chunk goes
/// first).
void ByteWriteWide(reference::BitWriter* w, uint64_t value, int width) {
  if (width > 32) {
    w->WriteUnsigned(static_cast<uint32_t>(value >> 32), width - 32);
    w->WriteUnsigned(static_cast<uint32_t>(value), 32);
  } else {
    w->WriteUnsigned(static_cast<uint32_t>(value), width);
  }
}

/// Reads a `width`-bit value from the frozen byte reader, splitting wide
/// fields the same way.
uint64_t ByteReadWide(reference::BitReader* r, int width) {
  if (width > 32) {
    const uint64_t hi = *r->ReadUnsigned(width - 32);
    const uint64_t lo = *r->ReadUnsigned(32);
    return (hi << 32) | lo;
  }
  return *r->ReadUnsigned(width);
}

// --- PackedBits primitives -------------------------------------------------

TEST(PackedBitsTest, AppendAndGetBit) {
  PackedBits b;
  b.AppendBits(0b1011, 4);
  b.AppendBits(0, 3);
  b.AppendBits(1, 1);
  ASSERT_EQ(b.size_bits(), 8);
  const bool expected[8] = {true, false, true, true, false, false, false, true};
  for (int i = 0; i < 8; ++i) EXPECT_EQ(b.GetBit(i), expected[i]) << i;
  // First byte sits in the top byte of word 0.
  EXPECT_EQ(b.word(0) >> 56, 0b10110001u);
}

TEST(PackedBitsTest, AppendCrossesWordBoundary) {
  PackedBits b;
  b.AppendBits(~uint64_t{0}, 60);
  b.AppendBits(0b101, 3);  // straddles nothing yet (63 bits)
  b.AppendBits(0b11, 2);   // 64th bit + 1 bit into word 1
  ASSERT_EQ(b.size_bits(), 65);
  ASSERT_EQ(b.word_count(), 2u);
  EXPECT_TRUE(b.GetBit(63));
  EXPECT_TRUE(b.GetBit(64));
  // Tail of word 1 beyond bit 65 must be zero (tail-zero invariant).
  EXPECT_EQ(b.word(1) & (~uint64_t{0} >> 1), 0u);
}

TEST(PackedBitsTest, TruncateZeroesFreedTail) {
  PackedBits a;
  a.AppendBits(~uint64_t{0}, 64);
  a.AppendBits(~uint64_t{0}, 10);
  a.Truncate(67);
  PackedBits b;
  b.AppendBits(~uint64_t{0}, 64);
  b.AppendBits(0b111, 3);
  EXPECT_EQ(a, b);  // equality is word-exact, so freed bits must be zero
  a.Truncate(64);
  ASSERT_EQ(a.word_count(), 1u);
  a.Truncate(0);
  EXPECT_TRUE(a.empty());
}

TEST(PackedBitsTest, ClearRetainsNothingObservable) {
  PackedBits a;
  a.AppendBits(0xDEADBEEF, 32);
  a.Clear();
  a.AppendBits(0b01, 2);
  PackedBits b;
  b.AppendBits(0b01, 2);
  EXPECT_EQ(a, b);
}

// --- Randomized round-trip properties --------------------------------------

TEST(PackedBitPropertyTest, RandomFieldScriptsRoundTripAndMatchByteWriter) {
  Rng rng(1701);
  for (int trial = 0; trial < 200; ++trial) {
    const int nfields = 1 + static_cast<int>(rng.NextBounded(40));
    std::vector<int> widths(nfields);
    std::vector<uint64_t> values(nfields);
    PackedBitWriter pw;
    reference::BitWriter bw;
    for (int i = 0; i < nfields; ++i) {
      widths[i] = 1 + static_cast<int>(rng.NextBounded(57));
      values[i] = rng.NextU64() & MaskOf(widths[i]);
      pw.WriteUnsigned(values[i], widths[i]);
      ByteWriteWide(&bw, values[i], widths[i]);
    }
    ExpectBitsEqual(bw.bits(), pw.bits());

    PackedBitReader pr(pw.bits());
    reference::BitReader br(bw.bits());
    for (int i = 0; i < nfields; ++i) {
      ASSERT_EQ(*pr.ReadUnsigned(widths[i]), values[i])
          << "trial " << trial << " field " << i << " width " << widths[i];
      ASSERT_EQ(ByteReadWide(&br, widths[i]), values[i]);
    }
    EXPECT_EQ(pr.remaining(), 0);
    EXPECT_TRUE(pr.ReadUnsigned(1).status().IsOutOfRange());
  }
}

TEST(PackedBitPropertyTest, SignedFieldsSignExtend) {
  Rng rng(1702);
  for (int trial = 0; trial < 200; ++trial) {
    const int width = 2 + static_cast<int>(rng.NextBounded(56));  // 2..57
    const int64_t lo = -(int64_t{1} << (width - 1));
    const int64_t hi = (int64_t{1} << (width - 1)) - 1;
    const int64_t mid = lo + static_cast<int64_t>(
                                 rng.NextBounded(static_cast<uint64_t>(hi - lo) + 1));
    PackedBitWriter w;
    for (int64_t v : {lo, hi, int64_t{-1}, int64_t{0}, mid}) {
      w.WriteSigned(v, width);
    }
    PackedBitReader r(w.bits());
    for (int64_t v : {lo, hi, int64_t{-1}, int64_t{0}, mid}) {
      ASSERT_EQ(*r.ReadSigned(width), v) << "width " << width;
    }
    // Differential vs the frozen 32-bit-capped signed reader.
    if (width <= 32) {
      reference::BitWriter bw;
      for (int64_t v : {lo, hi, int64_t{-1}, int64_t{0}, mid}) {
        bw.WriteSigned(static_cast<int32_t>(v), width);
      }
      ExpectBitsEqual(bw.bits(), w.bits());
      reference::BitReader br(bw.bits());
      PackedBitReader pr(w.bits());
      for (int i = 0; i < 5; ++i) {
        ASSERT_EQ(static_cast<int64_t>(*br.ReadSigned(width)),
                  *pr.ReadSigned(width));
      }
    }
  }
}

TEST(PackedBitPropertyTest, FieldsStraddleWordBoundariesAtEveryOffset) {
  // A 57-bit marker field preceded by `pad` single bits, for every pad
  // offset across two word boundaries — straddles at every alignment.
  for (int pad = 0; pad <= 130; ++pad) {
    const uint64_t marker = 0x155AA55AA55AA55ull & MaskOf(57);
    PackedBitWriter w;
    for (int i = 0; i < pad; ++i) w.WriteUnsigned(i & 1u, 1);
    w.WriteUnsigned(marker, 57);
    w.WriteUnsigned(0x3FF, 10);
    PackedBitReader r(w.bits());
    ASSERT_TRUE(r.Skip(pad).ok());
    ASSERT_EQ(*r.ReadUnsigned(57), marker) << "pad " << pad;
    ASSERT_EQ(*r.ReadUnsigned(10), 0x3FFu) << "pad " << pad;
  }
  // Full-width 64-bit fields, aligned and straddling.
  for (int pad : {0, 1, 31, 63}) {
    PackedBitWriter w;
    for (int i = 0; i < pad; ++i) w.WriteUnsigned(1, 1);
    w.WriteUnsigned(0xFEEDFACECAFEBEEFull, 64);
    PackedBitReader r(w.bits());
    ASSERT_TRUE(r.Skip(pad).ok());
    ASSERT_EQ(*r.ReadUnsigned(64), 0xFEEDFACECAFEBEEFull) << "pad " << pad;
  }
}

TEST(PackedBitPropertyTest, SixBitStringsMatchByteWriterAndReader) {
  Rng rng(1703);
  const std::string alphabet =
      "@ABCDEFGHIJKLMNOPQRSTUVWXYZ !\"#$%&'()*+,-./0123456789:;<=>?";
  for (int trial = 0; trial < 100; ++trial) {
    const int chars = 1 + static_cast<int>(rng.NextBounded(24));
    const int text_len = static_cast<int>(rng.NextBounded(chars + 5));
    std::string text;
    for (int i = 0; i < text_len; ++i) {
      text.push_back(alphabet[rng.NextBounded(alphabet.size())]);
    }
    PackedBitWriter pw;
    reference::BitWriter bw;
    // A leading 3-bit pad so the string itself straddles word boundaries.
    pw.WriteUnsigned(0b101, 3);
    bw.WriteUnsigned(0b101, 3);
    pw.WriteString(text, chars);
    bw.WriteString(text, chars);
    ExpectBitsEqual(bw.bits(), pw.bits());
    PackedBitReader pr(pw.bits());
    reference::BitReader br(bw.bits());
    ASSERT_TRUE(pr.Skip(3).ok());
    ASSERT_TRUE(br.Skip(3).ok());
    ASSERT_EQ(*pr.ReadString(chars), *br.ReadString(chars))
        << "text \"" << text << "\" chars " << chars;
  }
}

// --- Armor / de-armor differential -----------------------------------------

TEST(PackedArmorTest, ArmorAndUnarmorMatchBytePathBitForBit) {
  Rng rng(1704);
  for (int trial = 0; trial < 200; ++trial) {
    const int nbits = 1 + static_cast<int>(rng.NextBounded(430));
    reference::BitWriter bw;
    PackedBitWriter pw;
    for (int i = 0; i < nbits; ++i) {
      const uint32_t bit = static_cast<uint32_t>(rng.NextBounded(2));
      bw.WriteUnsigned(bit, 1);
      pw.WriteUnsigned(bit, 1);
    }
    int byte_fill = 0;
    int packed_fill = 0;
    const std::string byte_payload =
        reference::ArmorBits(bw.bits(), &byte_fill);
    const std::string packed_payload = ArmorBits(pw.bits(), &packed_fill);
    ASSERT_EQ(byte_payload, packed_payload);
    ASSERT_EQ(byte_fill, packed_fill);

    std::vector<uint8_t> byte_bits;
    PackedBits packed_bits;
    ASSERT_TRUE(
        reference::UnarmorPayloadInto(byte_payload, byte_fill, &byte_bits)
            .ok());
    ASSERT_TRUE(
        UnarmorPayloadInto(packed_payload, packed_fill, &packed_bits).ok());
    ExpectBitsEqual(byte_bits, packed_bits);
    ASSERT_EQ(packed_bits, pw.bits());  // exact round trip
  }
}

TEST(PackedArmorTest, FillBitTruncationSweep) {
  // Every payload length x fill combination de-armors identically on both
  // paths (the armor characters are all valid here).
  const std::string payload = "15M67wwP00qNqTpCj@Rq`vB>0000";
  for (size_t len = 0; len <= payload.size(); ++len) {
    for (int fill = 0; fill <= 5; ++fill) {
      const std::string_view p(payload.data(), len);
      std::vector<uint8_t> byte_bits;
      PackedBits packed_bits;
      const Status bs = reference::UnarmorPayloadInto(p, fill, &byte_bits);
      const Status ps = UnarmorPayloadInto(p, fill, &packed_bits);
      ASSERT_EQ(bs, ps) << "len " << len << " fill " << fill;
      if (bs.ok()) ExpectBitsEqual(byte_bits, packed_bits);
    }
  }
}

TEST(PackedArmorTest, ErrorStatusesIdenticalAcrossPaths) {
  const std::pair<std::string, int> cases[] = {
      {"ab\x19z", 0},   // illegal armor character
      {"15M\x7F", 3},   // illegal armor character, high end
      {"15M", 6},       // fill out of range
      {"15M", -1},      // fill out of range (negative)
      {"", 3},          // payload shorter than fill bits
  };
  for (const auto& [payload, fill] : cases) {
    std::vector<uint8_t> byte_bits;
    PackedBits packed_bits;
    const Status bs = reference::UnarmorPayloadInto(payload, fill, &byte_bits);
    const Status ps = UnarmorPayloadInto(payload, fill, &packed_bits);
    EXPECT_FALSE(bs.ok()) << payload;
    EXPECT_EQ(bs, ps) << payload;  // identical code *and* message
  }
}

// --- Untouched-or-complete contract ----------------------------------------

TEST(UnarmorContractTest, ByteBufferUntouchedOnEveryErrorPath) {
  const std::vector<uint8_t> sentinel = {1, 0, 1, 1, 0, 0, 1};
  for (const auto& [payload, fill] :
       std::vector<std::pair<std::string, int>>{
           {"ab\x19z", 0}, {"15M", 6}, {"15M", -1}, {"", 4}}) {
    std::vector<uint8_t> bits = sentinel;
    EXPECT_FALSE(reference::UnarmorPayloadInto(payload, fill, &bits).ok());
    EXPECT_EQ(bits, sentinel) << "payload \"" << payload << "\" fill " << fill;
  }
  // And complete on success: prior contents fully replaced.
  std::vector<uint8_t> bits = sentinel;
  ASSERT_TRUE(reference::UnarmorPayloadInto("w", 0, &bits).ok());
  const std::vector<uint8_t> expected = {1, 1, 1, 1, 1, 1};  // 'w' -> 63
  EXPECT_EQ(bits, expected);
}

TEST(UnarmorContractTest, PackedBufferUntouchedOnEveryErrorPath) {
  PackedBits sentinel;
  sentinel.AppendBits(0b1011001, 7);
  for (const auto& [payload, fill] :
       std::vector<std::pair<std::string, int>>{
           {"ab\x19z", 0}, {"15M", 6}, {"15M", -1}, {"", 4}}) {
    PackedBits bits = sentinel;
    EXPECT_FALSE(UnarmorPayloadInto(payload, fill, &bits).ok());
    EXPECT_EQ(bits, sentinel) << "payload \"" << payload << "\" fill " << fill;
  }
  PackedBits bits = sentinel;
  ASSERT_TRUE(UnarmorPayloadInto("w", 0, &bits).ok());
  PackedBits expected;
  expected.AppendBits(0b111111, 6);  // 'w' -> 63
  EXPECT_EQ(bits, expected);
}

// --- Corpus differential decode --------------------------------------------

PositionReport CorpusPosition(int i) {
  PositionReport m;
  m.message_type = 1 + (i % 3);
  m.mmsi = 230000000u + static_cast<uint32_t>(i % 400);
  m.sog_knots = (i % 40) * 0.6;
  m.position = GeoPoint(41.0 + (i % 90) * 0.013, 4.0 + (i % 71) * 0.017);
  m.cog_deg = (i * 11) % 360;
  m.true_heading = (i * 11) % 360;
  m.utc_second = i % 60;
  m.rate_of_turn = (i % 17) - 8;
  m.radio_status = static_cast<uint32_t>(i * 2654435761u) & 0x7FFFF;
  return m;
}

/// Every supported message shape plus one unsupported type, as armored
/// (payload, fill) pairs.
std::vector<std::pair<std::string, int>> SupportedTypeCorpus() {
  std::vector<AisMessage> messages;
  for (int i = 0; i < 40; ++i) messages.emplace_back(CorpusPosition(i));
  for (int i = 0; i < 10; ++i) {
    PositionReport b = CorpusPosition(100 + i);
    b.message_type = 18;
    messages.emplace_back(b);
  }
  {
    BaseStationReport bs;
    bs.mmsi = 2288888;
    bs.year = 2017;
    bs.month = 3;
    bs.day = 21;
    bs.hour = 14;
    bs.minute = 55;
    bs.second = 30;
    bs.position = GeoPoint(43.0, 5.0);
    messages.emplace_back(bs);
  }
  {
    StaticVoyageData sv;
    sv.mmsi = 228123456;
    sv.call_sign = "3FOF8";
    sv.name = "DIFFERENTIAL TEST";
    sv.destination = "VALLETTA";
    sv.ship_type = 71;
    messages.emplace_back(sv);
  }
  {
    ExtendedClassBReport eb;
    eb.position_report = CorpusPosition(7);
    eb.position_report.message_type = 19;
    eb.name = "FISHER KING";
    eb.ship_type = 30;
    messages.emplace_back(eb);
  }
  {
    StaticDataReport a;
    a.mmsi = 228000111;
    a.part_number = 0;
    a.name = "ALBATROSS";
    messages.emplace_back(a);
    StaticDataReport b = a;
    b.part_number = 1;
    b.ship_type = 36;
    b.vendor_id = "ACM";
    b.call_sign = "FQ1234";
    messages.emplace_back(b);
  }
  std::vector<std::pair<std::string, int>> corpus;
  for (const AisMessage& msg : messages) {
    const auto bits = reference::EncodeMessageBits(msg);
    EXPECT_TRUE(bits.ok());
    int fill = 0;
    std::string payload = reference::ArmorBits(*bits, &fill);
    corpus.emplace_back(std::move(payload), fill);
  }
  // An unsupported type (9, SAR aircraft) and a bad type-24 part number.
  {
    reference::BitWriter w;
    w.WriteUnsigned(9, 6);
    w.WriteUnsigned(0, 2);
    w.WriteUnsigned(111222333, 30);
    for (int i = 0; i < 130; ++i) w.WriteUnsigned(0, 1);
    int fill = 0;
    std::string payload = reference::ArmorBits(w.bits(), &fill);
    corpus.emplace_back(std::move(payload), fill);
  }
  {
    reference::BitWriter w;
    w.WriteUnsigned(24, 6);
    w.WriteUnsigned(0, 2);
    w.WriteUnsigned(228000111, 30);
    w.WriteUnsigned(2, 2);  // invalid part number
    for (int i = 0; i < 120; ++i) w.WriteUnsigned(0, 1);
    int fill = 0;
    std::string payload = reference::ArmorBits(w.bits(), &fill);
    corpus.emplace_back(std::move(payload), fill);
  }
  return corpus;
}

/// Decodes one (payload, fill) pair through the frozen byte path and the
/// packed path and requires exactly equal outcomes: unarmor status, decode
/// status (code and message), and — when decoding succeeds — byte-identical
/// re-encodings in both representations.
void ExpectPayloadDecodeEquivalent(std::string_view payload, int fill) {
  std::vector<uint8_t> byte_bits;
  PackedBits packed_bits;
  const Status bs = reference::UnarmorPayloadInto(payload, fill, &byte_bits);
  const Status ps = UnarmorPayloadInto(payload, fill, &packed_bits);
  ASSERT_EQ(bs, ps) << "payload \"" << payload << "\" fill " << fill;
  if (!bs.ok()) return;
  ExpectBitsEqual(byte_bits, packed_bits);

  const Result<AisMessage> byte_msg = reference::DecodeMessageBits(byte_bits);
  const Result<AisMessage> packed_msg = DecodeMessageBits(packed_bits);
  ASSERT_EQ(byte_msg.status(), packed_msg.status())
      << "payload \"" << payload << "\" fill " << fill;
  if (!byte_msg.ok()) return;
  ASSERT_EQ(byte_msg->index(), packed_msg->index());
  const auto byte_re = reference::EncodeMessageBits(*byte_msg);
  const auto packed_re = reference::EncodeMessageBits(*packed_msg);
  ASSERT_TRUE(byte_re.ok() && packed_re.ok());
  ASSERT_EQ(*byte_re, *packed_re);
  // And through the packed encoder as well: the four path combinations
  // (byte/packed decode x byte/packed encode) all agree.
  const auto byte_pe = EncodeMessagePacked(*byte_msg);
  const auto packed_pe = EncodeMessagePacked(*packed_msg);
  ASSERT_TRUE(byte_pe.ok() && packed_pe.ok());
  ASSERT_EQ(*byte_pe, *packed_pe);
  ExpectBitsEqual(*byte_re, *packed_pe);
}

TEST(PackedDecodeDifferentialTest, ValidCorpusDecodesByteIdentically) {
  for (const auto& [payload, fill] : SupportedTypeCorpus()) {
    ExpectPayloadDecodeEquivalent(payload, fill);
  }
}

TEST(PackedDecodeDifferentialTest, TruncatedPayloadsDecodeByteIdentically) {
  // Chop every corpus payload at every character boundary: exercises the
  // bit-stream-exhausted path at every field of every message type.
  for (const auto& [payload, fill] : SupportedTypeCorpus()) {
    for (size_t len = 0; len <= payload.size(); ++len) {
      ExpectPayloadDecodeEquivalent(std::string_view(payload.data(), len),
                                    len == payload.size() ? fill : 0);
    }
  }
}

TEST(PackedDecodeDifferentialTest, BadFillAndCorruptionDecodeByteIdentically) {
  for (const auto& [payload, fill] : SupportedTypeCorpus()) {
    // Over-truncation via extra fill bits shifts the message end.
    for (int extra_fill = 0; extra_fill <= 5; ++extra_fill) {
      ExpectPayloadDecodeEquivalent(payload, extra_fill);
    }
    // Corrupt one character per position stride with an illegal byte.
    std::string corrupt = payload;
    for (size_t pos = 0; pos < corrupt.size(); pos += 5) {
      const char saved = corrupt[pos];
      corrupt[pos] = '\x19';
      ExpectPayloadDecodeEquivalent(corrupt, fill);
      corrupt[pos] = saved;
    }
  }
}

TEST(PackedDecodeDifferentialTest, MultiFragmentPayloadsDecodeByteIdentically) {
  // Fragmented type-5 payloads reassembled by the production assembler,
  // then decoded through both bit paths.
  AisEncoder::Options frag_opts;
  frag_opts.max_payload_chars = 24;
  AisEncoder encoder(frag_opts);
  AivdmAssembler assembler;
  int assembled = 0;
  for (int i = 0; i < 20; ++i) {
    StaticVoyageData sv;
    sv.mmsi = 230000000u + static_cast<uint32_t>(i);
    sv.name = "FRAGMENTED VESSEL " + std::to_string(i);
    sv.call_sign = "FR" + std::to_string(i);
    sv.destination = "ROTTERDAM";
    const auto lines = encoder.Encode(AisMessage(sv));
    ASSERT_TRUE(lines.ok());
    ASSERT_GT(lines->size(), 1u);
    for (const std::string& line : *lines) {
      const ParsedLine parsed = AisDecoder::Parse(line, 0);
      ASSERT_TRUE(parsed.ok);
      const auto result = assembler.Add(parsed.sentence, 0);
      ASSERT_TRUE(result.ok());
      if (result->has_value()) {
        ExpectPayloadDecodeEquivalent((*result)->payload, (*result)->fill_bits);
        ++assembled;
      }
    }
  }
  EXPECT_EQ(assembled, 20);
}

// --- Shard-concurrent decoder independence (tsan-critical) ------------------

TEST(PackedConcurrencyTest, ParallelDecodersMatchSequentialByteForByte) {
  // Each shard worker owns an AisDecoder whose pooled PackedBits scratch
  // must be fully private: N threads replaying the same shared corpus must
  // each reproduce the sequential result exactly.
  std::vector<std::string> corpus;
  AisEncoder encoder;
  for (int i = 0; i < 300; ++i) {
    const auto enc = encoder.Encode(AisMessage(CorpusPosition(i)));
    ASSERT_TRUE(enc.ok());
    for (const auto& line : *enc) corpus.push_back(line);
  }
  corpus.push_back("garbage line");
  corpus.push_back("!AIVDM,1,1,,B,xx*00");

  auto replay = [&corpus]() {
    AisDecoder decoder;
    std::vector<std::vector<uint8_t>> out;
    for (const std::string& line : corpus) {
      const auto msg = decoder.Decode(line, 1700000000000ll);
      if (msg.has_value()) {
        out.push_back(*reference::EncodeMessageBits(*msg));
      }
    }
    return out;
  };
  const auto expected = replay();
  ASSERT_EQ(expected.size(), 300u);

  constexpr int kThreads = 4;
  std::vector<std::vector<std::vector<uint8_t>>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&results, &replay, t]() { results[t] = replay(); });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(results[t], expected) << "thread " << t;
  }
}

}  // namespace
}  // namespace marlin
