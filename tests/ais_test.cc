// Unit tests for marlin_ais: bit packing, armoring, NMEA transport, message
// codecs (round-trip), decoder robustness, and validation rules.

#include <gtest/gtest.h>

#include "ais/codec.h"
#include "ais/messages.h"
#include "ais/nmea.h"
#include "ais/sixbit.h"
#include "ais/types.h"
#include "ais/validation.h"
#include "common/rng.h"

namespace marlin {
namespace {

// --- PackedBitWriter / PackedBitReader -------------------------------------

TEST(SixBitTest, WriteReadUnsigned) {
  PackedBitWriter w;
  w.WriteUnsigned(0b101101, 6);
  w.WriteUnsigned(1023, 10);
  w.WriteUnsigned(0, 1);
  PackedBitReader r(w.bits());
  EXPECT_EQ(*r.ReadUnsigned(6), 0b101101u);
  EXPECT_EQ(*r.ReadUnsigned(10), 1023u);
  EXPECT_EQ(*r.ReadUnsigned(1), 0u);
}

TEST(SixBitTest, SignedRoundTripSweep) {
  for (int width : {8, 12, 17, 27, 28, 32}) {
    PackedBitWriter w;
    const int32_t lo = width == 32 ? INT32_MIN : -(1 << (width - 1));
    const int32_t hi = width == 32 ? INT32_MAX : (1 << (width - 1)) - 1;
    w.WriteSigned(lo, width);
    w.WriteSigned(hi, width);
    w.WriteSigned(-1, width);
    w.WriteSigned(0, width);
    PackedBitReader r(w.bits());
    EXPECT_EQ(*r.ReadSigned(width), lo) << "width " << width;
    EXPECT_EQ(*r.ReadSigned(width), hi) << "width " << width;
    EXPECT_EQ(*r.ReadSigned(width), -1) << "width " << width;
    EXPECT_EQ(*r.ReadSigned(width), 0) << "width " << width;
  }
}

TEST(SixBitTest, ReaderBoundsChecked) {
  PackedBitWriter w;
  w.WriteUnsigned(5, 8);
  PackedBitReader r(w.bits());
  EXPECT_TRUE(r.ReadUnsigned(8).ok());
  EXPECT_TRUE(r.ReadUnsigned(1).status().IsOutOfRange());
}

TEST(SixBitTest, StringRoundTrip) {
  PackedBitWriter w;
  w.WriteString("SEA STAR 42", 20);
  PackedBitReader r(w.bits());
  EXPECT_EQ(*r.ReadString(20), "SEA STAR 42");
}

TEST(SixBitTest, StringPaddingStripped) {
  PackedBitWriter w;
  w.WriteString("X", 10);
  PackedBitReader r(w.bits());
  EXPECT_EQ(*r.ReadString(10), "X");
}

TEST(SixBitTest, StringLowercaseUppercased) {
  PackedBitWriter w;
  w.WriteString("abc", 3);
  PackedBitReader r(w.bits());
  EXPECT_EQ(*r.ReadString(3), "ABC");
}

TEST(SixBitTest, AlphabetRoundTrip) {
  // Every 6-bit value maps to a char and back.
  for (uint32_t v = 0; v < 64; ++v) {
    EXPECT_EQ(CharToSixBit(SixBitToChar(v)), v);
  }
}

TEST(SixBitTest, ArmorUnarmorRoundTrip) {
  Rng rng(53);
  for (int trial = 0; trial < 50; ++trial) {
    PackedBitWriter w;
    const int nbits = 6 + static_cast<int>(rng.NextBounded(400));
    for (int i = 0; i < nbits; ++i) {
      w.WriteUnsigned(rng.NextBounded(2), 1);
    }
    int fill = 0;
    const std::string payload = ArmorBits(w.bits(), &fill);
    EXPECT_LE(fill, 5);
    PackedBits bits;
    ASSERT_TRUE(UnarmorPayloadInto(payload, fill, &bits).ok());
    EXPECT_EQ(bits, w.bits());
  }
}

TEST(SixBitTest, UnarmorRejectsIllegalChars) {
  PackedBits bits;
  EXPECT_TRUE(UnarmorPayloadInto("ab\x19z", 0, &bits).IsCorruption());
  EXPECT_TRUE(UnarmorPayloadInto("15M", 6, &bits).IsInvalid());
}

// --- NMEA ----------------------------------------------------------------

TEST(NmeaTest, ChecksumKnownSentence) {
  // Classic reference sentence.
  const std::string body = "AIVDM,1,1,,B,177KQJ5000G?tO`K>RA1wUbN0TKH,0";
  EXPECT_EQ(NmeaChecksum(body), 0x5C);
}

TEST(NmeaTest, ParseWellFormed) {
  const auto s =
      ParseSentence("!AIVDM,1,1,,B,177KQJ5000G?tO`K>RA1wUbN0TKH,0*5C");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->talker, "AIVDM");
  EXPECT_EQ(s->fragment_count, 1);
  EXPECT_EQ(s->fragment_number, 1);
  EXPECT_EQ(s->sequential_id, -1);
  EXPECT_EQ(s->channel, 'B');
  EXPECT_EQ(s->payload, "177KQJ5000G?tO`K>RA1wUbN0TKH");
  EXPECT_EQ(s->fill_bits, 0);
}

TEST(NmeaTest, FormatParseRoundTrip) {
  NmeaSentence s;
  s.talker = "AIVDM";
  s.fragment_count = 2;
  s.fragment_number = 1;
  s.sequential_id = 3;
  s.channel = 'A';
  s.payload = "55PH?P01ukIq<DhV221=@Tl";
  s.fill_bits = 2;
  const auto parsed = ParseSentence(FormatSentence(s));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->fragment_count, 2);
  EXPECT_EQ(parsed->sequential_id, 3);
  EXPECT_EQ(parsed->payload, s.payload);
  EXPECT_EQ(parsed->fill_bits, 2);
}

TEST(NmeaTest, RejectsBadChecksum) {
  EXPECT_TRUE(
      ParseSentence("!AIVDM,1,1,,B,177KQJ5000G?tO`K>RA1wUbN0TKH,0*5D")
          .status()
          .IsCorruption());
}

TEST(NmeaTest, RejectsMalformedStructure) {
  EXPECT_FALSE(ParseSentence("").ok());
  EXPECT_FALSE(ParseSentence("AIVDM,1,1,,B,xx,0*00").ok());  // missing '!'
  EXPECT_FALSE(ParseSentence("!AIVDM,1,1,,B,xx*00").ok());   // 6 fields
  EXPECT_FALSE(ParseSentence("!AIVDM,0,1,,B,xx,0*00").ok()); // bad frag count
  EXPECT_FALSE(ParseSentence("!AIVDM,1,2,,B,xx,0*00").ok()); // frag > count
  EXPECT_FALSE(ParseSentence("!AIVDM,1,1,,B,xx,9*00").ok()); // bad fill
}

TEST(NmeaTest, RejectsMultiFragmentWithoutSeqId) {
  NmeaSentence s;
  s.fragment_count = 2;
  s.fragment_number = 1;
  s.sequential_id = -1;
  s.payload = "abc";
  EXPECT_FALSE(ParseSentence(FormatSentence(s)).ok());
}

// --- AivdmAssembler ----------------------------------------------------------

TEST(AssemblerTest, SingleFragmentPassesThrough) {
  AivdmAssembler assembler;
  NmeaSentence s;
  s.payload = "XYZ";
  s.fill_bits = 2;
  const auto result = assembler.Add(s, 0);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->has_value());
  EXPECT_EQ((*result)->payload, "XYZ");
  EXPECT_EQ((*result)->fill_bits, 2);
}

TEST(AssemblerTest, TwoFragmentAssembly) {
  AivdmAssembler assembler;
  NmeaSentence f1, f2;
  f1.fragment_count = f2.fragment_count = 2;
  f1.fragment_number = 1;
  f2.fragment_number = 2;
  f1.sequential_id = f2.sequential_id = 5;
  f1.payload = "AAA";
  f2.payload = "BBB";
  f2.fill_bits = 4;
  auto r1 = assembler.Add(f1, 0);
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(r1->has_value());
  EXPECT_EQ(assembler.pending_groups(), 1u);
  auto r2 = assembler.Add(f2, 100);
  ASSERT_TRUE(r2.ok());
  ASSERT_TRUE(r2->has_value());
  EXPECT_EQ((*r2)->payload, "AAABBB");
  EXPECT_EQ((*r2)->fill_bits, 4);
  EXPECT_EQ(assembler.pending_groups(), 0u);
}

TEST(AssemblerTest, OutOfOrderFragments) {
  AivdmAssembler assembler;
  NmeaSentence f1, f2;
  f1.fragment_count = f2.fragment_count = 2;
  f1.fragment_number = 1;
  f2.fragment_number = 2;
  f1.sequential_id = f2.sequential_id = 1;
  f1.payload = "FIRST";
  f2.payload = "SECOND";
  auto r2 = assembler.Add(f2, 0);
  EXPECT_FALSE(r2->has_value());
  auto r1 = assembler.Add(f1, 10);
  ASSERT_TRUE(r1->has_value());
  EXPECT_EQ((*r1)->payload, "FIRSTSECOND");
}

TEST(AssemblerTest, InterleavedGroupsBySeqId) {
  AivdmAssembler assembler;
  auto frag = [](int seq, int num, const std::string& payload) {
    NmeaSentence s;
    s.fragment_count = 2;
    s.fragment_number = num;
    s.sequential_id = seq;
    s.payload = payload;
    return s;
  };
  EXPECT_FALSE(assembler.Add(frag(1, 1, "A1"), 0)->has_value());
  EXPECT_FALSE(assembler.Add(frag(2, 1, "B1"), 1)->has_value());
  auto ra = assembler.Add(frag(1, 2, "A2"), 2);
  ASSERT_TRUE(ra->has_value());
  EXPECT_EQ((*ra)->payload, "A1A2");
  auto rb = assembler.Add(frag(2, 2, "B2"), 3);
  ASSERT_TRUE(rb->has_value());
  EXPECT_EQ((*rb)->payload, "B1B2");
}

TEST(AssemblerTest, ExpiredGroupsEvicted) {
  AivdmAssembler::Options opts;
  opts.timeout_ms = 1000;
  AivdmAssembler assembler(opts);
  NmeaSentence f1;
  f1.fragment_count = 2;
  f1.fragment_number = 1;
  f1.sequential_id = 0;
  f1.payload = "ORPHAN";
  assembler.Add(f1, 0);
  EXPECT_EQ(assembler.pending_groups(), 1u);
  EXPECT_EQ(assembler.EvictExpired(5000), 1u);
  EXPECT_EQ(assembler.pending_groups(), 0u);
}

// --- Message round trips ------------------------------------------------

PositionReport MakeClassA() {
  PositionReport m;
  m.message_type = 1;
  m.repeat_indicator = 0;
  m.mmsi = 228123456;
  m.nav_status = NavigationStatus::kUnderWayUsingEngine;
  m.rate_of_turn = 3;
  m.sog_knots = 13.7;
  m.position_accurate = true;
  m.position = GeoPoint(43.2967, 5.3684);
  m.cog_deg = 87.3;
  m.true_heading = 86;
  m.utc_second = 41;
  m.maneuver_indicator = 1;
  m.raim = false;
  m.radio_status = 0x1234;
  return m;
}

TEST(MessageTest, ClassARoundTrip) {
  const PositionReport original = MakeClassA();
  const auto bits = EncodeMessagePacked(AisMessage(original));
  ASSERT_TRUE(bits.ok());
  EXPECT_EQ(bits->size_bits(), 168);
  const auto decoded = DecodeMessageBits(*bits);
  ASSERT_TRUE(decoded.ok());
  const auto& m = std::get<PositionReport>(*decoded);
  EXPECT_EQ(m.message_type, 1);
  EXPECT_EQ(m.mmsi, original.mmsi);
  EXPECT_EQ(m.nav_status, original.nav_status);
  EXPECT_EQ(m.rate_of_turn, 3);
  EXPECT_NEAR(m.sog_knots, 13.7, 0.05);
  EXPECT_TRUE(m.position_accurate);
  EXPECT_NEAR(m.position.lat, original.position.lat, 1e-4 / 60.0);
  EXPECT_NEAR(m.position.lon, original.position.lon, 1e-4 / 60.0);
  EXPECT_NEAR(m.cog_deg, 87.3, 0.05);
  EXPECT_EQ(m.true_heading, 86);
  EXPECT_EQ(m.utc_second, 41);
  EXPECT_EQ(m.maneuver_indicator, 1);
  EXPECT_EQ(m.radio_status, 0x1234u);
}

TEST(MessageTest, ClassANotAvailableSentinels) {
  PositionReport m;
  m.message_type = 3;
  m.mmsi = 247000001;
  // All defaults: position/speed/course not available.
  const auto bits = EncodeMessagePacked(AisMessage(m));
  ASSERT_TRUE(bits.ok());
  const auto decoded = DecodeMessageBits(*bits);
  ASSERT_TRUE(decoded.ok());
  const auto& d = std::get<PositionReport>(*decoded);
  EXPECT_FALSE(d.HasPosition());
  EXPECT_FALSE(d.HasSpeed());
  EXPECT_FALSE(d.HasCourse());
  EXPECT_EQ(d.true_heading, AisSentinels::kHeadingNotAvailable);
}

TEST(MessageTest, NegativeCoordinates) {
  PositionReport m = MakeClassA();
  m.position = GeoPoint(-33.8568, -70.6483);
  const auto decoded = DecodeMessageBits(*EncodeMessagePacked(AisMessage(m)));
  ASSERT_TRUE(decoded.ok());
  const auto& d = std::get<PositionReport>(*decoded);
  EXPECT_NEAR(d.position.lat, -33.8568, 1e-4);
  EXPECT_NEAR(d.position.lon, -70.6483, 1e-4);
}

TEST(MessageTest, SpeedQuantization) {
  for (double sog : {0.0, 0.1, 5.55, 102.2}) {
    PositionReport m = MakeClassA();
    m.sog_knots = sog;
    const auto decoded =
        DecodeMessageBits(*EncodeMessagePacked(AisMessage(m)));
    const auto& d = std::get<PositionReport>(*decoded);
    EXPECT_NEAR(d.sog_knots, sog, 0.051) << "sog " << sog;
  }
}

TEST(MessageTest, BaseStationRoundTrip) {
  BaseStationReport m;
  m.mmsi = 2288888;  // base stations use 00MIDxxxx but field is just 30 bits
  m.year = 2017;
  m.month = 3;
  m.day = 21;
  m.hour = 14;
  m.minute = 55;
  m.second = 30;
  m.position = GeoPoint(43.0, 5.0);
  m.position_accurate = true;
  m.epfd_type = 1;
  const auto bits = EncodeMessagePacked(AisMessage(m));
  ASSERT_TRUE(bits.ok());
  EXPECT_EQ(bits->size_bits(), 168);
  const auto decoded = DecodeMessageBits(*bits);
  ASSERT_TRUE(decoded.ok());
  const auto& d = std::get<BaseStationReport>(*decoded);
  EXPECT_EQ(d.year, 2017);
  EXPECT_EQ(d.month, 3);
  EXPECT_EQ(d.day, 21);
  EXPECT_EQ(d.hour, 14);
  EXPECT_EQ(d.minute, 55);
  EXPECT_EQ(d.second, 30);
  EXPECT_EQ(d.epfd_type, 1);
}

TEST(MessageTest, StaticVoyageRoundTrip) {
  StaticVoyageData m;
  m.mmsi = 228123456;
  m.ais_version = 1;
  m.imo_number = MakeImoNumber(972345);
  m.call_sign = "3FOF8";
  m.name = "EVER GIVEN";
  m.ship_type = 71;
  m.dim_to_bow_m = 200;
  m.dim_to_stern_m = 200;
  m.dim_to_port_m = 29;
  m.dim_to_starboard_m = 30;
  m.epfd_type = 1;
  m.eta_month = 3;
  m.eta_day = 23;
  m.eta_hour = 4;
  m.eta_minute = 30;
  m.draught_m = 14.5;
  m.destination = "ROTTERDAM";
  m.dte = true;
  const auto bits = EncodeMessagePacked(AisMessage(m));
  ASSERT_TRUE(bits.ok());
  EXPECT_EQ(bits->size_bits(), 424);
  const auto decoded = DecodeMessageBits(*bits);
  ASSERT_TRUE(decoded.ok());
  const auto& d = std::get<StaticVoyageData>(*decoded);
  EXPECT_EQ(d.mmsi, m.mmsi);
  EXPECT_EQ(d.imo_number, m.imo_number);
  EXPECT_EQ(d.call_sign, "3FOF8");
  EXPECT_EQ(d.name, "EVER GIVEN");
  EXPECT_EQ(d.ship_type, 71);
  EXPECT_EQ(d.LengthMetres(), 400);
  EXPECT_EQ(d.BeamMetres(), 59);
  EXPECT_EQ(d.eta_day, 23);
  EXPECT_NEAR(d.draught_m, 14.5, 0.05);
  EXPECT_EQ(d.destination, "ROTTERDAM");
  EXPECT_TRUE(d.dte);
}

TEST(MessageTest, ClassBRoundTrip) {
  PositionReport m;
  m.message_type = 18;
  m.mmsi = 338987654;
  m.sog_knots = 6.3;
  m.position = GeoPoint(37.8, -122.4);
  m.cog_deg = 201.5;
  m.true_heading = 200;
  m.utc_second = 12;
  const auto bits = EncodeMessagePacked(AisMessage(m));
  ASSERT_TRUE(bits.ok());
  EXPECT_EQ(bits->size_bits(), 168);
  const auto decoded = DecodeMessageBits(*bits);
  ASSERT_TRUE(decoded.ok());
  const auto& d = std::get<PositionReport>(*decoded);
  EXPECT_EQ(d.message_type, 18);
  EXPECT_NEAR(d.sog_knots, 6.3, 0.05);
  EXPECT_NEAR(d.position.lat, 37.8, 1e-4);
  EXPECT_NEAR(d.cog_deg, 201.5, 0.05);
}

TEST(MessageTest, ExtendedClassBRoundTrip) {
  ExtendedClassBReport m;
  m.position_report.message_type = 19;
  m.position_report.mmsi = 367001234;
  m.position_report.sog_knots = 8.0;
  m.position_report.position = GeoPoint(42.35, -71.05);
  m.position_report.cog_deg = 45.0;
  m.position_report.true_heading = 44;
  m.position_report.utc_second = 7;
  m.name = "FISHER KING";
  m.ship_type = 30;
  m.dim_to_bow_m = 12;
  m.dim_to_stern_m = 8;
  m.dim_to_port_m = 3;
  m.dim_to_starboard_m = 3;
  const auto bits = EncodeMessagePacked(AisMessage(m));
  ASSERT_TRUE(bits.ok());
  EXPECT_EQ(bits->size_bits(), 312);
  const auto decoded = DecodeMessageBits(*bits);
  ASSERT_TRUE(decoded.ok());
  const auto& d = std::get<ExtendedClassBReport>(*decoded);
  EXPECT_EQ(d.position_report.message_type, 19);
  EXPECT_EQ(d.name, "FISHER KING");
  EXPECT_EQ(d.ship_type, 30);
  EXPECT_EQ(d.dim_to_bow_m, 12);
}

TEST(MessageTest, StaticDataPartARoundTrip) {
  StaticDataReport m;
  m.mmsi = 228000111;
  m.part_number = 0;
  m.name = "ALBATROSS";
  const auto bits = EncodeMessagePacked(AisMessage(m));
  ASSERT_TRUE(bits.ok());
  EXPECT_EQ(bits->size_bits(), 160);
  const auto decoded = DecodeMessageBits(*bits);
  ASSERT_TRUE(decoded.ok());
  const auto& d = std::get<StaticDataReport>(*decoded);
  EXPECT_EQ(d.part_number, 0);
  EXPECT_EQ(d.name, "ALBATROSS");
}

TEST(MessageTest, StaticDataPartBRoundTrip) {
  StaticDataReport m;
  m.mmsi = 228000111;
  m.part_number = 1;
  m.ship_type = 36;
  m.vendor_id = "ACM";
  m.call_sign = "FQ1234";
  m.dim_to_bow_m = 5;
  m.dim_to_stern_m = 7;
  m.dim_to_port_m = 2;
  m.dim_to_starboard_m = 2;
  const auto bits = EncodeMessagePacked(AisMessage(m));
  ASSERT_TRUE(bits.ok());
  EXPECT_EQ(bits->size_bits(), 168);
  const auto decoded = DecodeMessageBits(*bits);
  ASSERT_TRUE(decoded.ok());
  const auto& d = std::get<StaticDataReport>(*decoded);
  EXPECT_EQ(d.part_number, 1);
  EXPECT_EQ(d.ship_type, 36);
  EXPECT_EQ(d.vendor_id, "ACM");
  EXPECT_EQ(d.call_sign, "FQ1234");
  EXPECT_EQ(d.dim_to_stern_m, 7);
}

TEST(MessageTest, UnsupportedTypeReported) {
  PackedBitWriter w;
  w.WriteUnsigned(9, 6);  // SAR aircraft report, unsupported
  w.WriteUnsigned(0, 2);
  w.WriteUnsigned(111222333, 30);
  for (int i = 0; i < 130; ++i) w.WriteUnsigned(0, 1);
  EXPECT_TRUE(DecodeMessageBits(w.bits()).status().IsNotImplemented());
}

TEST(MessageTest, TruncatedPayloadIsCorruption) {
  const auto bits = EncodeMessagePacked(AisMessage(MakeClassA()));
  PackedBits truncated = *bits;
  truncated.Truncate(100);
  EXPECT_FALSE(DecodeMessageBits(truncated).ok());
}

// --- Codec (NMEA <-> message) ------------------------------------------

TEST(CodecTest, EncodeDecodeSingleSentence) {
  AisEncoder encoder;
  const PositionReport original = MakeClassA();
  const auto lines = encoder.Encode(AisMessage(original));
  ASSERT_TRUE(lines.ok());
  ASSERT_EQ(lines->size(), 1u);  // 168 bits -> 28 chars, fits one sentence
  AisDecoder decoder;
  const auto msg = decoder.Decode((*lines)[0], 1700000000000);
  ASSERT_TRUE(msg.has_value());
  const auto& d = std::get<PositionReport>(*msg);
  EXPECT_EQ(d.mmsi, original.mmsi);
  EXPECT_EQ(d.received_at, 1700000000000);
  EXPECT_EQ(decoder.stats().messages_out, 1u);
}

TEST(CodecTest, Type5SpansTwoSentences) {
  AisEncoder encoder;
  StaticVoyageData sv;
  sv.mmsi = 228123456;
  sv.name = "LONG NAME VESSEL";
  const auto lines = encoder.Encode(AisMessage(sv));
  ASSERT_TRUE(lines.ok());
  EXPECT_EQ(lines->size(), 2u);  // 424 bits -> 71 chars -> 2 fragments
  AisDecoder decoder;
  EXPECT_FALSE(decoder.Decode((*lines)[0], 0).has_value());
  const auto msg = decoder.Decode((*lines)[1], 0);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(std::get<StaticVoyageData>(*msg).name, "LONG NAME VESSEL");
}

TEST(CodecTest, DecoderSurvivesGarbage) {
  AisDecoder decoder;
  EXPECT_FALSE(decoder.Decode("", 0).has_value());
  EXPECT_FALSE(decoder.Decode("garbage line", 0).has_value());
  EXPECT_FALSE(decoder.Decode("!AIVDM,1,1,,A,,0*26", 0).has_value());
  EXPECT_FALSE(
      decoder.Decode("!AIVDM,1,1,,B,177KQJ5000G?tO`K>RA1wUbN0TKH,0*00", 0)
          .has_value());  // bad checksum
  EXPECT_GE(decoder.stats().bad_sentences, 3u);
  // And still decodes a good line afterwards.
  AisEncoder encoder;
  const auto lines = encoder.Encode(AisMessage(MakeClassA()));
  EXPECT_TRUE(decoder.Decode((*lines)[0], 0).has_value());
}

TEST(CodecTest, RealWorldReferenceSentence) {
  // Documented type-1 example from the AIVDM/AIVDO protocol decoding guide:
  // MMSI 477553000, SOG 0.0, position 47.5828.../-122.345...
  AisDecoder decoder;
  const auto msg = decoder.Decode(
      "!AIVDM,1,1,,B,177KQJ5000G?tO`K>RA1wUbN0TKH,0*5C", 0);
  ASSERT_TRUE(msg.has_value());
  const auto& d = std::get<PositionReport>(*msg);
  EXPECT_EQ(d.message_type, 1);
  EXPECT_EQ(d.mmsi, 477553000u);
  EXPECT_NEAR(d.sog_knots, 0.0, 0.01);
  EXPECT_NEAR(d.position.lat, 47.5828, 0.001);
  EXPECT_NEAR(d.position.lon, -122.3458, 0.001);
}

// --- Validation ---------------------------------------------------------

TEST(ValidationTest, MmsiRules) {
  EXPECT_TRUE(IsValidVesselMmsi(228123456));   // France MID
  EXPECT_TRUE(IsValidVesselMmsi(775999999));   // Venezuela MID
  EXPECT_FALSE(IsValidVesselMmsi(12345));      // too short
  EXPECT_FALSE(IsValidVesselMmsi(999123456));  // out-of-range MID
  EXPECT_FALSE(IsValidVesselMmsi(100123456));  // below ship range
}

TEST(ValidationTest, ImoCheckDigit) {
  // 9074729 is the documented IMO example with a valid check digit.
  EXPECT_TRUE(IsValidImoNumber(9074729));
  EXPECT_FALSE(IsValidImoNumber(9074728));
  EXPECT_FALSE(IsValidImoNumber(123));  // too short
}

TEST(ValidationTest, MakeImoNumberAlwaysValid) {
  Rng rng(61);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(IsValidImoNumber(
        MakeImoNumber(static_cast<uint32_t>(rng.UniformInt(100000, 999999)))));
  }
}

StaticVoyageData CleanStatic() {
  StaticVoyageData sv;
  sv.mmsi = 228123456;
  sv.imo_number = MakeImoNumber(907472);
  sv.call_sign = "FABC1";
  sv.name = "GOOD SHIP";
  sv.ship_type = 70;
  sv.dim_to_bow_m = 60;
  sv.dim_to_stern_m = 60;
  sv.dim_to_port_m = 10;
  sv.dim_to_starboard_m = 10;
  return sv;
}

TEST(ValidationTest, CleanRecordHasNoDefects) {
  EXPECT_TRUE(ValidateStaticData(CleanStatic()).empty());
}

TEST(ValidationTest, EachDefectDetected) {
  {
    auto sv = CleanStatic();
    sv.mmsi = 1;
    const auto defects = ValidateStaticData(sv);
    ASSERT_EQ(defects.size(), 1u);
    EXPECT_EQ(defects[0], StaticDataDefect::kInvalidMmsi);
  }
  {
    auto sv = CleanStatic();
    sv.imo_number += 1;
    const auto defects = ValidateStaticData(sv);
    ASSERT_EQ(defects.size(), 1u);
    EXPECT_EQ(defects[0], StaticDataDefect::kInvalidImoChecksum);
  }
  {
    auto sv = CleanStatic();
    sv.name.clear();
    EXPECT_EQ(ValidateStaticData(sv)[0], StaticDataDefect::kMissingName);
  }
  {
    auto sv = CleanStatic();
    sv.dim_to_bow_m = sv.dim_to_stern_m = sv.dim_to_port_m =
        sv.dim_to_starboard_m = 0;
    EXPECT_EQ(ValidateStaticData(sv)[0],
              StaticDataDefect::kDefaultDimensions);
  }
  {
    auto sv = CleanStatic();
    sv.dim_to_bow_m = 300;
    sv.dim_to_stern_m = 300;
    EXPECT_EQ(ValidateStaticData(sv)[0], StaticDataDefect::kImplausibleSize);
  }
  {
    auto sv = CleanStatic();
    sv.ship_type = 13;
    EXPECT_EQ(ValidateStaticData(sv)[0], StaticDataDefect::kBadShipType);
  }
  {
    auto sv = CleanStatic();
    sv.call_sign = "A?B";
    EXPECT_EQ(ValidateStaticData(sv)[0], StaticDataDefect::kCallSignFormat);
  }
}

TEST(ValidationTest, ImoZeroMeansNotAvailableNotDefect) {
  auto sv = CleanStatic();
  sv.imo_number = 0;
  EXPECT_TRUE(ValidateStaticData(sv).empty());
}

TEST(ValidationTest, QualityAssessorAggregates) {
  QualityAssessor qa;
  qa.Observe(AisMessage(CleanStatic()));
  auto bad = CleanStatic();
  bad.name.clear();
  qa.Observe(AisMessage(bad));
  PositionReport pr = MakeClassA();
  qa.Observe(AisMessage(pr));
  const auto& report = qa.report();
  EXPECT_EQ(report.static_messages, 2u);
  EXPECT_EQ(report.static_with_defects, 1u);
  EXPECT_DOUBLE_EQ(report.StaticErrorRate(), 0.5);
  EXPECT_EQ(report.position_messages, 1u);
}

// --- Ship categories -----------------------------------------------------

TEST(TypesTest, ShipCategories) {
  EXPECT_EQ(ShipTypeToCategory(30), ShipCategory::kFishing);
  EXPECT_EQ(ShipTypeToCategory(52), ShipCategory::kTug);
  EXPECT_EQ(ShipTypeToCategory(60), ShipCategory::kPassenger);
  EXPECT_EQ(ShipTypeToCategory(74), ShipCategory::kCargo);
  EXPECT_EQ(ShipTypeToCategory(89), ShipCategory::kTanker);
  EXPECT_EQ(ShipTypeToCategory(45), ShipCategory::kHighSpeedCraft);
  EXPECT_EQ(ShipTypeToCategory(0), ShipCategory::kUnknown);
  EXPECT_EQ(ShipTypeToCategory(99), ShipCategory::kOther);
}

TEST(TypesTest, MessageVariantAccessors) {
  const AisMessage pos(MakeClassA());
  EXPECT_EQ(MessageTypeOf(pos), 1);
  EXPECT_EQ(MmsiOf(pos), 228123456u);
  const AisMessage sv(CleanStatic());
  EXPECT_EQ(MessageTypeOf(sv), 5);
  StaticDataReport sd;
  sd.mmsi = 7;
  EXPECT_EQ(MessageTypeOf(AisMessage(sd)), 24);
  EXPECT_EQ(MmsiOf(AisMessage(sd)), 7u);
}

}  // namespace
}  // namespace marlin
