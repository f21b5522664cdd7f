// Decode-equivalence suite (CTest label: equivalence).
//
// PR 4 rebuilt the NMEA parse/de-armor inner loop to be zero-copy and
// steady-state allocation-free; PR 5 moved the bit layer onto 64-bit packed
// words (`PackedBits`, common/packed_bits.h). This suite pins the production
// path to the exact behaviour of the pre-refactor decoder: the `ref`
// namespace below is a frozen copy of the old string-allocating parser, and
// its decode half runs the frozen byte-per-bit codec of
// tests/reference/byte_codec.h (`reference::UnarmorPayload` over a
// `std::vector<uint8_t>` of 0/1 plus a field-by-field `BitReader` decode) —
// so every stream test here is also the packed-vs-byte differential: each
// corpus (valid, truncated, bad-checksum, multi-fragment, TAG-blocked,
// garbage, plus the scenario sweep) replays through both, asserting
// byte-identical sentences, decoded messages, and counters. The final tests
// assert the allocation-free claim itself through the heap probe, for the
// full per-line loop and for the packed unarmor+decode layer in isolation.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "ais/codec.h"
#include "ais/messages.h"
#include "ais/nmea.h"
#include "ais/sixbit.h"
#include "common/alloc_probe.h"
#include "common/strings.h"
#include "reference/byte_codec.h"
#include "sim/scenario.h"
#include "sim/world.h"

MARLIN_INSTALL_ALLOC_PROBE()

namespace marlin {
namespace {

// --- Frozen reference implementation (pre-PR-4 parser, verbatim) -----------

namespace ref {

Result<std::string> StripTagBlock(const std::string& line, TagBlock* tag) {
  if (line.empty() || line[0] != '\\') return line;
  const size_t end = line.find('\\', 1);
  if (end == std::string::npos) {
    return Status::Corruption("unterminated TAG block");
  }
  const std::string block = line.substr(1, end - 1);
  const size_t star = block.rfind('*');
  if (star == std::string::npos || star + 3 > block.size()) {
    return Status::Corruption("TAG block missing checksum");
  }
  const std::string body = block.substr(0, star);
  unsigned int expected = 0;
  if (std::sscanf(block.c_str() + star + 1, "%2X", &expected) != 1 ||
      NmeaChecksum(body) != static_cast<uint8_t>(expected)) {
    return Status::Corruption("TAG block checksum mismatch");
  }
  if (tag != nullptr) {
    for (const std::string& field : Split(body, ',')) {
      if (StartsWith(field, "c:")) {
        int64_t seconds = 0;
        if (ParseInt64(field.substr(2), &seconds)) {
          tag->receiver_time = seconds > 1000000000000ll
                                   ? seconds
                                   : seconds * kMillisPerSecond;
        }
      } else if (StartsWith(field, "s:")) {
        tag->source = field.substr(2);
      }
    }
  }
  return line.substr(end + 1);
}

Result<NmeaSentence> ParseSentence(const std::string& raw) {
  std::string line(Trim(raw));
  if (line.size() < 10 || line[0] != '!') {
    return Status::Corruption("not an NMEA sentence: missing '!'");
  }
  const size_t star = line.rfind('*');
  if (star == std::string::npos || star + 3 > line.size()) {
    return Status::Corruption("missing NMEA checksum");
  }
  const std::string body = line.substr(1, star - 1);
  const std::string cksum_hex = line.substr(star + 1, 2);
  unsigned int expected = 0;
  if (std::sscanf(cksum_hex.c_str(), "%2X", &expected) != 1) {
    return Status::Corruption("malformed NMEA checksum field");
  }
  if (NmeaChecksum(body) != static_cast<uint8_t>(expected)) {
    return Status::Corruption("NMEA checksum mismatch");
  }

  const std::vector<std::string> fields = Split(body, ',');
  if (fields.size() != 7) {
    return Status::Corruption("AIVDM sentence must have 7 fields");
  }
  NmeaSentence s;
  s.talker = fields[0];
  if (s.talker != "AIVDM" && s.talker != "AIVDO") {
    return Status::Corruption("unsupported talker: " + s.talker);
  }
  int64_t v = 0;
  if (!ParseInt64(fields[1], &v) || v < 1 || v > 9) {
    return Status::Corruption("bad fragment count");
  }
  s.fragment_count = static_cast<int>(v);
  if (!ParseInt64(fields[2], &v) || v < 1 || v > s.fragment_count) {
    return Status::Corruption("bad fragment number");
  }
  s.fragment_number = static_cast<int>(v);
  if (fields[3].empty()) {
    s.sequential_id = -1;
  } else if (ParseInt64(fields[3], &v) && v >= 0 && v <= 9) {
    s.sequential_id = static_cast<int>(v);
  } else {
    return Status::Corruption("bad sequential message id");
  }
  s.channel = fields[4].empty() ? '\0' : fields[4][0];
  s.payload = fields[5];
  if (s.payload.empty()) return Status::Corruption("empty payload");
  if (!ParseInt64(fields[6], &v) || v < 0 || v > 5) {
    return Status::Corruption("bad fill bits");
  }
  s.fill_bits = static_cast<int>(v);
  if (s.fragment_count > 1 && s.sequential_id < 0) {
    return Status::Corruption("multi-fragment sentence without sequential id");
  }
  return s;
}

/// Pre-refactor assembler: one owning string per fragment, std::map state.
class Assembler {
 public:
  struct CompletePayload {
    std::string payload;
    int fill_bits = 0;
    char channel = 'A';
  };

  Result<std::optional<CompletePayload>> Add(const NmeaSentence& s,
                                             Timestamp now) {
    if (s.fragment_count == 1) {
      CompletePayload done;
      done.payload = s.payload;
      done.fill_bits = s.fill_bits;
      done.channel = s.channel;
      return std::optional<CompletePayload>(std::move(done));
    }
    EvictExpired(now);
    const GroupKey key{s.sequential_id, s.channel, s.fragment_count};
    auto it = pending_.find(key);
    if (it == pending_.end()) {
      if (pending_.size() >= kMaxPendingGroups) {
        auto oldest = pending_.begin();
        for (auto g = pending_.begin(); g != pending_.end(); ++g) {
          if (g->second.first_seen < oldest->second.first_seen) oldest = g;
        }
        pending_.erase(oldest);
      }
      Group group;
      group.fragments.resize(s.fragment_count);
      group.first_seen = now;
      group.channel = s.channel;
      it = pending_.emplace(key, std::move(group)).first;
    }
    Group& group = it->second;
    std::string& slot = group.fragments[s.fragment_number - 1];
    if (slot.empty()) ++group.received;
    slot = s.payload;
    if (s.fragment_number == s.fragment_count) group.fill_bits = s.fill_bits;

    if (group.received == s.fragment_count) {
      CompletePayload done;
      for (const auto& f : group.fragments) done.payload += f;
      done.fill_bits = group.fill_bits;
      done.channel = group.channel;
      pending_.erase(it);
      return std::optional<CompletePayload>(std::move(done));
    }
    return std::optional<CompletePayload>(std::nullopt);
  }

 private:
  struct Group {
    std::vector<std::string> fragments;
    int received = 0;
    int fill_bits = 0;
    char channel = 'A';
    Timestamp first_seen = 0;
  };
  using GroupKey = std::tuple<int, char, int>;
  static constexpr size_t kMaxPendingGroups = 1024;

  void EvictExpired(Timestamp now) {
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (now - it->second.first_seen > 30 * kMillisPerSecond) {
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
  }

  std::map<GroupKey, Group> pending_;
};

/// Pre-refactor decoder: reference Parse/Assemble halves with the same
/// stats semantics as AisDecoder.
class Decoder {
 public:
  struct Parsed {
    Timestamp received_at = kInvalidTimestamp;
    bool ok = false;
    NmeaSentence sentence;
  };

  static Parsed Parse(const std::string& line, Timestamp received_at) {
    Parsed out;
    out.received_at = received_at;
    TagBlock tag;
    Result<std::string> stripped = ref::StripTagBlock(line, &tag);
    if (!stripped.ok()) return out;
    if (tag.receiver_time != kInvalidTimestamp) {
      out.received_at = tag.receiver_time;
    }
    Result<NmeaSentence> sentence = ref::ParseSentence(*stripped);
    if (!sentence.ok()) return out;
    out.ok = true;
    out.sentence = std::move(*sentence);
    return out;
  }

  std::optional<AisMessage> Decode(const std::string& line,
                                   Timestamp received_at) {
    const Parsed parsed = Parse(line, received_at);
    ++stats_.lines_in;
    if (!parsed.ok) {
      ++stats_.bad_sentences;
      return std::nullopt;
    }
    Result<std::optional<Assembler::CompletePayload>> assembled =
        assembler_.Add(parsed.sentence, parsed.received_at);
    if (!assembled.ok()) {
      ++stats_.bad_sentences;
      return std::nullopt;
    }
    if (!assembled->has_value()) {
      ++stats_.pending_fragments;
      return std::nullopt;
    }
    Result<std::vector<uint8_t>> bits = reference::UnarmorPayload(
        (*assembled)->payload, (*assembled)->fill_bits);
    if (!bits.ok()) {
      ++stats_.bad_payloads;
      return std::nullopt;
    }
    Result<AisMessage> msg = reference::DecodeMessageBits(*bits);
    if (!msg.ok()) {
      if (msg.status().IsNotImplemented()) {
        ++stats_.unsupported_types;
      } else {
        ++stats_.bad_payloads;
      }
      return std::nullopt;
    }
    AisMessage out = std::move(*msg);
    const Timestamp stamp = parsed.received_at;
    std::visit(
        [stamp](auto& m) {
          using T = std::decay_t<decltype(m)>;
          if constexpr (std::is_same_v<T, ExtendedClassBReport>) {
            m.position_report.received_at = stamp;
          } else {
            m.received_at = stamp;
          }
        },
        out);
    ++stats_.messages_out;
    return out;
  }

  const AisDecoder::Stats& stats() const { return stats_; }

 private:
  Assembler assembler_;
  AisDecoder::Stats stats_;
};

}  // namespace ref

// --- Corpus -----------------------------------------------------------------

Timestamp ReceivedAtOf(const AisMessage& msg) {
  return std::visit(
      [](const auto& m) -> Timestamp {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, ExtendedClassBReport>) {
          return m.position_report.received_at;
        } else {
          return m.received_at;
        }
      },
      msg);
}

PositionReport MakePosition(int i) {
  PositionReport m;
  m.message_type = 1 + (i % 3);
  m.mmsi = 230000000u + static_cast<uint32_t>(i % 400);
  m.sog_knots = (i % 40) * 0.6;
  m.position = GeoPoint(41.0 + (i % 90) * 0.013, 4.0 + (i % 71) * 0.017);
  m.cog_deg = (i * 11) % 360;
  m.true_heading = (i * 11) % 360;
  m.utc_second = i % 60;
  return m;
}

StaticVoyageData MakeStatic(int i) {
  StaticVoyageData sv;
  sv.mmsi = 230000000u + static_cast<uint32_t>(i % 400);
  sv.name = "EQUIVALENCE VESSEL";
  sv.call_sign = "EQ" + std::to_string(i % 1000);
  sv.destination = "VALLETTA";
  return sv;
}

/// Valid single-fragment position-report lines (half TAG-blocked) — the
/// steady-state shape of a real feed, and the zero-allocation corpus.
std::vector<std::string> ValidSingleFragmentCorpus() {
  std::vector<std::string> lines;
  AisEncoder encoder;
  for (int i = 0; i < 600; ++i) {
    auto enc = encoder.Encode(AisMessage(MakePosition(i)));
    EXPECT_TRUE(enc.ok());
    for (auto& line : *enc) {
      if (i % 2 == 0) {
        lines.push_back(FormatTagBlock(1700000000000ll + i * 977) + line);
      } else {
        lines.push_back(std::move(line));
      }
    }
  }
  return lines;
}

/// The full adversarial corpus: valid lines, multi-fragment groups
/// (in-order, reversed, interleaved), truncations, checksum corruption,
/// armor corruption, TAG-block damage, garbage.
std::vector<std::string> AdversarialCorpus() {
  std::vector<std::string> lines = ValidSingleFragmentCorpus();
  AisEncoder::Options frag_opts;
  frag_opts.max_payload_chars = 24;  // force type-5 payloads into fragments
  AisEncoder frag_encoder(frag_opts);
  for (int i = 0; i < 60; ++i) {
    auto a = frag_encoder.Encode(AisMessage(MakeStatic(i)));
    auto b = frag_encoder.Encode(AisMessage(MakeStatic(i + 7)));
    EXPECT_TRUE(a.ok() && b.ok());
    switch (i % 3) {
      case 0:  // in order
        for (auto& line : *a) lines.push_back(std::move(line));
        break;
      case 1:  // reversed fragments
        for (auto it = a->rbegin(); it != a->rend(); ++it) {
          lines.push_back(std::move(*it));
        }
        break;
      default:  // two groups interleaved
        for (size_t f = 0; f < std::max(a->size(), b->size()); ++f) {
          if (f < a->size()) lines.push_back((*a)[f]);
          if (f < b->size()) lines.push_back((*b)[f]);
        }
        break;
    }
  }
  // Deterministic damage applied to valid lines.
  AisEncoder encoder;
  for (int i = 0; i < 200; ++i) {
    auto enc = encoder.Encode(AisMessage(MakePosition(i + 1000)));
    EXPECT_TRUE(enc.ok());
    std::string line = (*enc)[0];
    switch (i % 8) {
      case 0:  // truncated mid-payload
        lines.push_back(line.substr(0, line.size() / 2));
        break;
      case 1:  // truncated checksum
        lines.push_back(line.substr(0, line.size() - 1));
        break;
      case 2: {  // flipped checksum digit
        line.back() = line.back() == '0' ? '1' : '0';
        lines.push_back(std::move(line));
        break;
      }
      case 3: {  // corrupted armor character (checksum recomputed so the
                 // corruption reaches the bit layer)
        const size_t p = line.find(',', 10) + 1;
        line[p + 3] = '\x19';
        const size_t star = line.rfind('*');
        std::string body = line.substr(1, star - 1);
        char buf[8];
        std::snprintf(buf, sizeof(buf), "*%02X", NmeaChecksum(body));
        lines.push_back(line.substr(0, star) + buf);
        break;
      }
      case 4:  // unterminated TAG block
        lines.push_back("\\c:1700000000" + line);
        break;
      case 5:  // TAG block checksum mismatch
        lines.push_back("\\c:1700000000*00\\" + line);
        break;
      case 6:  // surrounding whitespace (must still parse)
        lines.push_back("  " + line + " \r\n");
        break;
      default:  // plain garbage
        lines.push_back("$GPGGA,not,ais*00");
        break;
    }
  }
  lines.push_back("");
  lines.push_back("!AIVDM,1,1,,B,xx*00");
  lines.push_back("!AIVDM,2,1,,A,abc,0*00");
  return lines;
}

// --- Tests ------------------------------------------------------------------

TEST(DecodeEquivalenceTest, ParseMatchesReferenceFieldForField) {
  const std::vector<std::string> corpus = AdversarialCorpus();
  size_t ok_lines = 0;
  for (size_t i = 0; i < corpus.size(); ++i) {
    const Timestamp t = 1700000000000ll + static_cast<Timestamp>(i);
    const ref::Decoder::Parsed expected = ref::Decoder::Parse(corpus[i], t);
    const ParsedLine actual = AisDecoder::Parse(corpus[i], t);
    ASSERT_EQ(expected.ok, actual.ok) << "line " << i << ": " << corpus[i];
    ASSERT_EQ(expected.received_at, actual.received_at) << "line " << i;
    if (!expected.ok) continue;
    ++ok_lines;
    EXPECT_EQ(expected.sentence.talker, actual.sentence.talker);
    EXPECT_EQ(expected.sentence.fragment_count,
              actual.sentence.fragment_count);
    EXPECT_EQ(expected.sentence.fragment_number,
              actual.sentence.fragment_number);
    EXPECT_EQ(expected.sentence.sequential_id, actual.sentence.sequential_id);
    EXPECT_EQ(expected.sentence.channel, actual.sentence.channel);
    EXPECT_EQ(expected.sentence.payload, actual.sentence.payload);
    EXPECT_EQ(expected.sentence.fill_bits, actual.sentence.fill_bits);
  }
  EXPECT_GT(ok_lines, 600u);  // the corpus must actually exercise the parser
}

void ExpectStreamEquivalence(const std::vector<std::string>& corpus) {
  ref::Decoder reference;
  AisDecoder decoder;
  size_t messages = 0;
  for (size_t i = 0; i < corpus.size(); ++i) {
    const Timestamp t = 1700000000000ll + static_cast<Timestamp>(i) * 37;
    const std::optional<AisMessage> expected = reference.Decode(corpus[i], t);
    const std::optional<AisMessage> actual = decoder.Decode(corpus[i], t);
    ASSERT_EQ(expected.has_value(), actual.has_value())
        << "line " << i << ": " << corpus[i];
    if (!expected.has_value()) continue;
    ++messages;
    ASSERT_EQ(expected->index(), actual->index()) << "line " << i;
    EXPECT_EQ(ReceivedAtOf(*expected), ReceivedAtOf(*actual)) << "line " << i;
    const auto expected_bits = reference::EncodeMessageBits(*expected);
    const auto actual_bits = reference::EncodeMessageBits(*actual);
    ASSERT_TRUE(expected_bits.ok() && actual_bits.ok()) << "line " << i;
    ASSERT_EQ(*expected_bits, *actual_bits) << "line " << i;
  }
  EXPECT_GT(messages, 0u);
  EXPECT_EQ(reference.stats().lines_in, decoder.stats().lines_in);
  EXPECT_EQ(reference.stats().messages_out, decoder.stats().messages_out);
  EXPECT_EQ(reference.stats().bad_sentences, decoder.stats().bad_sentences);
  EXPECT_EQ(reference.stats().bad_payloads, decoder.stats().bad_payloads);
  EXPECT_EQ(reference.stats().unsupported_types,
            decoder.stats().unsupported_types);
  EXPECT_EQ(reference.stats().pending_fragments,
            decoder.stats().pending_fragments);
}

TEST(DecodeEquivalenceTest, StreamMatchesReferenceOnAdversarialCorpus) {
  ExpectStreamEquivalence(AdversarialCorpus());
}

TEST(DecodeEquivalenceTest, StreamMatchesReferenceOnScenarioCorpus) {
  // The simulated basin feed: realistic reception (terrestrial + satellite
  // latency, duplication, loss) as produced by the scenario generator.
  World world = World::Basin();
  ScenarioConfig config;
  config.seed = 11;
  config.duration = 30 * kMillisPerMinute;
  config.transit_vessels = 12;
  config.fishing_vessels = 4;
  config.rendezvous_pairs = 1;
  const ScenarioOutput scenario = GenerateScenario(world, config);
  std::vector<std::string> corpus;
  corpus.reserve(scenario.nmea.size());
  for (const auto& ev : scenario.nmea) corpus.push_back(ev.payload);
  ExpectStreamEquivalence(corpus);
}

TEST(DecodeEquivalenceTest, StreamMatchesReferenceOnScenarioSweep) {
  // Packed-path cases across scenario shapes: a dense mixed feed (loiter +
  // rendezvous + spoofers), a satellite-dominated feed (deep delays, heavy
  // loss), and a fishing-heavy feed (many type-18/19 Class-B emitters) —
  // each replayed through the packed production decoder and the frozen
  // byte-per-bit reference.
  World world = World::Basin();
  std::vector<ScenarioConfig> sweep;
  {
    ScenarioConfig dense;
    dense.seed = 23;
    dense.duration = 20 * kMillisPerMinute;
    dense.transit_vessels = 20;
    dense.fishing_vessels = 6;
    dense.loiter_vessels = 3;
    dense.rendezvous_pairs = 2;
    dense.spoof_identity_vessels = 1;
    dense.spoof_teleport_vessels = 1;
    sweep.push_back(dense);
  }
  {
    ScenarioConfig satellite;
    satellite.seed = 29;
    satellite.duration = 25 * kMillisPerMinute;
    satellite.transit_vessels = 10;
    satellite.fishing_vessels = 2;
    satellite.dark_vessels = 2;
    sweep.push_back(satellite);
  }
  {
    ScenarioConfig fishing;
    fishing.seed = 31;
    fishing.duration = 20 * kMillisPerMinute;
    fishing.transit_vessels = 4;
    fishing.fishing_vessels = 14;
    sweep.push_back(fishing);
  }
  for (const ScenarioConfig& config : sweep) {
    const ScenarioOutput scenario = GenerateScenario(world, config);
    std::vector<std::string> corpus;
    corpus.reserve(scenario.nmea.size());
    for (const auto& ev : scenario.nmea) corpus.push_back(ev.payload);
    ExpectStreamEquivalence(corpus);
  }
}

TEST(DecodeEquivalenceTest, SteadyStateDecodeIsAllocationFree) {
  const std::vector<std::string> corpus = ValidSingleFragmentCorpus();
  AisDecoder decoder;
  // Warmup pass: grows the decoder's pooled scratch (de-armor bits buffer)
  // and the allocator's caches.
  uint64_t warm_messages = 0;
  for (const std::string& line : corpus) {
    if (decoder.Decode(line, 1700000000000ll).has_value()) ++warm_messages;
  }
  ASSERT_EQ(warm_messages, corpus.size());

  const uint64_t before = AllocProbe::ThreadCount();
  uint64_t messages = 0;
  for (const std::string& line : corpus) {
    if (decoder.Decode(line, 1700000000000ll).has_value()) ++messages;
  }
  const uint64_t allocations = AllocProbe::ThreadCount() - before;
  EXPECT_EQ(messages, corpus.size());
  EXPECT_EQ(allocations, 0u)
      << "steady-state parse/de-armor loop must not touch the heap";
}

TEST(DecodeEquivalenceTest, PackedDecodeLayerIsAllocationFreePerLine) {
  // The packed bit layer in isolation: de-armor into a pooled PackedBits
  // scratch plus packed DecodeMessageBits must perform exactly zero heap
  // allocations per steady-state line (position reports carry no strings).
  std::vector<std::pair<std::string, int>> payloads;
  {
    AisEncoder encoder;
    AivdmAssembler assembler;
    for (int i = 0; i < 600; ++i) {
      const auto enc = encoder.Encode(AisMessage(MakePosition(i)));
      ASSERT_TRUE(enc.ok());
      for (const std::string& line : *enc) {
        const ParsedLine parsed = AisDecoder::Parse(line, 0);
        ASSERT_TRUE(parsed.ok);
        const auto assembled = assembler.Add(parsed.sentence, 0);
        ASSERT_TRUE(assembled.ok() && assembled->has_value());
        payloads.emplace_back(std::string((*assembled)->payload),
                              (*assembled)->fill_bits);
      }
    }
  }
  PackedBits scratch;
  // Warmup: grows the scratch's word capacity to the corpus maximum.
  for (const auto& [payload, fill] : payloads) {
    ASSERT_TRUE(UnarmorPayloadInto(payload, fill, &scratch).ok());
    ASSERT_TRUE(DecodeMessageBits(scratch).ok());
  }

  const uint64_t before = AllocProbe::ThreadCount();
  uint64_t decoded = 0;
  for (const auto& [payload, fill] : payloads) {
    if (!UnarmorPayloadInto(payload, fill, &scratch).ok()) continue;
    if (DecodeMessageBits(scratch).ok()) ++decoded;
  }
  const uint64_t allocations = AllocProbe::ThreadCount() - before;
  EXPECT_EQ(decoded, payloads.size());
  EXPECT_EQ(allocations, 0u)
      << "packed unarmor+decode must not touch the heap at steady state "
      << "(allocs/line = "
      << static_cast<double>(allocations) / payloads.size() << ")";
}

}  // namespace
}  // namespace marlin
