// Unit tests for marlin_common: Status/Result, time, units, strings, rng.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <vector>

#include "common/flat_hash.h"
#include "common/result.h"
#include "common/ring_buffer.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/time.h"
#include "common/units.h"

namespace marlin {
namespace {

// --- Status ----------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.message(), "");
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("missing vessel");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.message(), "missing vessel");
  EXPECT_EQ(st.ToString(), "NotFound: missing vessel");
}

TEST(StatusTest, CopyPreservesState) {
  Status a = Status::Corruption("bad bits");
  Status b = a;
  EXPECT_TRUE(b.IsCorruption());
  EXPECT_EQ(a, b);
  Status c;
  c = b;
  EXPECT_EQ(c.message(), "bad bits");
}

TEST(StatusTest, MoveLeavesSourceReusable) {
  Status a = Status::Invalid("x");
  Status b = std::move(a);
  EXPECT_TRUE(b.IsInvalid());
}

TEST(StatusTest, AllCodesHaveDistinctNames) {
  std::set<std::string> names;
  for (int c = 0; c <= 11; ++c) {
    names.insert(StatusCodeToString(static_cast<StatusCode>(c)));
  }
  EXPECT_EQ(names.size(), 12u);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::Invalid("a"), Status::Invalid("a"));
  EXPECT_NE(Status::Invalid("a"), Status::Invalid("b"));
  EXPECT_NE(Status::Invalid("a"), Status::NotFound("a"));
  EXPECT_EQ(Status::OK(), Status());
}

// --- Result ------------------------------------------------------------------

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::Invalid("not positive");
  return v;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalid());
  EXPECT_EQ(r.ValueOr(42), 42);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 5);
}

Result<int> Doubled(int v) {
  MARLIN_ASSIGN_OR_RETURN(int x, ParsePositive(v));
  return 2 * x;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubled(4), 8);
  EXPECT_TRUE(Doubled(-4).status().IsInvalid());
}

// --- Time --------------------------------------------------------------------

TEST(TimeTest, FormatKnownInstant) {
  // 2017-03-21T12:00:00Z == 1490097600000 ms (EDBT 2017 week).
  EXPECT_EQ(FormatTimestamp(1490097600000), "2017-03-21T12:00:00.000Z");
}

TEST(TimeTest, ParseFormatRoundTrip) {
  const Timestamp ts = 1490097600123;
  EXPECT_EQ(ParseTimestamp(FormatTimestamp(ts)), ts);
}

TEST(TimeTest, ParseWithoutMillis) {
  EXPECT_EQ(ParseTimestamp("2017-03-21T12:00:00Z"), 1490097600000);
}

TEST(TimeTest, ParseRejectsGarbage) {
  EXPECT_EQ(ParseTimestamp("not a time"), kInvalidTimestamp);
  EXPECT_EQ(ParseTimestamp("2017-13-41T99:00:00Z"), kInvalidTimestamp);
  EXPECT_EQ(ParseTimestamp(""), kInvalidTimestamp);
}

TEST(TimeTest, DurationHelpers) {
  EXPECT_EQ(Seconds(1.5), 1500);
  EXPECT_EQ(Minutes(2), 120000);
  EXPECT_EQ(Hours(1), 3600000);
}

TEST(TimeTest, ManualClockAdvances) {
  ManualClock clock(1000);
  EXPECT_EQ(clock.Now(), 1000);
  clock.Advance(500);
  EXPECT_EQ(clock.Now(), 1500);
  clock.Set(42);
  EXPECT_EQ(clock.Now(), 42);
}

TEST(TimeTest, SystemClockIsRecent) {
  // Sanity: the wall clock is after 2020 and before 2100.
  const Timestamp now = SystemClock::Instance().Now();
  EXPECT_GT(now, 1577836800000);  // 2020-01-01
  EXPECT_LT(now, 4102444800000);  // 2100-01-01
}

// --- Units ---------------------------------------------------------------

TEST(UnitsTest, KnotsConversionRoundTrip) {
  EXPECT_NEAR(KnotsToMps(1.0), 0.514444, 1e-6);
  EXPECT_NEAR(MpsToKnots(KnotsToMps(17.3)), 17.3, 1e-12);
}

TEST(UnitsTest, NauticalMiles) {
  EXPECT_DOUBLE_EQ(NmToMetres(1.0), 1852.0);
  EXPECT_DOUBLE_EQ(MetresToNm(926.0), 0.5);
}

TEST(UnitsTest, NormalizeDegrees) {
  EXPECT_DOUBLE_EQ(NormalizeDegrees(0.0), 0.0);
  EXPECT_DOUBLE_EQ(NormalizeDegrees(360.0), 0.0);
  EXPECT_DOUBLE_EQ(NormalizeDegrees(-90.0), 270.0);
  EXPECT_DOUBLE_EQ(NormalizeDegrees(725.0), 5.0);
}

TEST(UnitsTest, NormalizeLongitude) {
  EXPECT_DOUBLE_EQ(NormalizeLongitude(181.0), -179.0);
  EXPECT_DOUBLE_EQ(NormalizeLongitude(-181.0), 179.0);
  EXPECT_DOUBLE_EQ(NormalizeLongitude(0.0), 0.0);
  EXPECT_DOUBLE_EQ(NormalizeLongitude(540.0), -180.0);
}

TEST(UnitsTest, AngleDifferenceIsSignedAndMinimal) {
  EXPECT_DOUBLE_EQ(AngleDifference(10.0, 350.0), 20.0);
  EXPECT_DOUBLE_EQ(AngleDifference(350.0, 10.0), -20.0);
  EXPECT_DOUBLE_EQ(AngleDifference(180.0, 0.0), -180.0);
  EXPECT_DOUBLE_EQ(AngleDifference(90.0, 90.0), 0.0);
}

// --- Strings -----------------------------------------------------------------

TEST(StringsTest, SplitKeepsEmptyFields) {
  const auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, TrimBothEnds) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringsTest, JoinWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, "-"), "a-b-c");
  EXPECT_EQ(Join({}, "-"), "");
  EXPECT_EQ(Join({"solo"}, "-"), "solo");
}

TEST(StringsTest, ParseInt64Strict) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt64("-7", &v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(ParseInt64("4x", &v));
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("1.5", &v));
}

TEST(StringsTest, ParseDoubleStrict) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.25", &v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(ParseDouble("-1e3", &v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("", &v));
}

TEST(StringsTest, LevenshteinSimilarity) {
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("SEA STAR", "SEA STAR"), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "xyz"), 0.0);
  // One edit in 8 characters.
  EXPECT_NEAR(LevenshteinSimilarity("SEA STAR", "SEA STAH"), 7.0 / 8.0, 1e-12);
}

TEST(StringsTest, TokenJaccard) {
  EXPECT_DOUBLE_EQ(TokenJaccard("sea star one", "SEA STAR ONE"), 1.0);
  EXPECT_DOUBLE_EQ(TokenJaccard("a b", "c d"), 0.0);
  EXPECT_NEAR(TokenJaccard("a b c", "b c d"), 0.5, 1e-12);
}

// --- Rng -----------------------------------------------------------------

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, BoundedIsInRange) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const int64_t v = rng.UniformInt(3, 8);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 8);
    saw_lo |= v == 3;
    saw_hi |= v == 8;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Gaussian();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(21);
  Rng child = parent.Fork();
  // The child stream should not equal the parent's continued stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.NextU64() == child.NextU64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(23);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

// --- ParseHexByte -----------------------------------------------------------

TEST(StringsTest, ParseHexByteMatchesScanfAcceptance) {
  unsigned int v = 0;
  EXPECT_TRUE(ParseHexByte("5C", &v));
  EXPECT_EQ(v, 0x5Cu);
  EXPECT_TRUE(ParseHexByte("ff", &v));
  EXPECT_EQ(v, 0xFFu);
  // One digit, trailing junk, leading whitespace — all sscanf("%2X") quirks.
  EXPECT_TRUE(ParseHexByte("7", &v));
  EXPECT_EQ(v, 0x7u);
  EXPECT_TRUE(ParseHexByte("3G", &v));
  EXPECT_EQ(v, 0x3u);
  EXPECT_TRUE(ParseHexByte(" A", &v));
  EXPECT_EQ(v, 0xAu);
  EXPECT_FALSE(ParseHexByte("", &v));
  EXPECT_FALSE(ParseHexByte("G5", &v));
  EXPECT_FALSE(ParseHexByte("  ", &v));
}

// --- FlatHashMap ------------------------------------------------------------

TEST(FlatHashMapTest, InsertFindEraseAgainstStdMap) {
  // Randomized differential test vs std::map, including the backward-shift
  // erase path (dense colliding keys).
  Rng rng(99);
  FlatHashMap<uint64_t, int> flat;
  std::map<uint64_t, int> reference;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t key = rng.NextBounded(512);  // force probe collisions
    switch (rng.NextBounded(3)) {
      case 0: {
        const int value = static_cast<int>(rng.NextBounded(1000));
        flat[key] = value;
        reference[key] = value;
        break;
      }
      case 1:
        EXPECT_EQ(flat.Erase(key), reference.erase(key) > 0);
        break;
      default: {
        const int* found = flat.Find(key);
        auto it = reference.find(key);
        ASSERT_EQ(found != nullptr, it != reference.end());
        if (found != nullptr) EXPECT_EQ(*found, it->second);
        break;
      }
    }
    ASSERT_EQ(flat.size(), reference.size());
  }
  std::vector<std::pair<uint64_t, int>> seen;
  flat.ForEach([&seen](uint64_t k, int v) { seen.emplace_back(k, v); });
  std::sort(seen.begin(), seen.end());
  EXPECT_TRUE(std::equal(seen.begin(), seen.end(), reference.begin(),
                         reference.end(),
                         [](const auto& a, const auto& b) {
                           return a.first == b.first && a.second == b.second;
                         }));
}

TEST(FlatHashMapTest, TryEmplaceResetsRecycledSlots) {
  FlatHashMap<uint32_t, std::vector<int>> map;
  map[7].push_back(42);
  EXPECT_TRUE(map.Erase(7));
  auto [value, inserted] = map.TryEmplace(7);
  EXPECT_TRUE(inserted);
  EXPECT_TRUE(value->empty()) << "re-inserted slot must be value-fresh";
}

TEST(FlatHashMapTest, ClearKeepsEntriesOutButAllowsReuse) {
  FlatHashMap<uint64_t, int> map;
  for (uint64_t k = 0; k < 100; ++k) map[k] = static_cast<int>(k);
  map.Clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.Find(5), nullptr);
  map[5] = 55;
  EXPECT_EQ(*map.Find(5), 55);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatHashSetTest, InsertContainsErase) {
  FlatHashSet<int64_t> set;
  EXPECT_TRUE(set.Insert(-3));
  EXPECT_FALSE(set.Insert(-3));
  EXPECT_TRUE(set.Contains(-3));
  EXPECT_FALSE(set.Contains(4));
  EXPECT_TRUE(set.Erase(-3));
  EXPECT_FALSE(set.Contains(-3));
  EXPECT_EQ(set.size(), 0u);
}

// --- RingBuffer -------------------------------------------------------------

TEST(RingBufferTest, SlidingWindowAgainstDeque) {
  Rng rng(7);
  RingBuffer<int> ring;
  std::deque<int> reference;
  for (int i = 0; i < 5000; ++i) {
    if (reference.empty() || rng.NextBounded(3) != 0) {
      ring.push_back(i);
      reference.push_back(i);
    } else {
      ring.pop_front();
      reference.pop_front();
    }
    ASSERT_EQ(ring.size(), reference.size());
    if (!reference.empty()) {
      ASSERT_EQ(ring.front(), reference.front());
      ASSERT_EQ(ring.back(), reference.back());
    }
  }
  for (size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(ring[i], reference[i]);
  }
  ring.clear();
  EXPECT_TRUE(ring.empty());
}

TEST(RingBufferTest, PopBackAcrossWrapAndGrowthAgainstDeque) {
  // Phases of push-heavy, balanced and pop-heavy traffic: the head walks
  // around the buffer (wrap) and the buffer doubles several times (growth)
  // while pops come off both ends.
  Rng rng(11);
  RingBuffer<uint32_t> ring;
  std::deque<uint32_t> reference;
  uint32_t next = 0;
  for (int phase = 0; phase < 12; ++phase) {
    const uint64_t push_weight = phase % 3 == 0 ? 6 : (phase % 3 == 1 ? 2 : 1);
    for (int i = 0; i < 2000; ++i) {
      const uint64_t op = rng.NextBounded(push_weight + 2);
      if (reference.empty() || op < push_weight) {
        ring.push_back(next);
        reference.push_back(next);
        ++next;
      } else if (op == push_weight) {
        ring.pop_back();
        reference.pop_back();
      } else {
        ring.pop_front();
        reference.pop_front();
      }
      ASSERT_EQ(ring.size(), reference.size());
      if (!reference.empty()) {
        ASSERT_EQ(ring.front(), reference.front());
        ASSERT_EQ(ring.back(), reference.back());
      }
    }
    for (size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(ring[i], reference[i]) << "phase " << phase;
    }
  }
}

}  // namespace
}  // namespace marlin
