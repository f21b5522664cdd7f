// Robustness & property tests: fuzzed decoder input, storage-engine torture
// (random crash points), and parameterized invariant sweeps across modules.
//
// These target the paper's veracity theme (§1): every parser and store must
// survive arbitrarily corrupted input without crashing, and recover exactly
// the data that was durably written.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ais/codec.h"
#include "ais/messages.h"
#include "ais/sixbit.h"
#include "common/fault.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/reconstruction.h"
#include "core/synopses.h"
#include "geo/geodesy.h"
#include "storage/archive.h"
#include "storage/lsm_store.h"
#include "stream/reorder.h"

namespace marlin {
namespace {

// --- Decoder fuzzing -------------------------------------------------------

TEST(DecoderFuzzTest, RandomGarbageNeverCrashes) {
  AisDecoder decoder;
  Rng rng(0xF00D);
  for (int i = 0; i < 20000; ++i) {
    std::string line;
    const size_t len = rng.NextBounded(120);
    for (size_t j = 0; j < len; ++j) {
      line.push_back(static_cast<char>(rng.NextBounded(256)));
    }
    decoder.Decode(line, static_cast<Timestamp>(i));
  }
  EXPECT_EQ(decoder.stats().lines_in, 20000u);
  // Virtually everything must be rejected cleanly.
  EXPECT_LT(decoder.stats().messages_out, 5u);
}

TEST(DecoderFuzzTest, MutatedValidSentencesNeverCrash) {
  // Start from valid sentences, flip bytes: checksum must catch nearly all
  // mutations; none may crash or yield out-of-range positions.
  AisEncoder encoder;
  PositionReport pr;
  pr.message_type = 1;
  pr.mmsi = 228123456;
  pr.position = GeoPoint(43.1, 5.2);
  pr.sog_knots = 11.0;
  pr.cog_deg = 90.0;
  const auto lines = encoder.Encode(AisMessage(pr));
  ASSERT_TRUE(lines.ok());
  const std::string base = (*lines)[0];
  AisDecoder decoder;
  Rng rng(0xBEEF);
  int accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    std::string mutated = base;
    const int flips = 1 + static_cast<int>(rng.NextBounded(3));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.NextBounded(mutated.size())] =
          static_cast<char>(rng.NextBounded(256));
    }
    const auto msg = decoder.Decode(mutated, 0);
    if (msg.has_value()) {
      ++accepted;
      if (const auto* p = std::get_if<PositionReport>(&*msg)) {
        if (p->HasPosition()) {
          EXPECT_GE(p->position.lat, -90.0);
          EXPECT_LE(p->position.lat, 90.0);
        }
      }
    }
  }
  // The 8-bit checksum lets ~1/256 of mutations through; they decode as
  // garbage-but-valid bitfields, which is exactly real receiver behaviour.
  EXPECT_LT(accepted, 20000 / 64);
}

TEST(DecoderFuzzTest, TruncatedTagBlocksRejected) {
  AisDecoder decoder;
  EXPECT_FALSE(decoder.Decode("\\c:17000000", 0).has_value());
  EXPECT_FALSE(decoder.Decode("\\c:17000000*XX\\!AIVDM,junk", 0).has_value());
  EXPECT_FALSE(decoder.Decode("\\", 0).has_value());
  EXPECT_GE(decoder.stats().bad_sentences, 3u);
}

TEST(BitFuzzTest, RandomPayloadDecodeIsTotal) {
  Rng rng(0xCAFE);
  for (int i = 0; i < 5000; ++i) {
    PackedBitWriter w;
    const int n = 38 + static_cast<int>(rng.NextBounded(500));
    for (int b = 0; b < n; ++b) {
      w.WriteUnsigned(rng.NextBounded(2), 1);
    }
    // Must either decode or fail with a Status — never crash or hang.
    (void)DecodeMessageBits(w.bits());
  }
}

// --- LSM torture -----------------------------------------------------------

class LsmTortureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/marlin_torture_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(LsmTortureTest, RepeatedReopenPreservesEverything) {
  // Write in bursts with reopen (simulated restart) after every burst;
  // every durably written key must always be readable afterwards.
  std::map<std::string, std::string> reference;
  Rng rng(0xD15C);
  for (int session = 0; session < 8; ++session) {
    LsmStore::Options opts;
    opts.directory = dir_;
    opts.memtable_bytes_limit = 2048;  // force flushes mid-session
    opts.max_runs = 3;                 // force compactions
    auto store = LsmStore::Open(opts);
    ASSERT_TRUE(store.ok()) << session;
    for (int i = 0; i < 300; ++i) {
      const std::string key = "k" + std::to_string(rng.NextBounded(150));
      if (rng.Bernoulli(0.2)) {
        ASSERT_TRUE((*store)->Delete(key).ok());
        reference.erase(key);
      } else {
        const std::string value =
            "s" + std::to_string(session) + "v" + std::to_string(i);
        ASSERT_TRUE((*store)->Put(key, value).ok());
        reference[key] = value;
      }
    }
    // Half the sessions end without an explicit flush: WAL must carry them.
    if (session % 2 == 0) ASSERT_TRUE((*store)->Flush().ok());
  }
  auto store = LsmStore::Open([this] {
    LsmStore::Options opts;
    opts.directory = dir_;
    return opts;
  }());
  ASSERT_TRUE(store.ok());
  for (const auto& [k, v] : reference) {
    auto got = (*store)->Get(k);
    ASSERT_TRUE(got.ok()) << k;
    EXPECT_EQ(*got, v) << k;
  }
}

TEST_F(LsmTortureTest, CorruptRunFileQuarantinedAtOpen) {
  LsmStore::Options opts;
  opts.directory = dir_;
  {
    auto store = LsmStore::Open(opts);
    ASSERT_TRUE((*store)->Put("key", "value").ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }
  // Corrupt a byte in the middle of the run file.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() != ".sst") continue;
    std::fstream f(entry.path(), std::ios::in | std::ios::out |
                                     std::ios::binary);
    f.seekp(static_cast<std::streamoff>(entry.file_size() / 2));
    f.put('\x7F');
  }
  // Corruption is never read back as data — but neither does it brick the
  // store: the bad run is moved aside (bytes preserved for forensics) and
  // counted, and the store opens with what remains.
  auto reopened = LsmStore::Open(opts);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->stats().runs_quarantined, 1u);
  EXPECT_EQ((*reopened)->NumRuns(), 0u);
  EXPECT_FALSE((*reopened)->Get("key").ok());
  size_t quarantined_files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir_ + "/quarantine")) {
    (void)entry;
    ++quarantined_files;
  }
  EXPECT_EQ(quarantined_files, 1u);
  // The quarantined file's number is not reused: new writes flush cleanly.
  ASSERT_TRUE((*reopened)->Put("key2", "value2").ok());
  ASSERT_TRUE((*reopened)->Flush().ok());
  EXPECT_EQ(*(*reopened)->Get("key2"), "value2");
}

// --- Archive crash-at-every-site torture ------------------------------------

class ArchiveTortureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/marlin_archive_torture_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    FaultInjector::Disarm();
    std::filesystem::remove_all(dir_);
  }
  std::string dir_;
};

struct TorturePoint {
  int64_t lat_e7 = 0;
  int64_t lon_e7 = 0;
  float sog = 0.0f;
  float cog = 0.0f;
};

// The archive stores coordinates as 1e-7-degree fixed point; quantizing both
// sides makes "byte-identical" comparable without float-noise caveats.
TorturePoint Quantized(const TrajectoryPoint& p) {
  return TorturePoint{std::llround(p.position.lat * 1e7),
                      std::llround(p.position.lon * 1e7), p.sog_mps, p.cog_deg};
}

TEST_F(ArchiveTortureTest, CrashAtEverySiteRecoversExactlyTheDurablePrefix) {
  // Every fault site on the Stage → CloseEpoch → LSM path, killed at several
  // hit offsets. Each armed run ingests multi-vessel epochs until the fault
  // fires (= the process crashes there), then the archive is reopened with
  // self-recovery: the recovered rows must be (a) a subset of everything the
  // dying run attempted, (b) a superset of everything it acked (epochs whose
  // CloseEpoch returned OK before the crash), and (c) byte-identical to the
  // fault-free values, row for row.
  struct SiteCase {
    const char* site;
    FaultAction action;
  };
  const std::vector<SiteCase> cases = {
      {"archive.stage", FaultAction::kThrow},
      {"archive.close_epoch", FaultAction::kThrow},
      {"archive.snapshot.publish", FaultAction::kThrow},
      {"archive.close_epoch.write", FaultAction::kIoError},
      {"lsm.wal.append", FaultAction::kIoError},
      {"lsm.wal.append", FaultAction::kShortWrite},
      {"lsm.run.write", FaultAction::kIoError},
      {"lsm.run.write", FaultAction::kShortWrite},
      {"lsm.run.rename", FaultAction::kIoError},
      {"lsm.compact", FaultAction::kIoError},
  };
  const std::vector<uint64_t> hits = {1, 4, 11};

  constexpr int kEpochs = 6;
  constexpr int kVessels = 5;
  constexpr int kPointsPerEpoch = 8;
  constexpr Timestamp kBase = 1700000000000;

  ArchiveOptions opts;
  opts.enabled = true;
  opts.memtable_bytes_limit = 2048;  // several flushes across the run
  opts.max_runs = 2;                 // and at least one compaction
  opts.background_compaction = false;
  opts.recover_on_open = true;

  int case_index = 0;
  for (const SiteCase& sc : cases) {
    for (const uint64_t hit : hits) {
      const std::string sub =
          dir_ + "/case_" + std::to_string(case_index++);
      SCOPED_TRACE(std::string(sc.site) + " hit " + std::to_string(hit));

      // (mmsi, t) → expected values for every point the run attempted to
      // stage; `acked` holds the keys of epochs whose CloseEpoch acked.
      std::map<std::pair<uint32_t, Timestamp>, TorturePoint> attempted;
      std::set<std::pair<uint32_t, Timestamp>> acked;
      {
        ScopedFaultPlan plan(FaultPlan().Fail(sc.site, hit, sc.action));
        auto archive = std::make_unique<ShardArchive>(opts, sub);
        std::vector<std::pair<uint32_t, Timestamp>> pending;
        bool crashed = false;
        for (int e = 0; e < kEpochs && !crashed; ++e) {
          for (int v = 0; v < kVessels && !crashed; ++v) {
            const uint32_t mmsi = 100 + static_cast<uint32_t>(v);
            for (int i = 0; i < kPointsPerEpoch; ++i) {
              const int k = e * kPointsPerEpoch + i;
              TrajectoryPoint p;
              p.t = kBase + static_cast<Timestamp>(k) * 1000;
              p.position.lat = 40.0 + v * 0.01 + k * 1e-4;
              p.position.lon = 5.0 + v * 0.01 + k * 1e-4;
              p.sog_mps = 0.5f * static_cast<float>(k);
              p.cog_deg = static_cast<float>((k * 10) % 360);
              try {
                archive->Stage(mmsi, p);
              } catch (const FaultInjectedError&) {
                crashed = true;  // point never staged — not attempted
                break;
              }
              attempted[{mmsi, p.t}] = Quantized(p);
              pending.emplace_back(mmsi, p.t);
            }
          }
          if (crashed) break;
          try {
            const Status s = archive->CloseEpoch();
            if (!s.ok()) {
              crashed = true;  // durability failure: pending stays at-risk
            } else {
              for (const auto& key : pending) acked.insert(key);
              pending.clear();
            }
          } catch (const FaultInjectedError&) {
            crashed = true;
          }
        }
        // Crash: the archive dies with whatever it made durable.
      }

      ShardArchive recovered(opts, sub);
      std::map<std::pair<uint32_t, Timestamp>, TorturePoint> got;
      for (int v = 0; v < kVessels; ++v) {
        const uint32_t mmsi = 100 + static_cast<uint32_t>(v);
        std::vector<TrajectoryPoint> rows;
        ASSERT_TRUE(
            recovered.LoadVesselRange(mmsi, 0, kMaxTimestamp, &rows).ok());
        for (const TrajectoryPoint& p : rows) {
          EXPECT_TRUE(got.emplace(std::make_pair(mmsi, p.t), Quantized(p))
                          .second)
              << "duplicate recovered row for mmsi " << mmsi << " t " << p.t;
        }
      }
      // (a) subset of attempted, (c) byte-identical values.
      for (const auto& [key, val] : got) {
        auto it = attempted.find(key);
        ASSERT_NE(it, attempted.end())
            << "recovered a row that was never staged";
        EXPECT_EQ(val.lat_e7, it->second.lat_e7);
        EXPECT_EQ(val.lon_e7, it->second.lon_e7);
        EXPECT_EQ(val.sog, it->second.sog);
        EXPECT_EQ(val.cog, it->second.cog);
      }
      // (b) superset of the acked prefix.
      for (const auto& key : acked) {
        EXPECT_TRUE(got.count(key))
            << "acked row lost: mmsi " << key.first << " t " << key.second;
      }
      // Query determinism: a second recovery serves the identical rows.
      ShardArchive again(opts, sub);
      for (int v = 0; v < kVessels; ++v) {
        const uint32_t mmsi = 100 + static_cast<uint32_t>(v);
        std::vector<TrajectoryPoint> a, b;
        ASSERT_TRUE(recovered.LoadVesselRange(mmsi, 0, kMaxTimestamp, &a).ok());
        ASSERT_TRUE(again.LoadVesselRange(mmsi, 0, kMaxTimestamp, &b).ok());
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i) {
          EXPECT_EQ(a[i].t, b[i].t);
          EXPECT_EQ(Quantized(a[i]).lat_e7, Quantized(b[i]).lat_e7);
          EXPECT_EQ(Quantized(a[i]).lon_e7, Quantized(b[i]).lon_e7);
        }
      }
      EXPECT_EQ(again.stats().recovered_blocks,
                recovered.stats().recovered_blocks);
    }
  }
}

// --- Reorder-buffer property sweep ----------------------------------------

class ReorderPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ReorderPropertyTest, OutputAlwaysSortedAndComplete) {
  const auto [max_delay_ms, jitter_ms] = GetParam();
  ReorderBuffer<int> buffer(ReorderBuffer<int>::Options{
      static_cast<DurationMs>(max_delay_ms), false});
  Rng rng(991 + max_delay_ms + jitter_ms);
  std::vector<Event<int>> out;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const Timestamp jittered =
        i * 50 + static_cast<Timestamp>(rng.NextBounded(jitter_ms + 1));
    buffer.Push(Event<int>(jittered, i), &out);
  }
  buffer.Flush(&out);
  // Property 1: event-time sorted output.
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_LE(out[i - 1].event_time, out[i].event_time);
  }
  // Property 2: conservation — emitted + dropped == pushed.
  EXPECT_EQ(out.size() + buffer.stats().dropped_late,
            static_cast<size_t>(n));
  // Property 3: when the delay bound covers the jitter, nothing is dropped.
  if (max_delay_ms > jitter_ms) {
    EXPECT_EQ(buffer.stats().dropped_late, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DelayJitterMatrix, ReorderPropertyTest,
    ::testing::Values(std::make_tuple(100, 0), std::make_tuple(100, 50),
                      std::make_tuple(100, 99), std::make_tuple(100, 500),
                      std::make_tuple(1000, 500),
                      std::make_tuple(5000, 4999)));

// --- Synopsis property sweep -------------------------------------------

class SynopsisPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SynopsisPropertyTest, CompressionMonotoneAndLossBounded) {
  // Property: larger deviation bounds never *increase* the synopsis size,
  // and the first/last points always survive.
  const int bound_m = GetParam();
  Rng rng(1313);
  Trajectory traj;
  traj.mmsi = 9;
  GeoPoint pos(40.0, 4.0);
  double course = 45.0;
  for (int i = 0; i < 400; ++i) {
    TrajectoryPoint p;
    p.t = 1700000000000 + static_cast<Timestamp>(i) * 10000;
    p.position = pos;
    p.sog_mps = 7.0f;
    p.cog_deg = static_cast<float>(NormalizeDegrees(course));
    traj.points.push_back(p);
    course += rng.Uniform(-2.0, 2.0);
    pos = Destination(pos, course, 70.0);
  }
  SynopsisEngine::Options tight_opts;
  tight_opts.deviation_threshold_m = bound_m;
  SynopsisEngine tight(tight_opts);
  const auto tight_synopsis = tight.CompressTrajectory(traj);

  SynopsisEngine::Options loose_opts;
  loose_opts.deviation_threshold_m = bound_m * 2.0;
  SynopsisEngine loose(loose_opts);
  const auto loose_synopsis = loose.CompressTrajectory(traj);

  EXPECT_LE(loose_synopsis.size(), tight_synopsis.size());
  ASSERT_GE(tight_synopsis.size(), 2u);
  EXPECT_EQ(tight_synopsis.front().point.t, traj.points.front().t);
  EXPECT_EQ(tight_synopsis.back().point.t, traj.points.back().t);
  // Reconstruction error scales with the bound but stays finite and sane.
  const TrajectoryError err =
      ComputeSedError(traj, ReconstructFromSynopsis(9, tight_synopsis));
  EXPECT_LT(err.mean_m, bound_m * 2.0);
}

INSTANTIATE_TEST_SUITE_P(Bounds, SynopsisPropertyTest,
                         ::testing::Values(20, 40, 80, 160, 320));

// --- Reconstruction conservation property -----------------------------------

class ReconstructionPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(ReconstructionPropertyTest, EveryReportAccountedFor) {
  // Property: reports_in == points_out + duplicates + stale + outliers +
  // invalid + late_dropped + still-buffered (0 after flush).
  const double shuffle_prob = GetParam();
  TrajectoryReconstructor recon;
  Rng rng(777);
  std::vector<ReconstructedPoint> points;
  std::vector<RejectedReport> rejected;
  const Timestamp t0 = 1700000000000;
  std::vector<PositionReport> reports;
  for (int i = 0; i < 500; ++i) {
    PositionReport pr;
    pr.message_type = 1;
    pr.mmsi = 228000000 + static_cast<Mmsi>(i % 7);
    pr.position = Destination(GeoPoint(40, 5), 30.0 * (i % 7), 40.0 * i);
    pr.sog_knots = 8.0;
    pr.cog_deg = 30.0 * (i % 7);
    const Timestamp t = t0 + i * 10000;
    pr.utc_second = static_cast<int>((t / 1000) % 60);
    pr.received_at = t + 500;
    reports.push_back(pr);
    if (rng.Bernoulli(0.1)) reports.push_back(pr);  // duplicates
  }
  // Local shuffles simulate out-of-order arrival.
  for (size_t i = 1; i < reports.size(); ++i) {
    if (rng.Bernoulli(shuffle_prob)) std::swap(reports[i - 1], reports[i]);
  }
  for (const auto& pr : reports) recon.Ingest(pr, &points, &rejected);
  recon.Flush(&points, &rejected);

  const auto& s = recon.stats();
  EXPECT_EQ(s.reports_in, reports.size());
  EXPECT_EQ(s.points_out + s.duplicates + s.stale + s.outliers + s.invalid +
                s.late_dropped,
            s.reports_in);
  EXPECT_EQ(points.size(), s.points_out);
  // Per-vessel output strictly increasing in time.
  std::map<Mmsi, Timestamp> last;
  for (const auto& rp : points) {
    auto it = last.find(rp.mmsi);
    if (it != last.end()) {
      EXPECT_GT(rp.point.t, it->second);
    }
    last[rp.mmsi] = rp.point.t;
  }
}

INSTANTIATE_TEST_SUITE_P(ShuffleLevels, ReconstructionPropertyTest,
                         ::testing::Values(0.0, 0.2, 0.5, 0.9));

// --- Geodesy invariants (parameterized) -----------------------------------

class GeodesyInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(GeodesyInvariantTest, TriangleInequalityAndSymmetry) {
  Rng rng(2024 + GetParam());
  for (int i = 0; i < 200; ++i) {
    const GeoPoint a(rng.Uniform(-70, 70), rng.Uniform(-179, 179));
    const GeoPoint b(rng.Uniform(-70, 70), rng.Uniform(-179, 179));
    const GeoPoint c(rng.Uniform(-70, 70), rng.Uniform(-179, 179));
    const double ab = HaversineDistance(a, b);
    const double bc = HaversineDistance(b, c);
    const double ac = HaversineDistance(a, c);
    EXPECT_LE(ac, ab + bc + 1e-6);
    EXPECT_DOUBLE_EQ(ab, HaversineDistance(b, a));
    EXPECT_GE(ab, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeodesyInvariantTest, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace marlin
