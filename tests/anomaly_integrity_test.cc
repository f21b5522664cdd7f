// Sentinel-correct kinematics and the anomaly & integrity stage:
//  * ITU ROT_AIS decoding (sentinels, sign, magnitude, wire round trip),
//  * availability propagation decode → reconstruct → synopses,
//  * archive round trips preserving availability byte-identically,
//  * adversarial scenario packs triggering their target detectors with a
//    zero-false-positive clean world,
//  * sequential vs N-shard byte-identity with the stage enabled.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <tuple>
#include <vector>

#include "ais/codec.h"
#include "ais/types.h"
#include "common/units.h"
#include "core/anomaly.h"
#include "core/integrity.h"
#include "core/pipeline.h"
#include "core/reconstruction.h"
#include "core/sharded_pipeline.h"
#include "core/synopses.h"
#include "geo/geodesy.h"
#include "sim/packs.h"
#include "sim/scenario.h"
#include "sim/world.h"
#include "storage/archive.h"
#include "storage/trajectory.h"

namespace marlin {
namespace {

const World& SharedWorld() {
  static World world = World::Basin();
  return world;
}

PipelineConfig StageConfig() {
  PipelineConfig pc;
  pc.window_lines = 512;
  pc.enable_anomaly = true;
  return pc;
}

size_t CountEvents(const std::vector<DetectedEvent>& events, EventType type) {
  return static_cast<size_t>(
      std::count_if(events.begin(), events.end(),
                    [type](const DetectedEvent& ev) { return ev.type == type; }));
}

std::vector<DetectedEvent> RunSequential(const ScenarioOutput& scenario,
                                         const PipelineConfig& pc,
                                         PipelineMetrics* metrics = nullptr) {
  MaritimePipeline pipeline(pc, &SharedWorld().zones(), nullptr, nullptr,
                            nullptr);
  auto events = pipeline.Run(scenario.nmea);
  if (metrics != nullptr) *metrics = pipeline.metrics();
  return events;
}

auto EventKey(const DetectedEvent& ev) {
  return std::make_tuple(ev.detected_at, ev.vessel_a, ev.vessel_b,
                         static_cast<int>(ev.type), ev.start, ev.end,
                         ev.zone_id, ev.severity, ev.where.lat, ev.where.lon);
}

void ExpectSameEvents(const std::vector<DetectedEvent>& a,
                      const std::vector<DetectedEvent>& b,
                      bool compare_order) {
  ASSERT_EQ(a.size(), b.size());
  std::vector<decltype(EventKey(a.front()))> ka, kb;
  for (const auto& ev : a) ka.push_back(EventKey(ev));
  for (const auto& ev : b) kb.push_back(EventKey(ev));
  if (!compare_order) {
    std::sort(ka.begin(), ka.end());
    std::sort(kb.begin(), kb.end());
  }
  for (size_t i = 0; i < ka.size(); ++i) {
    EXPECT_EQ(ka[i], kb[i]) << "event mismatch at index " << i;
  }
}

/// A raw position report with a recoverable event time `t` (ms, multiple of
/// 1000 so the UTC-second round trip is exact).
PositionReport MakeReport(Mmsi mmsi, Timestamp t, const GeoPoint& pos,
                          double sog_knots, double cog_deg) {
  PositionReport pr;
  pr.mmsi = mmsi;
  pr.position = pos;
  pr.sog_knots = sog_knots;
  pr.cog_deg = cog_deg;
  pr.utc_second = static_cast<int>((t / 1000) % 60);
  pr.received_at = t;
  return pr;
}

// --- ITU rate-of-turn decoding ----------------------------------------------

TEST(RotDecodingTest, SentinelsCarryNoTurnRate) {
  PositionReport pr;
  pr.rate_of_turn = AisSentinels::kRotNotAvailable;  // -128
  EXPECT_FALSE(pr.HasTurnRate());
  pr.rate_of_turn = AisSentinels::kRotNoTurnInfo;  // +127
  EXPECT_FALSE(pr.HasTurnRate());
  pr.rate_of_turn = -AisSentinels::kRotNoTurnInfo;  // -127
  EXPECT_FALSE(pr.HasTurnRate());
  pr.rate_of_turn = 126;
  EXPECT_TRUE(pr.HasTurnRate());
  pr.rate_of_turn = -126;
  EXPECT_TRUE(pr.HasTurnRate());
  pr.rate_of_turn = 0;
  EXPECT_TRUE(pr.HasTurnRate());
  EXPECT_EQ(pr.TurnRateDegPerMin(), 0.0);
}

TEST(RotDecodingTest, ItuQuadraticRuleWithSign) {
  // ROT_AIS = 4.733 * sqrt(deg/min): field value 47 is ~98.6 deg/min.
  PositionReport pr;
  pr.rate_of_turn = 47;
  EXPECT_NEAR(pr.TurnRateDegPerMin(), std::pow(47 / 4.733, 2.0), 1e-9);
  EXPECT_NEAR(pr.TurnRateDegPerMin(), 98.6, 0.1);
  pr.rate_of_turn = -47;
  EXPECT_NEAR(pr.TurnRateDegPerMin(), -98.6, 0.1);
  // Full-scale usable value: ~708 deg/min, the ITU ceiling.
  pr.rate_of_turn = 126;
  EXPECT_NEAR(pr.TurnRateDegPerMin(), 708.7, 0.5);
}

TEST(RotDecodingTest, RotSurvivesTheWire) {
  AisEncoder encoder;
  AisDecoder decoder;
  for (int rot : {-128, -127, -47, 0, 47, 126, 127}) {
    PositionReport pr = MakeReport(235000001, 1700000000000,
                                   GeoPoint(35.0, 18.0), 12.0, 90.0);
    pr.rate_of_turn = rot;
    auto lines = encoder.Encode(AisMessage(pr));
    ASSERT_TRUE(lines.ok());
    ASSERT_EQ(lines->size(), 1u);
    auto decoded = decoder.Decode((*lines)[0], pr.received_at);
    ASSERT_TRUE(decoded.has_value());
    const auto* out = std::get_if<PositionReport>(&*decoded);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->rate_of_turn, rot) << "ROT_AIS " << rot;
  }
}

// --- Sentinel propagation through reconstruction -----------------------------

TEST(SentinelPropagationTest, MissingKinematicsStayUnavailable) {
  TrajectoryReconstructor recon;
  std::vector<ReconstructedPoint> points;
  const Timestamp t0 = 1700000000000;
  const GeoPoint origin(35.0, 18.0);

  // Report 0: everything available. Report 1: SOG sentinel. Report 2: COG
  // sentinel. Report 3: both sentinels + ROT sentinel (the default).
  PositionReport r0 = MakeReport(1, t0, origin, 10.0, 45.0);
  r0.rate_of_turn = 12;
  recon.Ingest(r0, &points, nullptr);
  recon.Ingest(MakeReport(1, t0 + 10000,
                          Destination(origin, 45.0, 51.4),
                          AisSentinels::kSpeedNotAvailable, 45.0),
               &points, nullptr);
  recon.Ingest(MakeReport(1, t0 + 20000, Destination(origin, 45.0, 102.9),
                          10.0, AisSentinels::kCourseNotAvailable),
               &points, nullptr);
  recon.Ingest(MakeReport(1, t0 + 30000, Destination(origin, 45.0, 154.3),
                          AisSentinels::kSpeedNotAvailable,
                          AisSentinels::kCourseNotAvailable),
               &points, nullptr);
  recon.Flush(&points, nullptr);
  ASSERT_EQ(points.size(), 4u);

  EXPECT_TRUE(points[0].point.HasSpeed());
  EXPECT_TRUE(points[0].point.HasCourse());
  EXPECT_TRUE(points[0].HasTurnRate());
  EXPECT_NEAR(points[0].point.sog_mps, KnotsToMps(10.0), 1e-4);
  EXPECT_NEAR(points[0].point.cog_deg, 45.0, 1e-4);

  EXPECT_FALSE(points[1].point.HasSpeed());
  EXPECT_TRUE(points[1].point.HasCourse());
  EXPECT_FALSE(points[1].HasTurnRate());

  EXPECT_TRUE(points[2].point.HasSpeed());
  EXPECT_FALSE(points[2].point.HasCourse());

  EXPECT_FALSE(points[3].point.HasSpeed());
  EXPECT_FALSE(points[3].point.HasCourse());

  // Unavailable is the single canonical bit pattern, not just "some NaN" —
  // the property the archive's raw-bit encodings rely on.
  EXPECT_EQ(std::bit_cast<uint32_t>(points[1].point.sog_mps),
            TrajectoryPoint::kUnavailableBits);
  EXPECT_EQ(std::bit_cast<uint32_t>(points[2].point.cog_deg),
            TrajectoryPoint::kUnavailableBits);
}

TEST(SentinelPropagationTest, SynopsisRulesSkipUnavailableFields) {
  // A vessel whose every report lacks SOG/COG must produce no stop/restart,
  // turn, or speed-change critical points — before the fix, sentinel speed
  // decoded as 0.0 made every such vessel look permanently stopped.
  SynopsisEngine engine;
  const Timestamp t0 = 1700000000000;
  const GeoPoint origin(35.0, 18.0);
  std::vector<CriticalPoint> log;
  for (int i = 0; i < 100; ++i) {
    ReconstructedPoint rp;
    rp.mmsi = 7;
    rp.point.t = t0 + static_cast<Timestamp>(i) * 10000;
    rp.point.position = Destination(origin, 45.0, 51.4 * i);
    rp.point.sog_mps = TrajectoryPoint::Unavailable();
    rp.point.cog_deg = TrajectoryPoint::Unavailable();
    rp.starts_segment = (i == 0);
    engine.Ingest(rp, &log);
  }
  for (const CriticalPoint& cp : log) {
    EXPECT_NE(cp.type, CriticalPointType::kStop);
    EXPECT_NE(cp.type, CriticalPointType::kRestart);
    EXPECT_NE(cp.type, CriticalPointType::kTurn);
    EXPECT_NE(cp.type, CriticalPointType::kSpeedChange);
  }
}

// --- Archive round trips -----------------------------------------------------

std::vector<TrajectoryPoint> SentinelComboPoints() {
  const Timestamp t0 = 1700000000000;
  const GeoPoint origin(35.0, 18.0);
  std::vector<TrajectoryPoint> points;
  for (int combo = 0; combo < 4; ++combo) {
    TrajectoryPoint p;
    p.t = t0 + combo * 10000;
    p.position = Destination(origin, 90.0, 100.0 * combo);
    p.sog_mps = (combo & 1) ? TrajectoryPoint::Unavailable() : 5.25f;
    p.cog_deg = (combo & 2) ? TrajectoryPoint::Unavailable() : 271.5f;
    points.push_back(p);
  }
  return points;
}

TEST(ArchiveRoundTripTest, PositionBlockPreservesAvailabilityBits) {
  const std::vector<TrajectoryPoint> points = SentinelComboPoints();
  PackedBits data;
  EncodePositionBlock(points, &data);
  std::vector<TrajectoryPoint> out;
  ASSERT_TRUE(DecodePositionBlock(data, static_cast<uint32_t>(points.size()),
                                  42, points[0].t, &out)
                  .ok());
  ASSERT_EQ(out.size(), points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(out[i].t, points[i].t);
    EXPECT_EQ(std::bit_cast<uint32_t>(out[i].sog_mps),
              std::bit_cast<uint32_t>(points[i].sog_mps));
    EXPECT_EQ(std::bit_cast<uint32_t>(out[i].cog_deg),
              std::bit_cast<uint32_t>(points[i].cog_deg));
  }
}

// --- Integrity scorer units --------------------------------------------------

TEST(IntegrityScorerTest, ImpossibleReportedTurnRateFlags) {
  IntegrityScorer scorer;
  std::vector<DetectedEvent> events;
  PositionReport pr =
      MakeReport(1, 1700000000000, GeoPoint(35.0, 18.0), 12.0, 90.0);
  pr.rate_of_turn = 126;  // ~708 deg/min: beyond any real vessel
  EXPECT_FALSE(scorer.Assess(pr, &events));
  EXPECT_EQ(scorer.stats().turn_rate_flags, 1u);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, EventType::kKinematicIntegrity);

  // A physically sane reported ROT passes.
  events.clear();
  PositionReport ok =
      MakeReport(2, 1700000000000, GeoPoint(35.0, 18.0), 12.0, 90.0);
  ok.rate_of_turn = 20;  // ~17.9 deg/min
  EXPECT_TRUE(scorer.Assess(ok, &events));
  EXPECT_TRUE(events.empty());
}

TEST(IntegrityScorerTest, SpoofedMmsiConflictsAccumulateToEvent) {
  IntegrityScorer scorer;
  std::vector<DetectedEvent> events;
  const Timestamp t0 = 1700000000000;
  const GeoPoint here(35.0, 18.0);
  const GeoPoint there = Destination(here, 90.0, 80000.0);  // 80 km away
  // Two transmitters alternating under one MMSI: every hop implies an
  // impossible speed, so conflict evidence accumulates to an event.
  bool any_failed = false;
  for (int i = 0; i < 8; ++i) {
    const Timestamp t = t0 + static_cast<Timestamp>(i) * 10000;
    const GeoPoint& pos = (i % 2 == 0) ? here : there;
    any_failed |= !scorer.Assess(MakeReport(99, t, pos, 10.0, 90.0), &events);
  }
  EXPECT_TRUE(any_failed);
  EXPECT_GT(scorer.stats().spoof_flags, 0u);
  EXPECT_GE(CountEvents(events, EventType::kMmsiConflict), 1u);
  // Integrity verdicts feed the Beta-posterior source reliability.
  EXPECT_LT(scorer.SourceReliability(), 1.0);
}

TEST(IntegrityScorerTest, ReportedSpeedContradictingPositionsFlags) {
  IntegrityScorer scorer;
  std::vector<DetectedEvent> events;
  const Timestamp t0 = 1700000000000;
  const GeoPoint origin(35.0, 18.0);
  // The vessel crawls (positions ~1 m apart at 10 s spacing) while
  // reporting 40 knots — a persistent implied-vs-reported mismatch.
  for (int i = 0; i < 6; ++i) {
    scorer.Assess(MakeReport(5, t0 + static_cast<Timestamp>(i) * 10000,
                             Destination(origin, 0.0, 1.0 * i), 40.0, 0.0),
                  &events);
  }
  EXPECT_GT(scorer.stats().kinematic_flags, 0u);
  EXPECT_GE(CountEvents(events, EventType::kKinematicIntegrity), 1u);

  // Reports with *unavailable* SOG never enter the mismatch check.
  IntegrityScorer lenient;
  events.clear();
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(lenient.Assess(
        MakeReport(6, t0 + static_cast<Timestamp>(i) * 10000,
                   Destination(origin, 0.0, 1.0 * i),
                   AisSentinels::kSpeedNotAvailable, 0.0),
        &events));
  }
  EXPECT_EQ(lenient.stats().kinematic_flags, 0u);
  EXPECT_TRUE(events.empty());
}

// --- Behaviour-change detector units -----------------------------------------

TEST(BehaviorChangeTest, RegimeShiftFlagsAndQuarantineSuppresses) {
  AnomalyOptions opts;
  opts.window_points = 8;
  BehaviorChangeDetector detector(opts);
  std::vector<DetectedEvent> events;
  const Timestamp t0 = 1700000000000;
  const GeoPoint origin(35.0, 18.0);
  auto feed = [&](int i, float sog) {
    ReconstructedPoint rp;
    rp.mmsi = 11;
    rp.point.t = t0 + static_cast<Timestamp>(i) * 10000;
    rp.point.position = Destination(origin, 90.0, 50.0 * i);
    rp.point.sog_mps = sog;
    rp.point.cog_deg = 90.0f;
    rp.turn_rate_deg_min = 0.0f;
    rp.starts_segment = (i == 0);
    detector.Ingest(rp, &events);
  };
  // Six windows of a steady 5 m/s regime build the divergence history…
  int i = 0;
  for (; i < 6 * opts.window_points; ++i) feed(i, 5.0f);
  EXPECT_TRUE(events.empty()) << "steady state must not alert";
  // …then the vessel abruptly triples its speed.
  for (int k = 0; k < 2 * opts.window_points; ++k, ++i) feed(i, 15.0f);
  EXPECT_GE(CountEvents(events, EventType::kBehaviorChange), 1u);
  EXPECT_GT(detector.stats().changes_flagged, 0u);

  // Poison drops the open window and swallows the quarantine allowance.
  const uint64_t before = detector.stats().points_quarantined;
  detector.Poison(11);
  for (int k = 0; k < opts.quarantine_points; ++k, ++i) feed(i, 15.0f);
  EXPECT_EQ(detector.stats().points_quarantined,
            before + static_cast<uint64_t>(opts.quarantine_points));
}

TEST(BehaviorChangeTest, StatsMergeSums) {
  AnomalyStageStats a, b;
  a.points_in = 10;
  a.windows_closed = 2;
  a.integrity.reports_checked = 5;
  b.points_in = 20;
  b.changes_flagged = 1;
  b.events_out = 1;
  b.integrity.reports_checked = 7;
  b.integrity.spoof_flags = 3;
  a.Merge(b);
  EXPECT_EQ(a.points_in, 30u);
  EXPECT_EQ(a.windows_closed, 2u);
  EXPECT_EQ(a.changes_flagged, 1u);
  EXPECT_EQ(a.events_out, 1u);
  EXPECT_EQ(a.integrity.reports_checked, 12u);
  EXPECT_EQ(a.integrity.spoof_flags, 3u);
}

// --- Scenario packs ----------------------------------------------------------

TEST(ScenarioPackTest, CleanWorldRaisesNoFlags) {
  const ScenarioOutput scenario =
      GenerateScenario(SharedWorld(), MakeCleanPack(7001));
  PipelineMetrics metrics;
  const auto events = RunSequential(scenario, StageConfig(), &metrics);

  EXPECT_EQ(CountEvents(events, EventType::kKinematicIntegrity), 0u);
  EXPECT_EQ(CountEvents(events, EventType::kMmsiConflict), 0u);
  EXPECT_EQ(CountEvents(events, EventType::kDarkPeriod), 0u);
  EXPECT_GT(metrics.anomaly.integrity.reports_checked, 0u);
  EXPECT_EQ(metrics.anomaly.integrity.kinematic_flags, 0u);
  EXPECT_EQ(metrics.anomaly.integrity.turn_rate_flags, 0u);
  EXPECT_EQ(metrics.anomaly.integrity.time_flags, 0u);
  EXPECT_EQ(metrics.anomaly.integrity.spoof_flags, 0u);
  EXPECT_GT(metrics.anomaly.points_in, 0u);
  EXPECT_EQ(metrics.anomaly.points_quarantined, 0u);
}

TEST(ScenarioPackTest, SpoofedMmsiPackTriggersConflicts) {
  const ScenarioOutput scenario =
      GenerateScenario(SharedWorld(), MakeSpoofedMmsiPack(7002));
  PipelineMetrics metrics;
  const auto events = RunSequential(scenario, StageConfig(), &metrics);
  EXPECT_GE(CountEvents(events, EventType::kMmsiConflict), 1u);
  EXPECT_GT(metrics.anomaly.integrity.spoof_flags, 0u);
  EXPECT_GT(metrics.anomaly.points_quarantined, 0u);
}

TEST(ScenarioPackTest, DarkVoyagePackTriggersDarkPeriods) {
  const ScenarioOutput scenario =
      GenerateScenario(SharedWorld(), MakeDarkVoyagePack(7003));
  const auto events = RunSequential(scenario, StageConfig());
  EXPECT_GE(CountEvents(events, EventType::kDarkPeriod), 1u);
}

TEST(ScenarioPackTest, IdentitySwapPackRaisesIntegrityEvidence) {
  const ScenarioOutput scenario =
      GenerateScenario(SharedWorld(), MakeIdentitySwapPack(7004));
  // The pack seeds exactly one swap ground-truth event.
  size_t swaps = 0;
  for (const TrueEvent& ev : scenario.events) {
    if (ev.type == TrueEventType::kIdentitySwap) ++swaps;
  }
  ASSERT_EQ(swaps, 1u);
  PipelineMetrics metrics;
  RunSequential(scenario, StageConfig(), &metrics);
  // Each identity's stream jumps hulls at the swap instant: impossible
  // implied speed, recorded as MMSI-conflict evidence.
  EXPECT_GT(metrics.anomaly.integrity.spoof_flags, 0u);
  EXPECT_GT(metrics.anomaly.points_quarantined, 0u);
}

TEST(ScenarioPackTest, SentinelStormProducesNoKinematicDetections) {
  // Every report in the storm carries SOG/COG sentinels. Before the fix,
  // the decoded 0.0 speeds made every vessel a permanent loiterer.
  const ScenarioOutput scenario =
      GenerateScenario(SharedWorld(), MakeSentinelStormPack(7005));
  MaritimePipeline pipeline(StageConfig(), &SharedWorld().zones(), nullptr,
                            nullptr, nullptr);
  const auto events = pipeline.Run(scenario.nmea);

  EXPECT_EQ(CountEvents(events, EventType::kStop), 0u);
  EXPECT_EQ(CountEvents(events, EventType::kMove), 0u);
  EXPECT_EQ(CountEvents(events, EventType::kLoitering), 0u);
  EXPECT_EQ(CountEvents(events, EventType::kSpeedViolation), 0u);
  EXPECT_EQ(CountEvents(events, EventType::kCollisionRisk), 0u);
  EXPECT_EQ(CountEvents(events, EventType::kRendezvous), 0u);

  for (const CriticalPoint& cp : pipeline.synopsis_log()) {
    EXPECT_NE(cp.type, CriticalPointType::kStop);
    EXPECT_NE(cp.type, CriticalPointType::kRestart);
    EXPECT_NE(cp.type, CriticalPointType::kTurn);
    EXPECT_NE(cp.type, CriticalPointType::kSpeedChange);
  }
}

// --- Determinism of the stage under sharding ---------------------------------

TEST(AnomalyDeterminismTest, OneShardIsByteIdenticalToSequential) {
  for (uint64_t seed : {7101, 7102}) {
    const ScenarioOutput scenario =
        GenerateScenario(SharedWorld(), MakeSpoofedMmsiPack(seed));
    const PipelineConfig pc = StageConfig();
    PipelineMetrics seq_metrics;
    const auto seq_events = RunSequential(scenario, pc, &seq_metrics);
    ASSERT_GT(seq_events.size(), 0u);

    ShardedPipeline::Options opts;
    opts.num_shards = 1;
    ShardedPipeline sharded(pc, opts, &SharedWorld().zones(), nullptr,
                            nullptr, nullptr);
    const auto shard_events = sharded.Run(scenario.nmea);
    ExpectSameEvents(seq_events, shard_events, /*compare_order=*/true);

    const AnomalyStageStats& ms = seq_metrics.anomaly;
    const AnomalyStageStats& mp = sharded.metrics().anomaly;
    EXPECT_EQ(ms.integrity.reports_checked, mp.integrity.reports_checked);
    EXPECT_EQ(ms.integrity.spoof_flags, mp.integrity.spoof_flags);
    EXPECT_EQ(ms.integrity.events_out, mp.integrity.events_out);
    EXPECT_EQ(ms.points_in, mp.points_in);
    EXPECT_EQ(ms.points_quarantined, mp.points_quarantined);
    EXPECT_EQ(ms.windows_closed, mp.windows_closed);
    EXPECT_EQ(ms.changes_flagged, mp.changes_flagged);
    EXPECT_EQ(ms.events_out, mp.events_out);
  }
}

TEST(AnomalyDeterminismTest, ManyShardsMatchSequentialMultiset) {
  // The adversarial packs are exactly where the stage emits: the
  // equivalence claim must hold with detections firing, across attack
  // classes and shard counts.
  const ScenarioConfig packs[] = {MakeSpoofedMmsiPack(7111),
                                  MakeIdentitySwapPack(7112),
                                  MakeSentinelStormPack(7113)};
  const PipelineConfig pc = StageConfig();
  for (const ScenarioConfig& pack : packs) {
    const ScenarioOutput scenario = GenerateScenario(SharedWorld(), pack);
    PipelineMetrics seq_metrics;
    const auto seq_events = RunSequential(scenario, pc, &seq_metrics);

    for (size_t num_shards : {2, 4}) {
      ShardedPipeline::Options opts;
      opts.num_shards = num_shards;
      ShardedPipeline sharded(pc, opts, &SharedWorld().zones(), nullptr,
                              nullptr, nullptr);
      const auto shard_events = sharded.Run(scenario.nmea);
      ExpectSameEvents(seq_events, shard_events, /*compare_order=*/false);

      const AnomalyStageStats& ms = seq_metrics.anomaly;
      const AnomalyStageStats& mp = sharded.metrics().anomaly;
      EXPECT_EQ(ms.integrity.reports_checked, mp.integrity.reports_checked);
      EXPECT_EQ(ms.integrity.kinematic_flags, mp.integrity.kinematic_flags);
      EXPECT_EQ(ms.integrity.spoof_flags, mp.integrity.spoof_flags);
      EXPECT_EQ(ms.points_in, mp.points_in);
      EXPECT_EQ(ms.points_quarantined, mp.points_quarantined);
      EXPECT_EQ(ms.windows_closed, mp.windows_closed);
      EXPECT_EQ(ms.changes_flagged, mp.changes_flagged);
    }
  }
}

TEST(AnomalyDeterminismTest, StageOffLeavesBaselineStreamUntouched) {
  // enable_anomaly=false must reproduce the pre-stage event stream and
  // leave every stage counter at zero — the knob is the compatibility
  // contract for existing baselines.
  const ScenarioOutput scenario =
      GenerateScenario(SharedWorld(), MakeSpoofedMmsiPack(7121));
  PipelineConfig off;
  off.window_lines = 512;
  PipelineMetrics metrics;
  const auto events = RunSequential(scenario, off, &metrics);
  EXPECT_EQ(CountEvents(events, EventType::kMmsiConflict), 0u);
  EXPECT_EQ(CountEvents(events, EventType::kKinematicIntegrity), 0u);
  EXPECT_EQ(CountEvents(events, EventType::kBehaviorChange), 0u);
  EXPECT_EQ(metrics.anomaly.integrity.reports_checked, 0u);
  EXPECT_EQ(metrics.anomaly.points_in, 0u);
}

}  // namespace
}  // namespace marlin
