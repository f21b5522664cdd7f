// Unit tests for marlin_core: event-time recovery, reconstruction, synopses,
// event recognition, patterns-of-life, forecasting, enrichment.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <iterator>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "core/enrichment.h"
#include "core/events.h"
#include "core/forecast.h"
#include "core/patterns.h"
#include "core/reconstruction.h"
#include "core/synopses.h"
#include "geo/geodesy.h"
#include "reference/loiter_oracle.h"

namespace marlin {
namespace {

// --- ResolveEventTime -------------------------------------------------------

TEST(ResolveEventTimeTest, SecondsFieldRecovered) {
  // Received at 12:00:05.300; transmitted second = 3 → event 12:00:03.000.
  const Timestamp rx = ParseTimestamp("2017-03-21T12:00:05.300Z");
  EXPECT_EQ(ResolveEventTime(3, rx), ParseTimestamp("2017-03-21T12:00:03.000Z"));
}

TEST(ResolveEventTimeTest, PreviousMinuteWhenSecondsWrap) {
  // Received at 12:01:02; second field 58 → 12:00:58 of the previous minute.
  const Timestamp rx = ParseTimestamp("2017-03-21T12:01:02.000Z");
  EXPECT_EQ(ResolveEventTime(58, rx),
            ParseTimestamp("2017-03-21T12:00:58.000Z"));
}

TEST(ResolveEventTimeTest, SatelliteDelayRecovered) {
  // Received 7 minutes late; second field 30 → the most recent :30 within
  // the allowed age is just before receive time.
  const Timestamp tx = ParseTimestamp("2017-03-21T12:00:30.000Z");
  const Timestamp rx = tx + Minutes(7);
  const Timestamp resolved = ResolveEventTime(30, rx, Minutes(10));
  // Any candidate with :30 seconds at most 10 min old is acceptable; the
  // closest to rx is 12:07:30.
  EXPECT_EQ(resolved % kMillisPerMinute, 30 * kMillisPerSecond);
  EXPECT_LE(resolved, rx);
}

TEST(ResolveEventTimeTest, UnavailableSecondsFallsBack) {
  EXPECT_EQ(ResolveEventTime(60, 1234567), 1234567);
  EXPECT_EQ(ResolveEventTime(-1, 1234567), 1234567);
}

// --- TrajectoryReconstructor ----------------------------------------------

PositionReport MakeReport(Mmsi mmsi, Timestamp event_time,
                          const GeoPoint& pos, double sog_kn = 10.0,
                          double cog = 90.0, DurationMs latency = 1000) {
  PositionReport pr;
  pr.message_type = 1;
  pr.mmsi = mmsi;
  pr.position = pos;
  pr.sog_knots = sog_kn;
  pr.cog_deg = cog;
  pr.utc_second = static_cast<int>((event_time / 1000) % 60);
  pr.received_at = event_time + latency;
  return pr;
}

TEST(ReconstructionTest, CleanStreamPassesThrough) {
  TrajectoryReconstructor recon;
  std::vector<ReconstructedPoint> points;
  std::vector<RejectedReport> rejected;
  const Timestamp t0 = 1700000000000;
  for (int i = 0; i < 20; ++i) {
    const GeoPoint pos = Destination(GeoPoint(40, 5), 90.0, 50.0 * i);
    recon.Ingest(MakeReport(1, t0 + i * 10000, pos), &points, &rejected);
  }
  recon.Flush(&points, &rejected);
  EXPECT_EQ(points.size(), 20u);
  EXPECT_TRUE(rejected.empty());
  EXPECT_TRUE(points.front().starts_segment);
  for (size_t i = 1; i < points.size(); ++i) {
    EXPECT_FALSE(points[i].starts_segment);
    EXPECT_GT(points[i].point.t, points[i - 1].point.t);
  }
}

TEST(ReconstructionTest, DuplicatesDropped) {
  TrajectoryReconstructor recon;
  std::vector<ReconstructedPoint> points;
  std::vector<RejectedReport> rejected;
  const Timestamp t0 = 1700000000000;
  const auto report = MakeReport(1, t0, GeoPoint(40, 5));
  recon.Ingest(report, &points, &rejected);
  recon.Ingest(report, &points, &rejected);  // exact duplicate
  recon.Ingest(MakeReport(1, t0 + 10000, GeoPoint(40, 5.001)), &points,
               &rejected);
  recon.Flush(&points, &rejected);
  EXPECT_EQ(points.size(), 2u);
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_EQ(rejected[0].reason, RejectedReport::Reason::kDuplicate);
  EXPECT_EQ(recon.stats().duplicates, 1u);
}

TEST(ReconstructionTest, OutOfOrderWithinDelayRepaired) {
  TrajectoryReconstructor::Options opts;
  opts.reorder_delay_ms = 60000;
  TrajectoryReconstructor recon(opts);
  std::vector<ReconstructedPoint> points;
  std::vector<RejectedReport> rejected;
  const Timestamp t0 = 1700000000000;
  // Events arrive interleaved: 0, 20 s, 10 s (late satellite), 30 s.
  recon.Ingest(MakeReport(1, t0, GeoPoint(40, 5.000)), &points, &rejected);
  recon.Ingest(MakeReport(1, t0 + 20000, GeoPoint(40, 5.002)), &points,
               &rejected);
  recon.Ingest(MakeReport(1, t0 + 10000, GeoPoint(40, 5.001), 10.0, 90.0,
                          25000),
               &points, &rejected);
  recon.Ingest(MakeReport(1, t0 + 30000, GeoPoint(40, 5.003)), &points,
               &rejected);
  recon.Flush(&points, &rejected);
  ASSERT_EQ(points.size(), 4u);
  for (size_t i = 1; i < points.size(); ++i) {
    EXPECT_LT(points[i - 1].point.t, points[i].point.t);
  }
  EXPECT_TRUE(rejected.empty());
}

TEST(ReconstructionTest, ImpossibleJumpRejected) {
  TrajectoryReconstructor recon;
  std::vector<ReconstructedPoint> points;
  std::vector<RejectedReport> rejected;
  const Timestamp t0 = 1700000000000;
  recon.Ingest(MakeReport(1, t0, GeoPoint(40, 5)), &points, &rejected);
  // 60 km in 10 s = 6 km/s — far beyond any vessel.
  recon.Ingest(MakeReport(1, t0 + 10000,
                          Destination(GeoPoint(40, 5), 45.0, 60000.0)),
               &points, &rejected);
  recon.Ingest(MakeReport(1, t0 + 20000, GeoPoint(40, 5.002)), &points,
               &rejected);
  recon.Flush(&points, &rejected);
  EXPECT_EQ(points.size(), 2u);
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_EQ(rejected[0].reason, RejectedReport::Reason::kImpossibleJump);
  EXPECT_GT(rejected[0].implied_speed_mps, 1000.0);
}

TEST(ReconstructionTest, GapSegmentation) {
  TrajectoryReconstructor::Options opts;
  opts.gap_threshold_ms = Minutes(10);
  TrajectoryReconstructor recon(opts);
  std::vector<ReconstructedPoint> points;
  const Timestamp t0 = 1700000000000;
  recon.Ingest(MakeReport(1, t0, GeoPoint(40, 5.0)), &points, nullptr);
  recon.Ingest(MakeReport(1, t0 + 10000, GeoPoint(40, 5.001)), &points,
               nullptr);
  // 40-minute silence, then reports resume (vessel moved meanwhile).
  recon.Ingest(MakeReport(1, t0 + Minutes(40), GeoPoint(40, 5.05)), &points,
               nullptr);
  recon.Flush(&points, nullptr);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_TRUE(points[2].starts_segment);
  EXPECT_NEAR(static_cast<double>(points[2].gap_before_ms),
              static_cast<double>(Minutes(40) - 10000), 1000.0);
  EXPECT_EQ(recon.stats().segments_started, 2u);
}

TEST(ReconstructionTest, VesselsIndependent) {
  TrajectoryReconstructor recon;
  std::vector<ReconstructedPoint> points;
  const Timestamp t0 = 1700000000000;
  recon.Ingest(MakeReport(1, t0, GeoPoint(40, 5)), &points, nullptr);
  // Vessel 2 is far away — not an outlier, it's a different ship.
  recon.Ingest(MakeReport(2, t0 + 1000, GeoPoint(43, 8)), &points, nullptr);
  recon.Flush(&points, nullptr);
  EXPECT_EQ(points.size(), 2u);
  EXPECT_EQ(recon.stats().outliers, 0u);
}

// --- SynopsisEngine ---------------------------------------------------------

Trajectory StraightTrajectory(Mmsi mmsi, int n, double speed_mps = 6.0) {
  Trajectory traj;
  traj.mmsi = mmsi;
  const GeoPoint start(40.0, 5.0);
  for (int i = 0; i < n; ++i) {
    TrajectoryPoint p;
    p.t = 1700000000000 + static_cast<Timestamp>(i) * 10000;
    p.position = Destination(start, 90.0, speed_mps * 10.0 * i);
    p.sog_mps = static_cast<float>(speed_mps);
    p.cog_deg = 90.0f;
    traj.points.push_back(p);
  }
  return traj;
}

TEST(SynopsisTest, StraightLineCompressesHard) {
  SynopsisEngine engine;
  const Trajectory traj = StraightTrajectory(1, 500);
  const auto synopsis = engine.CompressTrajectory(traj);
  // Constant course & speed: only segment start/end + heartbeats survive.
  EXPECT_LT(synopsis.size(), 12u);
  EXPECT_GT(engine.stats().CompressionRatio(), 0.97);
  EXPECT_EQ(synopsis.front().type, CriticalPointType::kSegmentStart);
}

TEST(SynopsisTest, ReconstructionWithinErrorBound) {
  SynopsisEngine::Options opts;
  opts.deviation_threshold_m = 60.0;
  SynopsisEngine engine(opts);
  // A winding trajectory: course changes slowly.
  Trajectory traj;
  traj.mmsi = 1;
  GeoPoint pos(40.0, 5.0);
  double course = 90.0;
  Rng rng(251);
  for (int i = 0; i < 600; ++i) {
    TrajectoryPoint p;
    p.t = 1700000000000 + static_cast<Timestamp>(i) * 10000;
    p.position = pos;
    p.sog_mps = 6.0f;
    p.cog_deg = static_cast<float>(course);
    traj.points.push_back(p);
    course += rng.Uniform(-1.5, 1.5);
    pos = Destination(pos, course, 60.0);
  }
  const auto synopsis = engine.CompressTrajectory(traj);
  const Trajectory rebuilt = ReconstructFromSynopsis(1, synopsis);
  const TrajectoryError err = ComputeSedError(traj, rebuilt);
  EXPECT_LT(synopsis.size(), traj.points.size() / 2);
  // Mean error well inside the bound; max can exceed it slightly because
  // emission is causal (no look-ahead).
  EXPECT_LT(err.mean_m, 60.0);
  EXPECT_LT(err.max_m, 4 * 60.0);
}

TEST(SynopsisTest, TurnsEmitCriticalPoints) {
  SynopsisEngine engine;
  Trajectory traj;
  traj.mmsi = 1;
  GeoPoint pos(40.0, 5.0);
  for (int i = 0; i < 100; ++i) {
    TrajectoryPoint p;
    p.t = 1700000000000 + static_cast<Timestamp>(i) * 10000;
    p.position = pos;
    p.sog_mps = 6.0f;
    p.cog_deg = i < 50 ? 90.0f : 180.0f;  // sharp turn at i=50
    traj.points.push_back(p);
    pos = Destination(pos, p.cog_deg, 60.0);
  }
  const auto synopsis = engine.CompressTrajectory(traj);
  bool saw_turn = false;
  for (const auto& cp : synopsis) {
    if (cp.type == CriticalPointType::kTurn) saw_turn = true;
  }
  EXPECT_TRUE(saw_turn);
}

TEST(SynopsisTest, StopsAndRestartsEmitted) {
  SynopsisEngine engine;
  Trajectory traj;
  traj.mmsi = 1;
  const GeoPoint anchor(40.0, 5.0);
  for (int i = 0; i < 90; ++i) {
    TrajectoryPoint p;
    p.t = 1700000000000 + static_cast<Timestamp>(i) * 10000;
    const bool stopped = i >= 30 && i < 60;
    p.sog_mps = stopped ? 0.1f : 6.0f;
    p.cog_deg = 90.0f;
    p.position = stopped
                     ? anchor
                     : Destination(anchor, 90.0, 60.0 * (i < 30 ? i - 30 : i - 60));
    traj.points.push_back(p);
  }
  const auto synopsis = engine.CompressTrajectory(traj);
  int stops = 0, restarts = 0;
  for (const auto& cp : synopsis) {
    if (cp.type == CriticalPointType::kStop) ++stops;
    if (cp.type == CriticalPointType::kRestart) ++restarts;
  }
  EXPECT_EQ(stops, 1);
  EXPECT_EQ(restarts, 1);
}

TEST(SynopsisTest, GapBoundariesAlwaysKept) {
  SynopsisEngine engine;
  std::vector<CriticalPoint> out;
  ReconstructedPoint rp;
  rp.mmsi = 1;
  rp.point = StraightTrajectory(1, 3).points[0];
  rp.starts_segment = true;
  engine.Ingest(rp, &out);
  rp.point = StraightTrajectory(1, 3).points[1];
  rp.starts_segment = false;
  engine.Ingest(rp, &out);
  // New segment after a gap.
  rp.point = StraightTrajectory(1, 3).points[2];
  rp.point.t += Hours(1);
  rp.starts_segment = true;
  rp.gap_before_ms = Hours(1);
  engine.Ingest(rp, &out);
  int seg_starts = 0, seg_ends = 0;
  for (const auto& cp : out) {
    if (cp.type == CriticalPointType::kSegmentStart) ++seg_starts;
    if (cp.type == CriticalPointType::kSegmentEnd) ++seg_ends;
  }
  EXPECT_EQ(seg_starts, 2);
  EXPECT_EQ(seg_ends, 1);
}

// --- EventEngine -----------------------------------------------------------

class EventEngineTest : public ::testing::Test {
 protected:
  EventEngineTest() {
    GeoZone port;
    port.name = "Port";
    port.type = ZoneType::kPort;
    port.polygon = Polygon::Circle(GeoPoint(41.35, 2.15), 3000.0);
    zones_.Add(std::move(port));
    GeoZone reserve;
    reserve.name = "Reserve";
    reserve.type = ZoneType::kProtectedArea;
    reserve.fishing_prohibited = true;
    reserve.polygon = Polygon::Circle(GeoPoint(37.8, 1.8), 15000.0);
    reserve_id_ = zones_.Add(std::move(reserve));
  }

  ReconstructedPoint Point(Mmsi mmsi, Timestamp t, const GeoPoint& pos,
                           double sog_mps, double cog = 90.0,
                           DurationMs gap = 0) {
    ReconstructedPoint rp;
    rp.mmsi = mmsi;
    rp.point.t = t;
    rp.point.position = pos;
    rp.point.sog_mps = static_cast<float>(sog_mps);
    rp.point.cog_deg = static_cast<float>(cog);
    rp.gap_before_ms = gap;
    rp.starts_segment = gap > 0;
    return rp;
  }

  ZoneDatabase zones_;
  uint32_t reserve_id_ = 0;
};

TEST_F(EventEngineTest, ZoneEntryExit) {
  EventEngine engine(&zones_);
  std::vector<DetectedEvent> events;
  const Timestamp t0 = 1700000000000;
  const GeoPoint inside(41.35, 2.15);
  const GeoPoint outside = Destination(inside, 90.0, 10000.0);
  engine.Ingest(Point(1, t0, outside, 5.0), &events);
  engine.Ingest(Point(1, t0 + 60000, inside, 5.0), &events);
  engine.Ingest(Point(1, t0 + 120000, outside, 5.0), &events);
  int entries = 0, exits = 0;
  for (const auto& ev : events) {
    if (ev.type == EventType::kZoneEntry) ++entries;
    if (ev.type == EventType::kZoneExit) ++exits;
  }
  EXPECT_EQ(entries, 1);
  EXPECT_EQ(exits, 1);
}

TEST_F(EventEngineTest, DarkPeriodFromGap) {
  EventEngine engine(&zones_);
  std::vector<DetectedEvent> events;
  const Timestamp t0 = 1700000000000;
  engine.Ingest(Point(1, t0, GeoPoint(40, 5), 5.0), &events);
  engine.Ingest(
      Point(1, t0 + Minutes(45), GeoPoint(40.1, 5.1), 5.0, 90.0, Minutes(45)),
      &events);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, EventType::kDarkPeriod);
  EXPECT_EQ(events[0].start, t0);
  EXPECT_EQ(events[0].end, t0 + Minutes(45));
}

TEST_F(EventEngineTest, RendezvousDetected) {
  EventEngine::Options opts;
  opts.rendezvous_min_duration = Minutes(10);
  EventEngine engine(&zones_, opts);
  std::vector<DetectedEvent> events;
  const Timestamp t0 = 1700000000000;
  const GeoPoint meet(40.0, 5.0);  // open sea
  // Two vessels nearly stationary 200 m apart for 20 minutes.
  for (int i = 0; i <= 20; ++i) {
    const Timestamp t = t0 + Minutes(i);
    engine.Ingest(Point(1, t, meet, 0.3), &events);
    engine.Ingest(Point(2, t + 1000, Destination(meet, 90.0, 200.0), 0.3),
                  &events);
  }
  int rendezvous = 0;
  for (const auto& ev : events) {
    if (ev.type == EventType::kRendezvous) {
      ++rendezvous;
      EXPECT_EQ(ev.vessel_a, 1u);
      EXPECT_EQ(ev.vessel_b, 2u);
      EXPECT_GE(ev.end - ev.start, opts.rendezvous_min_duration);
    }
  }
  EXPECT_EQ(rendezvous, 1);
}

TEST_F(EventEngineTest, NoRendezvousInsidePort) {
  EventEngine::Options opts;
  opts.rendezvous_min_duration = Minutes(10);
  EventEngine engine(&zones_, opts);
  std::vector<DetectedEvent> events;
  const Timestamp t0 = 1700000000000;
  const GeoPoint berth(41.35, 2.15);  // inside the port zone
  for (int i = 0; i <= 30; ++i) {
    const Timestamp t = t0 + Minutes(i);
    engine.Ingest(Point(1, t, berth, 0.1), &events);
    engine.Ingest(Point(2, t + 1000, Destination(berth, 0.0, 100.0), 0.1),
                  &events);
  }
  engine.Flush(&events);
  for (const auto& ev : events) {
    EXPECT_NE(ev.type, EventType::kRendezvous);
  }
}

TEST_F(EventEngineTest, NoRendezvousForPassingShips) {
  EventEngine engine(&zones_);
  std::vector<DetectedEvent> events;
  const Timestamp t0 = 1700000000000;
  // Two vessels pass within 300 m at 12 knots — close but fast.
  for (int i = 0; i <= 30; ++i) {
    const Timestamp t = t0 + i * 10000;
    engine.Ingest(Point(1, t, Destination(GeoPoint(40, 5), 90.0, 62.0 * i),
                        6.2, 90.0),
                  &events);
    engine.Ingest(
        Point(2, t + 1000,
              Destination(Destination(GeoPoint(40, 5), 0.0, 300.0), 270.0,
                          62.0 * (30 - i)),
              6.2, 270.0),
        &events);
  }
  engine.Flush(&events);
  for (const auto& ev : events) {
    EXPECT_NE(ev.type, EventType::kRendezvous);
  }
}

TEST_F(EventEngineTest, LoiteringDetected) {
  EventEngine::Options opts;
  opts.loiter_min_duration = Minutes(30);
  EventEngine engine(&zones_, opts);
  std::vector<DetectedEvent> events;
  const Timestamp t0 = 1700000000000;
  const GeoPoint spot(39.0, 3.0);
  Rng rng(257);
  for (int i = 0; i <= 50; ++i) {
    const GeoPoint pos =
        Destination(spot, rng.Uniform(0, 360), rng.Uniform(0, 800));
    engine.Ingest(Point(7, t0 + Minutes(i), pos, 0.5), &events);
  }
  int loiters = 0;
  for (const auto& ev : events) {
    if (ev.type == EventType::kLoitering) {
      ++loiters;
      EXPECT_EQ(ev.vessel_a, 7u);
    }
  }
  EXPECT_EQ(loiters, 1);  // re-alert suppression caps it
}

TEST_F(EventEngineTest, TransitingVesselNeverLoiters) {
  EventEngine engine(&zones_);
  std::vector<DetectedEvent> events;
  const Timestamp t0 = 1700000000000;
  for (int i = 0; i <= 120; ++i) {
    engine.Ingest(Point(8, t0 + Minutes(i),
                        Destination(GeoPoint(40, 5), 90.0, 360.0 * i), 6.0),
                  &events);
  }
  for (const auto& ev : events) {
    EXPECT_NE(ev.type, EventType::kLoitering);
  }
}

// --- Incremental loiter box vs brute-force oracle ---------------------------

void ExpectBitEqualEvent(const DetectedEvent& a, const DetectedEvent& b,
                         size_t index) {
  EXPECT_EQ(a.type, b.type) << "event " << index;
  EXPECT_EQ(a.start, b.start) << "event " << index;
  EXPECT_EQ(a.end, b.end) << "event " << index;
  EXPECT_EQ(a.vessel_a, b.vessel_a) << "event " << index;
  EXPECT_EQ(a.vessel_b, b.vessel_b) << "event " << index;
  EXPECT_EQ(std::bit_cast<uint64_t>(a.where.lat),
            std::bit_cast<uint64_t>(b.where.lat))
      << "event " << index;
  EXPECT_EQ(std::bit_cast<uint64_t>(a.where.lon),
            std::bit_cast<uint64_t>(b.where.lon))
      << "event " << index;
  EXPECT_EQ(a.zone_id, b.zone_id) << "event " << index;
  EXPECT_EQ(std::bit_cast<uint64_t>(a.severity),
            std::bit_cast<uint64_t>(b.severity))
      << "event " << index;
  EXPECT_EQ(a.detected_at, b.detected_at) << "event " << index;
}

// Seeded random multi-vessel stream for the loiter oracle. Each vessel
// follows one regime: stationary jitter around a centre (at the origin,
// where snapping makes ±0.0 coordinates, on the port boundary, or at sea),
// a monotone transit, or a random walk. Coordinates snap to a grid so
// equal extremes are common; time steps are multiples of 30 s so window
// expiry, the 0.9×-duration gate and the re-alert gate all meet equality;
// speeds come from a few values around the threshold, some unavailable.
// Occasional gaps beyond the dark threshold clear the window.
std::vector<ReconstructedPoint> LoiterStream(Rng* rng, int vessels,
                                             int points_per_vessel) {
  struct Track {
    int regime;
    GeoPoint centre;
    double jitter_deg;
    double dlat, dlon;  // transit step, degrees
    double snap_deg;
    Timestamp t;
    GeoPoint pos;
  };
  const GeoPoint centres[] = {GeoPoint(0.0, 0.0), GeoPoint(41.377, 2.15),
                              GeoPoint(39.0, 3.0)};
  const double snaps[] = {1e-4, 1e-3, 5e-3};
  const double jitters_m[] = {150.0, 900.0, 1800.0, 3000.0};
  const float speeds[] = {0.5f, 1.0f, 1.5f, 1.5f, 2.0f, 2.5f,
                          TrajectoryPoint::Unavailable()};
  auto snap = [rng](double v, double q) {
    const double s = std::round(v / q) * q;
    return s == 0.0 ? std::copysign(0.0, rng->NextBounded(2) ? 1.0 : -1.0)
                    : s;
  };

  std::vector<Track> tracks(static_cast<size_t>(vessels));
  for (Track& tr : tracks) {
    tr.regime = static_cast<int>(rng->NextBounded(3));
    tr.centre = centres[rng->NextBounded(3)];
    tr.jitter_deg = jitters_m[rng->NextBounded(4)] / 111195.0;
    tr.dlat = rng->Uniform(-4e-4, 4e-4);
    tr.dlon = rng->NextBounded(2) ? 0.0 : rng->Uniform(-4e-4, 4e-4);
    tr.snap_deg = snaps[rng->NextBounded(3)];
    tr.t = 1700000000000 + 30000 * rng->UniformInt(0, 20);
    tr.pos = tr.centre;
  }
  std::vector<ReconstructedPoint> stream;
  stream.reserve(static_cast<size_t>(vessels * points_per_vessel));
  for (int i = 0; i < points_per_vessel; ++i) {
    for (size_t v = 0; v < tracks.size(); ++v) {
      Track& tr = tracks[v];
      ReconstructedPoint rp;
      rp.mmsi = static_cast<Mmsi>(100 + v);
      DurationMs step = 30000 * rng->UniformInt(0, 6);
      if (rng->NextBounded(100) == 0) {
        step = Minutes(15) + 30000 * rng->UniformInt(1, 40);
        rp.gap_before_ms = step;
        rp.starts_segment = true;
      }
      tr.t += step;
      switch (tr.regime) {
        case 0:  // stationary jitter
          tr.pos = GeoPoint(
              tr.centre.lat + rng->Uniform(-tr.jitter_deg, tr.jitter_deg),
              tr.centre.lon + rng->Uniform(-tr.jitter_deg, tr.jitter_deg));
          break;
        case 1:  // monotone transit
          tr.pos = GeoPoint(tr.pos.lat + tr.dlat, tr.pos.lon + tr.dlon);
          break;
        default:  // random walk
          tr.pos = GeoPoint(
              tr.pos.lat + rng->Uniform(-1, 1) * tr.jitter_deg * 0.2,
              tr.pos.lon + rng->Uniform(-1, 1) * tr.jitter_deg * 0.2);
          break;
      }
      rp.point.t = tr.t;
      rp.point.position = GeoPoint(snap(tr.pos.lat, tr.snap_deg),
                                   snap(tr.pos.lon, tr.snap_deg));
      rp.point.sog_mps = speeds[rng->NextBounded(std::size(speeds))];
      rp.point.cog_deg = 90.0f;
      stream.push_back(rp);
    }
  }
  return stream;
}

TEST_F(EventEngineTest, IncrementalLoiterBoxMatchesBruteForceOracle) {
  std::vector<EventRuleOptions> option_sets(3);
  option_sets[1].loiter_min_duration = Minutes(10);
  option_sets[1].loiter_realert_ms = Minutes(15);
  option_sets[1].loiter_radius_m = 800.0;
  option_sets[2].loiter_min_duration = Minutes(20);
  option_sets[2].loiter_realert_ms = Minutes(20);
  option_sets[2].loiter_radius_m = 1500.0;

  size_t loiters = 0;
  for (uint64_t seed = 1; seed <= 48; ++seed) {
    Rng rng(seed);
    const EventRuleOptions& options = option_sets[seed % option_sets.size()];
    VesselEventEngine engine(&zones_, options);
    reference::LoiterOracle oracle(&zones_, options);
    std::vector<DetectedEvent> all, got, want;
    for (const ReconstructedPoint& rp : LoiterStream(&rng, 6, 500)) {
      engine.Ingest(rp, &all);
      oracle.Ingest(rp, &want);
    }
    for (const DetectedEvent& ev : all) {
      if (ev.type == EventType::kLoitering) got.push_back(ev);
    }
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (size_t i = 0; i < got.size(); ++i) {
      ExpectBitEqualEvent(got[i], want[i], i);
    }
    loiters += got.size();
  }
  EXPECT_GT(loiters, 200u);  // the streams do exercise the alert path
}

TEST_F(EventEngineTest, SpoofEventsFromRejections) {
  EventEngine::Options opts;
  opts.identity_conflict_count = 3;
  EventEngine engine(&zones_, opts);
  std::vector<DetectedEvent> events;
  const Timestamp t0 = 1700000000000;
  RejectedReport rej;
  rej.reason = RejectedReport::Reason::kImpossibleJump;
  rej.mmsi = 99;
  rej.reported = GeoPoint(40, 5);
  rej.implied_speed_mps = 500;
  // Single isolated jump: teleport spoof.
  rej.t = t0;
  engine.IngestRejection(rej, &events);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, EventType::kTeleportSpoof);
  // A burst of conflicts upgrades to identity spoofing.
  rej.t = t0 + Minutes(1);
  engine.IngestRejection(rej, &events);
  rej.t = t0 + Minutes(2);
  engine.IngestRejection(rej, &events);
  bool identity = false;
  for (const auto& ev : events) {
    if (ev.type == EventType::kIdentitySpoof) identity = true;
  }
  EXPECT_TRUE(identity);
}

TEST_F(EventEngineTest, CollisionRiskOnConvergingCourses) {
  EventEngine engine(&zones_);
  std::vector<DetectedEvent> events;
  const Timestamp t0 = 1700000000000;
  const GeoPoint base(40.0, 5.0);
  // Head-on: A eastbound, B westbound, 8 km apart closing at 12 m/s.
  for (int i = 0; i <= 10; ++i) {
    const Timestamp t = t0 + i * 30000;
    engine.Ingest(Point(1, t, Destination(base, 90.0, 6.0 * 30 * i), 6.0, 90.0),
                  &events);
    engine.Ingest(Point(2, t + 1000,
                        Destination(base, 90.0, 8000.0 - 6.0 * 30 * i), 6.0,
                        270.0),
                  &events);
  }
  int risks = 0;
  for (const auto& ev : events) {
    if (ev.type == EventType::kCollisionRisk) ++risks;
  }
  EXPECT_GE(risks, 1);
}

TEST_F(EventEngineTest, NoCollisionRiskWhenDiverging) {
  EventEngine engine(&zones_);
  std::vector<DetectedEvent> events;
  const Timestamp t0 = 1700000000000;
  const GeoPoint base(40.0, 5.0);
  for (int i = 0; i <= 10; ++i) {
    const Timestamp t = t0 + i * 30000;
    engine.Ingest(Point(1, t, Destination(base, 270.0, 6.0 * 30 * i), 6.0,
                        270.0),
                  &events);
    engine.Ingest(Point(2, t + 1000,
                        Destination(Destination(base, 90.0, 2000.0), 90.0,
                                    6.0 * 30 * i),
                        6.0, 90.0),
                  &events);
  }
  for (const auto& ev : events) {
    EXPECT_NE(ev.type, EventType::kCollisionRisk);
  }
}

PairObservation PairObs(Mmsi mmsi, Timestamp t, const GeoPoint& where,
                        double sog_mps, double cog_deg) {
  PairObservation obs;
  obs.mmsi = mmsi;
  obs.point.t = t;
  obs.point.position = where;
  obs.point.sog_mps = static_cast<float>(sog_mps);
  obs.point.cog_deg = static_cast<float>(cog_deg);
  return obs;
}

/// Closes `windows` in order on one engine (flush on the last) and counts
/// the events of `type`.
int CountAfterClosing(std::vector<std::vector<PairObservation>> windows,
                      EventType type) {
  PairEventEngine engine;
  int count = 0;
  for (size_t i = 0; i < windows.size(); ++i) {
    std::vector<DetectedEvent> events;
    engine.CloseWindow(&windows[i], /*flush=*/i + 1 == windows.size(),
                       &events);
    for (const auto& ev : events) count += ev.type == type ? 1 : 0;
  }
  return count;
}

TEST(PairEventEngineTest, RendezvousAcrossWindowsReportedOnce) {
  // Two slow vessels ~85 m apart for 15 minutes, closed in windows of five
  // minutes: the dwell carries across window closes and reports once.
  const GeoPoint west(40.0, 5.0);
  const GeoPoint east = Destination(west, 90.0, 85.0);
  std::vector<std::vector<PairObservation>> windows(1);
  for (int minute = 0; minute <= 15; ++minute) {
    const Timestamp t = 1700000000000 + Minutes(minute);
    windows.back().push_back(PairObs(111000001, t, west, 0.4, 90.0));
    windows.back().push_back(PairObs(222000002, t, east, 0.5, 90.0));
    if (minute % 5 == 4) windows.emplace_back();
  }
  EXPECT_EQ(CountAfterClosing(std::move(windows), EventType::kRendezvous), 1);
}

TEST(PairEventEngineTest, CollisionAcrossWindowsAlertsOncePerRealertWindow) {
  // Head-on approach from 8 km at 12 m/s closing speed, 30 s ticks, closed
  // in windows of four ticks: one alert, since the 10-minute re-alert
  // window outlasts the 4.5-minute run.
  const GeoPoint centre(38.0, 12.0);
  std::vector<std::vector<PairObservation>> windows(1);
  for (int step = 0; step < 10; ++step) {
    const Timestamp t = 1700000000000 + step * 30000;
    const double gap_m = 4000.0 - 6.0 * 30 * step;  // each side's distance
    windows.back().push_back(
        PairObs(111000001, t, Destination(centre, 270.0, gap_m), 6.0, 90.0));
    windows.back().push_back(
        PairObs(222000002, t, Destination(centre, 90.0, gap_m), 6.0, 270.0));
    if (step % 4 == 3) windows.emplace_back();
  }
  EXPECT_EQ(CountAfterClosing(std::move(windows), EventType::kCollisionRisk),
            1);
}

TEST_F(EventEngineTest, IllegalFishingNeedsCategoryAndZoneAndPattern) {
  EventEngine::Options opts;
  opts.fishing_min_duration = Minutes(20);
  EventEngine engine(&zones_, opts);
  engine.SetVesselInfo(30, 30);  // fishing vessel
  engine.SetVesselInfo(70, 70);  // cargo vessel
  std::vector<DetectedEvent> events;
  const Timestamp t0 = 1700000000000;
  const GeoPoint reserve(37.8, 1.8);
  // Both vessels trawl-speed inside the reserve for 40 minutes.
  for (int i = 0; i <= 40; ++i) {
    const Timestamp t = t0 + Minutes(i);
    const GeoPoint pos = Destination(reserve, 90.0, 30.0 * i);
    engine.Ingest(Point(30, t, pos, 2.0), &events);
    engine.Ingest(Point(70, t + 1000, Destination(pos, 0.0, 2000.0), 2.0),
                  &events);
  }
  int illegal = 0;
  for (const auto& ev : events) {
    if (ev.type == EventType::kIllegalFishing) {
      ++illegal;
      EXPECT_EQ(ev.vessel_a, 30u);  // only the fishing vessel
      EXPECT_EQ(ev.zone_id, reserve_id_);
    }
  }
  EXPECT_EQ(illegal, 1);
}

TEST_F(EventEngineTest, FastTransitThroughReserveNotFishing) {
  EventEngine engine(&zones_);
  engine.SetVesselInfo(30, 30);
  std::vector<DetectedEvent> events;
  const Timestamp t0 = 1700000000000;
  const GeoPoint reserve(37.8, 1.8);
  for (int i = 0; i <= 40; ++i) {
    engine.Ingest(Point(30, t0 + Minutes(i),
                        Destination(reserve, 90.0, 300.0 * i), 6.0),
                  &events);
  }
  for (const auto& ev : events) {
    EXPECT_NE(ev.type, EventType::kIllegalFishing);
  }
}

// --- PatternsOfLife / AnomalyDetector --------------------------------------

TEST(PatternsTest, TrainedLaneScoresLow) {
  PatternsOfLife model;
  // Train on heavy eastbound traffic along a lane.
  Rng rng(263);
  for (int v = 0; v < 50; ++v) {
    Trajectory traj;
    traj.mmsi = v;
    for (int i = 0; i < 100; ++i) {
      TrajectoryPoint p;
      p.t = i;
      p.position = GeoPoint(40.0 + rng.Uniform(-0.02, 0.02), 5.0 + 0.01 * i);
      p.sog_mps = static_cast<float>(6.0 + rng.Uniform(-0.5, 0.5));
      p.cog_deg = 90.0f;
      traj.points.push_back(p);
    }
    model.Train(traj);
  }
  model.Finalize();
  // On-lane, on-course, normal speed: low score.
  TrajectoryPoint normal;
  normal.position = GeoPoint(40.0, 5.5);
  normal.sog_mps = 6.0f;
  normal.cog_deg = 90.0f;
  const double normal_score = model.Score(normal);
  // Off-lane open water: high score.
  TrajectoryPoint off;
  off.position = GeoPoint(42.5, 5.5);
  off.sog_mps = 6.0f;
  off.cog_deg = 90.0f;
  EXPECT_EQ(model.Score(off), 1.0);
  EXPECT_LT(normal_score, 0.5);
  // Wrong-way traffic on the lane: elevated score.
  TrajectoryPoint wrong_way = normal;
  wrong_way.cog_deg = 270.0f;
  EXPECT_GT(model.Score(wrong_way), normal_score);
  // Impossible speed for the lane: elevated score.
  TrajectoryPoint speeding = normal;
  speeding.sog_mps = 15.0f;
  EXPECT_GT(model.Score(speeding), normal_score);
}

TEST(PatternsTest, EmptyModelIsMaximallySurprised) {
  PatternsOfLife model;
  model.Finalize();
  TrajectoryPoint p;
  p.position = GeoPoint(40, 5);
  EXPECT_DOUBLE_EQ(model.Score(p), 1.0);
}

TEST(AnomalyDetectorTest, ThresholdAndRateLimit) {
  PatternsOfLife model;  // empty: everything anomalous
  model.Finalize();
  AnomalyDetector::Options opts;
  opts.threshold = 0.5;
  opts.realert_ms = Minutes(30);
  AnomalyDetector detector(&model, opts);
  TrajectoryPoint p;
  p.t = 1700000000000;
  p.position = GeoPoint(40, 5);
  EXPECT_TRUE(detector.Observe(1, p).has_value());
  p.t += Minutes(5);
  EXPECT_FALSE(detector.Observe(1, p).has_value());  // rate-limited
  p.t += Minutes(40);
  EXPECT_TRUE(detector.Observe(1, p).has_value());
  // A different vessel is not rate-limited by the first.
  EXPECT_TRUE(detector.Observe(2, p).has_value());
}

// --- Forecasters ---------------------------------------------------------

TEST(ForecastTest, DeadReckoningExactOnStraightLine) {
  const Trajectory traj = StraightTrajectory(1, 100, 6.0);
  DeadReckoningForecaster dr;
  const auto samples = EvaluateForecaster(dr, traj, {60.0, 300.0, 600.0});
  ASSERT_FALSE(samples.empty());
  for (const auto& s : samples) {
    EXPECT_LT(s.error_m, 20.0) << "horizon " << s.horizon_s;
  }
}

Trajectory CurvedTrajectory(Mmsi mmsi, double turn_deg_per_step) {
  Trajectory traj;
  traj.mmsi = mmsi;
  GeoPoint pos(40.0, 5.0);
  double course = 90.0;
  for (int i = 0; i < 200; ++i) {
    TrajectoryPoint p;
    p.t = 1700000000000 + static_cast<Timestamp>(i) * 10000;
    p.position = pos;
    p.sog_mps = 6.0f;
    p.cog_deg = static_cast<float>(NormalizeDegrees(course));
    traj.points.push_back(p);
    course += turn_deg_per_step;
    pos = Destination(pos, course, 60.0);
  }
  return traj;
}

TEST(ForecastTest, ConstantTurnBeatsDeadReckoningOnArc) {
  const Trajectory traj = CurvedTrajectory(1, 0.8);
  DeadReckoningForecaster dr;
  ConstantTurnForecaster ct;
  double dr_err = 0, ct_err = 0;
  int n = 0;
  for (const auto& s : EvaluateForecaster(dr, traj, {600.0})) {
    dr_err += s.error_m;
    ++n;
  }
  for (const auto& s : EvaluateForecaster(ct, traj, {600.0})) {
    ct_err += s.error_m;
  }
  ASSERT_GT(n, 0);
  EXPECT_LT(ct_err, dr_err * 0.6);
}

TEST(ForecastTest, FlowFieldBeatsDeadReckoningOnLaneTurns) {
  // Historical traffic follows an L-shaped lane; the flow field learns the
  // corner, dead reckoning sails straight past it. Times derive from actual
  // geodesic distances so SOG is consistent with the motion.
  std::vector<GeoPoint> lane;
  for (int i = 0; i <= 40; ++i) lane.push_back(GeoPoint(40.0, 5.0 + 0.01 * i));
  for (int i = 1; i <= 40; ++i) lane.push_back(GeoPoint(40.0 + 0.01 * i, 5.4));
  constexpr double kSpeed = 6.0;
  auto make_run = [&lane](Mmsi mmsi, double jitter, Rng* rng) {
    Trajectory traj;
    traj.mmsi = mmsi;
    Timestamp t = 1700000000000;
    for (size_t i = 0; i < lane.size(); ++i) {
      TrajectoryPoint p;
      p.t = t;
      p.position = GeoPoint(lane[i].lat + rng->Uniform(-jitter, jitter),
                            lane[i].lon + rng->Uniform(-jitter, jitter));
      p.sog_mps = static_cast<float>(kSpeed);
      p.cog_deg = static_cast<float>(
          i + 1 < lane.size() ? InitialBearing(lane[i], lane[i + 1])
                              : InitialBearing(lane[i - 1], lane[i]));
      traj.points.push_back(p);
      if (i + 1 < lane.size()) {
        t += static_cast<Timestamp>(
            1000.0 * HaversineDistance(lane[i], lane[i + 1]) / kSpeed);
      }
    }
    return traj;
  };
  Rng rng(269);
  FlowFieldForecaster flow;
  for (int v = 0; v < 30; ++v) {
    flow.Train(make_run(100 + v, 0.002, &rng));
  }
  const Trajectory test_run = make_run(999, 0.0, &rng);
  // Evaluate where the 20-minute horizon spans the corner (index 40):
  // samples ~33-39 on the east leg.
  DeadReckoningForecaster dr;
  double dr_err = 0, flow_err = 0;
  int n = 0;
  for (size_t i = 33; i <= 39; ++i) {
    std::vector<TrajectoryPoint> recent(test_run.points.begin(),
                                        test_run.points.begin() + i + 1);
    const Timestamp target = test_run.points[i].t + 1200 * 1000;
    const TrajectoryPoint actual = test_run.At(target);
    dr_err += HaversineDistance(dr.Predict(recent, 1200.0), actual.position);
    flow_err +=
        HaversineDistance(flow.Predict(recent, 1200.0), actual.position);
    ++n;
  }
  ASSERT_GT(n, 0);
  EXPECT_LT(flow_err, dr_err * 0.8);
}

TEST(ForecastTest, ErrorGrowsWithHorizon) {
  const Trajectory traj = CurvedTrajectory(1, 0.5);
  DeadReckoningForecaster dr;
  const auto samples =
      EvaluateForecaster(dr, traj, {60.0, 300.0, 900.0}, 10, 20);
  double err[3] = {0, 0, 0};
  int count[3] = {0, 0, 0};
  for (const auto& s : samples) {
    const int idx = s.horizon_s == 60.0 ? 0 : s.horizon_s == 300.0 ? 1 : 2;
    err[idx] += s.error_m;
    ++count[idx];
  }
  ASSERT_GT(count[0], 0);
  ASSERT_GT(count[2], 0);
  EXPECT_LT(err[0] / count[0], err[1] / count[1]);
  EXPECT_LT(err[1] / count[1], err[2] / count[2]);
}

// --- EnrichmentEngine -------------------------------------------------------

TEST(EnrichmentTest, JoinsAllContextSources) {
  ZoneDatabase zones;
  GeoZone port;
  port.name = "P";
  port.type = ZoneType::kPort;
  port.polygon = Polygon::Circle(GeoPoint(41.35, 2.15), 3000.0);
  const uint32_t port_id = zones.Add(std::move(port));
  WeatherProvider weather(31);
  SourceQualityModel quality;
  VesselRegistry reg_a("marinetraffic"), reg_b("lloyds");
  RegistryRecord rec;
  rec.mmsi = 5;
  rec.name = "SEA STAR";
  rec.flag = "FR";
  rec.ship_type = 30;
  rec.length_m = 25;
  reg_a.Upsert(rec);
  rec.flag = "ES";  // conflict
  reg_b.Upsert(rec);

  EnrichmentEngine engine(&zones, &weather, &reg_a, &reg_b, &quality);
  ReconstructedPoint rp;
  rp.mmsi = 5;
  rp.point.t = 1700000000000;
  rp.point.position = GeoPoint(41.35, 2.15);
  const EnrichedPoint enriched = engine.Enrich(rp);
  ASSERT_EQ(enriched.zone_ids.size(), 1u);
  EXPECT_EQ(enriched.zone_ids[0], port_id);
  EXPECT_GE(enriched.weather.wind_speed_mps, 0.0);
  EXPECT_EQ(enriched.category, ShipCategory::kFishing);
  EXPECT_EQ(enriched.vessel_name, "SEA STAR");
  EXPECT_TRUE(enriched.registry_conflict);
  EXPECT_EQ(engine.stats().registry_conflicts, 1u);
}

TEST(EnrichmentTest, NullSourcesSkipped) {
  EnrichmentEngine engine(nullptr, nullptr, nullptr, nullptr, nullptr);
  ReconstructedPoint rp;
  rp.mmsi = 5;
  rp.point.position = GeoPoint(40, 5);
  const EnrichedPoint enriched = engine.Enrich(rp);
  EXPECT_TRUE(enriched.zone_ids.empty());
  EXPECT_EQ(enriched.category, ShipCategory::kUnknown);
}

}  // namespace
}  // namespace marlin
