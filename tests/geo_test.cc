// Unit tests for marlin_geo: geodesy, geometry, kinematics.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "common/rng.h"
#include "common/units.h"
#include "geo/geodesy.h"
#include "geo/geometry.h"
#include "geo/kinematics.h"
#include "reference/cpa_reference.h"

namespace marlin {
namespace {

// --- GeoPoint ---------------------------------------------------------------

TEST(GeoPointTest, ValidityRules) {
  EXPECT_TRUE(GeoPoint(0, 0).IsValid());
  EXPECT_TRUE(GeoPoint(-90, -180).IsValid());
  EXPECT_TRUE(GeoPoint(90, 180).IsValid());
  EXPECT_FALSE(GeoPoint().IsValid());  // AIS "not available" default
  EXPECT_FALSE(GeoPoint(91, 0).IsValid());
  EXPECT_FALSE(GeoPoint(0, 181).IsValid());
  EXPECT_FALSE(GeoPoint(NAN, 0).IsValid());
}

// --- Haversine --------------------------------------------------------------

TEST(GeodesyTest, HaversineZeroDistance) {
  const GeoPoint p(43.0, 5.0);
  EXPECT_DOUBLE_EQ(HaversineDistance(p, p), 0.0);
}

TEST(GeodesyTest, HaversineOneDegreeLatitude) {
  // 1 degree of latitude ≈ 111.2 km on the mean sphere.
  const double d =
      HaversineDistance(GeoPoint(40.0, 5.0), GeoPoint(41.0, 5.0));
  EXPECT_NEAR(d, 111195.0, 100.0);
}

TEST(GeodesyTest, HaversineEquatorLongitude) {
  const double d = HaversineDistance(GeoPoint(0.0, 0.0), GeoPoint(0.0, 1.0));
  EXPECT_NEAR(d, 111195.0, 100.0);
}

TEST(GeodesyTest, HaversineSymmetric) {
  const GeoPoint a(36.9, -5.2), b(43.2, 8.1);
  EXPECT_DOUBLE_EQ(HaversineDistance(a, b), HaversineDistance(b, a));
}

TEST(GeodesyTest, HaversineAntipodal) {
  const double d =
      HaversineDistance(GeoPoint(0.0, 0.0), GeoPoint(0.0, 180.0));
  EXPECT_NEAR(d, kPi * kEarthRadiusMetres, 1.0);
}

// --- Bearing / destination ----------------------------------------------

TEST(GeodesyTest, BearingCardinalDirections) {
  const GeoPoint origin(40.0, 5.0);
  EXPECT_NEAR(InitialBearing(origin, GeoPoint(41.0, 5.0)), 0.0, 1e-9);
  EXPECT_NEAR(InitialBearing(origin, GeoPoint(39.0, 5.0)), 180.0, 1e-9);
  EXPECT_NEAR(InitialBearing(origin, GeoPoint(40.0, 6.0)), 90.0, 0.5);
  EXPECT_NEAR(InitialBearing(origin, GeoPoint(40.0, 4.0)), 270.0, 0.5);
}

TEST(GeodesyTest, DestinationRoundTrip) {
  Rng rng(31);
  for (int i = 0; i < 200; ++i) {
    const GeoPoint origin(rng.Uniform(-60, 60), rng.Uniform(-170, 170));
    const double bearing = rng.Uniform(0, 360);
    const double dist = rng.Uniform(10.0, 200000.0);
    const GeoPoint dest = Destination(origin, bearing, dist);
    EXPECT_NEAR(HaversineDistance(origin, dest), dist, dist * 1e-9 + 1e-6);
    EXPECT_NEAR(AngleDifference(InitialBearing(origin, dest), bearing), 0.0,
                0.01);
  }
}

TEST(GeodesyTest, InterpolateEndpoints) {
  const GeoPoint a(36.0, -5.0), b(43.0, 8.0);
  EXPECT_EQ(Interpolate(a, b, 0.0), a);
  EXPECT_EQ(Interpolate(a, b, 1.0), b);
}

TEST(GeodesyTest, InterpolateMidpointOnPath) {
  const GeoPoint a(40.0, 0.0), b(40.0, 10.0);
  const GeoPoint mid = Interpolate(a, b, 0.5);
  const double d_am = HaversineDistance(a, mid);
  const double d_mb = HaversineDistance(mid, b);
  EXPECT_NEAR(d_am, d_mb, 1.0);
  // A great circle between equal latitudes passes poleward of them.
  EXPECT_GT(mid.lat, 40.0);
}

TEST(GeodesyTest, InterpolateFractionProportional) {
  const GeoPoint a(10.0, 10.0), b(12.0, 14.0);
  const double total = HaversineDistance(a, b);
  for (double f : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    const GeoPoint p = Interpolate(a, b, f);
    EXPECT_NEAR(HaversineDistance(a, p), f * total, total * 1e-6);
  }
}

// --- Cross-track / along-track -------------------------------------------

TEST(GeodesyTest, CrossTrackSignConvention) {
  const GeoPoint start(40.0, 0.0), end(40.0, 2.0);
  // North of an eastbound path = left = negative.
  EXPECT_LT(CrossTrackDistance(GeoPoint(40.2, 1.0), start, end), 0.0);
  EXPECT_GT(CrossTrackDistance(GeoPoint(39.8, 1.0), start, end), 0.0);
}

TEST(GeodesyTest, CrossTrackMagnitude) {
  const GeoPoint start(0.0, 0.0), end(0.0, 2.0);
  const double d = std::abs(
      CrossTrackDistance(GeoPoint(0.5, 1.0), start, end));
  EXPECT_NEAR(d, HaversineDistance(GeoPoint(0.5, 1.0), GeoPoint(0.0, 1.0)),
              200.0);
}

TEST(GeodesyTest, AlongTrackBehindStartIsNegative) {
  const GeoPoint start(0.0, 1.0), end(0.0, 2.0);
  EXPECT_LT(AlongTrackDistance(GeoPoint(0.0, 0.5), start, end), 0.0);
  EXPECT_GT(AlongTrackDistance(GeoPoint(0.0, 1.5), start, end), 0.0);
}

TEST(GeodesyTest, DistanceToSegmentClamps) {
  const GeoPoint a(0.0, 0.0), b(0.0, 1.0);
  // Beyond the end: distance to endpoint, not the infinite great circle.
  const GeoPoint beyond(0.0, 1.5);
  EXPECT_NEAR(DistanceToSegment(beyond, a, b),
              HaversineDistance(beyond, b), 1.0);
  const GeoPoint before(0.0, -0.5);
  EXPECT_NEAR(DistanceToSegment(before, a, b),
              HaversineDistance(before, a), 1.0);
  // Abeam the middle: the cross-track distance.
  const GeoPoint abeam(0.3, 0.5);
  EXPECT_NEAR(DistanceToSegment(abeam, a, b),
              std::abs(CrossTrackDistance(abeam, a, b)), 1.0);
}

// --- Rhumb lines -------------------------------------------------------------

TEST(GeodesyTest, RhumbAlongMeridianEqualsGreatCircle) {
  const GeoPoint a(10.0, 5.0), b(20.0, 5.0);
  EXPECT_NEAR(RhumbDistance(a, b), HaversineDistance(a, b), 10.0);
  EXPECT_NEAR(RhumbBearing(a, b), 0.0, 1e-9);
}

TEST(GeodesyTest, RhumbIsLongerThanGreatCircle) {
  const GeoPoint a(40.0, -70.0), b(50.0, 0.0);  // transatlantic
  EXPECT_GE(RhumbDistance(a, b), HaversineDistance(a, b));
}

TEST(GeodesyTest, RhumbBearingConstantEastAtEquator) {
  EXPECT_NEAR(RhumbBearing(GeoPoint(0, 0), GeoPoint(0, 10)), 90.0, 1e-9);
}

// --- LocalProjection ---------------------------------------------------------

TEST(ProjectionTest, RoundTripNearOrigin) {
  const LocalProjection proj(GeoPoint(43.0, 5.0));
  Rng rng(37);
  for (int i = 0; i < 200; ++i) {
    const GeoPoint p(43.0 + rng.Uniform(-0.5, 0.5),
                     5.0 + rng.Uniform(-0.5, 0.5));
    const GeoPoint back = proj.Unproject(proj.Project(p));
    EXPECT_NEAR(back.lat, p.lat, 1e-9);
    EXPECT_NEAR(back.lon, p.lon, 1e-9);
  }
}

TEST(ProjectionTest, DistancesMatchHaversine) {
  const LocalProjection proj(GeoPoint(43.0, 5.0));
  const GeoPoint a(43.1, 5.1), b(42.95, 4.9);
  const double enu_dist = (proj.Project(a) - proj.Project(b)).Norm();
  const double hav = HaversineDistance(a, b);
  EXPECT_NEAR(enu_dist, hav, hav * 0.002);
}

TEST(ProjectionTest, AxesOrientation) {
  const LocalProjection proj(GeoPoint(40.0, 5.0));
  EXPECT_GT(proj.Project(GeoPoint(40.1, 5.0)).north, 0.0);
  EXPECT_NEAR(proj.Project(GeoPoint(40.1, 5.0)).east, 0.0, 1e-9);
  EXPECT_GT(proj.Project(GeoPoint(40.0, 5.1)).east, 0.0);
}

// --- BoundingBox ---------------------------------------------------------

TEST(BoundingBoxTest, EmptyAndExtend) {
  BoundingBox box = BoundingBox::Empty();
  EXPECT_TRUE(box.IsEmpty());
  box.Extend(GeoPoint(10, 20));
  EXPECT_FALSE(box.IsEmpty());
  EXPECT_TRUE(box.Contains(GeoPoint(10, 20)));
  box.Extend(GeoPoint(12, 18));
  EXPECT_TRUE(box.Contains(GeoPoint(11, 19)));
  EXPECT_FALSE(box.Contains(GeoPoint(9, 19)));
}

TEST(BoundingBoxTest, IntersectionCases) {
  const BoundingBox a(0, 0, 10, 10);
  EXPECT_TRUE(a.Intersects(BoundingBox(5, 5, 15, 15)));
  EXPECT_TRUE(a.Intersects(BoundingBox(10, 10, 20, 20)));  // corner touch
  EXPECT_FALSE(a.Intersects(BoundingBox(11, 0, 20, 10)));
  EXPECT_TRUE(a.Intersects(BoundingBox(2, 2, 3, 3)));  // containment
}

TEST(BoundingBoxTest, ExpandedAndCenter) {
  const BoundingBox box(10, 20, 12, 24);
  const BoundingBox big = box.Expanded(1.0);
  EXPECT_TRUE(big.Contains(GeoPoint(9.5, 19.5)));
  const GeoPoint c = box.Center();
  EXPECT_DOUBLE_EQ(c.lat, 11.0);
  EXPECT_DOUBLE_EQ(c.lon, 22.0);
}

// --- Polygon -------------------------------------------------------------

TEST(PolygonTest, SquareContainment) {
  const Polygon square({GeoPoint(0, 0), GeoPoint(0, 10), GeoPoint(10, 10),
                        GeoPoint(10, 0)});
  EXPECT_TRUE(square.Contains(GeoPoint(5, 5)));
  EXPECT_FALSE(square.Contains(GeoPoint(15, 5)));
  EXPECT_FALSE(square.Contains(GeoPoint(-1, 5)));
}

TEST(PolygonTest, ConcavePolygon) {
  // A "U" shape: the notch is outside.
  const Polygon u({GeoPoint(0, 0), GeoPoint(0, 10), GeoPoint(10, 10),
                   GeoPoint(10, 6), GeoPoint(4, 6), GeoPoint(4, 4),
                   GeoPoint(10, 4), GeoPoint(10, 0)});
  EXPECT_TRUE(u.Contains(GeoPoint(2, 5)));
  EXPECT_FALSE(u.Contains(GeoPoint(7, 5)));  // inside the notch
  EXPECT_TRUE(u.Contains(GeoPoint(7, 8)));
}

TEST(PolygonTest, CircleApproximation) {
  const GeoPoint centre(40.0, 5.0);
  const Polygon circle = Polygon::Circle(centre, 5000.0, 32);
  EXPECT_TRUE(circle.Contains(centre));
  EXPECT_TRUE(circle.Contains(Destination(centre, 123.0, 4000.0)));
  EXPECT_FALSE(circle.Contains(Destination(centre, 45.0, 6000.0)));
}

TEST(PolygonTest, DistanceToBoundary) {
  const Polygon square({GeoPoint(0, 0), GeoPoint(0, 1), GeoPoint(1, 1),
                        GeoPoint(1, 0)});
  const double d = square.DistanceToBoundary(GeoPoint(0.5, 0.5));
  // Half a degree ≈ 55.6 km to the nearest edge.
  EXPECT_NEAR(d, 55597.0, 600.0);
}

TEST(PolygonTest, EmptyPolygonContainsNothing) {
  Polygon empty;
  EXPECT_TRUE(empty.IsEmpty());
  EXPECT_FALSE(empty.Contains(GeoPoint(0, 0)));
}

// --- Convex hull ----------------------------------------------------------

TEST(ConvexHullTest, SquareWithInteriorPoints) {
  std::vector<GeoPoint> pts = {GeoPoint(0, 0), GeoPoint(0, 10),
                               GeoPoint(10, 10), GeoPoint(10, 0),
                               GeoPoint(5, 5), GeoPoint(2, 7)};
  const auto hull = ConvexHull(pts);
  EXPECT_EQ(hull.size(), 4u);
}

TEST(ConvexHullTest, CollinearPointsCollapse) {
  std::vector<GeoPoint> pts = {GeoPoint(0, 0), GeoPoint(0, 5),
                               GeoPoint(0, 10)};
  const auto hull = ConvexHull(pts);
  EXPECT_EQ(hull.size(), 2u);
}

TEST(ConvexHullTest, HullContainsAllPoints) {
  Rng rng(41);
  std::vector<GeoPoint> pts;
  for (int i = 0; i < 100; ++i) {
    pts.push_back(GeoPoint(rng.Uniform(0, 10), rng.Uniform(0, 10)));
  }
  const Polygon hull(ConvexHull(pts));
  for (const auto& p : pts) {
    EXPECT_TRUE(hull.Contains(p) || hull.DistanceToBoundary(p) < 1000.0);
  }
}

// --- Polyline ops -----------------------------------------------------------

TEST(PolylineTest, LengthOfStraightLine) {
  const std::vector<GeoPoint> line = {GeoPoint(0, 0), GeoPoint(0, 1),
                                      GeoPoint(0, 2)};
  EXPECT_NEAR(PolylineLength(line),
              HaversineDistance(GeoPoint(0, 0), GeoPoint(0, 2)), 1.0);
}

TEST(PolylineTest, DouglasPeuckerRemovesCollinear) {
  // A meridian is a great circle, so intermediate points are exactly on the
  // path (a constant-latitude parallel would NOT be: it bulges ~120 m per
  // degree of longitude at mid-latitudes).
  std::vector<GeoPoint> line;
  for (int i = 0; i <= 100; ++i) {
    line.push_back(GeoPoint(40.0 + 0.01 * i, 5.0));
  }
  const auto simplified = SimplifyDouglasPeucker(line, 50.0);
  EXPECT_EQ(simplified.size(), 2u);
}

TEST(PolylineTest, DouglasPeuckerKeepsCorner) {
  std::vector<GeoPoint> line;
  for (int i = 0; i <= 50; ++i) line.push_back(GeoPoint(40.0, 5.0 + 0.01 * i));
  for (int i = 1; i <= 50; ++i) line.push_back(GeoPoint(40.0 + 0.01 * i, 5.5));
  const auto simplified = SimplifyDouglasPeucker(line, 50.0);
  ASSERT_GE(simplified.size(), 3u);
  // The corner point must survive.
  bool found_corner = false;
  for (const auto& p : simplified) {
    if (std::abs(p.lat - 40.0) < 1e-9 && std::abs(p.lon - 5.5) < 1e-9) {
      found_corner = true;
    }
  }
  EXPECT_TRUE(found_corner);
}

TEST(PolylineTest, DouglasPeuckerErrorBound) {
  // Property: every original point is within tolerance of the simplified line.
  Rng rng(43);
  std::vector<GeoPoint> line;
  double lat = 40.0, lon = 5.0;
  for (int i = 0; i < 200; ++i) {
    lat += rng.Uniform(-0.01, 0.012);
    lon += rng.Uniform(0.0, 0.02);
    line.push_back(GeoPoint(lat, lon));
  }
  const double tol = 500.0;
  const auto simplified = SimplifyDouglasPeucker(line, tol);
  EXPECT_LT(simplified.size(), line.size());
  for (const auto& p : line) {
    EXPECT_LE(DistanceToPolyline(p, simplified), tol * 1.01);
  }
}

TEST(PolylineTest, ResampleCountAndEndpoints) {
  const std::vector<GeoPoint> line = {GeoPoint(0, 0), GeoPoint(0, 2)};
  const auto resampled = ResamplePolyline(line, 5);
  ASSERT_EQ(resampled.size(), 5u);
  EXPECT_EQ(resampled.front(), line.front());
  EXPECT_NEAR(resampled.back().lon, 2.0, 1e-6);
  // Equal spacing.
  const double d01 = HaversineDistance(resampled[0], resampled[1]);
  const double d12 = HaversineDistance(resampled[1], resampled[2]);
  EXPECT_NEAR(d01, d12, d01 * 0.01);
}

// --- CPA / kinematics ------------------------------------------------------

TEST(CpaTest, HeadOnCollisionCourse) {
  MotionState a, b;
  a.position = GeoPoint(40.0, 5.0);
  a.speed_mps = 5.0;
  a.course_deg = 90.0;  // east
  b.position = Destination(a.position, 90.0, 10000.0);
  b.speed_mps = 5.0;
  b.course_deg = 270.0;  // west, toward a
  const CpaResult cpa = ComputeCpa(a, b);
  EXPECT_TRUE(cpa.converging);
  EXPECT_NEAR(cpa.tcpa_s, 1000.0, 5.0);  // 10 km at 10 m/s closing
  EXPECT_LT(cpa.distance_m, 50.0);
}

TEST(CpaTest, ParallelCoursesNeverConverge) {
  MotionState a, b;
  a.position = GeoPoint(40.0, 5.0);
  a.speed_mps = 6.0;
  a.course_deg = 0.0;
  b.position = Destination(a.position, 90.0, 2000.0);
  b.speed_mps = 6.0;
  b.course_deg = 0.0;
  const CpaResult cpa = ComputeCpa(a, b);
  EXPECT_FALSE(cpa.converging);
  EXPECT_NEAR(cpa.distance_m, 2000.0, 20.0);
}

TEST(CpaTest, DivergingShipsReportCurrentDistance) {
  MotionState a, b;
  a.position = GeoPoint(40.0, 5.0);
  a.speed_mps = 5.0;
  a.course_deg = 270.0;
  b.position = Destination(a.position, 90.0, 3000.0);
  b.speed_mps = 5.0;
  b.course_deg = 90.0;
  const CpaResult cpa = ComputeCpa(a, b);
  EXPECT_FALSE(cpa.converging);
  EXPECT_NEAR(cpa.distance_m, 3000.0, 30.0);
  EXPECT_DOUBLE_EQ(cpa.tcpa_s, 0.0);
}

TEST(CpaTest, CrossingGeometry) {
  // B crosses A's bow: CPA below separation but above zero.
  MotionState a, b;
  a.position = GeoPoint(40.0, 5.0);
  a.speed_mps = 5.0;
  a.course_deg = 0.0;  // north
  b.position = Destination(Destination(a.position, 0.0, 5000.0), 90.0, 5000.0);
  b.speed_mps = 5.0;
  b.course_deg = 270.0;  // west
  const CpaResult cpa = ComputeCpa(a, b);
  EXPECT_TRUE(cpa.converging);
  EXPECT_GT(cpa.distance_m, 0.0);
  EXPECT_LT(cpa.distance_m, 5000.0);
}

// Seeded pair generator for the bit-identity check: each class aims at a
// branch or a numerically delicate corner of the CPA computation.
std::pair<MotionState, MotionState> CpaPair(Rng* rng, int kind) {
  MotionState a, b;
  a.position = GeoPoint(rng->Uniform(-85.0, 85.0), rng->Uniform(-180.0, 180.0));
  a.speed_mps = rng->Uniform(0.0, 15.0);
  a.course_deg = rng->Uniform(0.0, 360.0);
  b.speed_mps = rng->Uniform(0.0, 15.0);
  b.course_deg = rng->Uniform(0.0, 360.0);
  b.position = Destination(a.position, rng->Uniform(0.0, 360.0),
                           rng->Uniform(0.0, 12000.0));
  switch (kind) {
    case 0:  // the default draw: neighbours within a collision scan radius
      break;
    case 1:  // anywhere on the globe
      b.position =
          GeoPoint(rng->Uniform(-90.0, 90.0), rng->Uniform(-180.0, 180.0));
      break;
    case 2: {  // coincident or nearly (midpoint shortcut at d < 1e-12)
      const double eps = rng->NextBounded(2) ? 0.0 : rng->Uniform(0.0, 2e-10);
      b.position = GeoPoint(a.position.lat + eps, a.position.lon - eps);
      break;
    }
    case 3:  // near-zero relative velocity (dv² around 1e-9)
      b.course_deg = a.course_deg;
      b.speed_mps = a.speed_mps + (rng->NextBounded(3) == 0
                                       ? 0.0
                                       : rng->Uniform(-6e-5, 6e-5));
      break;
    case 4: {  // straddling the antimeridian
      const double east = 180.0 - rng->Uniform(0.0, 0.05);
      const double west = -180.0 + rng->Uniform(0.0, 0.05);
      a.position.lon = rng->NextBounded(8) == 0 ? -180.0 : west;
      b.position = GeoPoint(a.position.lat + rng->Uniform(-0.05, 0.05),
                            rng->NextBounded(8) == 0 ? 180.0 : east);
      break;
    }
    default: {  // high latitudes, poles included
      const double sign = rng->NextBounded(2) ? 1.0 : -1.0;
      a.position.lat = rng->NextBounded(16) == 0
                           ? sign * 90.0
                           : sign * rng->Uniform(80.0, 90.0);
      b.position = GeoPoint(
          std::clamp(a.position.lat + rng->Uniform(-0.1, 0.1), -90.0, 90.0),
          rng->Uniform(-180.0, 180.0));
      break;
    }
  }
  return {a, b};
}

TEST(CpaTest, PreparedFormBitIdenticalToReference) {
  Rng rng(2024);
  size_t converging = 0;
  for (int i = 0; i < 120000; ++i) {
    const auto [a, b] = CpaPair(&rng, i % 6);
    const CpaResult got = ComputeCpa(a, b);
    const CpaResult want = reference::ReferenceCpa(a, b);
    ASSERT_EQ(std::bit_cast<uint64_t>(got.tcpa_s),
              std::bit_cast<uint64_t>(want.tcpa_s))
        << "pair " << i;
    ASSERT_EQ(std::bit_cast<uint64_t>(got.distance_m),
              std::bit_cast<uint64_t>(want.distance_m))
        << "pair " << i;
    ASSERT_EQ(got.converging, want.converging) << "pair " << i;
    converging += got.converging;
  }
  EXPECT_GT(converging, 10000u);
}

TEST(DeadReckonTest, AdvancesAlongCourse) {
  MotionState s;
  s.position = GeoPoint(40.0, 5.0);
  s.speed_mps = 10.0;
  s.course_deg = 90.0;
  const GeoPoint p = DeadReckon(s, 600.0);
  EXPECT_NEAR(HaversineDistance(s.position, p), 6000.0, 1.0);
  EXPECT_NEAR(InitialBearing(s.position, p), 90.0, 0.1);
}

}  // namespace
}  // namespace marlin
