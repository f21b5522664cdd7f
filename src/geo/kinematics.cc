#include "geo/kinematics.h"

#include <algorithm>
#include <cmath>

#include "common/units.h"
#include "geo/geodesy.h"

namespace marlin {

namespace {

// Interpolate(a, b, 0.5) — HaversineDistance included — with the
// per-target trig read from the prepared states. Every remaining
// floating-point operation is the original one in the original order, so
// the midpoint is bit-identical.
GeoPoint Midpoint(const PreparedMotion& a, const PreparedMotion& b) {
  const double dphi = DegToRad(b.position.lat - a.position.lat);
  const double dlam = DegToRad(b.position.lon - a.position.lon);
  const double s1 = std::sin(dphi / 2);
  const double s2 = std::sin(dlam / 2);
  const double h = s1 * s1 + a.cos_lat * b.cos_lat * s2 * s2;
  const double d = 2.0 * kEarthRadiusMetres *
                   std::asin(std::min(1.0, std::sqrt(h))) / kEarthRadiusMetres;
  if (d < 1e-12) return a.position;
  const double sin_d = std::sin(d);
  // Interpolate's two weights sin((1 - 0.5)·d) and sin(0.5·d) are one
  // value: 1.0 - 0.5 is exact.
  const double f = std::sin(0.5 * d) / sin_d;
  const double x = f * a.cos_lat * a.cos_lon + f * b.cos_lat * b.cos_lon;
  const double y = f * a.cos_lat * a.sin_lon + f * b.cos_lat * b.sin_lon;
  const double z = f * a.sin_lat + f * b.sin_lat;
  const double phi = std::atan2(z, std::sqrt(x * x + y * y));
  const double lam = std::atan2(y, x);
  return GeoPoint(RadToDeg(phi), NormalizeLongitude(RadToDeg(lam)));
}

}  // namespace

PreparedMotion PrepareMotion(const MotionState& s) {
  PreparedMotion m;
  m.position = s.position;
  const double phi = DegToRad(s.position.lat);
  const double lam = DegToRad(s.position.lon);
  m.sin_lat = std::sin(phi);
  m.cos_lat = std::cos(phi);
  m.sin_lon = std::sin(lam);
  m.cos_lon = std::cos(lam);
  // Course is degrees true (0=N, clockwise), so east = v*sin(theta),
  // north = v*cos(theta).
  m.v_east = s.speed_mps * std::sin(DegToRad(s.course_deg));
  m.v_north = s.speed_mps * std::cos(DegToRad(s.course_deg));
  return m;
}

CpaResult ComputeCpa(const PreparedMotion& a, const PreparedMotion& b) {
  const LocalProjection proj(Midpoint(a, b));
  const EnuPoint pa = proj.Project(a.position);
  const EnuPoint pb = proj.Project(b.position);

  const double dx = pb.east - pa.east;
  const double dy = pb.north - pa.north;
  const double dvx = b.v_east - a.v_east;
  const double dvy = b.v_north - a.v_north;

  const double dv2 = dvx * dvx + dvy * dvy;
  CpaResult result;
  if (dv2 < 1e-9) {
    result.tcpa_s = 0.0;
    result.distance_m = std::sqrt(dx * dx + dy * dy);
    result.converging = false;
    return result;
  }
  const double tcpa = -(dx * dvx + dy * dvy) / dv2;
  if (tcpa <= 0.0) {
    result.tcpa_s = 0.0;
    result.distance_m = std::sqrt(dx * dx + dy * dy);
    result.converging = false;
    return result;
  }
  const double cx = dx + dvx * tcpa;
  const double cy = dy + dvy * tcpa;
  result.tcpa_s = tcpa;
  result.distance_m = std::sqrt(cx * cx + cy * cy);
  result.converging = true;
  return result;
}

GeoPoint DeadReckon(const MotionState& s, double dt_s) {
  return Destination(s.position, s.course_deg, s.speed_mps * dt_s);
}

}  // namespace marlin
