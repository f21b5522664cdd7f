#ifndef MARLIN_TESTS_REFERENCE_CPA_REFERENCE_H_
#define MARLIN_TESTS_REFERENCE_CPA_REFERENCE_H_

/// \file cpa_reference.h
/// \brief Reference CPA/TCPA: the textbook composition of the geodesy
/// primitives, with every trig call made per pair.
///
/// Midpoint by `Interpolate`, plane by `LocalProjection`, velocities from
/// course and speed. `ComputeCpa` prepares the per-target trig once per
/// observation instead; geo_test requires its results to be bit-identical
/// to this one.

#include <cmath>

#include "common/units.h"
#include "geo/geodesy.h"
#include "geo/kinematics.h"

namespace marlin::reference {

inline CpaResult ReferenceCpa(const MotionState& a, const MotionState& b) {
  const GeoPoint mid = Interpolate(a.position, b.position, 0.5);
  const LocalProjection proj(mid);
  const EnuPoint pa = proj.Project(a.position);
  const EnuPoint pb = proj.Project(b.position);
  const double vax = a.speed_mps * std::sin(DegToRad(a.course_deg));
  const double vay = a.speed_mps * std::cos(DegToRad(a.course_deg));
  const double vbx = b.speed_mps * std::sin(DegToRad(b.course_deg));
  const double vby = b.speed_mps * std::cos(DegToRad(b.course_deg));

  const double dx = pb.east - pa.east;
  const double dy = pb.north - pa.north;
  const double dvx = vbx - vax;
  const double dvy = vby - vay;

  const double dv2 = dvx * dvx + dvy * dvy;
  CpaResult result;
  if (dv2 < 1e-9) {
    result.distance_m = std::sqrt(dx * dx + dy * dy);
    return result;
  }
  const double tcpa = -(dx * dvx + dy * dvy) / dv2;
  if (tcpa <= 0.0) {
    result.distance_m = std::sqrt(dx * dx + dy * dy);
    return result;
  }
  const double cx = dx + dvx * tcpa;
  const double cy = dy + dvy * tcpa;
  result.tcpa_s = tcpa;
  result.distance_m = std::sqrt(cx * cx + cy * cy);
  result.converging = true;
  return result;
}

}  // namespace marlin::reference

#endif  // MARLIN_TESTS_REFERENCE_CPA_REFERENCE_H_
