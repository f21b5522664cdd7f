#ifndef MARLIN_GEO_KINEMATICS_H_
#define MARLIN_GEO_KINEMATICS_H_

/// \file kinematics.h
/// \brief Relative-motion computations: CPA/TCPA for collision-risk events.

#include "geo/point.h"

namespace marlin {

/// \brief A moving target in geographic space.
struct MotionState {
  GeoPoint position;
  double speed_mps = 0.0;    ///< speed over ground, metres/second
  double course_deg = 0.0;   ///< course over ground, degrees true
};

/// \brief Result of a closest-point-of-approach computation.
struct CpaResult {
  double tcpa_s = 0.0;      ///< time to CPA in seconds (0 if diverging now)
  double distance_m = 0.0;  ///< separation at CPA, metres
  bool converging = false;  ///< true iff TCPA > 0 (closing geometry)
};

/// \brief The per-target part of a CPA computation: the trig of the
/// position and the velocity components. A stream consumer prepares each
/// target once per observation and pairs it with many neighbours; only the
/// pair-dependent trig (separation, midpoint) is left per pair.
struct PreparedMotion {
  GeoPoint position;
  double sin_lat = 0.0, cos_lat = 0.0;  ///< of the latitude in radians
  double sin_lon = 0.0, cos_lon = 0.0;  ///< of the longitude in radians
  double v_east = 0.0;                  ///< metres/second
  double v_north = 0.0;                 ///< metres/second
};

/// \brief Prepares `s` for `ComputeCpa`.
PreparedMotion PrepareMotion(const MotionState& s);

/// \brief Closest point of approach between two targets under constant
/// velocity, computed in a local tangent plane around the great-circle
/// midpoint.
///
/// When the relative speed is ~0 the current separation is returned with
/// `tcpa_s == 0`. Negative analytic TCPA (already past CPA) is clamped to 0
/// with `converging == false`, matching watch-keeping practice.
CpaResult ComputeCpa(const PreparedMotion& a, const PreparedMotion& b);

/// \brief `ComputeCpa` over unprepared targets.
inline CpaResult ComputeCpa(const MotionState& a, const MotionState& b) {
  return ComputeCpa(PrepareMotion(a), PrepareMotion(b));
}

/// \brief Dead-reckoned position after `dt_s` seconds of constant speed and
/// course (great-circle advance).
GeoPoint DeadReckon(const MotionState& s, double dt_s);

}  // namespace marlin

#endif  // MARLIN_GEO_KINEMATICS_H_
