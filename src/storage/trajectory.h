#ifndef MARLIN_STORAGE_TRAJECTORY_H_
#define MARLIN_STORAGE_TRAJECTORY_H_

/// \file trajectory.h
/// \brief Vessel trajectory representation and key encodings for archival.

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"
#include "geo/geometry.h"
#include "geo/point.h"

namespace marlin {

/// \brief One cleaned trajectory sample.
///
/// The kinematics fields carry availability: a report whose SOG/COG arrived
/// as the ITU "not available" sentinel is stored as `kUnavailable` (one
/// fixed quiet-NaN bit pattern) rather than being collapsed to 0.0 — a
/// vessel with missing kinematics is *not* a vessel that is stopped and
/// heading due north. Consumers test `HasSpeed()`/`HasCourse()` before
/// using the fields. The single canonical bit pattern is what lets
/// availability survive the archive's raw-float-bit encodings
/// byte-identically.
struct TrajectoryPoint {
  static constexpr uint32_t kUnavailableBits = 0x7FC00000u;  ///< quiet NaN
  static constexpr float Unavailable() {
    return std::bit_cast<float>(kUnavailableBits);
  }

  Timestamp t = kInvalidTimestamp;
  GeoPoint position;
  float sog_mps = 0.0f;   ///< speed over ground, m/s; NaN = not available
  float cog_deg = 0.0f;   ///< course over ground, deg true; NaN = not available

  bool HasSpeed() const { return !std::isnan(sog_mps); }
  bool HasCourse() const { return !std::isnan(cog_deg); }

  bool operator<(const TrajectoryPoint& o) const { return t < o.t; }
};

/// \brief A time-ordered sequence of samples for one vessel.
struct Trajectory {
  uint32_t mmsi = 0;
  std::vector<TrajectoryPoint> points;

  bool Empty() const { return points.empty(); }
  Timestamp StartTime() const {
    return points.empty() ? kInvalidTimestamp : points.front().t;
  }
  Timestamp EndTime() const {
    return points.empty() ? kInvalidTimestamp : points.back().t;
  }

  /// \brief Total geodesic path length in metres.
  double LengthMetres() const;

  /// \brief Spatial bounds of the whole path.
  BoundingBox Bounds() const;

  /// \brief Linear position interpolation at time `t`; clamps outside the
  /// observed span. Returns invalid point for empty trajectories.
  TrajectoryPoint At(Timestamp t) const;

  /// \brief Sub-trajectory covering [t0, t1] (points inside the range).
  Trajectory Slice(Timestamp t0, Timestamp t1) const;
};

/// \brief Mean / max synchronized Euclidean distance between an original
/// trajectory and its compressed version — the standard error measure for
/// trajectory synopses (experiment E2).
struct TrajectoryError {
  double mean_m = 0.0;
  double max_m = 0.0;
};

/// \brief Computes SED error of `compressed` against every sample of
/// `original` (positions of `compressed` interpolated at original times).
TrajectoryError ComputeSedError(const Trajectory& original,
                                const Trajectory& compressed);

// --- Archival key/value encoding (LsmStore schema) -------------------------

/// \brief Archival key `[mmsi:4 BE][timestamp:8 ordered]` — per-vessel time
/// ranges are contiguous byte ranges.
std::string EncodeTrajectoryKey(uint32_t mmsi, Timestamp t);

/// \brief Inverse of EncodeTrajectoryKey. Returns false on malformed keys.
bool DecodeTrajectoryKey(std::string_view key, uint32_t* mmsi, Timestamp* t);

}  // namespace marlin

#endif  // MARLIN_STORAGE_TRAJECTORY_H_
