#include "storage/trajectory.h"

#include <algorithm>
#include <cmath>

#include "geo/geodesy.h"
#include "storage/coding.h"

namespace marlin {

double Trajectory::LengthMetres() const {
  double total = 0.0;
  for (size_t i = 1; i < points.size(); ++i) {
    total += HaversineDistance(points[i - 1].position, points[i].position);
  }
  return total;
}

BoundingBox Trajectory::Bounds() const {
  BoundingBox box = BoundingBox::Empty();
  for (const auto& p : points) box.Extend(p.position);
  return box;
}

TrajectoryPoint Trajectory::At(Timestamp t) const {
  if (points.empty()) return TrajectoryPoint{};
  if (t <= points.front().t) return points.front();
  if (t >= points.back().t) return points.back();
  // Binary search for the bracketing pair.
  const auto it = std::lower_bound(
      points.begin(), points.end(), t,
      [](const TrajectoryPoint& p, Timestamp ts) { return p.t < ts; });
  const TrajectoryPoint& hi = *it;
  const TrajectoryPoint& lo = *(it - 1);
  if (hi.t == lo.t) return lo;
  const double f = static_cast<double>(t - lo.t) / static_cast<double>(hi.t - lo.t);
  TrajectoryPoint out;
  out.t = t;
  out.position = Interpolate(lo.position, hi.position, f);
  out.sog_mps = static_cast<float>(lo.sog_mps + f * (hi.sog_mps - lo.sog_mps));
  out.cog_deg = lo.cog_deg;  // course is piecewise constant between fixes
  return out;
}

Trajectory Trajectory::Slice(Timestamp t0, Timestamp t1) const {
  Trajectory out;
  out.mmsi = mmsi;
  for (const auto& p : points) {
    if (p.t >= t0 && p.t <= t1) out.points.push_back(p);
  }
  return out;
}

TrajectoryError ComputeSedError(const Trajectory& original,
                                const Trajectory& compressed) {
  TrajectoryError err;
  if (original.points.empty() || compressed.points.empty()) return err;
  double sum = 0.0;
  for (const auto& p : original.points) {
    const TrajectoryPoint q = compressed.At(p.t);
    const double d = HaversineDistance(p.position, q.position);
    sum += d;
    err.max_m = std::max(err.max_m, d);
  }
  err.mean_m = sum / static_cast<double>(original.points.size());
  return err;
}

std::string EncodeTrajectoryKey(uint32_t mmsi, Timestamp t) {
  std::string key;
  key.reserve(12);
  PutFixed32BE(&key, mmsi);
  PutOrderedInt64(&key, t);
  return key;
}

bool DecodeTrajectoryKey(std::string_view key, uint32_t* mmsi, Timestamp* t) {
  if (key.size() != 12) return false;
  *mmsi = GetFixed32BE(key, 0);
  *t = GetOrderedInt64(key, 4);
  return true;
}

}  // namespace marlin
