#include "storage/trajectory_store.h"

#include <algorithm>

namespace marlin {

TrajectoryStore::TrajectoryStore(const Options& options)
    : live_index_(options.grid_cell_deg) {}

Status TrajectoryStore::Append(uint32_t mmsi, const TrajectoryPoint& point) {
  if (point.t == kInvalidTimestamp || !point.position.IsValid()) {
    return Status::Invalid("trajectory point needs valid time and position");
  }
  VesselData& data = trajectories_[mmsi];
  if (!data.trajectory.points.empty() &&
      point.t < data.trajectory.points.back().t) {
    return Status::Invalid(
        "out-of-order append; reconstruction must order samples");
  }
  data.trajectory.mmsi = mmsi;
  data.trajectory.points.push_back(point);
  data.bounds.Extend(point.position);
  live_index_.Upsert(mmsi, point.position);
  ++point_count_;
  return Status::OK();
}

Result<const Trajectory*> TrajectoryStore::GetTrajectory(uint32_t mmsi) const {
  auto it = trajectories_.find(mmsi);
  if (it == trajectories_.end()) {
    return Status::NotFound("no trajectory for mmsi " + std::to_string(mmsi));
  }
  return &it->second.trajectory;
}

Result<Trajectory> TrajectoryStore::GetTrajectorySlice(uint32_t mmsi,
                                                       Timestamp t0,
                                                       Timestamp t1) const {
  MARLIN_ASSIGN_OR_RETURN(const Trajectory* full, GetTrajectory(mmsi));
  return full->Slice(t0, t1);
}

std::optional<TrajectoryPoint> TrajectoryStore::Latest(uint32_t mmsi) const {
  auto it = trajectories_.find(mmsi);
  if (it == trajectories_.end() || it->second.trajectory.points.empty()) {
    return std::nullopt;
  }
  return it->second.trajectory.points.back();
}

std::vector<uint32_t> TrajectoryStore::QueryLive(const BoundingBox& box) const {
  std::vector<uint32_t> out;
  for (uint64_t id : live_index_.Query(box)) {
    out.push_back(static_cast<uint32_t>(id));
  }
  return out;
}

std::vector<std::pair<uint32_t, double>> TrajectoryStore::NearestLive(
    const GeoPoint& p, size_t k) const {
  std::vector<std::pair<uint32_t, double>> out;
  for (const auto& [id, dist] : live_index_.Nearest(p, k)) {
    out.emplace_back(static_cast<uint32_t>(id), dist);
  }
  return out;
}

std::vector<Trajectory> TrajectoryStore::QueryWindow(const BoundingBox& box,
                                                     Timestamp t0,
                                                     Timestamp t1) const {
  std::vector<Trajectory> out;
  for (const auto& [mmsi, data] : trajectories_) {
    if (!data.bounds.Intersects(box)) continue;
    const auto& points = data.trajectory.points;
    auto first = std::lower_bound(
        points.begin(), points.end(), t0,
        [](const TrajectoryPoint& p, Timestamp t) { return p.t < t; });
    Trajectory hit;
    hit.mmsi = mmsi;
    for (auto it = first; it != points.end() && it->t <= t1; ++it) {
      if (box.Contains(it->position)) hit.points.push_back(*it);
    }
    if (!hit.points.empty()) out.push_back(std::move(hit));
  }
  std::sort(out.begin(), out.end(),
            [](const Trajectory& a, const Trajectory& b) {
              return a.mmsi < b.mmsi;
            });
  return out;
}

std::vector<std::pair<uint32_t, TrajectoryPoint>> TrajectoryStore::TimeSlice(
    Timestamp t) const {
  std::vector<std::pair<uint32_t, TrajectoryPoint>> out;
  for (const auto& [mmsi, data] : trajectories_) {
    const Trajectory& traj = data.trajectory;
    if (traj.points.empty() || t < traj.StartTime() || t > traj.EndTime()) {
      continue;
    }
    out.emplace_back(mmsi, traj.At(t));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::vector<uint32_t> TrajectoryStore::Vessels() const {
  std::vector<uint32_t> out;
  out.reserve(trajectories_.size());
  for (const auto& [mmsi, _] : trajectories_) out.push_back(mmsi);
  std::sort(out.begin(), out.end());
  return out;
}

// --- PartitionedTrajectoryView ----------------------------------------------

size_t PartitionedTrajectoryView::VesselCount() const {
  size_t n = 0;
  for (const TrajectoryStore* p : partitions_) n += p->VesselCount();
  return n;
}

size_t PartitionedTrajectoryView::PointCount() const {
  size_t n = 0;
  for (const TrajectoryStore* p : partitions_) n += p->PointCount();
  return n;
}

Result<const Trajectory*> PartitionedTrajectoryView::GetTrajectory(
    uint32_t mmsi) const {
  for (const TrajectoryStore* p : partitions_) {
    auto traj = p->GetTrajectory(mmsi);
    if (traj.ok()) return traj;
  }
  return Status::NotFound("vessel not in any partition");
}

Result<Trajectory> PartitionedTrajectoryView::GetTrajectorySlice(
    uint32_t mmsi, Timestamp t0, Timestamp t1) const {
  for (const TrajectoryStore* p : partitions_) {
    auto slice = p->GetTrajectorySlice(mmsi, t0, t1);
    if (slice.ok()) return slice;
  }
  return Status::NotFound("vessel not in any partition");
}

std::optional<TrajectoryPoint> PartitionedTrajectoryView::Latest(
    uint32_t mmsi) const {
  for (const TrajectoryStore* p : partitions_) {
    auto latest = p->Latest(mmsi);
    if (latest.has_value()) return latest;
  }
  return std::nullopt;
}

std::vector<uint32_t> PartitionedTrajectoryView::QueryLive(
    const BoundingBox& box) const {
  std::vector<uint32_t> out;
  for (const TrajectoryStore* p : partitions_) {
    const auto part = p->QueryLive(box);
    out.insert(out.end(), part.begin(), part.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<uint32_t, double>> PartitionedTrajectoryView::NearestLive(
    const GeoPoint& p, size_t k) const {
  std::vector<std::pair<uint32_t, double>> all;
  for (const TrajectoryStore* part : partitions_) {
    const auto nearest = part->NearestLive(p, k);
    all.insert(all.end(), nearest.begin(), nearest.end());
  }
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second < b.second;
              return a.first < b.first;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

std::vector<Trajectory> PartitionedTrajectoryView::QueryWindow(
    const BoundingBox& box, Timestamp t0, Timestamp t1) const {
  std::vector<Trajectory> out;
  for (const TrajectoryStore* p : partitions_) {
    auto part = p->QueryWindow(box, t0, t1);
    for (auto& traj : part) out.push_back(std::move(traj));
  }
  std::sort(out.begin(), out.end(),
            [](const Trajectory& a, const Trajectory& b) {
              return a.mmsi < b.mmsi;
            });
  return out;
}

std::vector<std::pair<uint32_t, TrajectoryPoint>>
PartitionedTrajectoryView::TimeSlice(Timestamp t) const {
  std::vector<std::pair<uint32_t, TrajectoryPoint>> out;
  for (const TrajectoryStore* p : partitions_) {
    auto part = p->TimeSlice(t);
    for (auto& entry : part) out.push_back(std::move(entry));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::vector<uint32_t> PartitionedTrajectoryView::Vessels() const {
  std::vector<uint32_t> out;
  for (const TrajectoryStore* p : partitions_) {
    const auto part = p->Vessels();
    out.insert(out.end(), part.begin(), part.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace marlin
