#ifndef MARLIN_STORAGE_TRAJECTORY_STORE_H_
#define MARLIN_STORAGE_TRAJECTORY_STORE_H_

/// \file trajectory_store.h
/// \brief Trajectory-native store: the moving-object data manager the paper
/// says generic (RDF / relational) stores fail to provide (§2.3, §2.5).
///
/// Combines three access paths:
///  * per-vessel time-ordered history (vector per MMSI; the durable,
///    queryable history is the per-shard `ShardArchive`, storage/archive.h),
///  * live spatial picture (GridIndex of latest positions),
///  * spatio-temporal window queries (per-vessel binary search pruned by a
///    per-vessel bounding box).

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "storage/grid_index.h"
#include "storage/trajectory.h"

namespace marlin {

/// \brief In-memory trajectory manager.
class TrajectoryStore {
 public:
  struct Options {
    /// Grid pitch for the live-position index.
    double grid_cell_deg = 0.25;
  };

  TrajectoryStore() : TrajectoryStore(Options()) {}
  explicit TrajectoryStore(const Options& options);

  /// \brief Appends a sample (must be newer than the vessel's last sample;
  /// out-of-order input belongs in the reconstruction layer, which fixes
  /// ordering before storage).
  Status Append(uint32_t mmsi, const TrajectoryPoint& point);

  /// \brief Number of vessels with at least one sample.
  size_t VesselCount() const { return trajectories_.size(); }
  /// \brief Total stored samples.
  size_t PointCount() const { return point_count_; }

  /// \brief Full history of one vessel.
  Result<const Trajectory*> GetTrajectory(uint32_t mmsi) const;

  /// \brief History of one vessel restricted to [t0, t1].
  Result<Trajectory> GetTrajectorySlice(uint32_t mmsi, Timestamp t0,
                                        Timestamp t1) const;

  /// \brief Latest known sample per vessel.
  std::optional<TrajectoryPoint> Latest(uint32_t mmsi) const;

  /// \brief Vessels whose *latest* position lies in `box`.
  std::vector<uint32_t> QueryLive(const BoundingBox& box) const;

  /// \brief k vessels nearest to `p` by latest position, nearest first.
  std::vector<std::pair<uint32_t, double>> NearestLive(const GeoPoint& p,
                                                       size_t k) const;

  /// \brief Spatio-temporal range query: all samples in `box` × [t0, t1],
  /// grouped per vessel. Uses per-vessel bounds + time binary search.
  std::vector<Trajectory> QueryWindow(const BoundingBox& box, Timestamp t0,
                                      Timestamp t1) const;

  /// \brief Interpolated position of every vessel active at time `t`
  /// (vessels whose observed span covers `t`).
  std::vector<std::pair<uint32_t, TrajectoryPoint>> TimeSlice(
      Timestamp t) const;

  /// \brief All MMSIs in the store.
  std::vector<uint32_t> Vessels() const;

 private:
  struct VesselData {
    Trajectory trajectory;
    BoundingBox bounds = BoundingBox::Empty();
  };

  std::unordered_map<uint32_t, VesselData> trajectories_;
  GridIndex live_index_;
  size_t point_count_ = 0;
};

/// \brief Read-only fan-out over MMSI-partitioned trajectory stores.
///
/// A `ShardedPipeline` gives each shard its own `TrajectoryStore`; this view
/// answers the store's query API across all partitions — routing per-vessel
/// lookups to the owning partition (by probing: partitions are disjoint) and
/// merging the results of spatial/temporal scans. The view does not own the
/// partitions and must not outlive them; queries require the partitions to
/// be quiescent (no shard thread appending).
class PartitionedTrajectoryView {
 public:
  explicit PartitionedTrajectoryView(
      std::vector<const TrajectoryStore*> partitions)
      : partitions_(std::move(partitions)) {}

  size_t partition_count() const { return partitions_.size(); }
  const TrajectoryStore& partition(size_t i) const { return *partitions_[i]; }

  /// \brief Vessels with at least one sample, across all partitions.
  size_t VesselCount() const;
  /// \brief Total stored samples across all partitions.
  size_t PointCount() const;

  /// \brief Full history of one vessel (routed to its partition).
  Result<const Trajectory*> GetTrajectory(uint32_t mmsi) const;

  /// \brief History of one vessel restricted to [t0, t1].
  Result<Trajectory> GetTrajectorySlice(uint32_t mmsi, Timestamp t0,
                                        Timestamp t1) const;

  /// \brief Latest known sample of one vessel.
  std::optional<TrajectoryPoint> Latest(uint32_t mmsi) const;

  /// \brief Vessels whose latest position lies in `box` (merged, sorted).
  std::vector<uint32_t> QueryLive(const BoundingBox& box) const;

  /// \brief k vessels nearest to `p` by latest position, nearest first
  /// (k-way merge of per-partition results).
  std::vector<std::pair<uint32_t, double>> NearestLive(const GeoPoint& p,
                                                       size_t k) const;

  /// \brief Spatio-temporal range query, grouped per vessel (merged,
  /// ordered by MMSI).
  std::vector<Trajectory> QueryWindow(const BoundingBox& box, Timestamp t0,
                                      Timestamp t1) const;

  /// \brief Interpolated position of every vessel active at `t` (merged,
  /// ordered by MMSI).
  std::vector<std::pair<uint32_t, TrajectoryPoint>> TimeSlice(
      Timestamp t) const;

  /// \brief All MMSIs, sorted ascending.
  std::vector<uint32_t> Vessels() const;

 private:
  std::vector<const TrajectoryStore*> partitions_;
};

}  // namespace marlin

#endif  // MARLIN_STORAGE_TRAJECTORY_STORE_H_
