#ifndef MARLIN_STORAGE_GRID_INDEX_H_
#define MARLIN_STORAGE_GRID_INDEX_H_

/// \file grid_index.h
/// \brief Dynamic uniform-grid point index for the live picture (§2.3).
///
/// The streaming side needs insert/update/remove at message rate; a uniform
/// lat/lon grid with per-cell vectors is the classic moving-objects answer
/// (cheap updates, predictable scans). Complements the static RTree used for
/// archival analytics.

#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/flat_hash.h"
#include "geo/geometry.h"
#include "geo/point.h"

namespace marlin {

/// \brief Uniform grid over lat/lon with movable point payloads.
class GridIndex {
 public:
  /// Packed cell coordinate: (lat row << 32) | lon column.
  using CellKey = int64_t;

  /// \brief `cell_deg` is the grid pitch in degrees (0.1° ≈ 6 NM N-S).
  explicit GridIndex(double cell_deg = 0.1) : cell_deg_(cell_deg) {}

  // --- Shared grid math -----------------------------------------------------
  // The single source of truth for the grid geometry: row-major packed
  // keys on a (lat+90)/(lon+180) floor grid — unwrapped at the
  // antimeridian — and the radius → degree margins QueryRadius prefilters
  // with.

  static CellKey PackCell(int32_t row, int32_t col) {
    return (static_cast<int64_t>(row) << 32) |
           static_cast<int64_t>(static_cast<uint32_t>(col));
  }
  static int32_t CellRow(CellKey key) {
    return static_cast<int32_t>(key >> 32);
  }
  static int32_t CellCol(CellKey key) {
    return static_cast<int32_t>(static_cast<uint32_t>(key));
  }

  /// \brief Cell key of `p` on a uniform grid of `cell_deg` pitch.
  static CellKey KeyOnPitch(const GeoPoint& p, double cell_deg) {
    const int32_t row =
        static_cast<int32_t>(std::floor((p.lat + 90.0) / cell_deg));
    const int32_t col =
        static_cast<int32_t>(std::floor((p.lon + 180.0) / cell_deg));
    return PackCell(row, col);
  }

  /// \brief The bounding-box margins (degrees) a radius scan centred at
  /// `centre_lat` covers: QueryRadius prefilters with exactly these, so any
  /// partner it can return lies within them of the scan centre.
  static void RadiusMargins(double radius_m, double centre_lat,
                            double* lat_margin_deg, double* lon_margin_deg);

  /// \brief Inserts or moves `id` to `p`.
  void Upsert(uint64_t id, const GeoPoint& p);

  /// \brief Removes `id`; no-op when absent.
  void Remove(uint64_t id);

  /// \brief Current position of `id`, if present.
  std::optional<GeoPoint> Get(uint64_t id) const;

  /// \brief All ids inside `box`.
  std::vector<uint64_t> Query(const BoundingBox& box) const;

  /// \brief Ids within `radius_m` metres of `centre` (equirectangular test),
  /// with their distances, unsorted.
  std::vector<std::pair<uint64_t, double>> QueryRadius(const GeoPoint& centre,
                                                       double radius_m) const;

  /// \brief Allocation-free radius scan for per-message callers: clears and
  /// refills `*out` (deterministic cell-row/column, bucket-insertion order —
  /// identical to `QueryRadius`'s), retaining its capacity across calls.
  void QueryRadiusInto(const GeoPoint& centre, double radius_m,
                       std::vector<std::pair<uint64_t, double>>* out) const;

  /// \brief k nearest ids to `query` (expanding ring search), nearest first.
  std::vector<std::pair<uint64_t, double>> Nearest(const GeoPoint& query,
                                                   size_t k) const;

  size_t size() const { return positions_.size(); }
  double cell_deg() const { return cell_deg_; }

 private:
  CellKey KeyFor(const GeoPoint& p) const { return KeyOnPitch(p, cell_deg_); }

  /// \brief Appends `id` to the bucket of `key`, recycling a pooled
  /// slot's vector capacity when the cell is re-materialized.
  void BucketInsert(CellKey key, uint64_t id) {
    cells_
        .TryEmplaceWith(key,
                        [](std::vector<uint64_t>& bucket) { bucket.clear(); })
        .first->push_back(id);
  }

  /// \brief Applies `fn(id, position)` to every point whose cell
  /// intersects `box` and whose position lies inside it — the single
  /// cell-range walk both `Query` and `QueryRadiusInto` share.
  template <typename Fn>
  void VisitBox(const BoundingBox& box, Fn&& fn) const {
    const int32_t row0 =
        static_cast<int32_t>(std::floor((box.min_lat + 90.0) / cell_deg_));
    const int32_t row1 =
        static_cast<int32_t>(std::floor((box.max_lat + 90.0) / cell_deg_));
    const int32_t col0 =
        static_cast<int32_t>(std::floor((box.min_lon + 180.0) / cell_deg_));
    const int32_t col1 =
        static_cast<int32_t>(std::floor((box.max_lon + 180.0) / cell_deg_));
    for (int32_t r = row0; r <= row1; ++r) {
      for (int32_t c = col0; c <= col1; ++c) {
        const std::vector<uint64_t>* bucket = cells_.Find(PackCell(r, c));
        if (bucket == nullptr) continue;
        for (uint64_t id : *bucket) {
          const GeoPoint& p = *positions_.Find(id);
          if (box.Contains(p)) fn(id, p);
        }
      }
    }
  }

  double ApproxDistanceMetres(const GeoPoint& a, const GeoPoint& b) const;

  double cell_deg_;
  FlatHashMap<CellKey, std::vector<uint64_t>> cells_;
  FlatHashMap<uint64_t, GeoPoint> positions_;
};

}  // namespace marlin

#endif  // MARLIN_STORAGE_GRID_INDEX_H_
