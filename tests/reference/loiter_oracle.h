#ifndef MARLIN_TESTS_REFERENCE_LOITER_ORACLE_H_
#define MARLIN_TESTS_REFERENCE_LOITER_ORACLE_H_

/// \file loiter_oracle.h
/// \brief Brute-force oracle for the loitering rule of `VesselEventEngine`.
///
/// The rule written as a full rescan: every point rebuilds the window's
/// bounding box with `BoundingBox::Extend` and sums the speeds in window
/// order. The engine keeps the box incrementally; core_test replays random
/// streams through both and requires bit-equal loitering events. Only the
/// loitering rule and the state it reads (dark-gap window clears, port-area
/// membership) are modelled.

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <vector>

#include "context/zones.h"
#include "core/events.h"
#include "geo/geodesy.h"
#include "geo/geometry.h"

namespace marlin::reference {

class LoiterOracle {
 public:
  LoiterOracle(const ZoneDatabase* zones, const EventRuleOptions& options)
      : zones_(zones), options_(options) {}

  /// \brief Consumes one point; appends the loitering events it raises.
  void Ingest(const ReconstructedPoint& rp, std::vector<DetectedEvent>* out) {
    Vessel& vessel = vessels_[rp.mmsi];
    if (rp.gap_before_ms > options_.dark_threshold_ms && vessel.has_last) {
      vessel.window.clear();
    }
    zones_->ZonesAtInto(rp.point.position, &zones_at_);
    const bool in_port_area =
        std::any_of(zones_at_.begin(), zones_at_.end(), [](const GeoZone* z) {
          return z->type == ZoneType::kPort || z->type == ZoneType::kAnchorage;
        });
    Check(rp, in_port_area, &vessel, out);
    vessel.has_last = true;
  }

 private:
  struct Vessel {
    std::deque<TrajectoryPoint> window;
    Timestamp last_alert = kInvalidTimestamp;
    bool has_last = false;
  };

  void Check(const ReconstructedPoint& rp, bool in_port_area, Vessel* vessel,
             std::vector<DetectedEvent>* out) const {
    const Timestamp t = rp.point.t;
    auto& window = vessel->window;
    window.push_back(rp.point);
    while (!window.empty() &&
           t - window.front().t > options_.loiter_min_duration) {
      window.pop_front();
    }
    if (in_port_area) return;
    if (window.size() < 4) return;
    if (t - window.front().t < options_.loiter_min_duration * 9 / 10) return;
    if (vessel->last_alert != kInvalidTimestamp &&
        t - vessel->last_alert < options_.loiter_realert_ms) {
      return;
    }
    BoundingBox box = BoundingBox::Empty();
    double speed_sum = 0.0;
    size_t speed_count = 0;
    for (const TrajectoryPoint& p : window) {
      box.Extend(p.position);
      if (p.HasSpeed()) {
        speed_sum += p.sog_mps;
        ++speed_count;
      }
    }
    if (speed_count == 0) return;
    const double diag = HaversineDistance(GeoPoint(box.min_lat, box.min_lon),
                                          GeoPoint(box.max_lat, box.max_lon));
    const double mean_speed = speed_sum / static_cast<double>(speed_count);
    if (diag <= 2.0 * options_.loiter_radius_m &&
        mean_speed <= options_.loiter_max_speed_mps) {
      vessel->last_alert = t;
      DetectedEvent ev;
      ev.type = EventType::kLoitering;
      ev.start = window.front().t;
      ev.end = t;
      ev.vessel_a = rp.mmsi;
      ev.where = box.Center();
      ev.severity = 0.6;
      ev.detected_at = t;
      out->push_back(ev);
    }
  }

  const ZoneDatabase* zones_;
  EventRuleOptions options_;
  std::unordered_map<Mmsi, Vessel> vessels_;
  std::vector<const GeoZone*> zones_at_;
};

}  // namespace marlin::reference

#endif  // MARLIN_TESTS_REFERENCE_LOITER_ORACLE_H_
