#include "core/events.h"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "geo/geodesy.h"

namespace marlin {

namespace {

// Sorted-small-vector set operations for the per-vessel id sets (zone
// membership, per-zone alert latches). The sets hold a handful of ids, so a
// binary search over contiguous memory beats a node-based std::set and the
// inserts stay allocation-free at steady state.
bool SortedContains(const std::vector<uint32_t>& v, uint32_t id) {
  return std::binary_search(v.begin(), v.end(), id);
}

void SortedInsert(std::vector<uint32_t>* v, uint32_t id) {
  auto it = std::lower_bound(v->begin(), v->end(), id);
  if (it == v->end() || *it != id) v->insert(it, id);
}

void SortedErase(std::vector<uint32_t>* v, uint32_t id) {
  auto it = std::lower_bound(v->begin(), v->end(), id);
  if (it != v->end() && *it == id) v->erase(it);
}

void EraseFishingSince(std::vector<std::pair<uint32_t, Timestamp>>* v,
                       uint32_t zone_id) {
  for (auto it = v->begin(); it != v->end(); ++it) {
    if (it->first == zone_id) {
      v->erase(it);
      return;
    }
  }
}

}  // namespace

const char* EventTypeName(EventType t) {
  switch (t) {
    case EventType::kZoneEntry:
      return "zone-entry";
    case EventType::kZoneExit:
      return "zone-exit";
    case EventType::kStop:
      return "stop";
    case EventType::kMove:
      return "move";
    case EventType::kDarkPeriod:
      return "dark-period";
    case EventType::kSpeedViolation:
      return "speed-violation";
    case EventType::kRendezvous:
      return "rendezvous";
    case EventType::kLoitering:
      return "loitering";
    case EventType::kIdentitySpoof:
      return "identity-spoof";
    case EventType::kTeleportSpoof:
      return "teleport-spoof";
    case EventType::kCollisionRisk:
      return "collision-risk";
    case EventType::kIllegalFishing:
      return "illegal-fishing";
    case EventType::kBehaviorChange:
      return "behavior-change";
    case EventType::kKinematicIntegrity:
      return "kinematic-integrity";
    case EventType::kMmsiConflict:
      return "mmsi-conflict";
  }
  return "unknown";
}

bool CanonicalEventLess(const DetectedEvent& a, const DetectedEvent& b) {
  return std::tie(a.detected_at, a.vessel_a, a.vessel_b, a.type, a.start,
                  a.end, a.zone_id, a.severity) <
         std::tie(b.detected_at, b.vessel_a, b.vessel_b, b.type, b.start,
                  b.end, b.zone_id, b.severity);
}

void ResequenceEvents(std::vector<DetectedEvent>* events) {
  std::stable_sort(events->begin(), events->end(), CanonicalEventLess);
}

// --- VesselEventEngine ------------------------------------------------------

VesselEventEngine::VesselEventEngine(const ZoneDatabase* zones,
                                     const Options& options)
    : zones_(zones), options_(options) {}

void VesselEventEngine::SetVesselInfo(Mmsi mmsi, int ship_type) {
  vessels_[mmsi].ship_type = ship_type;
}

PairObservation VesselEventEngine::Ingest(const ReconstructedPoint& rp,
                                          std::vector<DetectedEvent>* out) {
  ++stats_.points_in;
  VesselState& vessel = vessels_[rp.mmsi];

  // Dark period: the reconstruction layer hands us the gap length.
  if (rp.gap_before_ms > options_.dark_threshold_ms && vessel.has_last) {
    DetectedEvent ev;
    ev.type = EventType::kDarkPeriod;
    ev.start = rp.point.t - rp.gap_before_ms;
    ev.end = rp.point.t;
    ev.vessel_a = rp.mmsi;
    ev.where = vessel.last.position;
    ev.severity = std::min(1.0, rp.gap_before_ms /
                                    static_cast<double>(2 * kMillisPerHour));
    ev.detected_at = rp.point.t;
    out->push_back(ev);
    ++stats_.events_out;
    vessel.loiter.Clear();  // a gap invalidates the loiter window
  }

  CheckZones(rp, &vessel, out);
  CheckStopMove(rp, &vessel, out);
  CheckIllegalFishing(rp, &vessel, out);
  CheckLoitering(rp, &vessel, out);

  vessel.last = rp.point;
  vessel.has_last = true;

  return PairObservation{rp.mmsi, rp.point, vessel.in_port_area};
}

void VesselEventEngine::CheckZones(const ReconstructedPoint& rp,
                                   VesselState* vessel,
                                   std::vector<DetectedEvent>* out) {
  zones_->ZonesAtInto(rp.point.position, &zones_at_scratch_);
  zone_ids_scratch_.clear();
  bool in_port_area = false;
  for (const GeoZone* z : zones_at_scratch_) {
    zone_ids_scratch_.push_back(z->id);
    if (z->type == ZoneType::kPort || z->type == ZoneType::kAnchorage) {
      in_port_area = true;
    }
    // Speed limits: alert once per zone visit. A missing SOG cannot violate
    // a limit (NaN comparisons are false anyway; the gate documents it).
    if (z->speed_limit_knots > 0.0 && rp.point.HasSpeed() &&
        rp.point.sog_mps > z->speed_limit_knots * 0.5144 * 1.15 &&
        !SortedContains(vessel->speed_alerted, z->id)) {
      SortedInsert(&vessel->speed_alerted, z->id);
      DetectedEvent ev;
      ev.type = EventType::kSpeedViolation;
      ev.start = ev.end = ev.detected_at = rp.point.t;
      ev.vessel_a = rp.mmsi;
      ev.where = rp.point.position;
      ev.zone_id = z->id;
      ev.severity = 0.4;
      out->push_back(ev);
      ++stats_.events_out;
    }
  }
  std::sort(zone_ids_scratch_.begin(), zone_ids_scratch_.end());
  zone_ids_scratch_.erase(
      std::unique(zone_ids_scratch_.begin(), zone_ids_scratch_.end()),
      zone_ids_scratch_.end());
  // Entries, in ascending zone-id order (the emission order the canonical
  // re-sequencing ties depend on — previously the std::set order).
  for (uint32_t id : zone_ids_scratch_) {
    if (!SortedContains(vessel->zones, id)) {
      DetectedEvent ev;
      ev.type = EventType::kZoneEntry;
      ev.start = ev.end = ev.detected_at = rp.point.t;
      ev.vessel_a = rp.mmsi;
      ev.where = rp.point.position;
      ev.zone_id = id;
      const GeoZone* z = zones_->Find(id);
      ev.severity =
          (z != nullptr && (z->type == ZoneType::kProtectedArea ||
                            z->type == ZoneType::kRestricted))
              ? 0.7
              : 0.2;
      out->push_back(ev);
      ++stats_.events_out;
    }
  }
  // Exits, ascending likewise.
  for (uint32_t id : vessel->zones) {
    if (!SortedContains(zone_ids_scratch_, id)) {
      DetectedEvent ev;
      ev.type = EventType::kZoneExit;
      ev.start = ev.end = ev.detected_at = rp.point.t;
      ev.vessel_a = rp.mmsi;
      ev.where = rp.point.position;
      ev.zone_id = id;
      ev.severity = 0.1;
      out->push_back(ev);
      ++stats_.events_out;
      SortedErase(&vessel->speed_alerted, id);
      EraseFishingSince(&vessel->fishing_since, id);
      SortedErase(&vessel->fishing_alerted, id);
    }
  }
  vessel->zones.assign(zone_ids_scratch_.begin(), zone_ids_scratch_.end());
  vessel->in_port_area = in_port_area;
}

void VesselEventEngine::CheckStopMove(const ReconstructedPoint& rp,
                                      VesselState* vessel,
                                      std::vector<DetectedEvent>* out) {
  // A point without speed neither confirms nor denies a transition; the
  // previous state carries over (sentinel SOG used to read as "stopped").
  if (!rp.point.HasSpeed()) return;
  const bool now_stopped = rp.point.sog_mps < options_.stop_speed_mps;
  if (vessel->has_last && now_stopped != vessel->stopped) {
    DetectedEvent ev;
    ev.type = now_stopped ? EventType::kStop : EventType::kMove;
    ev.start = ev.end = ev.detected_at = rp.point.t;
    ev.vessel_a = rp.mmsi;
    ev.where = rp.point.position;
    ev.severity = 0.1;
    out->push_back(ev);
    ++stats_.events_out;
  }
  vessel->stopped = now_stopped;
}

void VesselEventEngine::LoiterWindow::Push(const TrajectoryPoint& p) {
  const uint32_t seq = head + static_cast<uint32_t>(points.size());
  points.push_back(p);
  // Pop only strictly beaten entries: of equal values the oldest stays in
  // front, as the std::min/std::max fold keeps the first of equals.
  while (!min_lat.empty() && At(min_lat.back()).position.lat > p.position.lat) {
    min_lat.pop_back();
  }
  min_lat.push_back(seq);
  while (!max_lat.empty() && At(max_lat.back()).position.lat < p.position.lat) {
    max_lat.pop_back();
  }
  max_lat.push_back(seq);
  while (!min_lon.empty() && At(min_lon.back()).position.lon > p.position.lon) {
    min_lon.pop_back();
  }
  min_lon.push_back(seq);
  while (!max_lon.empty() && At(max_lon.back()).position.lon < p.position.lon) {
    max_lon.pop_back();
  }
  max_lon.push_back(seq);
}

void VesselEventEngine::LoiterWindow::PopFront() {
  for (RingBuffer<uint32_t>* deque : {&min_lat, &max_lat, &min_lon, &max_lon}) {
    if (!deque->empty() && deque->front() == head) deque->pop_front();
  }
  points.pop_front();
  ++head;
}

void VesselEventEngine::LoiterWindow::Clear() {
  points.clear();
  min_lat.clear();
  max_lat.clear();
  min_lon.clear();
  max_lon.clear();
}

BoundingBox VesselEventEngine::LoiterWindow::Box() const {
  // Folding the oldest extremes into the empty box gives the bits that
  // extending it by every window point gives.
  BoundingBox box = BoundingBox::Empty();
  box.min_lat = std::min(box.min_lat, At(min_lat.front()).position.lat);
  box.max_lat = std::max(box.max_lat, At(max_lat.front()).position.lat);
  box.min_lon = std::min(box.min_lon, At(min_lon.front()).position.lon);
  box.max_lon = std::max(box.max_lon, At(max_lon.front()).position.lon);
  return box;
}

void VesselEventEngine::CheckLoitering(const ReconstructedPoint& rp,
                                       VesselState* vessel,
                                       std::vector<DetectedEvent>* out) {
  const Timestamp t = rp.point.t;
  LoiterWindow& loiter = vessel->loiter;
  const auto& window = loiter.points;
  loiter.Push(rp.point);
  while (!window.empty() &&
         t - window.front().t > options_.loiter_min_duration) {
    loiter.PopFront();
  }
  if (vessel->in_port_area) {
    return;  // moored in harbour is normal, not loitering
  }
  if (window.size() < 4) return;
  if (t - window.front().t < options_.loiter_min_duration * 9 / 10) return;
  if (vessel->last_loiter_alert != kInvalidTimestamp &&
      t - vessel->last_loiter_alert < options_.loiter_realert_ms) {
    return;
  }
  // Confinement test: window bounding box must fit inside the radius, and
  // mean speed must be low. The box is O(1); only a fitting box pays for
  // the speed sum, taken in window order so the float sum compared with
  // the threshold is the one a full rescan makes.
  const BoundingBox box = loiter.Box();
  const double diag = HaversineDistance(GeoPoint(box.min_lat, box.min_lon),
                                        GeoPoint(box.max_lat, box.max_lon));
  if (!(diag <= 2.0 * options_.loiter_radius_m)) return;
  double speed_sum = 0.0;
  size_t speed_count = 0;
  for (size_t i = 0; i < window.size(); ++i) {
    const TrajectoryPoint& p = window[i];
    if (p.HasSpeed()) {
      speed_sum += p.sog_mps;
      ++speed_count;
    }
  }
  // Mean speed over the *available* samples only — one sentinel SOG used to
  // poison the whole window with NaN. No speed evidence at all ⇒ no alert.
  if (speed_count == 0) return;
  const double mean_speed = speed_sum / static_cast<double>(speed_count);
  if (mean_speed <= options_.loiter_max_speed_mps) {
    vessel->last_loiter_alert = t;
    DetectedEvent ev;
    ev.type = EventType::kLoitering;
    ev.start = window.front().t;
    ev.end = t;
    ev.vessel_a = rp.mmsi;
    ev.where = box.Center();
    ev.severity = 0.6;
    ev.detected_at = t;
    out->push_back(ev);
    ++stats_.events_out;
  }
}

void VesselEventEngine::CheckIllegalFishing(const ReconstructedPoint& rp,
                                            VesselState* vessel,
                                            std::vector<DetectedEvent>* out) {
  const bool fishing_speed =
      rp.point.HasSpeed() &&
      rp.point.sog_mps >= options_.fishing_speed_lo_mps &&
      rp.point.sog_mps <= options_.fishing_speed_hi_mps;
  const bool is_fishing_vessel =
      ShipTypeToCategory(vessel->ship_type) == ShipCategory::kFishing;
  for (uint32_t zone_id : vessel->zones) {
    const GeoZone* z = zones_->Find(zone_id);
    if (z == nullptr || !z->fishing_prohibited) continue;
    if (!fishing_speed || !is_fishing_vessel) {
      EraseFishingSince(&vessel->fishing_since, zone_id);
      continue;
    }
    Timestamp since = kInvalidTimestamp;
    for (const auto& [id, t0] : vessel->fishing_since) {
      if (id == zone_id) {
        since = t0;
        break;
      }
    }
    if (since == kInvalidTimestamp) {
      vessel->fishing_since.emplace_back(zone_id, rp.point.t);
      continue;
    }
    if (rp.point.t - since >= options_.fishing_min_duration &&
        !SortedContains(vessel->fishing_alerted, zone_id)) {
      SortedInsert(&vessel->fishing_alerted, zone_id);
      DetectedEvent ev;
      ev.type = EventType::kIllegalFishing;
      ev.start = since;
      ev.end = rp.point.t;
      ev.vessel_a = rp.mmsi;
      ev.where = rp.point.position;
      ev.zone_id = zone_id;
      ev.severity = 0.85;
      ev.detected_at = rp.point.t;
      out->push_back(ev);
      ++stats_.events_out;
    }
  }
}

void VesselEventEngine::IngestRejection(const RejectedReport& rejection,
                                        std::vector<DetectedEvent>* out) {
  if (rejection.reason != RejectedReport::Reason::kImpossibleJump) return;
  VesselState& vessel = vessels_[rejection.mmsi];
  auto& jumps = vessel.jump_times;
  jumps.push_back(rejection.t);
  while (!jumps.empty() &&
         rejection.t - jumps.front() > options_.identity_conflict_window) {
    jumps.pop_front();
  }
  const bool persistent =
      static_cast<int>(jumps.size()) >= options_.identity_conflict_count;
  // Rate-limit spoof alerts to one per conflict window.
  if (vessel.last_spoof_alert != kInvalidTimestamp &&
      rejection.t - vessel.last_spoof_alert <
          options_.identity_conflict_window) {
    return;
  }
  DetectedEvent ev;
  ev.type =
      persistent ? EventType::kIdentitySpoof : EventType::kTeleportSpoof;
  ev.start = ev.end = ev.detected_at = rejection.t;
  ev.vessel_a = rejection.mmsi;
  ev.where = rejection.reported;
  ev.severity = persistent ? 0.95 : 0.7;
  if (persistent || jumps.size() == 1) {
    vessel.last_spoof_alert =
        persistent ? rejection.t : vessel.last_spoof_alert;
    out->push_back(ev);
    ++stats_.events_out;
  }
}

// --- PairEventEngine --------------------------------------------------------

PairEventEngine::PairEventEngine(const Options& options)
    : options_(options), live_(0.1) {}

void PairEventEngine::Ingest(const PairObservation& obs,
                             std::vector<DetectedEvent>* out) {
  ++stats_.points_in;
  // Update the live picture before the pair scans so self-lookups see fresh
  // data (same ordering the unified engine used).
  live_.Upsert(obs.mmsi, obs.point.position);
  VesselState& vessel = vessels_[obs.mmsi];
  vessel.last = obs.point;
  vessel.has_last = true;
  vessel.in_port_area = obs.in_port_area;

  CheckRendezvous(obs, out);
  if (CollisionEligible(obs.point)) {
    MotionState self;
    self.position = obs.point.position;
    self.speed_mps = obs.point.sog_mps;
    self.course_deg = obs.point.cog_deg;
    vessel.motion = PrepareMotion(self);
    CheckCollision(obs, vessel.motion, out);
  }
}

void PairEventEngine::CheckRendezvous(const PairObservation& obs,
                                      std::vector<DetectedEvent>* out) {
  const Timestamp t = obs.point.t;
  // "Slow" needs an actual speed — a vessel hiding its SOG must not be
  // mistaken for a drifting one.
  const bool eligible = obs.point.HasSpeed() &&
                        obs.point.sog_mps <= options_.rendezvous_max_speed_mps &&
                        !obs.in_port_area;
  if (!eligible) return;
  live_.QueryRadiusInto(obs.point.position, options_.rendezvous_distance_m,
                        &radius_scratch_);
  for (const auto& [other_id, dist] : radius_scratch_) {
    const Mmsi other = static_cast<Mmsi>(other_id);
    if (other == obs.mmsi) continue;
    const VesselState* partner = vessels_.Find(other);
    if (partner == nullptr || !partner->has_last) continue;
    if (!partner->last.HasSpeed() ||
        partner->last.sog_mps > options_.rendezvous_max_speed_mps) {
      continue;
    }
    if (partner->in_port_area) continue;
    // Partner must be current (not a stale last-position).
    if (t - partner->last.t > 5 * kMillisPerMinute) continue;

    PairState& pair = rendezvous_pairs_[PackPair(obs.mmsi, other)];
    if (pair.since == 0 || t - pair.last_seen > 5 * kMillisPerMinute) {
      pair.since = t;
      pair.reported = false;
    }
    pair.last_seen = t;
    pair.where = obs.point.position;
    if (!pair.reported && t - pair.since >= options_.rendezvous_min_duration) {
      pair.reported = true;
      DetectedEvent ev;
      ev.type = EventType::kRendezvous;
      ev.start = pair.since;
      ev.end = t;
      ev.vessel_a = std::min(obs.mmsi, other);
      ev.vessel_b = std::max(obs.mmsi, other);
      ev.where = pair.where;
      ev.severity = 0.8;
      ev.detected_at = t;
      out->push_back(ev);
      ++stats_.events_out;
    }
  }
}

void PairEventEngine::CheckCollision(const PairObservation& obs,
                                     const PreparedMotion& self,
                                     std::vector<DetectedEvent>* out) {
  const Timestamp t = obs.point.t;
  live_.QueryRadiusInto(obs.point.position, options_.collision_scan_radius_m,
                        &radius_scratch_);
  for (const auto& [other_id, dist] : radius_scratch_) {
    const Mmsi other = static_cast<Mmsi>(other_id);
    if (other == obs.mmsi) continue;
    const VesselState* partner = vessels_.Find(other);
    if (partner == nullptr || !partner->has_last) continue;
    if (t - partner->last.t > 3 * kMillisPerMinute) continue;
    if (!CollisionEligible(partner->last)) continue;

    const uint64_t key = PackPair(obs.mmsi, other);
    const Timestamp* last_alert = collision_alerts_.Find(key);
    if (last_alert != nullptr &&
        t - *last_alert < options_.collision_realert_ms) {
      continue;
    }

    const CpaResult cpa = ComputeCpa(self, partner->motion);
    if (cpa.converging && cpa.distance_m < options_.cpa_threshold_m &&
        cpa.tcpa_s < options_.tcpa_horizon_s) {
      collision_alerts_[key] = t;
      DetectedEvent ev;
      ev.type = EventType::kCollisionRisk;
      ev.start = ev.detected_at = t;
      ev.end = t + static_cast<DurationMs>(cpa.tcpa_s * kMillisPerSecond);
      ev.vessel_a = std::min(obs.mmsi, other);
      ev.vessel_b = std::max(obs.mmsi, other);
      ev.where = obs.point.position;
      ev.severity = 0.9;
      out->push_back(ev);
      ++stats_.events_out;
    }
  }
}

void PairEventEngine::CloseWindow(std::vector<PairObservation>* pairs,
                                  bool flush,
                                  std::vector<DetectedEvent>* events) {
  std::sort(pairs->begin(), pairs->end(), ObservationLess);
  const Timestamp window_max_t =
      pairs->empty() ? kInvalidTimestamp : pairs->back().point.t;
  for (const PairObservation& obs : *pairs) Ingest(obs, events);
  pairs->clear();
  if (flush) Flush(events);
  ResequenceEvents(events);
  PruneAfterWindow(window_max_t);
}

void PairEventEngine::Flush(std::vector<DetectedEvent>* out) {
  // Close rendezvous pairs that accumulated enough dwell but never crossed
  // the reporting threshold before the stream ended — in ascending (a, b)
  // order, the explicit deterministic walk over the flat table.
  key_scratch_.clear();
  rendezvous_pairs_.ForEach(
      [this](uint64_t key, const PairState&) { key_scratch_.push_back(key); });
  std::sort(key_scratch_.begin(), key_scratch_.end());
  for (uint64_t key : key_scratch_) {
    PairState& pair = *rendezvous_pairs_.Find(key);
    if (!pair.reported &&
        pair.last_seen - pair.since >= options_.rendezvous_min_duration) {
      pair.reported = true;
      DetectedEvent ev;
      ev.type = EventType::kRendezvous;
      ev.start = pair.since;
      ev.end = pair.last_seen;
      ev.vessel_a = PairLo(key);
      ev.vessel_b = PairHi(key);
      ev.where = pair.where;
      ev.severity = 0.8;
      ev.detected_at = pair.last_seen;
      out->push_back(ev);
      ++stats_.events_out;
    }
  }
}

size_t PairEventEngine::PruneAfterWindow(Timestamp window_max_t) {
  const DurationMs age = options_.pair_state_prune_age_ms;
  if (age <= 0 || window_max_t == kInvalidTimestamp) return 0;
  if (prune_watermark_ == kInvalidTimestamp ||
      window_max_t > prune_watermark_) {
    prune_watermark_ = window_max_t;
  }
  const Timestamp now = prune_watermark_;
  size_t pruned = 0;

  // Rendezvous dwell states: prunable once stale, unless an unreported
  // above-threshold dwell is still waiting for its Flush emission.
  key_scratch_.clear();
  rendezvous_pairs_.ForEach([this, now, age](uint64_t key,
                                             const PairState& pair) {
    if (now - pair.last_seen > age &&
        (pair.reported ||
         pair.last_seen - pair.since < options_.rendezvous_min_duration)) {
      key_scratch_.push_back(key);
    }
  });
  for (uint64_t key : key_scratch_) pruned += rendezvous_pairs_.Erase(key);

  // Collision re-alert clocks: inert once both the re-alert window and the
  // prune horizon have passed.
  key_scratch_.clear();
  collision_alerts_.ForEach([this, now, age](uint64_t key,
                                             const Timestamp& last_alert) {
    if (now - last_alert > age &&
        now - last_alert > options_.collision_realert_ms) {
      key_scratch_.push_back(key);
    }
  });
  for (uint64_t key : key_scratch_) pruned += collision_alerts_.Erase(key);

  // Vessels past every partner-freshness horizon: the pair rules already
  // ignore them (stale-partner checks), and a returning vessel's state is
  // fully rewritten by its first observation.
  key_scratch_.clear();
  vessels_.ForEach([this, now, age](Mmsi mmsi, const VesselState& vessel) {
    if (now - vessel.last.t > age) key_scratch_.push_back(mmsi);
  });
  for (uint64_t key : key_scratch_) {
    const Mmsi mmsi = static_cast<Mmsi>(key);
    pruned += vessels_.Erase(mmsi);
    live_.Remove(mmsi);
  }
  return pruned;
}

}  // namespace marlin
