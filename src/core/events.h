#ifndef MARLIN_CORE_EVENTS_H_
#define MARLIN_CORE_EVENTS_H_

/// \file events.h
/// \brief Complex event recognition over reconstructed vessel streams
/// (paper §3.1: "algorithms for complex event (and outlier) recognition and
/// prediction in real-time, dealing with heterogeneous, fluctuating and
/// noisy voluminous data streams").
///
/// Low-level events (zone transitions, stops, dark-period boundaries) are
/// derived per point; high-level events (rendezvous, loitering, spoofing,
/// collision risk, illegal fishing) are stateful patterns over vessels and
/// vessel pairs, contextualized by the zone database — the paper's
/// "explicit consideration of context … as a reference for anomaly
/// detection" (§4).
///
/// The detector is split along the sharding axis of the pipeline:
///  * `VesselEventEngine` holds every rule whose state is keyed by a single
///    MMSI (zones, stop/move, dark periods, loitering, fishing, spoofing).
///    One instance per pipeline shard scales linearly.
///  * `PairEventEngine` holds the vessel-pair rules (rendezvous, collision
///    risk) that need the *global* live picture. It consumes the compact
///    `PairObservation` stream the vessel engines emit, canonically ordered
///    by (event time, MMSI), downstream of the shard merge.
/// `EventEngine` composes the two for single-threaded callers and preserves
/// the original per-point behaviour exactly.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ais/types.h"
#include "common/flat_hash.h"
#include "common/ring_buffer.h"
#include "context/zones.h"
#include "core/reconstruction.h"
#include "geo/geometry.h"
#include "geo/kinematics.h"
#include "storage/grid_index.h"

namespace marlin {

/// \brief Detected event classes.
enum class EventType : uint8_t {
  kZoneEntry = 0,
  kZoneExit,
  kStop,
  kMove,
  kDarkPeriod,      ///< reporting gap beyond the dark threshold
  kSpeedViolation,  ///< above a zone's speed limit
  kRendezvous,      ///< two slow vessels in close proximity at sea
  kLoitering,       ///< one vessel confined & slow at sea
  kIdentitySpoof,   ///< persistent conflicting reports under one MMSI
  kTeleportSpoof,   ///< isolated impossible position jump
  kCollisionRisk,   ///< CPA/TCPA below thresholds
  kIllegalFishing,  ///< fishing-speed pattern inside a prohibited zone
  kBehaviorChange,  ///< abrupt shift of a vessel's kinematic regime
  kKinematicIntegrity,  ///< reported kinematics contradict positions
  kMmsiConflict,    ///< one MMSI reporting from irreconcilable positions
};

const char* EventTypeName(EventType t);

/// \brief One detected event.
struct DetectedEvent {
  EventType type = EventType::kZoneEntry;
  Timestamp start = 0;
  Timestamp end = 0;          ///< == start for instantaneous events
  Mmsi vessel_a = 0;
  Mmsi vessel_b = 0;          ///< second participant (rendezvous/collision)
  GeoPoint where;
  uint32_t zone_id = 0;       ///< zone involved, if any
  double severity = 0.5;      ///< 0..1 operator triage hint
  Timestamp detected_at = 0;  ///< event-time when the detector fired
};

/// \brief Strict-weak order used to re-sequence events merged from pipeline
/// shards into one canonical, partition-independent stream.
bool CanonicalEventLess(const DetectedEvent& a, const DetectedEvent& b);

/// \brief Stable-sorts `events` into the canonical order. Events of one
/// vessel keep their detection order (same shard ⇒ stable); cross-vessel
/// ties are broken by vessel ids.
void ResequenceEvents(std::vector<DetectedEvent>* events);

/// \brief The per-point digest a vessel engine hands to the pair engine:
/// everything the pair rules need, nothing they can recompute.
struct PairObservation {
  Mmsi mmsi = 0;
  TrajectoryPoint point;
  bool in_port_area = false;  ///< inside a port/anchorage zone at this point
};

/// \brief Shared rule thresholds (vessel and pair rules).
struct EventRuleOptions {
  // Rendezvous
  double rendezvous_distance_m = 500.0;
  double rendezvous_max_speed_mps = 1.5;
  DurationMs rendezvous_min_duration = 10 * kMillisPerMinute;
  // Loitering
  double loiter_radius_m = 2500.0;
  double loiter_max_speed_mps = 1.5;
  DurationMs loiter_min_duration = 45 * kMillisPerMinute;
  DurationMs loiter_realert_ms = 2 * kMillisPerHour;
  // Dark periods
  DurationMs dark_threshold_ms = 15 * kMillisPerMinute;
  // Spoofing
  int identity_conflict_count = 3;
  DurationMs identity_conflict_window = 30 * kMillisPerMinute;
  // Collision risk
  double cpa_threshold_m = 300.0;
  double tcpa_horizon_s = 900.0;
  double collision_min_speed_mps = 2.0;
  double collision_scan_radius_m = 10000.0;
  DurationMs collision_realert_ms = 10 * kMillisPerMinute;
  // Illegal fishing
  double fishing_speed_lo_mps = 0.8;
  double fishing_speed_hi_mps = 3.5;
  DurationMs fishing_min_duration = 20 * kMillisPerMinute;
  // Stops
  double stop_speed_mps = 0.5;
  // Windowed pruning of stale pair-rule state (vessels unseen past the
  // horizon, inert rendezvous/collision entries). Keeps the pair engine's
  // state O(active pairs) instead of O(everything ever seen). The horizon
  // must comfortably exceed both the partner-freshness windows of the pair
  // rules (5 minutes) and the worst cross-window event-time regression of
  // the feed (satellite deliveries: up to 15 minutes) — pruning is
  // behaviour-neutral under that assumption because expired state is
  // reconstructed identically on next contact. 0 disables pruning.
  DurationMs pair_state_prune_age_ms = 60 * kMillisPerMinute;
};

/// \brief Counters shared by all event engines.
struct EventEngineStats {
  uint64_t points_in = 0;
  uint64_t events_out = 0;

  /// \brief Accumulates another engine's counters (per-shard merge).
  void Merge(const EventEngineStats& other) {
    points_in += other.points_in;
    events_out += other.events_out;
  }
};

/// \brief Single-vessel rules: shardable by MMSI.
class VesselEventEngine {
 public:
  using Options = EventRuleOptions;
  using Stats = EventEngineStats;

  VesselEventEngine(const ZoneDatabase* zones, const Options& options);
  explicit VesselEventEngine(const ZoneDatabase* zones)
      : VesselEventEngine(zones, Options()) {}

  /// \brief Registers static vessel info (ship type from type-5 messages);
  /// enables category-sensitive rules (illegal fishing).
  void SetVesselInfo(Mmsi mmsi, int ship_type);

  /// \brief Consumes one clean point; appends detected events. Returns the
  /// observation the pair rules need for this point.
  PairObservation Ingest(const ReconstructedPoint& rp,
                         std::vector<DetectedEvent>* out);

  /// \brief Consumes a rejected report (spoofing evidence).
  void IngestRejection(const RejectedReport& rejection,
                       std::vector<DetectedEvent>* out);

  const Stats& stats() const { return stats_; }

 private:
  /// The loitering window with its running bounding box. Four monotonic
  /// deques of window offsets (the points' push sequence numbers, 4 bytes
  /// each) track min/max latitude and longitude. A deque keeps an offset
  /// only while no later point is strictly more extreme, so its front is
  /// the window's *oldest* extreme: the value a `BoundingBox::Extend` fold
  /// over the whole window settles on, ties and ±0.0 included. Push and
  /// expiry are O(1) amortized instead of a rescan per point.
  struct LoiterWindow {
    RingBuffer<TrajectoryPoint> points;
    uint32_t head = 0;  ///< sequence number of `points.front()`
    RingBuffer<uint32_t> min_lat, max_lat, min_lon, max_lon;

    const TrajectoryPoint& At(uint32_t seq) const { return points[seq - head]; }
    void Push(const TrajectoryPoint& p);
    void PopFront();
    void Clear();
    /// Bounding box of the window; bit-identical to the Extend fold.
    /// Requires a non-empty window.
    BoundingBox Box() const;
  };

  /// Flat per-vessel state: the id sets are small sorted vectors (zone
  /// membership is a handful of ids), the sliding windows are ring buffers,
  /// and the whole struct lives by value in an open-addressing table — no
  /// node allocations anywhere on the per-point path.
  struct VesselState {
    TrajectoryPoint last;
    bool has_last = false;
    std::vector<uint32_t> zones;  ///< sorted ascending (emission order)
    bool stopped = false;
    bool in_port_area = false;
    LoiterWindow loiter;
    Timestamp last_loiter_alert = kInvalidTimestamp;
    // Illegal fishing accumulation per prohibited zone (tiny: linear scan)
    std::vector<std::pair<uint32_t, Timestamp>> fishing_since;
    std::vector<uint32_t> fishing_alerted;  ///< sorted ascending
    // Speed-violation rate limit per zone visit
    std::vector<uint32_t> speed_alerted;    ///< sorted ascending
    // Spoof jump history
    RingBuffer<Timestamp> jump_times;
    Timestamp last_spoof_alert = kInvalidTimestamp;
    int ship_type = 0;
  };

  void CheckZones(const ReconstructedPoint& rp, VesselState* vessel,
                  std::vector<DetectedEvent>* out);
  void CheckStopMove(const ReconstructedPoint& rp, VesselState* vessel,
                     std::vector<DetectedEvent>* out);
  void CheckLoitering(const ReconstructedPoint& rp, VesselState* vessel,
                      std::vector<DetectedEvent>* out);
  void CheckIllegalFishing(const ReconstructedPoint& rp, VesselState* vessel,
                           std::vector<DetectedEvent>* out);

  const ZoneDatabase* zones_;
  Options options_;
  FlatHashMap<Mmsi, VesselState> vessels_;
  Stats stats_;
  // Per-point scratch, reused across Ingest calls.
  std::vector<const GeoZone*> zones_at_scratch_;
  std::vector<uint32_t> zone_ids_scratch_;
};

/// \brief Vessel-pair rules (rendezvous, collision risk) over the global
/// live picture. Consumes the canonical `PairObservation` stream; a single
/// instance sits downstream of the shard merge.
class PairEventEngine {
 public:
  using Options = EventRuleOptions;
  using Stats = EventEngineStats;

  explicit PairEventEngine(const Options& options);
  PairEventEngine() : PairEventEngine(Options()) {}

  /// \brief The canonical (event-time, MMSI) order of the pair-observation
  /// stream. `CloseWindow` sorts each window with exactly this comparator.
  static bool ObservationLess(const PairObservation& a,
                              const PairObservation& b) {
    if (a.point.t != b.point.t) return a.point.t < b.point.t;
    return a.mmsi < b.mmsi;
  }

  /// \brief Consumes one observation; appends detected pair events.
  void Ingest(const PairObservation& obs, std::vector<DetectedEvent>* out);

  /// \brief Closes one processing window: sorts `pairs` into the canonical
  /// (event-time, MMSI) order, ingests them (clearing the vector), flushes
  /// open pair states when `flush` is set, re-sequences `events`
  /// canonically and prunes stale state. Both pipelines close their
  /// windows here — the sequential one and the sharded coordinator — so
  /// there is one window-close path.
  void CloseWindow(std::vector<PairObservation>* pairs, bool flush,
                   std::vector<DetectedEvent>* events);

  /// \brief Closes open pair states at end of stream.
  void Flush(std::vector<DetectedEvent>* out);

  const Stats& stats() const { return stats_; }

  /// \brief Windowed pruning of stale state (see
  /// `EventRuleOptions::pair_state_prune_age_ms`), run by `CloseWindow`.
  /// `window_max_t` is the newest event time of the window just closed.
  /// Entries are prunable only when their disappearance is unobservable:
  /// vessels past every partner-freshness horizon, reported or
  /// sub-threshold rendezvous dwell (both reconstructed from scratch on
  /// next contact), and expired collision re-alert clocks. Returns the
  /// number of entries removed.
  size_t PruneAfterWindow(Timestamp window_max_t);

 private:
  struct VesselState {
    TrajectoryPoint last;
    bool has_last = false;
    bool in_port_area = false;
    /// CPA inputs of `last`, prepared when it was ingested; valid only when
    /// `last` is collision-eligible (speed, course, minimum speed).
    PreparedMotion motion;
  };

  struct PairState {
    Timestamp since = 0;
    Timestamp last_seen = 0;
    GeoPoint where;
    bool reported = false;
  };

  /// Unordered pair key, packed (min << 32 | max) for the flat tables.
  static uint64_t PackPair(Mmsi a, Mmsi b) {
    const Mmsi lo = a < b ? a : b;
    const Mmsi hi = a < b ? b : a;
    return (static_cast<uint64_t>(lo) << 32) | hi;
  }
  static Mmsi PairLo(uint64_t key) { return static_cast<Mmsi>(key >> 32); }
  static Mmsi PairHi(uint64_t key) {
    return static_cast<Mmsi>(key & 0xFFFFFFFFull);
  }

  void CheckRendezvous(const PairObservation& obs,
                       std::vector<DetectedEvent>* out);
  void CheckCollision(const PairObservation& obs, const PreparedMotion& self,
                      std::vector<DetectedEvent>* out);
  /// CPA needs a full motion state: a sentinel (NaN) speed or course must
  /// not reach it, and `sog < min` alone would let a NaN speed through.
  bool CollisionEligible(const TrajectoryPoint& p) const {
    return p.HasSpeed() && p.HasCourse() &&
           p.sog_mps >= options_.collision_min_speed_mps;
  }

  Options options_;
  // Open-addressing flat tables: iteration order is slot order, so every
  // consumer whose *output* depends on order (Flush emission) collects keys
  // into `key_scratch_` and sorts — the explicit deterministic order the
  // sharding equivalence proofs rest on.
  FlatHashMap<Mmsi, VesselState> vessels_;
  FlatHashMap<uint64_t, PairState> rendezvous_pairs_;
  FlatHashMap<uint64_t, Timestamp> collision_alerts_;
  GridIndex live_;
  Stats stats_;
  Timestamp prune_watermark_ = kInvalidTimestamp;
  std::vector<uint64_t> key_scratch_;  ///< sorted-walk scratch
  std::vector<std::pair<uint64_t, double>> radius_scratch_;  ///< scan scratch
};

/// \brief Streaming complex-event detector: the single-threaded composition
/// of the vessel and pair engines (each point flows through both in order).
class EventEngine {
 public:
  using Options = EventRuleOptions;
  using Stats = EventEngineStats;

  EventEngine(const ZoneDatabase* zones, const Options& options)
      : vessel_rules_(zones, options), pair_rules_(options) {}
  explicit EventEngine(const ZoneDatabase* zones)
      : EventEngine(zones, Options()) {}

  /// \brief Registers static vessel info (ship type from type-5 messages).
  void SetVesselInfo(Mmsi mmsi, int ship_type) {
    vessel_rules_.SetVesselInfo(mmsi, ship_type);
  }

  /// \brief Consumes one clean point; appends detected events.
  void Ingest(const ReconstructedPoint& rp, std::vector<DetectedEvent>* out) {
    pair_rules_.Ingest(vessel_rules_.Ingest(rp, out), out);
  }

  /// \brief Consumes a rejected report (spoofing evidence).
  void IngestRejection(const RejectedReport& rejection,
                       std::vector<DetectedEvent>* out) {
    vessel_rules_.IngestRejection(rejection, out);
  }

  /// \brief Closes open pair/duration states at end of stream.
  void Flush(std::vector<DetectedEvent>* out) { pair_rules_.Flush(out); }

  const Stats& stats() const {
    stats_ = vessel_rules_.stats();
    stats_.events_out += pair_rules_.stats().events_out;
    return stats_;
  }

 private:
  VesselEventEngine vessel_rules_;
  PairEventEngine pair_rules_;
  mutable Stats stats_;
};

}  // namespace marlin

#endif  // MARLIN_CORE_EVENTS_H_
