#ifndef MARLIN_CORE_QUERY_ENGINE_H_
#define MARLIN_CORE_QUERY_ENGINE_H_

/// \file query_engine.h
/// \brief Coordinator query layer of the historical serving tier: fans a
/// `QuerySpec` out over the per-shard archive partitions, merges the
/// per-partition results in canonical (event-time, MMSI) order, and
/// optionally resamples tracks at a fixed cadence — the AISdb-style query
/// surface (time-range × region × vessel-set × resample) the paper's
/// integration challenge calls for (PAPERS.md).
///
/// Concurrency model: partitions publish immutable epoch snapshots
/// (`ShardArchive::snapshot()`, a shared_ptr copy), so query execution
/// holds no lock while scanning — N readers run against live ingest
/// without stalling it. Fan-out rides a mutex `BoundedQueue`: the query hop
/// is many-producer (every reader thread enqueues) and many-consumer (the
/// worker pool), so the SPSC rings of the pipeline's other hops do not
/// apply. It is the pipeline's one MPMC hop.
///
/// Determinism: rows are totally ordered by (event time, MMSI, payload) and
/// every vessel lives in exactly one partition, so the merged stream is
/// byte-identical no matter how the archive was partitioned — the same
/// `QuerySpec` over a sequential single-archive world and an N-shard world
/// returns identical bytes in identical order. tests/query_serving_test.cc
/// holds the proof battery.

#include <atomic>
#include <bit>
#include <cstdint>
#include <latch>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "ais/types.h"
#include "common/time.h"
#include "geo/geometry.h"
#include "storage/archive.h"
#include "stream/queue.h"
#include "stream/spsc_ring.h"

namespace marlin {

/// \brief One historical query: time range × region × vessel set, with
/// optional fixed-cadence resampling of the matched tracks.
struct QuerySpec {
  /// Inclusive event-time range. Defaults cover everything.
  Timestamp t0 = kInvalidTimestamp;
  Timestamp t1 = kMaxTimestamp;
  /// Spatial filter: only points inside the box (blocks are pre-pruned via
  /// the R-tree / block bounds). nullopt = no spatial filter.
  std::optional<BoundingBox> region;
  /// Vessel-set filter; empty = all vessels.
  std::vector<Mmsi> vessels;
  /// > 0 resamples each matched vessel's track at this cadence (linear
  /// interpolation between archived fixes, no extrapolation past the ends),
  /// anchored at `t0` when finite, else at the track start. 0 returns the
  /// raw archived points.
  DurationMs resample_ms = 0;
};

/// \brief One output row: an archived (or resampled) position fix.
struct QueryRow {
  Timestamp t = 0;
  Mmsi mmsi = 0;
  GeoPoint position;
  float sog_mps = 0.0f;
  float cog_deg = 0.0f;

  /// Kinematics are compared as bit patterns: the archive stores raw float
  /// bits, the "not available" state is one canonical quiet NaN, and
  /// `NaN == NaN` is false numerically — value comparison would make every
  /// row with unavailable kinematics unequal to itself.
  friend bool operator==(const QueryRow& a, const QueryRow& b) {
    return a.t == b.t && a.mmsi == b.mmsi &&
           a.position.lat == b.position.lat &&
           a.position.lon == b.position.lon &&
           std::bit_cast<uint32_t>(a.sog_mps) ==
               std::bit_cast<uint32_t>(b.sog_mps) &&
           std::bit_cast<uint32_t>(a.cog_deg) ==
               std::bit_cast<uint32_t>(b.cog_deg);
  }
};

/// \brief Mergeable per-query counters: how much work the indexes saved.
struct QueryStats {
  uint64_t partitions = 0;
  uint64_t blocks_total = 0;          ///< blocks visible across partitions
  uint64_t blocks_scanned = 0;        ///< blocks actually decoded
  uint64_t blocks_skipped_time = 0;   ///< pruned by interval index / t0-t1 meta
  uint64_t blocks_skipped_region = 0; ///< pruned by R-tree / bounds meta
  uint64_t blocks_skipped_vessel = 0; ///< pruned by the vessel-set filter
  uint64_t points_decoded = 0;
  uint64_t rows = 0;                  ///< rows returned (after resampling)

  void Merge(const QueryStats& o) {
    partitions += o.partitions;
    blocks_total += o.blocks_total;
    blocks_scanned += o.blocks_scanned;
    blocks_skipped_time += o.blocks_skipped_time;
    blocks_skipped_region += o.blocks_skipped_region;
    blocks_skipped_vessel += o.blocks_skipped_vessel;
    points_decoded += o.points_decoded;
    rows += o.rows;
  }
};

/// \brief A completed query: rows in canonical (event-time, MMSI) order.
struct QueryResult {
  std::vector<QueryRow> rows;
  QueryStats stats;
};

/// \brief The coordinator fan-out/merge engine. Thread-safe: any number of
/// reader threads may call `Execute` concurrently while ingest runs.
class QueryEngine {
 public:
  struct Options {
    /// Fan-out worker pool size. 0 scans the partitions inline on the
    /// calling reader thread (no pool, no queue hop) — the sequential
    /// reference arm.
    size_t num_workers = 0;
    /// Fan-out queue capacity (tasks, not queries).
    size_t queue_capacity = 64;
  };

  /// \brief `partitions` must outlive the engine (they are the pipeline's
  /// shard archives; null entries are ignored).
  explicit QueryEngine(std::vector<const ShardArchive*> partitions);
  QueryEngine(std::vector<const ShardArchive*> partitions,
              const Options& options);
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// \brief Runs one query against the partitions' current epoch snapshots.
  QueryResult Execute(const QuerySpec& spec) const;

  /// \brief Fan-out hop health (zeros when num_workers == 0). Every pop
  /// carries one task, so the batch histogram is all singletons.
  QueueHopStats hop_stats() const;

  size_t num_partitions() const { return partitions_.size(); }

 private:
  /// Spec with the vessel set pre-sorted for binary search.
  struct ResolvedSpec {
    const QuerySpec* spec = nullptr;
    std::vector<Mmsi> vessels_sorted;
  };

  struct Task {
    const ShardArchive::PartitionSnapshot* snapshot = nullptr;
    const ResolvedSpec* spec = nullptr;
    std::vector<QueryRow>* rows = nullptr;
    QueryStats* stats = nullptr;
    std::latch* done = nullptr;
  };

  static void ScanPartition(const ShardArchive::PartitionSnapshot& snapshot,
                            const ResolvedSpec& resolved,
                            std::vector<QueryRow>* rows, QueryStats* stats);
  void WorkerLoop();

  std::vector<const ShardArchive*> partitions_;
  Options options_;
  /// MPMC fan-out hop (see file comment) and its counters — atomics, since
  /// any reader may push and any worker pop.
  mutable BoundedQueue<Task> queue_;
  mutable std::atomic<uint64_t> pushed_{0};
  mutable std::atomic<uint64_t> popped_{0};
  mutable std::atomic<uint64_t> push_waits_{0};
  mutable std::atomic<size_t> depth_high_water_{0};
  std::vector<std::thread> workers_;
};

}  // namespace marlin

#endif  // MARLIN_CORE_QUERY_ENGINE_H_
