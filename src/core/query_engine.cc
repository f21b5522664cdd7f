#include "core/query_engine.h"

#include <algorithm>
#include <map>

#include "stream/event.h"
#include "stream/merge.h"

namespace marlin {

namespace {

/// Full-payload tie-break so the within-partition sort is a total order:
/// (t, mmsi) is unique per partition by construction (one point per vessel
/// per timestamp survives reconstruction), but a total comparator keeps the
/// determinism proof independent of that invariant.
bool RowLess(const QueryRow& a, const QueryRow& b) {
  if (a.t != b.t) return a.t < b.t;
  if (a.mmsi != b.mmsi) return a.mmsi < b.mmsi;
  if (a.position.lat != b.position.lat) return a.position.lat < b.position.lat;
  if (a.position.lon != b.position.lon) return a.position.lon < b.position.lon;
  // Kinematics tie-break on bit patterns: a numeric `<` over NaN payloads
  // (unavailable kinematics) violates strict weak ordering and is UB for
  // std::sort. Both fields are non-negative when available, so bit order
  // coincides with numeric order there.
  const auto sog_a = std::bit_cast<uint32_t>(a.sog_mps);
  const auto sog_b = std::bit_cast<uint32_t>(b.sog_mps);
  if (sog_a != sog_b) return sog_a < sog_b;
  return std::bit_cast<uint32_t>(a.cog_deg) <
         std::bit_cast<uint32_t>(b.cog_deg);
}

struct MergeLess {
  bool operator()(const Event<QueryRow>& a, const Event<QueryRow>& b) const {
    return RowLess(a.payload, b.payload);
  }
};

/// Resamples the merged raw rows at a fixed cadence: per-vessel linear
/// interpolation between archived fixes via `Trajectory::At`, grid anchored
/// at the spec's t0 when finite (so different queries over the same data
/// share sample instants), else at each track's own start.
void Resample(const QuerySpec& spec, std::vector<QueryRow>* rows) {
  // std::map: deterministic vessel order for the rebuild below.
  std::map<Mmsi, Trajectory> tracks;
  for (const QueryRow& row : *rows) {
    Trajectory& traj = tracks[row.mmsi];
    traj.mmsi = row.mmsi;
    traj.points.push_back(
        TrajectoryPoint{row.t, row.position, row.sog_mps, row.cog_deg});
  }
  rows->clear();
  for (const auto& [mmsi, traj] : tracks) {
    const Timestamp start = traj.StartTime();
    const Timestamp end = std::min(spec.t1, traj.EndTime());
    Timestamp anchor = spec.t0 != kInvalidTimestamp ? spec.t0 : start;
    if (anchor < start) {
      // First grid instant at or after the track start (no extrapolation).
      const Timestamp steps = (start - anchor + spec.resample_ms - 1) /
                              spec.resample_ms;
      anchor += steps * spec.resample_ms;
    }
    for (Timestamp t = anchor; t <= end; t += spec.resample_ms) {
      const TrajectoryPoint p = traj.At(t);
      rows->push_back(QueryRow{t, mmsi, p.position, p.sog_mps, p.cog_deg});
    }
  }
  std::sort(rows->begin(), rows->end(), RowLess);
}

}  // namespace

QueryEngine::QueryEngine(std::vector<const ShardArchive*> partitions)
    : QueryEngine(std::move(partitions), Options()) {}

QueryEngine::QueryEngine(std::vector<const ShardArchive*> partitions,
                         const Options& options)
    : options_(options),
      queue_(std::max<size_t>(1, options.queue_capacity)) {
  for (const ShardArchive* p : partitions) {
    if (p != nullptr) partitions_.push_back(p);
  }
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryEngine::~QueryEngine() {
  queue_.Close();
  for (std::thread& w : workers_) w.join();
}

QueueHopStats QueryEngine::hop_stats() const {
  QueueHopStats s;
  s.pushed = pushed_.load(std::memory_order_relaxed);
  s.popped = popped_.load(std::memory_order_relaxed);
  s.push_waits = push_waits_.load(std::memory_order_relaxed);
  s.depth_high_water = depth_high_water_.load(std::memory_order_relaxed);
  s.batch_hist[0] = s.popped;
  return s;
}

void QueryEngine::WorkerLoop() {
  while (auto task = queue_.Pop()) {
    popped_.fetch_add(1, std::memory_order_relaxed);
    ScanPartition(*task->snapshot, *task->spec, task->rows, task->stats);
    task->done->count_down();
  }
}

void QueryEngine::ScanPartition(const ShardArchive::PartitionSnapshot& snapshot,
                                const ResolvedSpec& resolved,
                                std::vector<QueryRow>* rows,
                                QueryStats* stats) {
  const QuerySpec& spec = *resolved.spec;
  stats->partitions = 1;
  stats->blocks_total = snapshot.blocks.size();

  // Candidate selection over the indexed prefix: interval-tree stab for the
  // time range, intersected with the R-tree hit set when a region filter is
  // present. Entry ids are block indexes, so sorted sets intersect directly.
  std::vector<uint64_t> candidates;
  if (snapshot.indexed > 0) {
    candidates = snapshot.intervals->Overlapping(spec.t0, spec.t1);
    std::sort(candidates.begin(), candidates.end());
    stats->blocks_skipped_time += snapshot.indexed - candidates.size();
    if (spec.region.has_value()) {
      std::vector<uint64_t> in_region = snapshot.rtree->Query(*spec.region);
      std::sort(in_region.begin(), in_region.end());
      std::vector<uint64_t> both;
      both.reserve(std::min(candidates.size(), in_region.size()));
      std::set_intersection(candidates.begin(), candidates.end(),
                            in_region.begin(), in_region.end(),
                            std::back_inserter(both));
      stats->blocks_skipped_region += candidates.size() - both.size();
      candidates = std::move(both);
    }
  }
  // Unindexed tail: the same pruning against each block's own metadata.
  for (size_t i = snapshot.indexed; i < snapshot.blocks.size(); ++i) {
    const PositionBlock& block = *snapshot.blocks[i];
    if (block.t1 < spec.t0 || block.t0 > spec.t1) {
      ++stats->blocks_skipped_time;
      continue;
    }
    if (spec.region.has_value() && !spec.region->Intersects(block.bounds)) {
      ++stats->blocks_skipped_region;
      continue;
    }
    candidates.push_back(i);
  }

  std::vector<TrajectoryPoint> scratch;
  for (const uint64_t id : candidates) {
    const PositionBlock& block = *snapshot.blocks[id];
    if (!resolved.vessels_sorted.empty() &&
        !std::binary_search(resolved.vessels_sorted.begin(),
                            resolved.vessels_sorted.end(), block.mmsi)) {
      ++stats->blocks_skipped_vessel;
      continue;
    }
    ++stats->blocks_scanned;
    scratch.clear();
    if (!DecodePositionBlock(block.data, block.count, block.mmsi, block.t0,
                             &scratch)
             .ok()) {
      continue;  // corrupt block: served-tier reads degrade, never throw
    }
    stats->points_decoded += scratch.size();
    for (const TrajectoryPoint& p : scratch) {
      if (p.t < spec.t0 || p.t > spec.t1) continue;
      if (spec.region.has_value() && !spec.region->Contains(p.position)) {
        continue;
      }
      rows->push_back(
          QueryRow{p.t, block.mmsi, p.position, p.sog_mps, p.cog_deg});
    }
  }
  // Canonical partition order; the coordinator merge preserves it globally.
  std::sort(rows->begin(), rows->end(), RowLess);
}

QueryResult QueryEngine::Execute(const QuerySpec& spec) const {
  QueryResult result;
  if (spec.t1 < spec.t0 || partitions_.empty()) return result;

  ResolvedSpec resolved;
  resolved.spec = &spec;
  resolved.vessels_sorted = spec.vessels;
  std::sort(resolved.vessels_sorted.begin(), resolved.vessels_sorted.end());

  // Pin every partition's current epoch snapshot for the whole query —
  // ingest can keep publishing new epochs underneath; we read a consistent
  // cut and never block it.
  std::vector<std::shared_ptr<const ShardArchive::PartitionSnapshot>> snaps;
  snaps.reserve(partitions_.size());
  for (const ShardArchive* p : partitions_) snaps.push_back(p->snapshot());

  std::vector<std::vector<QueryRow>> partition_rows(snaps.size());
  std::vector<QueryStats> partition_stats(snaps.size());
  if (options_.num_workers == 0) {
    for (size_t i = 0; i < snaps.size(); ++i) {
      ScanPartition(*snaps[i], resolved, &partition_rows[i],
                    &partition_stats[i]);
    }
  } else {
    std::latch done(static_cast<ptrdiff_t>(snaps.size()));
    for (size_t i = 0; i < snaps.size(); ++i) {
      Task task{snaps[i].get(), &resolved, &partition_rows[i],
                &partition_stats[i], &done};
      size_t depth = 0;
      bool blocked = false;
      if (!queue_.Push(std::move(task), &depth, &blocked)) {
        // Queue closed (destruction race): scan inline so the latch and
        // the result stay correct.
        ScanPartition(*snaps[i], resolved, &partition_rows[i],
                      &partition_stats[i]);
        done.count_down();
        continue;
      }
      pushed_.fetch_add(1, std::memory_order_relaxed);
      if (blocked) push_waits_.fetch_add(1, std::memory_order_relaxed);
      if (depth > depth_high_water_.load(std::memory_order_relaxed)) {
        depth_high_water_.store(depth, std::memory_order_relaxed);
      }
    }
    done.wait();
  }

  // K-way merge of the sorted partition streams in canonical order.
  std::vector<StreamMerger<QueryRow, MergeLess>::Source> sources;
  std::vector<std::vector<Event<QueryRow>>> wrapped(partition_rows.size());
  sources.reserve(partition_rows.size());
  for (size_t i = 0; i < partition_rows.size(); ++i) {
    wrapped[i].reserve(partition_rows[i].size());
    for (QueryRow& row : partition_rows[i]) {
      Event<QueryRow> ev;
      ev.event_time = row.t;
      ev.payload = std::move(row);
      wrapped[i].push_back(std::move(ev));
    }
    sources.push_back(VectorSource<QueryRow>(std::move(wrapped[i])));
  }
  StreamMerger<QueryRow, MergeLess> merger(std::move(sources));
  size_t total = 0;
  for (const auto& pr : partition_rows) total += pr.size();
  result.rows.reserve(total);
  while (auto ev = merger.Next()) {
    result.rows.push_back(std::move(ev->payload));
  }

  for (const QueryStats& ps : partition_stats) result.stats.Merge(ps);
  if (spec.resample_ms > 0) Resample(spec, &result.rows);
  result.stats.rows = result.rows.size();
  return result;
}

}  // namespace marlin
