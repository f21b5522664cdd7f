// Historical serving tier tests: the determinism proof battery (same
// QuerySpec over sequential vs N-shard archives must be byte-identical,
// N ∈ {1, 2, 4}, across multiple scenario worlds), concurrent readers
// against live ingest, incremental index maintenance, and the
// allocation-freedom of the archive staging hot path.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/alloc_probe.h"
#include "core/pipeline.h"
#include "core/query_engine.h"
#include "core/sharded_pipeline.h"
#include "sim/scenario.h"
#include "sim/world.h"
#include "storage/archive.h"

MARLIN_INSTALL_ALLOC_PROBE()

namespace marlin {
namespace {

ScenarioOutput MakeScenario(uint64_t seed, bool perfect_reception) {
  static World world = World::Basin();
  ScenarioConfig config;
  config.seed = seed;
  config.duration = 90 * kMillisPerMinute;
  config.transit_vessels = 14;
  config.fishing_vessels = 4;
  config.loiter_vessels = 2;
  config.rendezvous_pairs = 2;
  config.dark_vessels = 2;
  config.spoof_identity_vessels = 1;
  config.spoof_teleport_vessels = 1;
  config.perfect_reception = perfect_reception;
  return GenerateScenario(world, config);
}

const World& SharedWorld() {
  static World world = World::Basin();
  return world;
}

PipelineConfig ArchiveConfig() {
  PipelineConfig pc;
  pc.window_lines = 512;  // several windows (= epochs) per scenario
  pc.archive.enabled = true;
  // Volatile archives: the equivalence proof is about blocks and query
  // results, not files. Small rebuild budget so scenarios cross the index
  // tail threshold repeatedly.
  pc.archive.index_rebuild_blocks = 16;
  return pc;
}

/// Byte-exact serialization of a result's rows: the proof compares these
/// strings, so "identical" means identical values AND identical order.
std::string RowBytes(const std::vector<QueryRow>& rows) {
  std::string out;
  out.reserve(rows.size() * 32);
  const auto append = [&out](const void* p, size_t n) {
    out.append(reinterpret_cast<const char*>(p), n);
  };
  for (const QueryRow& r : rows) {
    append(&r.t, sizeof(r.t));
    append(&r.mmsi, sizeof(r.mmsi));
    append(&r.position.lat, sizeof(r.position.lat));
    append(&r.position.lon, sizeof(r.position.lon));
    append(&r.sog_mps, sizeof(r.sog_mps));
    append(&r.cog_deg, sizeof(r.cog_deg));
  }
  return out;
}

/// The spec battery: every filter dimension alone and combined, derived
/// from the reference result so the filters are guaranteed selective.
std::vector<QuerySpec> SpecBattery(const QueryResult& full) {
  std::vector<QuerySpec> specs;
  specs.push_back(QuerySpec{});  // everything
  if (full.rows.empty()) return specs;

  const Timestamp tmin = full.rows.front().t;
  const Timestamp tmax = full.rows.back().t;
  const Timestamp span = tmax - tmin;

  QuerySpec time_range;
  time_range.t0 = tmin + span / 4;
  time_range.t1 = tmin + (3 * span) / 4;
  specs.push_back(time_range);

  BoundingBox extent = BoundingBox::Empty();
  for (const QueryRow& r : full.rows) extent.Extend(r.position);
  QuerySpec region;
  region.region = BoundingBox(
      extent.min_lat, extent.min_lon,
      extent.min_lat + (extent.max_lat - extent.min_lat) * 0.6,
      extent.min_lon + (extent.max_lon - extent.min_lon) * 0.6);
  specs.push_back(region);

  QuerySpec vessels;
  Mmsi last = 0;
  size_t distinct = 0;
  for (const QueryRow& r : full.rows) {
    if (r.mmsi == last) continue;
    last = r.mmsi;
    if (++distinct % 3 == 0) vessels.vessels.push_back(r.mmsi);
  }
  if (!vessels.vessels.empty()) specs.push_back(vessels);

  QuerySpec resample = time_range;
  resample.resample_ms = kMillisPerMinute;
  specs.push_back(resample);

  QuerySpec combo = time_range;
  combo.region = region.region;
  combo.vessels = vessels.vessels;
  specs.push_back(combo);
  return specs;
}

// --- Determinism: sequential vs N shards ----------------------------------

TEST(QueryServingTest, SequentialVsShardedByteIdentical) {
  for (const uint64_t seed : {7101u, 7102u, 7103u}) {
    const ScenarioOutput scenario =
        MakeScenario(seed, /*perfect_reception=*/seed == 7103u);
    const PipelineConfig pc = ArchiveConfig();

    MaritimePipeline sequential(pc, &SharedWorld().zones(), nullptr, nullptr,
                                nullptr);
    sequential.Run(scenario.nmea);
    ASSERT_NE(sequential.archive(), nullptr);
    QueryEngine reference({sequential.archive()});
    const QueryResult full = reference.Execute(QuerySpec{});
    ASSERT_GT(full.rows.size(), 0u) << "seed " << seed;
    const std::vector<QuerySpec> battery = SpecBattery(full);

    for (const size_t num_shards : {1, 2, 4}) {
      ShardedPipeline::Options opts;
      opts.num_shards = num_shards;
      ShardedPipeline sharded(pc, opts, &SharedWorld().zones(), nullptr,
                              nullptr, nullptr);
      sharded.Run(scenario.nmea);

      QueryEngine::Options qopts;
      qopts.num_workers = num_shards > 1 ? 2 : 0;
      QueryEngine engine(sharded.archive_view(), qopts);
      for (size_t i = 0; i < battery.size(); ++i) {
        const QueryResult seq = reference.Execute(battery[i]);
        const QueryResult shd = engine.Execute(battery[i]);
        EXPECT_EQ(RowBytes(seq.rows), RowBytes(shd.rows))
            << "seed " << seed << " shards " << num_shards << " spec " << i;
        EXPECT_EQ(seq.rows.size(), shd.rows.size());
      }
      // Identical blocks were cut: same staging, same epoch boundaries.
      const auto& m = sharded.metrics().archive;
      EXPECT_EQ(m.blocks, sequential.metrics().archive.blocks);
      EXPECT_EQ(m.points_staged, sequential.metrics().archive.points_staged);
    }
  }
}

TEST(QueryServingTest, FilteredQueriesMatchBruteForce) {
  const ScenarioOutput scenario = MakeScenario(7104, false);
  const PipelineConfig pc = ArchiveConfig();
  MaritimePipeline pipeline(pc, &SharedWorld().zones(), nullptr, nullptr,
                            nullptr);
  pipeline.Run(scenario.nmea);
  QueryEngine engine({pipeline.archive()});
  const QueryResult full = engine.Execute(QuerySpec{});
  ASSERT_GT(full.rows.size(), 0u);

  for (const QuerySpec& spec : SpecBattery(full)) {
    if (spec.resample_ms > 0) continue;  // raw-row filters only
    const QueryResult got = engine.Execute(spec);
    std::vector<QueryRow> expect;
    for (const QueryRow& r : full.rows) {
      if (r.t < spec.t0 || r.t > spec.t1) continue;
      if (spec.region.has_value() && !spec.region->Contains(r.position)) {
        continue;
      }
      if (!spec.vessels.empty() &&
          std::find(spec.vessels.begin(), spec.vessels.end(), r.mmsi) ==
              spec.vessels.end()) {
        continue;
      }
      expect.push_back(r);
    }
    EXPECT_EQ(RowBytes(got.rows), RowBytes(expect));
    EXPECT_EQ(got.stats.rows, expect.size());
  }
}

// --- Concurrent readers against live ingest (TSan surface) ----------------

TEST(QueryServingTest, ConcurrentReadersDuringLiveIngest) {
  const ScenarioOutput scenario = MakeScenario(7105, false);
  const PipelineConfig pc = ArchiveConfig();

  MaritimePipeline sequential(pc, &SharedWorld().zones(), nullptr, nullptr,
                              nullptr);
  sequential.Run(scenario.nmea);
  QueryEngine reference({sequential.archive()});
  const std::string expected = RowBytes(reference.Execute(QuerySpec{}).rows);

  ShardedPipeline::Options opts;
  opts.num_shards = 4;
  ShardedPipeline sharded(pc, opts, &SharedWorld().zones(), nullptr, nullptr,
                          nullptr);
  QueryEngine::Options qopts;
  qopts.num_workers = 2;  // MPMC fan-out hop under reader contention
  QueryEngine engine(sharded.archive_view(), qopts);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> queries{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&engine, &done, &queries] {
      // Blocks are append-only and snapshots immutable, so one reader's
      // successive full-query results can only grow.
      size_t last_rows = 0;
      while (!done.load(std::memory_order_relaxed)) {
        const QueryResult res = engine.Execute(QuerySpec{});
        ASSERT_GE(res.rows.size(), last_rows);
        last_rows = res.rows.size();
        for (size_t i = 1; i < res.rows.size(); ++i) {
          const QueryRow& a = res.rows[i - 1];
          const QueryRow& b = res.rows[i];
          ASSERT_TRUE(a.t < b.t || (a.t == b.t && a.mmsi <= b.mmsi))
              << "merged order violated at " << i;
        }
        queries.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Live ingest on this thread, chunked so epochs publish mid-flight.
  std::span<const Event<std::string>> all(scenario.nmea);
  for (size_t off = 0; off < all.size(); off += 700) {
    sharded.IngestBatch(all.subspan(off, std::min<size_t>(700, all.size() - off)));
  }
  sharded.Finish();
  done.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  EXPECT_GT(queries.load(), 0u);
  EXPECT_EQ(RowBytes(engine.Execute(QuerySpec{}).rows), expected);
  // The fan-out hop actually carried tasks.
  EXPECT_GT(engine.hop_stats().pushed, 0u);
}

// --- Incremental index maintenance ----------------------------------------

TrajectoryPoint Point(Timestamp t, double lat, double lon) {
  TrajectoryPoint p;
  p.t = t;
  p.position = GeoPoint{lat, lon};
  p.sog_mps = 5.0f;
  p.cog_deg = 90.0f;
  return p;
}

TEST(ShardArchiveTest, IndexRebuildCoversTailAcrossThreshold) {
  ArchiveOptions opts;
  opts.enabled = true;
  opts.index_rebuild_blocks = 1;  // rebuild nearly every epoch
  ShardArchive archive(opts, "");

  for (int epoch = 0; epoch < 6; ++epoch) {
    for (uint32_t v = 0; v < 2; ++v) {
      const Timestamp base = epoch * 60000;
      archive.Stage(100 + v, Point(base, 10.0 + epoch * 0.1, 20.0 + v * 0.1));
      archive.Stage(100 + v, Point(base + 1000, 10.05 + epoch * 0.1,
                                   20.05 + v * 0.1));
    }
    ASSERT_TRUE(archive.CloseEpoch().ok());
    const auto snap = archive.snapshot();
    EXPECT_EQ(snap->epoch, static_cast<uint64_t>(epoch + 1));
    EXPECT_EQ(snap->blocks.size(), static_cast<size_t>(2 * (epoch + 1)));
    // Index + linear tail always covers every block.
    EXPECT_LE(snap->indexed, snap->blocks.size());
    if (snap->indexed > 0) {
      ASSERT_NE(snap->rtree, nullptr);
      ASSERT_NE(snap->intervals, nullptr);
    }
  }
  EXPECT_GT(archive.stats().index_rebuilds, 1u);

  // Query through the engine: indexed prefix + tail must agree with brute
  // force over all blocks.
  QueryEngine engine({&archive});
  const QueryResult full = engine.Execute(QuerySpec{});
  EXPECT_EQ(full.rows.size(), 24u);  // 6 epochs × 2 vessels × 2 points
  QuerySpec window;
  window.t0 = 2 * 60000;
  window.t1 = 4 * 60000;
  const QueryResult mid = engine.Execute(window);
  size_t expect = 0;
  for (const QueryRow& r : full.rows) {
    if (r.t >= window.t0 && r.t <= window.t1) ++expect;
  }
  EXPECT_EQ(mid.rows.size(), expect);
  EXPECT_GT(mid.stats.blocks_skipped_time, 0u);
}

TEST(ShardArchiveTest, HeldSnapshotUnchangedByLaterEpochs) {
  ArchiveOptions opts;
  opts.enabled = true;
  opts.index_rebuild_blocks = 0;  // always indexed
  ShardArchive archive(opts, "");

  archive.Stage(7, Point(1000, 10.0, 20.0));
  archive.Stage(7, Point(2000, 10.1, 20.1));
  ASSERT_TRUE(archive.CloseEpoch().ok());
  const auto held = archive.snapshot();
  ASSERT_EQ(held->blocks.size(), 1u);
  const PositionBlock* held_block = held->blocks[0].get();

  // "Insert during query": new epochs publish while `held` stays pinned.
  for (int epoch = 0; epoch < 3; ++epoch) {
    archive.Stage(8, Point(10000 + epoch * 1000, 11.0, 21.0));
    ASSERT_TRUE(archive.CloseEpoch().ok());
  }
  EXPECT_EQ(archive.snapshot()->blocks.size(), 4u);

  // The held snapshot is immutable: same blocks, same payload, and its
  // points still decode identically.
  ASSERT_EQ(held->blocks.size(), 1u);
  EXPECT_EQ(held->blocks[0].get(), held_block);
  std::vector<TrajectoryPoint> decoded;
  ASSERT_TRUE(DecodePositionBlock(held_block->data, held_block->count,
                                  held_block->mmsi, held_block->t0, &decoded)
                  .ok());
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].t, 1000);
  EXPECT_EQ(decoded[1].t, 2000);
}

TEST(ShardArchiveTest, EmptyRegionAndEdgeCases) {
  ArchiveOptions opts;
  opts.enabled = true;
  ShardArchive archive(opts, "");
  archive.Stage(5, Point(1000, 10.0, 20.0));
  ASSERT_TRUE(archive.CloseEpoch().ok());
  QueryEngine engine({&archive});

  // Region with no data in it: zero rows, block pruned not decoded.
  QuerySpec nowhere;
  nowhere.region = BoundingBox(-60.0, -60.0, -50.0, -50.0);
  const QueryResult none = engine.Execute(nowhere);
  EXPECT_TRUE(none.rows.empty());
  EXPECT_EQ(none.stats.blocks_scanned, 0u);
  EXPECT_GT(none.stats.blocks_skipped_region, 0u);

  // Inverted time range: empty without touching partitions.
  QuerySpec inverted;
  inverted.t0 = 10;
  inverted.t1 = 5;
  EXPECT_TRUE(engine.Execute(inverted).rows.empty());

  // Empty partition (no epochs): empty result, no crash.
  ShardArchive empty_archive(opts, "");
  QueryEngine empty_engine({&empty_archive});
  EXPECT_TRUE(empty_engine.Execute(QuerySpec{}).rows.empty());

  // Vessel-set filter that matches nothing.
  QuerySpec wrong_vessel;
  wrong_vessel.vessels = {999};
  const QueryResult miss = engine.Execute(wrong_vessel);
  EXPECT_TRUE(miss.rows.empty());
  EXPECT_GT(miss.stats.blocks_skipped_vessel, 0u);
}

// --- Durability path + prefix Bloom ---------------------------------------

TEST(ShardArchiveTest, LoadVesselRangeAndPrefixBloomSkips) {
  const std::string dir = ::testing::TempDir() + "/marlin_archive_qs";
  std::filesystem::remove_all(dir);
  ArchiveOptions opts;
  opts.enabled = true;
  opts.background_compaction = false;
  opts.max_runs = 64;  // keep runs separate so the prefix filter can skip
  ShardArchive archive(opts, dir);

  // One vessel per epoch + forced flush → one run per vessel.
  for (uint32_t v = 0; v < 4; ++v) {
    for (int i = 0; i < 3; ++i) {
      archive.Stage(500 + v, Point(1000 * (i + 1), 10.0 + v, 20.0));
    }
    ASSERT_TRUE(archive.CloseEpoch().ok());
    ASSERT_TRUE(archive.lsm()->Flush().ok());
  }
  ASSERT_EQ(archive.lsm()->NumRuns(), 4u);

  std::vector<TrajectoryPoint> points;
  ASSERT_TRUE(archive.LoadVesselRange(502, 0, kMaxTimestamp, &points).ok());
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].t, 1000);
  EXPECT_DOUBLE_EQ(points[0].position.lat, 12.0);
  // Three of the four runs hold other vessels: the prefix filter skipped
  // them without a binary search.
  EXPECT_GE(archive.stats().prefix_bloom_skipped, 3u);

  // Time sub-range.
  points.clear();
  ASSERT_TRUE(archive.LoadVesselRange(502, 1500, 2500, &points).ok());
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].t, 2000);

  std::filesystem::remove_all(dir);
}

// --- Hot-path allocation freedom -------------------------------------------

TEST(ShardArchiveTest, StageSteadyStateAllocationFree) {
  ArchiveOptions opts;
  opts.enabled = true;
  ShardArchive archive(opts, "");

  // Warm-up epoch: sizes the slot map and the per-vessel pool vectors.
  constexpr uint32_t kVessels = 32;
  constexpr int kPointsPer = 64;
  for (uint32_t v = 0; v < kVessels; ++v) {
    for (int i = 0; i < kPointsPer; ++i) {
      archive.Stage(1000 + v, Point(i * 1000, 10.0, 20.0));
    }
  }
  ASSERT_TRUE(archive.CloseEpoch().ok());

  // Steady state: the same vessel population stages with zero allocations.
  const uint64_t before = AllocProbe::ThreadCount();
  for (uint32_t v = 0; v < kVessels; ++v) {
    for (int i = 0; i < kPointsPer; ++i) {
      archive.Stage(1000 + v, Point(100000 + i * 1000, 10.0, 20.0));
    }
  }
  EXPECT_EQ(AllocProbe::ThreadCount() - before, 0u)
      << "archive staging allocated on the ingest hot path";
}

// --- Coordinator-side merged enriched stream --------------------------------

TEST(QueryServingTest, DrainEnrichedOrderedMatchesSequential) {
  const ScenarioOutput scenario = MakeScenario(7106, true);
  PipelineConfig pc = ArchiveConfig();
  pc.enriched_output_capacity = 1 << 20;  // no drops: exact comparison
  // An input queue as deep as the scenario cannot shed, however far the
  // enrichment worker falls behind (CPU oversubscription).
  pc.enrichment_queue_depth = scenario.nmea.size();

  MaritimePipeline sequential(pc, &SharedWorld().zones(), nullptr, nullptr,
                              nullptr);
  sequential.Run(scenario.nmea);
  std::vector<EnrichedPoint> seq;
  sequential.DrainEnrichedOrdered(&seq);
  ASSERT_GT(seq.size(), 0u);

  for (const size_t num_shards : {1, 3}) {
    ShardedPipeline::Options opts;
    opts.num_shards = num_shards;
    ShardedPipeline sharded(pc, opts, &SharedWorld().zones(), nullptr, nullptr,
                            nullptr);
    sharded.Run(scenario.nmea);
    ASSERT_EQ(sharded.metrics().enrichment_stage.queue_dropped, 0u);

    std::vector<EnrichedPoint> shd;
    sharded.DrainEnrichedOrdered(&shd);
    ASSERT_EQ(shd.size(), seq.size()) << num_shards << " shards";
    for (size_t i = 0; i < seq.size(); ++i) {
      EXPECT_EQ(seq[i].base.mmsi, shd[i].base.mmsi) << "at " << i;
      EXPECT_EQ(seq[i].base.point.t, shd[i].base.point.t) << "at " << i;
      EXPECT_EQ(seq[i].base.point.position.lat, shd[i].base.point.position.lat);
      EXPECT_EQ(seq[i].zone_ids, shd[i].zone_ids);
    }
  }
}

}  // namespace
}  // namespace marlin
