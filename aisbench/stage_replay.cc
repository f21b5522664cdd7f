// Stage replay: every layer's public function is fed the previous layer's
// output over the same corpus, in arrival order, and timed from here. The
// per-layer metrics of a traced run come from this replay, except those a
// workload's own traced pass measures directly (see README.md).

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <span>
#include <thread>

#include "bench.h"
#include "common/alloc_probe.h"
#include "core/sharded_pipeline.h"
#include "net/tcp_ingest_server.h"

namespace aisbench {

using namespace marlin;

namespace {

constexpr size_t kReplayChunk = 1024;
constexpr size_t kReplayShards = 4;
constexpr size_t kQueriesPerKind = 40;

double PerItem(int64_t ns, uint64_t items) {
  return static_cast<double>(ns) / static_cast<double>(std::max<uint64_t>(1, items));
}

uint64_t Allocs() { return AllocProbe::ThreadCount(); }

/// One decoded message of the corpus, with the line that completed it.
struct Decoded {
  AisMessage msg;
  size_t line = 0;
};

/// Input of the vessel-event stage, in the order the shard core feeds it.
struct VesselInput {
  enum Kind : uint8_t { kStatic, kRejection, kPoint } kind;
  size_t index;  ///< into statics / rejections / points
};

void ReplayAis(const Corpus& corpus, StageReplay* out,
               std::vector<Decoded>* decoded) {
  const auto& lines = corpus.lines;
  AisDecoder decoder;
  std::vector<ParsedLine> parsed(kReplayChunk);
  decoded->reserve(lines.size());
  int64_t parse_ns = 0;
  int64_t assemble_ns = 0;
  uint64_t allocs = 0;
  for (size_t begin = 0; begin < lines.size(); begin += kReplayChunk) {
    const size_t end = std::min(lines.size(), begin + kReplayChunk);
    uint64_t a0 = Allocs();
    int64_t t = NowNs();
    for (size_t i = begin; i < end; ++i) {
      parsed[i - begin] = AisDecoder::Parse(lines[i].payload,
                                            lines[i].ingest_time);
    }
    parse_ns += NowNs() - t;
    t = NowNs();
    for (size_t i = begin; i < end; ++i) {
      std::optional<AisMessage> msg = decoder.Assemble(parsed[i - begin]);
      if (msg.has_value()) decoded->push_back({std::move(*msg), i});
    }
    assemble_ns += NowNs() - t;
    allocs += Allocs() - a0;
  }
  const uint64_t n = lines.size();
  out->metrics["ais.parse_ns_per_line"] = PerItem(parse_ns, n);
  out->metrics["ais.assemble_ns_per_line"] = PerItem(assemble_ns, n);
  out->metrics["ais.allocs_per_line"] =
      static_cast<double>(allocs) / static_cast<double>(n);
  out->metrics["ais.messages_per_line"] =
      static_cast<double>(decoder.stats().messages_out) /
      static_cast<double>(n);
  out->self_ns.emplace_back("ais.parse", static_cast<double>(parse_ns));
  out->self_ns.emplace_back("ais.assemble", static_cast<double>(assemble_ns));
}

}  // namespace

StageReplay RunStageReplay(const Corpus& corpus, const Context& context,
                           const std::string& scratch_dir) {
  StageReplay out;
  const PipelineConfig config = BaseConfig();
  const auto& lines = corpus.lines;
  const size_t n = lines.size();
  const ZoneDatabase* zones = &context.world.zones();
  // Window of line i: windows close after corpus.window_last[w].
  std::vector<uint32_t> line_window(n);
  {
    uint32_t w = 0;
    for (size_t i = 0; i < n; ++i) {
      line_window[i] = w;
      if (w < corpus.window_last.size() && corpus.window_last[w] == i) ++w;
    }
  }
  const uint32_t windows = static_cast<uint32_t>(corpus.window_last.size()) + 1;

  // ais: Parse / Assemble.
  std::vector<Decoded> decoded;
  ReplayAis(corpus, &out, &decoded);

  // core.reconstruction: TrajectoryReconstructor::Ingest (+ final Flush).
  std::vector<ReconstructedPoint> points;
  std::vector<uint32_t> point_window;
  std::vector<RejectedReport> rejections;
  std::vector<StaticVoyageData> statics;
  std::vector<VesselInput> vessel_inputs;
  uint64_t reports = 0;
  int64_t recon_ns = 0;
  {
    TrajectoryReconstructor recon(config.reconstruction);
    std::vector<ReconstructedPoint> scratch_points;
    std::vector<RejectedReport> scratch_rejections;
    auto collect = [&](uint32_t window) {
      for (const RejectedReport& rej : scratch_rejections) {
        vessel_inputs.push_back({VesselInput::kRejection, rejections.size()});
        rejections.push_back(rej);
      }
      for (const ReconstructedPoint& rp : scratch_points) {
        vessel_inputs.push_back({VesselInput::kPoint, points.size()});
        points.push_back(rp);
        point_window.push_back(window);
      }
    };
    // Timed as one loop (the hand-off copies into the replay's vectors are
    // a few ns per point); per-call clocks would cost more than they see.
    statics.reserve(decoded.size());
    points.reserve(decoded.size());
    point_window.reserve(decoded.size());
    vessel_inputs.reserve(2 * decoded.size());
    const int64_t t = NowNs();
    for (const Decoded& d : decoded) {
      if (const auto* sv = std::get_if<StaticVoyageData>(&d.msg)) {
        vessel_inputs.push_back({VesselInput::kStatic, statics.size()});
        statics.push_back(*sv);
        continue;
      }
      const PositionReport* pr = PositionReportOf(d.msg);
      if (pr == nullptr) continue;
      ++reports;
      scratch_points.clear();
      scratch_rejections.clear();
      recon.Ingest(*pr, &scratch_points, &scratch_rejections);
      collect(line_window[d.line]);
    }
    scratch_points.clear();
    scratch_rejections.clear();
    recon.Flush(&scratch_points, &scratch_rejections);
    collect(windows - 1);
    recon_ns = NowNs() - t;
  }
  out.metrics["core.reconstruction.ns_per_report"] = PerItem(recon_ns, reports);
  out.metrics["core.reconstruction.points_per_report"] =
      static_cast<double>(points.size()) / static_cast<double>(reports);
  out.self_ns.emplace_back("core.reconstruction", static_cast<double>(recon_ns));

  // core.synopses: SynopsisEngine::Ingest.
  int64_t synopses_ns = 0;
  {
    SynopsisEngine synopses(config.synopses);
    std::vector<CriticalPoint> critical;
    const int64_t t = NowNs();
    for (const ReconstructedPoint& rp : points) {
      critical.clear();
      synopses.Ingest(rp, &critical);
    }
    synopses_ns = NowNs() - t;
  }
  out.metrics["core.synopses.ns_per_point"] = PerItem(synopses_ns, points.size());
  out.self_ns.emplace_back("core.synopses", static_cast<double>(synopses_ns));

  // storage.trajectory_store: TrajectoryStore::Append.
  int64_t store_ns = 0;
  {
    TrajectoryStore store(config.store);
    const int64_t t = NowNs();
    for (const ReconstructedPoint& rp : points) {
      (void)store.Append(rp.mmsi, rp.point);
    }
    store_ns = NowNs() - t;
    out.metrics["storage.trajectory_store.points_held"] =
        static_cast<double>(store.PointCount());
  }
  out.metrics["storage.trajectory_store.ns_per_point"] =
      PerItem(store_ns, points.size());
  out.self_ns.emplace_back("storage.trajectory_store",
                           static_cast<double>(store_ns));

  // core.enrichment: EnrichmentEngine::Enrich.
  int64_t enrich_ns = 0;
  {
    SourceQualityModel quality;
    EnrichmentEngine enrichment(zones, &context.weather, nullptr, nullptr,
                                &quality);
    uint64_t zone_hits = 0;
    const int64_t t = NowNs();
    for (const ReconstructedPoint& rp : points) {
      EnrichmentEngine::SourceTimings timings;
      zone_hits += enrichment.Enrich(rp, &timings).zone_ids.size();
    }
    enrich_ns = NowNs() - t;
    if (zone_hits == 0) out.error = "enrichment replay joined no zones";
  }
  out.metrics["core.enrichment.ns_per_point"] = PerItem(enrich_ns, points.size());
  out.self_ns.emplace_back("core.enrichment", static_cast<double>(enrich_ns));

  // core.events.vessel: VesselEventEngine (statics, rejections, points).
  std::vector<std::vector<PairObservation>> window_pairs(windows);
  std::vector<std::vector<DetectedEvent>> window_events(windows);
  int64_t vessel_ns = 0;
  {
    std::vector<size_t> per_window(windows, 0);
    for (uint32_t w : point_window) ++per_window[w];
    for (uint32_t w = 0; w < windows; ++w) window_pairs[w].reserve(per_window[w]);
    VesselEventEngine vessel(zones, config.events);
    std::vector<DetectedEvent> events;
    events.reserve(1 << 18);
    std::vector<size_t> events_end(windows, 0);
    const uint64_t a0 = Allocs();
    const int64_t t = NowNs();
    for (const VesselInput& in : vessel_inputs) {
      switch (in.kind) {
        case VesselInput::kStatic:
          vessel.SetVesselInfo(statics[in.index].mmsi,
                               statics[in.index].ship_type);
          break;
        case VesselInput::kRejection:
          vessel.IngestRejection(rejections[in.index], &events);
          break;
        case VesselInput::kPoint: {
          const uint32_t w = point_window[in.index];
          window_pairs[w].push_back(vessel.Ingest(points[in.index], &events));
          events_end[w] = events.size();
          break;
        }
      }
    }
    vessel_ns = NowNs() - t;
    out.metrics["core.events.vessel.allocs_per_point"] =
        static_cast<double>(Allocs() - a0) / static_cast<double>(points.size());
    size_t begin = 0;
    for (uint32_t w = 0; w < windows; ++w) {
      const size_t end = std::max(begin, events_end[w]);
      window_events[w].assign(events.begin() + static_cast<ptrdiff_t>(begin),
                              events.begin() + static_cast<ptrdiff_t>(end));
      begin = end;
    }
  }
  out.metrics["core.events.vessel.ns_per_point"] =
      PerItem(vessel_ns, points.size());
  out.self_ns.emplace_back("core.events.vessel", static_cast<double>(vessel_ns));

  // storage.archive: ShardArchive::Stage per point, CloseEpoch per window.
  const std::string archive_dir = scratch_dir + "/stage-archive";
  std::error_code ec;
  std::filesystem::remove_all(archive_dir, ec);
  std::filesystem::create_directories(archive_dir, ec);
  {
    ArchiveOptions options = config.archive;
    options.enabled = true;
    options.directory = archive_dir;
    options.wal_sync = false;
    ShardArchive archive(options, archive_dir);
    int64_t stage_ns = 0;
    std::vector<double> close_ns;
    size_t p = 0;
    for (uint32_t w = 0; w < windows; ++w) {
      const int64_t t = NowNs();
      for (; p < points.size() && point_window[p] == w; ++p) {
        archive.Stage(points[p].mmsi, points[p].point);
      }
      const int64_t staged = NowNs();
      const Status closed = archive.CloseEpoch();
      const int64_t end = NowNs();
      stage_ns += staged - t;
      close_ns.push_back(static_cast<double>(end - staged));
      if (!closed.ok()) out.error = "archive epoch close failed";
    }
    const ArchiveStats stats = archive.stats();
    double q = 0.0;
    out.metrics["storage.archive.stage_ns_per_point"] =
        PerItem(stage_ns, points.size());
    out.metrics["storage.archive.close_epoch_ns_p95"] =
        TailQuantile(close_ns, 0.95, &q);
    out.metrics["storage.archive.blocks"] = static_cast<double>(stats.blocks);
    out.metrics["storage.archive.lsm_flushes"] =
        static_cast<double>(stats.lsm_flushes);
    out.metrics["storage.archive.lsm_compactions"] =
        static_cast<double>(stats.lsm_compactions);

    // core.query_engine: the query mix on the finished archive, frontier
    // swept across the corpus so queries land on different epochs.
    const QueryMix mix = MakeQueryMix(corpus);
    QueryEngine engine({&archive});
    const Timestamp first = lines.front().ingest_time;
    const Timestamp last = lines.back().ingest_time;
    int64_t kind_ns[kQueryKinds] = {};
    uint64_t scanned = 0;
    uint64_t total = 0;
    uint64_t rows = 0;
    const size_t queries = kQueriesPerKind * kQueryKinds;
    for (size_t k = 0; k < queries; ++k) {
      const auto kind = static_cast<QueryKind>(k % kQueryKinds);
      const Timestamp now =
          first + (last - first) * static_cast<Timestamp>(k + 1) /
                      static_cast<Timestamp>(queries);
      const QuerySpec spec = MakeQuery(mix, kind, now);
      const int64_t t = NowNs();
      const QueryResult result = engine.Execute(spec);
      kind_ns[static_cast<int>(kind)] += NowNs() - t;
      scanned += result.stats.blocks_scanned;
      total += result.stats.blocks_total;
      rows += result.rows.size();
    }
    out.metrics["core.query_engine.ns_recent"] =
        PerItem(kind_ns[0], kQueriesPerKind);
    out.metrics["core.query_engine.ns_region"] =
        PerItem(kind_ns[1], kQueriesPerKind);
    out.metrics["core.query_engine.ns_vessels"] =
        PerItem(kind_ns[2], kQueriesPerKind);
    out.metrics["core.query_engine.blocks_scanned_share"] =
        static_cast<double>(scanned) /
        static_cast<double>(std::max<uint64_t>(1, total));
    out.metrics["core.query_engine.rows_per_query"] =
        static_cast<double>(rows) / static_cast<double>(queries);
  }
  std::filesystem::remove_all(archive_dir, ec);

  // core.events.pair: PairEventEngine::CloseWindow per window.
  {
    PairEventEngine pair(config.events);
    std::vector<double> window_ns;
    uint64_t observations = 0;
    int64_t pair_ns = 0;
    for (uint32_t w = 0; w < windows; ++w) {
      observations += window_pairs[w].size();
      const int64_t t = NowNs();
      pair.CloseWindow(&window_pairs[w], /*flush=*/w + 1 == windows,
                       &window_events[w]);
      const int64_t ns = NowNs() - t;
      pair_ns += ns;
      window_ns.push_back(static_cast<double>(ns));
    }
    double q = 0.0;
    out.metrics["core.events.pair.ns_per_window_p50"] = Median(window_ns);
    out.metrics["core.events.pair.ns_per_window_p95"] =
        TailQuantile(window_ns, 0.95, &q);
    out.metrics["core.events.pair.obs_per_window"] =
        static_cast<double>(observations) / static_cast<double>(windows);
    out.self_ns.emplace_back("core.events.pair", static_cast<double>(pair_ns));
  }

  // core.shard: PipelineShardCore::ProcessPosition, the composite of the
  // per-vessel stages above; its self time is the composite minus them.
  {
    PipelineShardCore core(config, /*async_enrichment=*/false, zones,
                           &context.weather, nullptr, nullptr);
    std::atomic<uint64_t> enriched{0};
    core.SetEnrichedSink([&enriched](const EnrichedPoint&) {
      enriched.fetch_add(1, std::memory_order_relaxed);
    });
    std::vector<DetectedEvent> events;
    std::vector<PairObservation> pairs;
    int64_t core_ns = 0;
    uint32_t window = 0;
    Timestamp last_ingest = kInvalidTimestamp;
    int64_t t = NowNs();
    for (const Decoded& d : decoded) {
      if (line_window[d.line] != window) {
        core_ns += NowNs() - t;
        window = line_window[d.line];
        events.clear();
        pairs.clear();
        t = NowNs();
      }
      last_ingest = lines[d.line].ingest_time;
      if (const auto* sv = std::get_if<StaticVoyageData>(&d.msg)) {
        core.ProcessStatic(*sv);
      } else if (const PositionReport* pr = PositionReportOf(d.msg)) {
        core.ProcessPosition(*pr, last_ingest, &events, &pairs);
      }
    }
    core.Flush(last_ingest, &events, &pairs);
    core_ns += NowNs() - t;
    const double children =
        static_cast<double>(recon_ns + synopses_ns + store_ns + enrich_ns +
                            vessel_ns);
    out.metrics["core.shard.ns_per_report"] = PerItem(core_ns, reports);
    out.metrics["core.shard.self_ns_per_report"] =
        (static_cast<double>(core_ns) - children) /
        static_cast<double>(reports);
    out.self_ns.emplace_back("core.shard (self)",
                             static_cast<double>(core_ns) - children);
  }

  // core.pipeline: MaritimePipeline::IngestBatch / Finish.
  {
    MaritimePipeline pipeline(config, zones, &context.weather, nullptr,
                              nullptr);
    pipeline.SetEnrichedSink([](const EnrichedPoint&) {});
    int64_t ingest_ns = 0;
    for (size_t begin = 0; begin < n; begin += kReplayChunk) {
      const size_t end = std::min(n, begin + kReplayChunk);
      const int64_t t = NowNs();
      (void)pipeline.IngestBatch(std::span<const Event<std::string>>(
          lines.data() + begin, end - begin));
      ingest_ns += NowNs() - t;
    }
    const int64_t t = NowNs();
    (void)pipeline.Finish();
    const int64_t finish_ns = NowNs() - t;
    out.metrics["core.pipeline.ns_per_line"] =
        PerItem(ingest_ns + finish_ns, n);
    out.metrics["core.pipeline.finish_ms"] =
        static_cast<double>(finish_ns) * 1e-6;
  }

  // core.sharded_pipeline + stream.shard_hop: ShardedPipeline::IngestBatch
  // with the coordinator on this thread.
  {
    ShardedPipeline::Options options;
    options.num_shards = kReplayShards;
    ShardedPipeline pipeline(config, options, zones, &context.weather,
                             nullptr, nullptr);
    pipeline.SetEnrichedSink([](const EnrichedPoint&) {});
    int64_t wall_ns = 0;
    int64_t coord_ns = 0;
    int64_t finish_cpu_ns = 0;
    const int64_t cpu0 = ProcessCpuNs();
    const int64_t self0 = ThreadCpuNs();
    for (size_t begin = 0; begin < n; begin += kReplayChunk) {
      const size_t end = std::min(n, begin + kReplayChunk);
      const int64_t c = ThreadCpuNs();
      const int64_t t = NowNs();
      (void)pipeline.IngestBatch(std::span<const Event<std::string>>(
          lines.data() + begin, end - begin));
      wall_ns += NowNs() - t;
      coord_ns += ThreadCpuNs() - c;
    }
    const int64_t c = ThreadCpuNs();
    (void)pipeline.Finish();
    finish_cpu_ns = ThreadCpuNs() - c;
    const int64_t process_ns = ProcessCpuNs() - cpu0;
    const int64_t harness_ns = ThreadCpuNs() - self0;
    out.metrics["core.sharded_pipeline.coordinator_cpu_share"] =
        static_cast<double>(coord_ns) / static_cast<double>(wall_ns);
    out.metrics["core.sharded_pipeline.coordinator_us_per_line"] =
        PerItem(coord_ns + finish_cpu_ns, n) * 1e-3;
    out.metrics["core.sharded_pipeline.worker_us_per_line"] =
        PerItem(process_ns - harness_ns, n) * 1e-3;
    const QueueHopStats& hop = pipeline.metrics().shard_hop;
    out.metrics["stream.shard_hop.depth_high_water"] =
        static_cast<double>(hop.depth_high_water);
    out.metrics["stream.shard_hop.push_waits"] =
        static_cast<double>(hop.push_waits);
    out.metrics["stream.shard_hop.pop_waits"] =
        static_cast<double>(hop.pop_waits);
    out.metrics["stream.shard_hop.notifies"] =
        static_cast<double>(hop.notifies);
  }

  // net: TcpIngestServer::DrainLines over loopback, unpaced.
  {
    std::string wire;
    std::vector<size_t> offsets;
    BuildWire(corpus, &wire, &offsets);
    TcpIngestOptions options;
    options.mode = WireMode::kFrames;
    TcpIngestServer server(options);
    const int fd = server.Start().ok() ? ConnectLoopback(server.port()) : -1;
    if (fd < 0) {
      out.ok = false;
      out.error = "loopback ingest server unavailable";
      return out;
    }
    std::atomic<size_t> sent{0};
    std::thread sender([&] {
      constexpr size_t kSendBytes = 64 * 1024;
      size_t bytes = 0;
      while (bytes < wire.size()) {
        const size_t len = std::min(kSendBytes, wire.size() - bytes);
        if (!SendAll(fd, wire.data() + bytes, len)) break;
        bytes += len;
        const auto it =
            std::upper_bound(offsets.begin(), offsets.end(), bytes);
        sent.store(static_cast<size_t>(it - offsets.begin()) - 1,
                   std::memory_order_release);
      }
    });
    std::vector<Event<std::string>> batch;
    size_t delivered = 0;
    uint64_t drains = 0;
    uint64_t empty = 0;
    int64_t drain_ns = 0;
    size_t backlog_max = 0;
    const int64_t deadline = NowNs() + 60'000'000'000;
    while (delivered < n && NowNs() < deadline) {
      const int64_t t = NowNs();
      const size_t got = server.DrainLines(&batch);
      drain_ns += NowNs() - t;
      ++drains;
      const size_t s = sent.load(std::memory_order_acquire);
      backlog_max = std::max(backlog_max, s > delivered ? s - delivered : 0);
      if (got == 0) {
        ++empty;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        continue;
      }
      delivered += got;
      batch.clear();
    }
    sender.join();
    ::close(fd);
    server.Stop();
    if (delivered != n) {
      out.ok = false;
      out.error = "loopback replay lost lines";
    }
    out.metrics["net.drain_ns_per_line"] = PerItem(drain_ns, delivered);
    out.metrics["net.empty_drain_share"] =
        static_cast<double>(empty) / static_cast<double>(drains);
    out.metrics["net.backlog_max_lines"] = static_cast<double>(backlog_max);
    out.metrics["net.bad_frames"] =
        static_cast<double>(server.stats().bad_frames);
  }
  if (!out.error.empty()) out.ok = false;
  return out;
}

}  // namespace aisbench
