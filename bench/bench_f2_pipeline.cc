// F2 — The integrated maritime information infrastructure (Figure 2).
//
// The paper's Figure 2 sketches the datAcron architecture: "integration of
// in-situ streaming data, trajectories detection and forecasting,
// recognition and identification of complex events and the development of
// visual analytics interfaces". This bench runs the whole architecture as
// one artefact and prints the per-stage instrumentation — the running
// equivalent of the figure — plus end-to-end timing.

#include <benchmark/benchmark.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include <span>

#include "ais/codec.h"
#include "ais/messages.h"
#include "ais/nmea.h"
#include "ais/sixbit.h"
#include "bench_util.h"
#include "common/alloc_probe.h"
#include "context/weather.h"
#include "core/pipeline.h"
#include "core/query_engine.h"
#include "core/sharded_pipeline.h"
#include "net/tcp_ingest_server.h"
#include "reference/byte_codec.h"
#include "stream/channel.h"
#include "stream/queue.h"
#include "stream/frame.h"
#include "stream/rate.h"
#include "va/situation.h"

// Heap probe for the allocations/line axis of the decode microbench: this
// binary's operator new counts into a thread-local the benchmark samples.
MARLIN_INSTALL_ALLOC_PROBE()

namespace marlin {
namespace {

ScenarioConfig F2Config() {
  ScenarioConfig config;
  config.seed = 2;
  config.duration = 3 * kMillisPerHour;
  config.transit_vessels = 30;
  config.fishing_vessels = 8;
  config.loiter_vessels = 3;
  config.rendezvous_pairs = 2;
  config.dark_vessels = 4;
  config.spoof_identity_vessels = 1;
  config.spoof_teleport_vessels = 1;
  return config;  // realistic reception: coastal + satellite
}

void PrintArchitectureRun() {
  const World& world = bench::SharedWorld();
  const ScenarioOutput& scenario = bench::SharedScenario(F2Config());
  WeatherProvider weather(7);
  MaritimePipeline pipeline(PipelineConfig{}, &world.zones(), &weather,
                            nullptr, nullptr);
  const auto events = pipeline.Run(scenario.nmea);
  const PipelineMetrics& m = pipeline.metrics();

  std::printf("stage graph (Figure 2), per-stage counters:\n\n");
  std::printf("  [AIS/NMEA sources] -> %llu lines (%llu bad)\n",
              static_cast<unsigned long long>(m.decoder.lines_in),
              static_cast<unsigned long long>(m.decoder.bad_sentences));
  std::printf("      |\n  [decoder] -> %llu messages (%llu pending frags)\n",
              static_cast<unsigned long long>(m.decoder.messages_out),
              static_cast<unsigned long long>(m.decoder.pending_fragments));
  std::printf(
      "      |\n  [trajectory reconstruction] -> %llu clean points\n"
      "      |     dupes %llu | stale %llu | outliers %llu | late %llu\n",
      static_cast<unsigned long long>(m.reconstruction.points_out),
      static_cast<unsigned long long>(m.reconstruction.duplicates),
      static_cast<unsigned long long>(m.reconstruction.stale),
      static_cast<unsigned long long>(m.reconstruction.outliers),
      static_cast<unsigned long long>(m.reconstruction.late_dropped));
  std::printf(
      "      |\n  [synopses] -> %llu critical points (compression %.1f%%)\n",
      static_cast<unsigned long long>(m.synopses.points_out),
      100.0 * m.synopses.CompressionRatio());
  std::printf(
      "      |\n  [semantic enrichment] -> %llu points joined "
      "(zones hit: %llu, queue drops: %llu)\n",
      static_cast<unsigned long long>(m.enrichment.points),
      static_cast<unsigned long long>(m.enrichment.zone_hits),
      static_cast<unsigned long long>(m.enrichment_stage.queue_dropped));
  std::printf(
      "      |\n  [complex event recognition] -> %llu events, %llu alerts\n",
      static_cast<unsigned long long>(m.events.events_out),
      static_cast<unsigned long long>(m.alerts));
  std::printf(
      "      |\n  [live picture / VA] -> %zu vessels, mean ingest rate "
      "%.1f msg/s (event time)\n",
      pipeline.store().VesselCount(), m.ingest_rate.EventsPerSecond());
  std::printf(
      "\n  end-to-end latency (event->processed): mean %.1f s, p99 %.1f s\n",
      m.end_to_end_latency.Mean() / 1000.0,
      static_cast<double>(m.end_to_end_latency.Quantile(0.99)) / 1000.0);
  std::printf("  (satellite deliveries dominate the tail — §1's latency "
              "challenge)\n");
}

// The byte-per-bit decode loop: PR 4's zero-copy parse + fragment assembly
// feeding the frozen byte-per-bit reference codec of
// tests/reference/byte_codec.h (`reference::UnarmorPayloadInto` over a
// vector<uint8_t> of 0/1 + `reference::DecodeMessageBits`) — the reference
// arm of BM_DecodeMicro's packed-vs-byte axis. Mirrors AisDecoder::Assemble
// including the receiver-time stamping so the two arms differ only in the
// bit representation.
class ByteBitDecoder {
 public:
  std::optional<AisMessage> Decode(std::string_view line,
                                   Timestamp received_at) {
    const ParsedLine parsed = AisDecoder::Parse(line, received_at);
    if (!parsed.ok) return std::nullopt;
    const auto assembled =
        assembler_.Add(parsed.sentence, parsed.received_at);
    if (!assembled.ok() || !assembled->has_value()) return std::nullopt;
    if (!reference::UnarmorPayloadInto((*assembled)->payload,
                                       (*assembled)->fill_bits, &bits_scratch_)
             .ok()) {
      return std::nullopt;
    }
    Result<AisMessage> msg = reference::DecodeMessageBits(bits_scratch_);
    if (!msg.ok()) return std::nullopt;
    AisMessage out = std::move(*msg);
    const Timestamp stamp = parsed.received_at;
    std::visit(
        [stamp](auto& m) {
          using T = std::decay_t<decltype(m)>;
          if constexpr (std::is_same_v<T, ExtendedClassBReport>) {
            m.position_report.received_at = stamp;
          } else {
            m.received_at = stamp;
          }
        },
        out);
    return out;
  }

 private:
  AivdmAssembler assembler_;
  std::vector<uint8_t> bits_scratch_;
};

// The decode inner loop in isolation: the per-line cost every shard worker
// pays before any stateful stage runs. The packed:1 arm is the production
// path (zero-copy parse + packed-word de-armor + shift/mask field
// extraction over pooled `PackedBits` scratch); the packed:0 arm runs the
// frozen byte-per-bit bit layer over the same parse/assembly front half, so
// the ratio isolates PR 5's bit-packing multiplier. Counters surface both
// axes the refactor targets: lines/s and steady-state heap allocations per
// line (multi-fragment groups are the only remaining allocators —
// single-fragment traffic is allocation-free, asserted by
// tests/decode_equivalence_test.cc). CI runs the packed arm and fails on a
// >2x lines_per_s regression vs the committed BENCH_f2_pipeline.json
// baseline (tools/check_bench_regression.py).
void BM_DecodeMicro(benchmark::State& state) {
  const ScenarioOutput& scenario = bench::SharedScenario(F2Config());
  const bool packed = state.range(0) != 0;
  AisDecoder packed_decoder;
  ByteBitDecoder byte_decoder;
  // Warmup: size the decoder's pooled scratch so the counter reads the
  // steady state rather than first-touch growth.
  for (const auto& ev : scenario.nmea) {
    if (packed) {
      benchmark::DoNotOptimize(
          packed_decoder.Decode(ev.payload, ev.ingest_time));
    } else {
      benchmark::DoNotOptimize(byte_decoder.Decode(ev.payload, ev.ingest_time));
    }
  }
  uint64_t lines = 0;
  uint64_t messages = 0;
  uint64_t allocations = 0;
  for (auto _ : state) {
    const uint64_t before = AllocProbe::ThreadCount();
    for (const auto& ev : scenario.nmea) {
      auto msg = packed ? packed_decoder.Decode(ev.payload, ev.ingest_time)
                        : byte_decoder.Decode(ev.payload, ev.ingest_time);
      if (msg.has_value()) ++messages;
      benchmark::DoNotOptimize(msg);
    }
    allocations += AllocProbe::ThreadCount() - before;
    lines += scenario.nmea.size();
  }
  // Per-iteration message count (one pass over the corpus), not the
  // iteration-scaled running total.
  state.counters["messages"] = benchmark::Counter(
      static_cast<double>(messages), benchmark::Counter::kAvgIterations);
  state.counters["lines_per_s"] = benchmark::Counter(
      static_cast<double>(lines), benchmark::Counter::kIsRate);
  state.counters["allocs_per_line"] =
      static_cast<double>(allocations) / static_cast<double>(lines);
}
BENCHMARK(BM_DecodeMicro)
    ->ArgName("packed")
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

void BM_FullArchitecture(benchmark::State& state) {
  const World& world = bench::SharedWorld();
  const ScenarioOutput& scenario = bench::SharedScenario(F2Config());
  WeatherProvider weather(7);
  uint64_t events_out = 0;
  uint64_t lines = 0;
  for (auto _ : state) {
    MaritimePipeline pipeline(PipelineConfig{}, &world.zones(), &weather,
                              nullptr, nullptr);
    const auto events = pipeline.Run(scenario.nmea);
    events_out = events.size();
    lines += scenario.nmea.size();
    benchmark::DoNotOptimize(events);
  }
  state.counters["events"] = static_cast<double>(events_out);
  state.counters["nmea_lines"] = static_cast<double>(scenario.nmea.size());
  state.counters["lines_per_s"] = benchmark::Counter(
      static_cast<double>(lines), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FullArchitecture)->Unit(benchmark::kMillisecond);

// The isolated hand-off cost of one inter-stage hop: push `batch` items
// through a queue and pop them back, single-threaded. Running both sides on
// one thread measures the *uncontended* per-item hand-off cost — exactly
// the price every window hand-off pays before any cross-core effects — and
// is reproducible on single-core CI hosts where a two-thread arrangement
// would measure the scheduler instead. The spsc:1 arm is the pipeline's
// StageChannel (lock-free ring: atomic store per publish, zero notifies
// when nobody waits); spsc:0 is the mutex+condvar BoundedQueue the query
// fan-out uses (two lock acquisitions per cycle minimum). CI gates the
// spsc:1 arm's items_per_s against the committed baseline
// (tools/check_bench_regression.py).
template <typename Queue>
uint64_t RunQueueHop(benchmark::State& state, Queue* queue, size_t batch) {
  std::vector<uint64_t> out;
  out.reserve(batch);
  uint64_t items = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < batch; ++i) queue->Push(i);
    out.clear();
    size_t got = 0;
    while (got < batch) got += queue->PopBatch(&out, batch - got);
    benchmark::DoNotOptimize(out.data());
    items += batch;
  }
  return items;
}

void BM_QueueHop(benchmark::State& state) {
  const bool spsc = state.range(0) != 0;
  const size_t batch = static_cast<size_t>(state.range(1));
  constexpr size_t kCapacity = 256;
  uint64_t items = 0;
  if (spsc) {
    StageChannel<uint64_t> channel(kCapacity);
    items = RunQueueHop(state, &channel, batch);
    state.counters["notifies"] =
        static_cast<double>(channel.stats().notifies);
  } else {
    BoundedQueue<uint64_t> queue(kCapacity);
    items = RunQueueHop(state, &queue, batch);
  }
  state.counters["items_per_s"] = benchmark::Counter(
      static_cast<double>(items), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_QueueHop)
    ->ArgNames({"spsc", "batch"})
    ->Args({1, 1})
    ->Args({0, 1})
    ->Args({1, 16})
    ->Args({0, 16})
    ->Args({1, 64})
    ->Args({0, 64})
    ->Unit(benchmark::kMicrosecond);

// The tentpole scaling axis: the same architecture across 1..N MMSI shards.
// Near-linear growth of lines_per_s demonstrates that every stateful stage
// partitions cleanly by vessel (AISdb-style partitioning, arXiv:2407.08082).
void BM_ShardedArchitecture(benchmark::State& state) {
  const World& world = bench::SharedWorld();
  const ScenarioOutput& scenario = bench::SharedScenario(F2Config());
  WeatherProvider weather(7);
  uint64_t events_out = 0;
  uint64_t lines = 0;
  for (auto _ : state) {
    PipelineConfig config;
    ShardedPipeline::Options opts;
    opts.num_shards = static_cast<size_t>(state.range(0));
    ShardedPipeline pipeline(config, opts, &world.zones(), &weather,
                             nullptr, nullptr);
    const auto events = pipeline.Run(scenario.nmea);
    events_out = events.size();
    lines += scenario.nmea.size();
    benchmark::DoNotOptimize(events);
  }
  state.counters["events"] = static_cast<double>(events_out);
  state.counters["lines_per_s"] = benchmark::Counter(
      static_cast<double>(lines), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ShardedArchitecture)
    ->ArgNames({"shards"})
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// The anomaly & integrity stage axis: arg0 = enable_anomaly. The off arm
// is the pre-stage baseline; the on arm pays the integrity scorer on every
// raw report plus the behaviour-change detector on every clean point, so
// the delta is the whole per-line price of the stage. detectors_per_s is
// the combined detector invocation rate (reports integrity-checked +
// points ingested by the behaviour detector) — the number CI gates, a
// canary for an allocation or a quadratic scan sneaking into the per-point
// path of either detector. Runs the sequential pipeline so the measurement
// is stage cost, not shard scheduling.
void BM_AnomalyStage(benchmark::State& state) {
  const World& world = bench::SharedWorld();
  const ScenarioOutput& scenario = bench::SharedScenario(F2Config());
  const bool anomaly = state.range(0) != 0;
  uint64_t lines = 0;
  uint64_t detector_calls = 0;
  AnomalyStageStats stage;
  for (auto _ : state) {
    PipelineConfig config;
    config.enable_anomaly = anomaly;
    MaritimePipeline pipeline(config, &world.zones(), nullptr, nullptr,
                              nullptr);
    const auto events = pipeline.Run(scenario.nmea);
    lines += scenario.nmea.size();
    stage = pipeline.metrics().anomaly;
    detector_calls += stage.integrity.reports_checked + stage.points_in;
    benchmark::DoNotOptimize(events);
  }
  state.counters["lines_per_s"] = benchmark::Counter(
      static_cast<double>(lines), benchmark::Counter::kIsRate);
  state.counters["detectors_per_s"] = benchmark::Counter(
      static_cast<double>(detector_calls), benchmark::Counter::kIsRate);
  state.counters["stage_events"] = static_cast<double>(stage.events_out);
  state.counters["quarantined"] =
      static_cast<double>(stage.points_quarantined);
}
BENCHMARK(BM_AnomalyStage)
    ->ArgName("anomaly")
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

// Weather source with a deliberate per-lookup stall, modelling a slow
// *remote* context service (the case §2.2's integration must survive).
// The stall blocks rather than spins: a slow upstream is I/O latency, not
// CPU demand, and on small hosts a spinning stall would steal the very
// cores the ingest path is being measured on.
class SlowWeather : public WeatherProvider {
 public:
  SlowWeather(uint64_t seed, std::chrono::microseconds stall)
      : WeatherProvider(seed), stall_(stall) {}

  WeatherSample At(const GeoPoint& p, Timestamp t) const override {
    std::this_thread::sleep_for(stall_);
    return WeatherProvider::At(p, t);
  }

 private:
  std::chrono::microseconds stall_;
};

// The enrichment-on/off axis: arg0 = shards, arg1 = mode.
//   mode 0: enrichment stage disabled entirely (the ingest-only baseline)
//   mode 1: async enrichment against a deliberately slow weather provider
//           (1 ms/lookup), enriched points delivered to a counting sink.
// The side-stage's drop-oldest queue means mode 1's ingest throughput must
// stay within ~10% of mode 0 — slow context sources cost drops (surfaced
// in the counters), never ingest stalls. The residual gap is the Finish
// delivery barrier (≤ queue_depth stalled lookups per shard) plus, on
// small hosts, sleep wake-up scheduling.
void BM_EnrichmentSideStage(benchmark::State& state) {
  const World& world = bench::SharedWorld();
  const ScenarioOutput& scenario = bench::SharedScenario(F2Config());
  const bool enrich = state.range(1) != 0;
  SlowWeather weather(7, std::chrono::microseconds(1000));
  uint64_t lines = 0;
  uint64_t enriched_out = 0;
  uint64_t drops = 0;
  for (auto _ : state) {
    PipelineConfig config;
    config.enable_enrichment = enrich;
    config.enrichment_queue_depth = 8;  // keeps the Finish barrier short
    ShardedPipeline::Options opts;
    opts.num_shards = static_cast<size_t>(state.range(0));
    ShardedPipeline pipeline(config, opts, &world.zones(),
                             enrich ? &weather : nullptr, nullptr, nullptr);
    std::atomic<uint64_t> delivered{0};
    if (enrich) {
      pipeline.SetEnrichedSink(
          [&delivered](const EnrichedPoint&) { ++delivered; });
    }
    const auto events = pipeline.Run(scenario.nmea);
    lines += scenario.nmea.size();
    enriched_out = delivered.load();
    drops = pipeline.metrics().enrichment_stage.queue_dropped;
    benchmark::DoNotOptimize(events);
  }
  state.counters["lines_per_s"] = benchmark::Counter(
      static_cast<double>(lines), benchmark::Counter::kIsRate);
  state.counters["enriched"] = static_cast<double>(enriched_out);
  state.counters["enrich_drops"] = static_cast<double>(drops);
}
BENCHMARK(BM_EnrichmentSideStage)
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({4, 0})
    ->Args({4, 1})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// The historical serving tier under reader load: arg0 = concurrent reader
// threads, arg1 = live ingest on/off. Readers cycle a four-spec battery
// (full scan, time range, region, vessel set) against the per-shard epoch
// snapshots via the QueryEngine fan-out; the live:1 arm holds back the
// final quarter of the corpus and trickles it in chunk-by-chunk while the
// readers run, so the measured latencies include writer/reader contention
// on the snapshot handoff — the "N concurrent readers against live ingest"
// property the serving tier promises. Latencies feed per-reader
// LatencyReservoirs (merged after each round; samples are stored in
// microseconds, the reservoir is unit-agnostic). CI gates the readers:1 /
// live:0 arm's queries_per_s against the committed baseline
// (tools/check_bench_regression.py); the concurrent arms are there to show
// scaling and tail behaviour, not to gate on a 1-CPU recording host.
void BM_QueryServing(benchmark::State& state) {
  const World& world = bench::SharedWorld();
  const ScenarioOutput& scenario = bench::SharedScenario(F2Config());
  const size_t readers = static_cast<size_t>(state.range(0));
  const bool live = state.range(1) != 0;
  constexpr int kQueriesPerReader = 4;

  PipelineConfig config;
  config.archive.enabled = true;  // volatile archives: serving cost, not disk
  ShardedPipeline::Options opts;
  opts.num_shards = 2;
  ShardedPipeline pipeline(config, opts, &world.zones(), nullptr, nullptr,
                           nullptr);
  const std::span<const Event<std::string>> all(scenario.nmea);
  size_t ingested = live ? all.size() * 3 / 4 : all.size();
  pipeline.IngestBatch(all.subspan(0, ingested));
  if (!live) pipeline.Finish();

  QueryEngine::Options qopts;
  qopts.num_workers = 2;
  QueryEngine engine(pipeline.archive_view(), qopts);

  // Derive the battery's filters from what the archive actually holds so
  // every spec matches real data (an empty-result query would measure the
  // index pruning alone).
  const QueryResult probe = engine.Execute(QuerySpec{});
  Timestamp t_min = kMaxTimestamp;
  Timestamp t_max = kInvalidTimestamp;
  BoundingBox extent;
  std::vector<Mmsi> vessels;
  for (const QueryRow& row : probe.rows) {
    t_min = std::min(t_min, row.t);
    t_max = std::max(t_max, row.t);
    extent.Extend(row.position);
    if (vessels.empty() || vessels.back() != row.mmsi) {
      vessels.push_back(row.mmsi);
    }
  }
  std::sort(vessels.begin(), vessels.end());
  vessels.erase(std::unique(vessels.begin(), vessels.end()), vessels.end());
  std::vector<QuerySpec> specs(4);
  const Timestamp span = t_max - t_min;
  specs[1].t0 = t_min + span / 4;
  specs[1].t1 = t_min + 3 * span / 4;
  const double lat_pad = (extent.max_lat - extent.min_lat) * 0.2;
  const double lon_pad = (extent.max_lon - extent.min_lon) * 0.2;
  specs[2].region = BoundingBox{extent.min_lat + lat_pad,
                                extent.min_lon + lon_pad,
                                extent.max_lat - lat_pad,
                                extent.max_lon - lon_pad};
  for (size_t i = 0; i < vessels.size(); i += 3) {
    specs[3].vessels.push_back(vessels[i]);
  }

  LatencyReservoir latency;
  uint64_t queries = 0;
  uint64_t rows_last_round = 0;
  for (auto _ : state) {
    std::vector<LatencyReservoir> per_reader(readers);
    std::atomic<uint64_t> row_count{0};
    std::vector<std::thread> pool;
    pool.reserve(readers);
    for (size_t r = 0; r < readers; ++r) {
      pool.emplace_back([&engine, &specs, &per_reader, &row_count, r] {
        for (int q = 0; q < kQueriesPerReader; ++q) {
          const auto start = std::chrono::steady_clock::now();
          const QueryResult res =
              engine.Execute(specs[(r + static_cast<size_t>(q)) %
                                   specs.size()]);
          const auto elapsed =
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - start);
          per_reader[r].Observe(static_cast<DurationMs>(elapsed.count()));
          row_count.fetch_add(res.rows.size(), std::memory_order_relaxed);
        }
      });
    }
    if (live && ingested < all.size()) {
      // One chunk per round keeps epochs publishing for as long as the
      // corpus lasts; once drained the readers keep running against the
      // finished archive.
      const size_t chunk = std::min<size_t>(2048, all.size() - ingested);
      pipeline.IngestBatch(all.subspan(ingested, chunk));
      ingested += chunk;
      if (ingested == all.size()) pipeline.Finish();
    }
    for (auto& t : pool) t.join();
    for (const LatencyReservoir& r : per_reader) latency.Merge(r);
    queries += readers * kQueriesPerReader;
    rows_last_round = row_count.load(std::memory_order_relaxed);
  }
  state.counters["queries_per_s"] = benchmark::Counter(
      static_cast<double>(queries), benchmark::Counter::kIsRate);
  state.counters["p99_us"] =
      static_cast<double>(latency.Quantile(0.99));
  state.counters["mean_us"] = latency.Mean();
  state.counters["rows_per_query"] =
      static_cast<double>(rows_last_round) /
      static_cast<double>(readers * kQueriesPerReader);
}
BENCHMARK(BM_QueryServing)
    ->ArgNames({"readers", "live"})
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({4, 1})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Network front door: the scenario corpus replayed over loopback TCP
// through the epoll ingest server into the sequential pipeline. The wire
// image is pre-encoded outside timing, so the measured loop is transport +
// reassembly + ingest. The frame axis compares the two wire formats:
// frame:0 ships re-armored NMEA lines in `kLine` frames (the receiver
// decodes from scratch); frame:1 ships sender-side de-armored payloads in
// `kPacked` frames (the receiver skips NMEA parsing and six-bit
// de-armoring entirely). CI gates frame:0's lines_per_s.
void BM_NetIngest(benchmark::State& state) {
  const World& world = bench::SharedWorld();
  const ScenarioOutput& scenario = bench::SharedScenario(F2Config());
  const bool packed_wire = state.range(0) != 0;

  std::string wire;
  size_t records = 0;
  if (!packed_wire) {
    for (const Event<std::string>& ev : scenario.nmea) {
      AppendLineFrame(ev, &wire);
    }
    records = scenario.nmea.size();
  } else {
    // Sender-side assembly: parse + reassemble + de-armor once, offline.
    AivdmAssembler assembler;
    for (const Event<std::string>& ev : scenario.nmea) {
      const ParsedLine parsed = AisDecoder::Parse(ev.payload, ev.ingest_time);
      if (!parsed.ok) continue;
      const auto assembled =
          assembler.Add(parsed.sentence, parsed.received_at);
      if (!assembled.ok() || !assembled->has_value()) continue;
      PackedRecord record;
      record.received_at = parsed.received_at;
      if (!UnarmorPayloadInto((*assembled)->payload, (*assembled)->fill_bits,
                              &record.bits)
               .ok()) {
        continue;
      }
      const Event<PackedRecord> pe(ev.event_time, ev.ingest_time,
                                   ev.source_id, std::move(record));
      AppendPackedFrame(pe, &wire);
      ++records;
    }
  }

  uint64_t lines = 0;
  uint64_t events = 0;
  for (auto _ : state) {
    TcpIngestOptions options;
    options.mode = WireMode::kFrames;
    TcpIngestServer server(options);
    if (!server.Start().ok()) {
      state.SkipWithError("ingest server failed to start");
      return;
    }
    MaritimePipeline pipeline(PipelineConfig{}, &world.zones(), nullptr,
                              nullptr, nullptr);

    std::thread sender([&server, &wire] {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) return;
      struct sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(server.port());
      ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
      if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        size_t off = 0;
        while (off < wire.size()) {
          const ssize_t w = ::send(fd, wire.data() + off,
                                   std::min<size_t>(64 * 1024,
                                                    wire.size() - off),
                                   0);
          if (w <= 0) break;
          off += static_cast<size_t>(w);
        }
      }
      ::close(fd);
    });

    // Drain-while-receiving, like examples/netfeed: feed whatever the
    // server has buffered so ingest overlaps the network transfer.
    std::vector<Event<std::string>> line_batch;
    std::vector<Event<PackedRecord>> packed_batch;
    size_t delivered = 0;
    while (delivered < records) {
      const size_t n = packed_wire ? server.DrainPacked(&packed_batch)
                                   : server.DrainLines(&line_batch);
      if (n == 0) {
        std::this_thread::yield();
        continue;
      }
      delivered += n;
      if (packed_wire) {
        events += pipeline.IngestPackedBatch(packed_batch).size();
        packed_batch.clear();
      } else {
        events += pipeline.IngestBatch(line_batch).size();
        line_batch.clear();
      }
    }
    sender.join();
    server.Stop();
    events += pipeline.Finish().size();
    lines += scenario.nmea.size();
  }
  state.counters["lines_per_s"] = benchmark::Counter(
      static_cast<double>(lines), benchmark::Counter::kIsRate);
  state.counters["records_per_iter"] = static_cast<double>(records);
  state.counters["events_per_iter"] =
      static_cast<double>(events) /
      static_cast<double>(std::max<int64_t>(state.iterations(), 1));
}
BENCHMARK(BM_NetIngest)
    ->ArgName("frame")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace
}  // namespace marlin

int main(int argc, char** argv) {
  marlin::bench::Banner(
      "F2: the integrated infrastructure as a running artefact (Figure 2)",
      "\"integration of in-situ streaming data, trajectories detection and "
      "forecasting, recognition ... of complex events and ... visual "
      "analytics\"");
  marlin::PrintArchitectureRun();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
