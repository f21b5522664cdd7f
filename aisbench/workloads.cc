// The four workloads. Each drives the corpus through the public pipeline
// API, measures the end-to-end metrics and checks the outputs: the event
// digest against the sequential reference, the line ledger, and (on
// archive_live) query results against the sequential query reference.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <span>
#include <thread>

#include "bench.h"
#include "core/sharded_pipeline.h"
#include "net/tcp_ingest_server.h"

namespace aisbench {

using namespace marlin;

namespace {

// Replay chunk (arrival order): several windows per call, so the sharded
// pipeline can overlap the coordinator with its shards inside one call.
constexpr size_t kChunkLines = 8192;
// Lines/s offered over loopback: half of what two shards sustain when the
// host is quiet, so the pipeline keeps up while the host steals CPU.
constexpr double kNetfeedRate = 75000.0;
// archive_live load: ingest plus the query mix take about 1.15 CPUs, which
// the host keeps supplying while its hypervisor steals CPU in bursts.
constexpr double kArchiveRate = 20000.0;   // lines/s offered in-process
constexpr double kQueryRate = 100.0;       // queries/s, both readers together
constexpr int kReaders = 2;
constexpr size_t kNetShards = 2;           // as examples/netfeed runs
constexpr size_t kStoreQueries = 1200;     // live-picture probe, >= 1000
constexpr size_t kRecheckQueries = 60;     // archive queries re-run at the end
constexpr int kSetupRepeats = 100;         // extra set-ups per run
constexpr double kMinDeliveredShare = 0.9; // of the offered rate, per pass
constexpr int64_t kIdleSleepNs = 50'000;   // idle harness threads sleep
constexpr int64_t kStartDelayNs = 2'000'000;
constexpr int64_t kBacklogSampleNs = 100'000'000;

void SleepUntilNs(int64_t t_ns) {
  std::this_thread::sleep_until(
      Clock::time_point(std::chrono::nanoseconds(t_ns)));
}

double Ms(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// Emits one window-latency sample per window whose last line was delivered
/// by a call that returned at `ret_ns`, timed from that line's due time.
class WindowClock {
 public:
  explicit WindowClock(const std::vector<size_t>& last) : last_(last) {}

  /// Lines [0, end) have now been delivered; `due(i)` is line i's due time.
  template <typename Due>
  void Delivered(size_t end, int64_t ret_ns, Due due,
                 std::vector<double>* out) {
    while (next_ < last_.size() && last_[next_] < end) {
      out->push_back(Ms(ret_ns - due(last_[next_])));
      ++next_;
    }
  }
  /// `Finish` closed the trailing partial window.
  void Finished(int64_t ret_ns, int64_t due_last, std::vector<double>* out) {
    out->push_back(Ms(ret_ns - due_last));
    ++next_;
  }
  uint64_t closed() const { return next_; }

 private:
  const std::vector<size_t>& last_;
  size_t next_ = 0;
};

/// Counts enriched points delivered to the sink (any thread).
struct EnrichedCounter {
  std::atomic<uint64_t> delivered{0};
  EnrichedSink Sink() {
    return [this](const EnrichedPoint&) {
      delivered.fetch_add(1, std::memory_order_relaxed);
    };
  }
};

/// One pass's measurements.
struct PassOut {
  int64_t wall_ns = 0;
  uint64_t delivered = 0;
  EventDigest digest;
  std::vector<double> window_ms;
  int64_t cpu_ns = 0;          ///< process CPU over the pass
  int64_t harness_cpu_ns = 0;  ///< harness threads' CPU over the pass
  double offered_per_s = 0.0;  ///< open loop: the scheduled rate
  std::vector<double> lag_ms;  ///< generator lateness (open loop)
  std::vector<double> backlog;
  std::vector<double> query_ms;
  std::vector<double> query_kind_ms[kQueryKinds];
  std::vector<double> query_cpu_ms;  ///< calling thread's CPU per query
  uint64_t queries = 0;
  uint64_t query_errors = 0;
};

struct Harness {
  const RunOptions& options;
  const Corpus& corpus;
  const Context& context;
  uint64_t reference_digest;
  Tracer* tracer;
  WorkloadResult* result;
  int64_t rss0;  ///< peak RSS once the inputs were built
  QueryMix mix = MakeQueryMix(corpus);

  /// Digest and ledger checks of one finished pass.
  template <typename P>
  void CheckPass(const P& pipeline, const PassOut& pass,
                 const EnrichedCounter& enriched, bool timed) const {
    result->digest = pass.digest.value();
    result->events = pass.digest.count();
    if (pass.digest.value() != reference_digest) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "event digest %016llx != sequential reference %016llx",
                    static_cast<unsigned long long>(pass.digest.value()),
                    static_cast<unsigned long long>(reference_digest));
      result->Fail(buf);
    }
    const LedgerCheck ledger =
        CheckLedger(pipeline.metrics(), corpus.lines.size(), pass.delivered,
                    enriched.delivered.load());
    result->ledger = ledger.detail;
    if (!ledger.exact) result->Fail("line ledger not exact: " + ledger.detail);
    if (pass.offered_per_s > 0.0) {
      const double delivered_per_s = static_cast<double>(pass.delivered) /
                                     (static_cast<double>(pass.wall_ns) * 1e-9);
      if (delivered_per_s < kMinDeliveredShare * pass.offered_per_s) {
        result->Fail("load generator fell behind: " +
                     std::to_string(delivered_per_s) + " of " +
                     std::to_string(pass.offered_per_s) +
                     " lines/s delivered (run invalid)");
      }
    }
    if (pass.query_errors > 0) result->Fail("queries errored");
    if (timed) {
      result->attempted += corpus.lines.size() + pass.queries;
      result->failed += ledger.lost_lines + pass.query_errors;
    }
  }

  void Record(const PassOut& pass) const {
    WorkloadResult* r = result;
    ++r->passes;
    // Peak memory of the first timed pass: later passes and the extra
    // set-ups only add allocator arenas of threads that have come and gone.
    if (r->passes == 1) {
      r->mem_peak_mb =
          static_cast<double>(PeakRssBytes() - rss0) / (1024.0 * 1024.0);
    }
    double q = 0.0;
    r->pass_window_p50.push_back(Median(pass.window_ms));
    r->pass_window_p95.push_back(TailQuantile(pass.window_ms, 0.95, &q));
    r->window_tail_q = std::min(r->window_tail_q, q);
    // The mix's central latency: mean of the three kinds' medians, so it
    // does not jump between kinds when their costs are close.
    double kinds = 0.0;
    for (const auto& kind_ms : pass.query_kind_ms) kinds += Median(kind_ms);
    r->pass_query_mix_p50.push_back(kinds / kQueryKinds);
    double cpu = 0.0;
    for (double ms : pass.query_cpu_ms) cpu += ms;
    r->pass_query_cpu_ms.push_back(
        cpu / static_cast<double>(std::max<size_t>(1, pass.query_cpu_ms.size())));
    r->pass_query_p99.push_back(TailQuantile(pass.query_ms, 0.99, &q));
    r->query_tail_q = std::min(r->query_tail_q, q);
    r->pass_lines_per_s.push_back(static_cast<double>(pass.delivered) /
                                  (static_cast<double>(pass.wall_ns) * 1e-9));
    r->window_ms.insert(r->window_ms.end(), pass.window_ms.begin(),
                        pass.window_ms.end());
    r->query_ms.insert(r->query_ms.end(), pass.query_ms.begin(),
                       pass.query_ms.end());
    r->loadgen_lag_ms.insert(r->loadgen_lag_ms.end(), pass.lag_ms.begin(),
                             pass.lag_ms.end());
    r->backlog_samples.insert(r->backlog_samples.end(), pass.backlog.begin(),
                              pass.backlog.end());
    r->cpu_ns += pass.cpu_ns;
    r->harness_cpu_ns += pass.harness_cpu_ns;
    r->lines += pass.delivered;
  }

  /// Whether another timed pass fits in the run (always at least one).
  bool AnotherPass(int64_t loop_start, int64_t last_pass_ns) const {
    if (result->passes == 0) return true;
    const double projected =
        static_cast<double>(NowNs() - loop_start + last_pass_ns) * 1e-9;
    return projected <= 1.25 * options.seconds;
  }

  /// Layer metrics of a traced sharded pass: coordinator (caller thread of
  /// IngestBatch/Finish) versus workers, and the coordinator->shard hop.
  void ShardedLayerMetrics(const ShardedPipeline& pipeline,
                           const PassOut& pass) const {
    const SpanAgg ingest = tracer->Total("core.sharded_pipeline:IngestBatch");
    const SpanAgg finish = tracer->Total("core.sharded_pipeline:Finish");
    const double lines = static_cast<double>(pass.delivered);
    auto& layer = result->layer;
    layer["core.sharded_pipeline.coordinator_cpu_share"] =
        static_cast<double>(ingest.cpu_ns) /
        static_cast<double>(std::max<int64_t>(1, ingest.wall_ns));
    layer["core.sharded_pipeline.coordinator_us_per_line"] =
        static_cast<double>(ingest.cpu_ns + finish.cpu_ns) / lines * 1e-3;
    layer["core.sharded_pipeline.worker_us_per_line"] =
        static_cast<double>(pass.cpu_ns - pass.harness_cpu_ns) / lines * 1e-3;
    const QueueHopStats& hop = pipeline.metrics().shard_hop;
    layer["stream.shard_hop.depth_high_water"] =
        static_cast<double>(hop.depth_high_water);
    layer["stream.shard_hop.push_waits"] = static_cast<double>(hop.push_waits);
    layer["stream.shard_hop.pop_waits"] = static_cast<double>(hop.pop_waits);
    layer["stream.shard_hop.notifies"] = static_cast<double>(hop.notifies);
  }
};

// --------------------------------------------------------------------------
// Pipeline construction.

std::unique_ptr<MaritimePipeline> MakeSequential(const Context& context,
                                                 EnrichedCounter* enriched) {
  auto p = std::make_unique<MaritimePipeline>(
      BaseConfig(), &context.world.zones(), &context.weather, nullptr,
      nullptr);
  p->SetEnrichedSink(enriched->Sink());
  return p;
}

std::unique_ptr<ShardedPipeline> MakeSharded(const PipelineConfig& config,
                                             size_t shards,
                                             const Context& context,
                                             EnrichedCounter* enriched) {
  ShardedPipeline::Options options;
  options.num_shards = shards;
  auto p = std::make_unique<ShardedPipeline>(config, options,
                                             &context.world.zones(),
                                             &context.weather, nullptr,
                                             nullptr);
  p->SetEnrichedSink(enriched->Sink());
  return p;
}

const TrajectoryStore& StoreOf(const MaritimePipeline& p) { return p.store(); }
PartitionedTrajectoryView StoreOf(const ShardedPipeline& p) {
  return p.store_view();
}

/// The query mix against the live picture (the in-memory trajectory store)
/// of a finished pipeline, closed loop — the serving surface of the
/// workloads that run without the archive.
template <typename View>
void StoreQueryProbe(const View& view, const Harness& h, PassOut* pass) {
  const BoundingBox everywhere(-90.0, -180.0, 90.0, 180.0);
  const Timestamp now = h.corpus.lines.back().ingest_time;
  std::vector<TrajectoryPoint> rows;
  for (size_t k = 0; k < kStoreQueries; ++k) {
    const auto kind = static_cast<QueryKind>(k % kQueryKinds);
    rows.clear();
    const int64_t cpu0 = ThreadCpuNs();
    const int64_t start = NowNs();
    if (kind == QueryKind::kVessels) {
      for (Mmsi mmsi : h.mix.vessels) {
        auto traj = view.GetTrajectory(mmsi);
        if (traj.ok()) {
          rows.insert(rows.end(), (*traj)->points.begin(),
                      (*traj)->points.end());
        }
      }
    } else {
      const bool recent = kind == QueryKind::kRecent;
      const auto found = view.QueryWindow(
          recent ? everywhere : h.mix.region,
          now - (recent ? 15 * kMillisPerMinute : kMillisPerHour), now);
      for (const Trajectory& t : found) {
        rows.insert(rows.end(), t.points.begin(), t.points.end());
      }
    }
    pass->query_ms.push_back(Ms(NowNs() - start));
    pass->query_cpu_ms.push_back(Ms(ThreadCpuNs() - cpu0));
    pass->query_kind_ms[static_cast<int>(kind)].push_back(pass->query_ms.back());
  }
  h.result->attempted += kStoreQueries;
}

// --------------------------------------------------------------------------
// replay_seq / replay_sharded4: closed loop, fixed-size arrival-order
// chunks, a fresh pipeline per pass (construction is set-up, not ingest).
// A chunk's lines are due when the harness hands the chunk over.

template <typename P>
PassOut ReplayPass(P& pipeline, const Harness& h, const char* layer,
                   Tracer* tracer) {
  const auto& lines = h.corpus.lines;
  PassOut pass;
  WindowClock windows(h.corpus.window_last);
  const std::string ingest_span = std::string(layer) + ":IngestBatch";
  const std::string finish_span = std::string(layer) + ":Finish";
  const int64_t cpu0 = ProcessCpuNs();
  const int64_t harness_cpu0 = ThreadCpuNs();
  const int64_t t0 = NowNs();
  for (size_t begin = 0; begin < lines.size(); begin += kChunkLines) {
    const size_t end = std::min(lines.size(), begin + kChunkLines);
    const uint64_t window = windows.closed();
    const int64_t tcpu = tracer != nullptr ? ThreadCpuNs() : 0;
    const int64_t call = NowNs();
    const auto events = pipeline.IngestBatch(
        std::span<const Event<std::string>>(lines.data() + begin,
                                            end - begin));
    const int64_t ret = NowNs();
    if (tracer != nullptr) {
      tracer->Record(ingest_span, window, ret - call, ThreadCpuNs() - tcpu,
                     end - begin);
    }
    windows.Delivered(end, ret, [call](size_t) { return call; },
                      &pass.window_ms);
    pass.digest.Add(events);
  }
  const uint64_t window = windows.closed();
  const int64_t tcpu = tracer != nullptr ? ThreadCpuNs() : 0;
  const int64_t call = NowNs();
  pass.digest.Add(pipeline.Finish());
  const int64_t ret = NowNs();
  if (tracer != nullptr) {
    tracer->Record(finish_span, window, ret - call, ThreadCpuNs() - tcpu, 0);
  }
  windows.Finished(ret, call, &pass.window_ms);
  pass.wall_ns = ret - t0;
  pass.delivered = lines.size();
  pass.cpu_ns = ProcessCpuNs() - cpu0;
  pass.harness_cpu_ns = ThreadCpuNs() - harness_cpu0;
  return pass;
}

template <typename P, typename Make>
void RunReplay(const Harness& h, const char* layer, Make make) {
  WorkloadResult* r = h.result;
  // One pass on a fresh pipeline. Timed passes also run the live-picture
  // query probe (after the pass clock stopped) and record their samples.
  auto one_pass = [&](Tracer* tracer, bool timed) -> PassOut {
    auto enriched = std::make_unique<EnrichedCounter>();
    const int64_t start = NowNs();
    std::unique_ptr<P> p = make(enriched.get());
    if (timed) r->setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    PassOut pass = ReplayPass(*p, h, layer, tracer);
    h.CheckPass(*p, pass, *enriched, timed || tracer != nullptr);
    if (timed) {
      StoreQueryProbe(StoreOf(*p), h, &pass);
      h.Record(pass);
    }
    if (tracer == nullptr) return pass;
    if constexpr (std::is_same_v<P, ShardedPipeline>) {
      h.ShardedLayerMetrics(*p, pass);
    } else {
      const SpanAgg ingest = tracer->Total("core.pipeline:IngestBatch");
      const SpanAgg finish = tracer->Total("core.pipeline:Finish");
      r->layer["core.pipeline.ns_per_line"] =
          static_cast<double>(ingest.wall_ns + finish.wall_ns) /
          static_cast<double>(pass.delivered);
      r->layer["core.pipeline.finish_ms"] = Ms(finish.wall_ns);
    }
    return pass;
  };

  one_pass(nullptr, false);  // warm-up
  if (h.tracer != nullptr) {
    const PassOut untraced = one_pass(nullptr, false);
    r->untraced_wall_s = static_cast<double>(untraced.wall_ns) * 1e-9;
    const PassOut traced = one_pass(h.tracer, false);
    r->traced_wall_s = static_cast<double>(traced.wall_ns) * 1e-9;
    r->lines = traced.delivered;
    return;
  }
  const int64_t loop_start = NowNs();
  int64_t last_pass_ns = 0;
  while (h.AnotherPass(loop_start, last_pass_ns)) {
    const int64_t pass_start = NowNs();
    one_pass(nullptr, true);
    last_pass_ns = NowNs() - pass_start;
  }
  // Extra set-ups for a steady setup_s median, after the timed passes so
  // their threads' allocator arenas stay out of mem_peak_mb.
  for (int i = 0; i < kSetupRepeats; ++i) {
    EnrichedCounter enriched;
    const int64_t start = NowNs();
    std::unique_ptr<P> p = make(&enriched);
    r->setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
  }
}

// --------------------------------------------------------------------------
// netfeed_paced: open loop over loopback TCP. One sender thread paces
// framed kLine records at a fixed rate; the drain thread moves the ingest
// server into a 2-shard pipeline. Latency runs from each line's due time.

struct NetRig {
  std::unique_ptr<TcpIngestServer> server;
  std::unique_ptr<ShardedPipeline> pipeline;
  std::unique_ptr<EnrichedCounter> enriched =
      std::make_unique<EnrichedCounter>();
  int fd = -1;

  NetRig() = default;
  NetRig(const NetRig&) = delete;
  NetRig& operator=(const NetRig&) = delete;
  ~NetRig() {
    if (fd >= 0) ::close(fd);
    if (server != nullptr) server->Stop();
  }
};

std::unique_ptr<NetRig> MakeNetRig(const Harness& h, std::string* error) {
  auto rig = std::make_unique<NetRig>();
  TcpIngestOptions options;
  options.mode = WireMode::kFrames;
  rig->server = std::make_unique<TcpIngestServer>(options);
  if (Status s = rig->server->Start(); !s.ok()) {
    *error = "ingest server start failed: " + s.message();
    return nullptr;
  }
  rig->pipeline =
      MakeSharded(BaseConfig(), kNetShards, h.context, rig->enriched.get());
  rig->fd = ConnectLoopback(rig->server->port());
  if (rig->fd < 0) {
    *error = "loopback connect failed";
    return nullptr;
  }
  return rig;
}

PassOut NetfeedPass(NetRig& rig, const Harness& h, const std::string& wire,
                    const std::vector<size_t>& offsets, Tracer* tracer) {
  const auto& lines = h.corpus.lines;
  const size_t n = lines.size();
  const double ns_per_line = 1e9 / kNetfeedRate;
  PassOut pass;
  pass.offered_per_s = kNetfeedRate;
  const int64_t t0 = NowNs() + kStartDelayNs;
  auto due = [t0, ns_per_line](size_t i) {
    return t0 + static_cast<int64_t>(static_cast<double>(i) * ns_per_line);
  };
  std::atomic<size_t> sent{0};
  std::atomic<bool> send_failed{false};
  int64_t sender_cpu = 0;
  std::vector<double> lag_ms;
  lag_ms.reserve(n);
  std::thread sender([&] {
    const int64_t cpu0 = ThreadCpuNs();
    size_t next = 0;
    while (next < n) {
      const int64_t now = NowNs();
      if (now < due(next)) {
        SleepUntilNs(due(next));
        continue;
      }
      size_t upto = std::min(
          n, static_cast<size_t>(static_cast<double>(now - t0) / ns_per_line) +
                 1);
      upto = std::max(upto, next + 1);
      if (!SendAll(rig.fd, wire.data() + offsets[next],
                   offsets[upto] - offsets[next])) {
        send_failed.store(true);
        break;
      }
      const int64_t after = NowNs();
      for (size_t j = next; j < upto; ++j) lag_ms.push_back(Ms(after - due(j)));
      next = upto;
      sent.store(next, std::memory_order_release);
    }
    sender_cpu = ThreadCpuNs() - cpu0;
  });

  WindowClock windows(h.corpus.window_last);
  std::vector<Event<std::string>> batch;
  uint64_t drains = 0;
  uint64_t empty_drains = 0;
  int64_t drain_ns = 0;
  size_t backlog_max = 0;
  int64_t next_sample = t0;
  const int64_t deadline =
      t0 + static_cast<int64_t>(static_cast<double>(n) * ns_per_line) +
      60'000'000'000;
  const int64_t cpu0 = ProcessCpuNs();
  const int64_t drain_cpu0 = ThreadCpuNs();
  size_t delivered = 0;
  while (delivered < n) {
    const int64_t call = NowNs();
    const size_t got = rig.server->DrainLines(&batch);
    const int64_t drained = NowNs();
    ++drains;
    drain_ns += drained - call;
    if (tracer != nullptr) {
      tracer->Record("net:DrainLines", windows.closed(), drained - call, 0,
                     got);
    }
    const size_t sent_now = sent.load(std::memory_order_acquire);
    const size_t backlog = sent_now > delivered ? sent_now - delivered : 0;
    backlog_max = std::max(backlog_max, backlog);
    if (drained >= next_sample) {
      pass.backlog.push_back(static_cast<double>(backlog));
      next_sample += kBacklogSampleNs;
    }
    if (got == 0) {
      ++empty_drains;
      if (drained > deadline || send_failed.load()) break;
      std::this_thread::sleep_for(std::chrono::nanoseconds(kIdleSleepNs));
      continue;
    }
    const uint64_t window = windows.closed();
    const int64_t tcpu = tracer != nullptr ? ThreadCpuNs() : 0;
    const int64_t ingest = NowNs();
    const auto events = rig.pipeline->IngestBatch(batch);
    const int64_t ret = NowNs();
    if (tracer != nullptr) {
      tracer->Record("core.sharded_pipeline:IngestBatch", window, ret - ingest,
                     ThreadCpuNs() - tcpu, got);
    }
    delivered += got;
    windows.Delivered(delivered, ret, due, &pass.window_ms);
    pass.digest.Add(events);
    batch.clear();
  }
  const uint64_t window = windows.closed();
  const int64_t tcpu = tracer != nullptr ? ThreadCpuNs() : 0;
  const int64_t call = NowNs();
  pass.digest.Add(rig.pipeline->Finish());
  const int64_t ret = NowNs();
  if (tracer != nullptr) {
    tracer->Record("core.sharded_pipeline:Finish", window, ret - call,
                   ThreadCpuNs() - tcpu, 0);
  }
  windows.Finished(ret, due(n - 1), &pass.window_ms);
  const int64_t drain_cpu = ThreadCpuNs() - drain_cpu0;
  sender.join();
  pass.wall_ns = ret - t0;
  pass.delivered = delivered;
  pass.cpu_ns = ProcessCpuNs() - cpu0;
  pass.harness_cpu_ns = drain_cpu + sender_cpu;
  pass.lag_ms = std::move(lag_ms);
  rig.pipeline->RecordNetIngest(rig.server->stats());
  if (tracer != nullptr) {
    auto& layer = h.result->layer;
    layer["net.drain_ns_per_line"] =
        static_cast<double>(drain_ns) / static_cast<double>(delivered);
    layer["net.empty_drain_share"] =
        static_cast<double>(empty_drains) / static_cast<double>(drains);
    layer["net.backlog_max_lines"] = static_cast<double>(backlog_max);
    layer["net.bad_frames"] =
        static_cast<double>(rig.pipeline->metrics().net_ingest.bad_frames);
  }
  return pass;
}

void RunNetfeed(const Harness& h, const std::string& wire,
                const std::vector<size_t>& offsets) {
  WorkloadResult* r = h.result;
  std::string error;
  auto one_pass = [&](Tracer* tracer, bool timed) -> bool {
    const int64_t start = NowNs();
    std::unique_ptr<NetRig> rig = MakeNetRig(h, &error);
    if (rig == nullptr) {
      r->Fail(error);
      return false;
    }
    if (timed) r->setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    PassOut pass = NetfeedPass(*rig, h, wire, offsets, tracer);
    h.CheckPass(*rig->pipeline, pass, *rig->enriched, timed || tracer != nullptr);
    if (timed) {
      StoreQueryProbe(StoreOf(*rig->pipeline), h, &pass);
      h.Record(pass);
    }
    if (tracer != nullptr) {
      r->traced_wall_s = static_cast<double>(pass.wall_ns) * 1e-9;
      r->lines = pass.delivered;
      h.ShardedLayerMetrics(*rig->pipeline, pass);
    }
    return true;
  };

  if (h.tracer != nullptr) {
    one_pass(h.tracer, false);
    return;
  }
  if (!one_pass(nullptr, false)) return;  // warm-up
  const int64_t loop_start = NowNs();
  int64_t last_pass_ns = 0;
  while (h.AnotherPass(loop_start, last_pass_ns)) {
    const int64_t pass_start = NowNs();
    if (!one_pass(nullptr, true)) return;
    last_pass_ns = NowNs() - pass_start;
  }
  for (int i = 0; i < kSetupRepeats; ++i) {
    const int64_t start = NowNs();
    std::unique_ptr<NetRig> rig = MakeNetRig(h, &error);
    r->setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    if (rig == nullptr) {
      r->Fail(error);
      return;
    }
  }
}

// --------------------------------------------------------------------------
// archive_live: writes beside reads. The ingest thread paces the corpus
// in-process into a 2-shard pipeline with the on-disk archive on; two
// reader threads send the query mix open loop against the live archive.

struct ArchiveRig {
  std::unique_ptr<EnrichedCounter> enriched =
      std::make_unique<EnrichedCounter>();
  std::unique_ptr<ShardedPipeline> pipeline;
  std::unique_ptr<QueryEngine> engine;
  std::string dir;

  ArchiveRig() = default;
  ArchiveRig(const ArchiveRig&) = delete;
  ArchiveRig& operator=(const ArchiveRig&) = delete;
  ~ArchiveRig() {
    engine.reset();
    pipeline.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

std::unique_ptr<ArchiveRig> MakeArchiveRig(const Harness& h, int index) {
  auto rig = std::make_unique<ArchiveRig>();
  rig->dir = h.options.scratch_dir + "/archive-" + std::to_string(index);
  std::error_code ec;
  std::filesystem::remove_all(rig->dir, ec);
  std::filesystem::create_directories(rig->dir, ec);
  PipelineConfig config = BaseConfig();
  config.archive.enabled = true;
  config.archive.directory = rig->dir;
  config.archive.wal_sync = false;
  rig->pipeline =
      MakeSharded(config, kNetShards, h.context, rig->enriched.get());
  // Readers scan inline (no fan-out pool), so a query's CPU is its reader
  // thread's; the fan-out engine is checked against this one at the end.
  rig->engine = std::make_unique<QueryEngine>(rig->pipeline->archive_view());
  return rig;
}

struct ReaderOut {
  std::vector<double> query_ms;
  std::vector<double> query_kind_ms[kQueryKinds];
  std::vector<double> query_cpu_ms;
  std::vector<double> lag_ms;
  std::vector<QuerySpec> specs;
  SpanAgg per_kind[kQueryKinds];
  uint64_t blocks_scanned = 0;
  uint64_t blocks_total = 0;
  uint64_t errors = 0;
  int64_t cpu_ns = 0;
};

PassOut ArchivePass(ArchiveRig& rig, const Harness& h, Tracer* tracer) {
  const auto& lines = h.corpus.lines;
  const size_t n = lines.size();
  const double ns_per_line = 1e9 / kArchiveRate;
  const double ns_per_query = 1e9 / kQueryRate;
  PassOut pass;
  pass.offered_per_s = kArchiveRate;
  const int64_t t0 = NowNs() + kStartDelayNs;
  auto due = [t0, ns_per_line](size_t i) {
    return t0 + static_cast<int64_t>(static_cast<double>(i) * ns_per_line);
  };
  std::atomic<Timestamp> frontier{lines.front().ingest_time};
  std::atomic<bool> done{false};
  ReaderOut readers[kReaders];
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      const int64_t cpu0 = ThreadCpuNs();
      ReaderOut& out = readers[r];
      for (uint64_t k = static_cast<uint64_t>(r);; k += kReaders) {
        const int64_t due_q =
            t0 + static_cast<int64_t>(static_cast<double>(k) * ns_per_query);
        if (done.load(std::memory_order_acquire)) break;
        if (NowNs() < due_q) SleepUntilNs(due_q);
        if (done.load(std::memory_order_acquire)) break;
        const auto kind = static_cast<QueryKind>(k % kQueryKinds);
        QuerySpec spec = MakeQuery(h.mix, kind, frontier.load());
        const int64_t query_cpu0 = ThreadCpuNs();
        const int64_t call = NowNs();
        try {
          const QueryResult result = rig.engine->Execute(spec);
          const int64_t end = NowNs();
          out.query_cpu_ms.push_back(Ms(ThreadCpuNs() - query_cpu0));
          out.query_ms.push_back(Ms(end - due_q));
          out.query_kind_ms[static_cast<int>(kind)].push_back(
              out.query_ms.back());
          SpanAgg& agg = out.per_kind[static_cast<int>(kind)];
          ++agg.calls;
          agg.wall_ns += end - call;
          agg.items += result.rows.size();
          out.blocks_scanned += result.stats.blocks_scanned;
          out.blocks_total += result.stats.blocks_total;
        } catch (const std::exception&) {
          ++out.errors;
        }
        out.lag_ms.push_back(Ms(call - due_q));
        out.specs.push_back(std::move(spec));
      }
      out.cpu_ns = ThreadCpuNs() - cpu0;
    });
  }

  WindowClock windows(h.corpus.window_last);
  int64_t next_sample = t0;
  const int64_t cpu0 = ProcessCpuNs();
  const int64_t ingest_cpu0 = ThreadCpuNs();
  size_t delivered = 0;
  while (delivered < n) {
    const int64_t now = NowNs();
    if (now < due(delivered)) {
      SleepUntilNs(std::max(due(delivered), now + kIdleSleepNs));
      continue;
    }
    const size_t upto = std::min(
        n, std::max(delivered + 1,
                    static_cast<size_t>(static_cast<double>(now - t0) /
                                        ns_per_line) +
                        1));
    pass.lag_ms.push_back(Ms(now - due(delivered)));
    const uint64_t window = windows.closed();
    const int64_t tcpu = tracer != nullptr ? ThreadCpuNs() : 0;
    const int64_t call = NowNs();
    const auto events = rig.pipeline->IngestBatch(
        std::span<const Event<std::string>>(lines.data() + delivered,
                                            upto - delivered));
    const int64_t ret = NowNs();
    if (tracer != nullptr) {
      tracer->Record("core.sharded_pipeline:IngestBatch", window, ret - call,
                     ThreadCpuNs() - tcpu, upto - delivered);
    }
    frontier.store(lines[upto - 1].ingest_time, std::memory_order_release);
    delivered = upto;
    windows.Delivered(delivered, ret, due, &pass.window_ms);
    pass.digest.Add(events);
    if (ret >= next_sample) {
      const double due_lines = static_cast<double>(ret - t0) / ns_per_line;
      pass.backlog.push_back(
          std::max(0.0, std::min(due_lines, static_cast<double>(n)) -
                            static_cast<double>(delivered)));
      next_sample += kBacklogSampleNs;
    }
  }
  const uint64_t window = windows.closed();
  const int64_t tcpu = tracer != nullptr ? ThreadCpuNs() : 0;
  const int64_t call = NowNs();
  pass.digest.Add(rig.pipeline->Finish());
  const int64_t ret = NowNs();
  if (tracer != nullptr) {
    tracer->Record("core.sharded_pipeline:Finish", window, ret - call,
                   ThreadCpuNs() - tcpu, 0);
  }
  windows.Finished(ret, due(n - 1), &pass.window_ms);
  const int64_t ingest_cpu = ThreadCpuNs() - ingest_cpu0;
  done.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  pass.wall_ns = ret - t0;
  pass.delivered = delivered;
  pass.cpu_ns = ProcessCpuNs() - cpu0;
  pass.harness_cpu_ns = ingest_cpu;

  std::vector<QuerySpec> specs;
  SpanAgg per_kind[kQueryKinds];
  uint64_t blocks_scanned = 0;
  uint64_t blocks_total = 0;
  for (ReaderOut& out : readers) {
    pass.query_ms.insert(pass.query_ms.end(), out.query_ms.begin(),
                         out.query_ms.end());
    pass.query_cpu_ms.insert(pass.query_cpu_ms.end(),
                             out.query_cpu_ms.begin(), out.query_cpu_ms.end());
    for (int k = 0; k < kQueryKinds; ++k) {
      pass.query_kind_ms[k].insert(pass.query_kind_ms[k].end(),
                                   out.query_kind_ms[k].begin(),
                                   out.query_kind_ms[k].end());
    }
    pass.lag_ms.insert(pass.lag_ms.end(), out.lag_ms.begin(),
                       out.lag_ms.end());
    pass.queries += out.specs.size();
    pass.query_errors += out.errors;
    pass.harness_cpu_ns += out.cpu_ns;
    for (int k = 0; k < kQueryKinds; ++k) per_kind[k].Add(out.per_kind[k]);
    blocks_scanned += out.blocks_scanned;
    blocks_total += out.blocks_total;
    for (QuerySpec& spec : out.specs) specs.push_back(std::move(spec));
  }

  // Re-run an evenly spaced sample of the queries run on the finished
  // archive: the fan-out engine must equal the sequential reference.
  QueryEngine::Options fan_out_options;
  fan_out_options.num_workers = kNetShards;
  QueryEngine fan_out(rig.pipeline->archive_view(), fan_out_options);
  QueryEngine reference(rig.pipeline->archive_view());
  const size_t stride = std::max<size_t>(1, specs.size() / kRecheckQueries);
  for (size_t i = 0; i < specs.size(); i += stride) {
    if (fan_out.Execute(specs[i]).rows != reference.Execute(specs[i]).rows) {
      h.result->Fail("archive query " + std::to_string(i) +
                     " differs from the num_workers=0 reference");
      break;
    }
  }

  if (tracer != nullptr) {
    auto& layer = h.result->layer;
    const char* names[kQueryKinds] = {"core.query_engine.ns_recent",
                                      "core.query_engine.ns_region",
                                      "core.query_engine.ns_vessels"};
    uint64_t rows = 0;
    uint64_t calls = 0;
    for (int k = 0; k < kQueryKinds; ++k) {
      layer[names[k]] = static_cast<double>(per_kind[k].wall_ns) /
                        static_cast<double>(std::max<uint64_t>(1, per_kind[k].calls));
      rows += per_kind[k].items;
      calls += per_kind[k].calls;
      tracer->Add(std::string("core.query_engine:Execute.") +
                      QueryKindName(static_cast<QueryKind>(k)),
                  0, per_kind[k]);
    }
    layer["core.query_engine.blocks_scanned_share"] =
        static_cast<double>(blocks_scanned) /
        static_cast<double>(std::max<uint64_t>(1, blocks_total));
    layer["core.query_engine.rows_per_query"] =
        static_cast<double>(rows) / static_cast<double>(std::max<uint64_t>(1, calls));
    const ArchiveStats& archive = rig.pipeline->metrics().archive;
    layer["storage.archive.blocks"] = static_cast<double>(archive.blocks);
    layer["storage.archive.lsm_flushes"] =
        static_cast<double>(archive.lsm_flushes);
    layer["storage.archive.lsm_compactions"] =
        static_cast<double>(archive.lsm_compactions);
  }
  return pass;
}

void RunArchive(const Harness& h) {
  WorkloadResult* r = h.result;
  int rig_index = 0;
  auto one_pass = [&](Tracer* tracer, bool timed) {
    const int64_t start = NowNs();
    std::unique_ptr<ArchiveRig> rig = MakeArchiveRig(h, rig_index++);
    if (timed) r->setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    const PassOut pass = ArchivePass(*rig, h, tracer);
    h.CheckPass(*rig->pipeline, pass, *rig->enriched, timed || tracer != nullptr);
    if (timed) h.Record(pass);
    if (tracer != nullptr) {
      r->traced_wall_s = static_cast<double>(pass.wall_ns) * 1e-9;
      r->lines = pass.delivered;
      h.ShardedLayerMetrics(*rig->pipeline, pass);
    }
  };
  if (h.tracer != nullptr) {
    one_pass(h.tracer, false);
    return;
  }
  const int64_t loop_start = NowNs();
  int64_t last_pass_ns = 0;
  while (h.AnotherPass(loop_start, last_pass_ns)) {
    const int64_t pass_start = NowNs();
    one_pass(nullptr, true);
    last_pass_ns = NowNs() - pass_start;
  }
  for (int i = 0; i < kSetupRepeats; ++i) {
    const int64_t start = NowNs();
    std::unique_ptr<ArchiveRig> rig = MakeArchiveRig(h, rig_index++);
    r->setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
  }
}

}  // namespace

WorkloadResult RunWorkload(const RunOptions& options, const Corpus& corpus,
                           const Context& context, uint64_t reference_digest,
                           Tracer* tracer) {
  WorkloadResult result;
  // The sender's wire image is harness input: built before the memory
  // baseline so mem_peak_mb counts only what the system under test holds.
  std::string wire;
  std::vector<size_t> offsets;
  if (options.workload == "netfeed_paced") BuildWire(corpus, &wire, &offsets);
  const Harness h{options, corpus,  context,       reference_digest,
                  tracer,  &result, PeakRssBytes()};
  if (options.workload == "replay_seq") {
    RunReplay<MaritimePipeline>(h, "core.pipeline",
                                [&context](EnrichedCounter* enriched) {
                                  return MakeSequential(context, enriched);
                                });
  } else if (options.workload == "replay_sharded4") {
    RunReplay<ShardedPipeline>(h, "core.sharded_pipeline",
                               [&context](EnrichedCounter* enriched) {
                                 return MakeSharded(BaseConfig(), 4, context,
                                                    enriched);
                               });
  } else if (options.workload == "netfeed_paced") {
    RunNetfeed(h, wire, offsets);
  } else if (options.workload == "archive_live") {
    RunArchive(h);
  } else {
    result.Fail("unknown workload " + options.workload);
  }
  return result;
}

}  // namespace aisbench
