// aisbench — end-to-end benchmark of the AIS ingest/serve pipeline.
//
//   aisbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--work-dir <dir>] [--source <id>]
//
// Generates the seeded corpus, runs one workload, checks its outputs and
// prints a report followed, as the last line, by one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end metrics of BENCHMARK.json; with --trace 1 the
// per-layer metrics of a separate traced run. Exit code 0 when every check
// passed, 1 when a check failed (the JSON says correct=false), 2 when the
// run could not be made at all (no JSON).

#include <cpuid.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"

#ifndef AISBENCH_BUILD_TYPE
#define AISBENCH_BUILD_TYPE "unknown"
#endif
#ifndef AISBENCH_CXX_COMPILER
#define AISBENCH_CXX_COMPILER "unknown"
#endif

namespace aisbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics (BENCHMARK.json "end_to_end"). Wall-clock latencies
// are printed beside them but not gated: on a host whose hypervisor steals
// CPU in bursts they spread from run to run beyond any usable bound.
constexpr MetricDef kEndToEnd[] = {
    {"lines_per_s", "lines/s"}, {"cpu_us_per_line", "us"},
    {"query_cpu_ms", "ms"},     {"mem_peak_mb", "MiB"},
    {"setup_s", "s"},
};

// Per-layer metrics (BENCHMARK.json "per_layer").
constexpr MetricDef kPerLayer[] = {
    {"ais.parse_ns_per_line", "ns"},
    {"ais.assemble_ns_per_line", "ns"},
    {"ais.allocs_per_line", "count"},
    {"ais.messages_per_line", "count"},
    {"core.reconstruction.ns_per_report", "ns"},
    {"core.reconstruction.points_per_report", "count"},
    {"core.synopses.ns_per_point", "ns"},
    {"core.enrichment.ns_per_point", "ns"},
    {"core.events.vessel.ns_per_point", "ns"},
    {"core.events.vessel.allocs_per_point", "count"},
    {"storage.trajectory_store.ns_per_point", "ns"},
    {"storage.trajectory_store.points_held", "count"},
    {"core.shard.ns_per_report", "ns"},
    {"core.shard.self_ns_per_report", "ns"},
    {"core.events.pair.ns_per_window_p50", "ns"},
    {"core.events.pair.ns_per_window_p95", "ns"},
    {"core.events.pair.obs_per_window", "count"},
    {"core.pipeline.ns_per_line", "ns"},
    {"core.pipeline.finish_ms", "ms"},
    {"core.sharded_pipeline.coordinator_cpu_share", "share"},
    {"core.sharded_pipeline.coordinator_us_per_line", "us"},
    {"core.sharded_pipeline.worker_us_per_line", "us"},
    {"stream.shard_hop.depth_high_water", "count"},
    {"stream.shard_hop.push_waits", "count"},
    {"stream.shard_hop.pop_waits", "count"},
    {"stream.shard_hop.notifies", "count"},
    {"net.drain_ns_per_line", "ns"},
    {"net.empty_drain_share", "share"},
    {"net.backlog_max_lines", "count"},
    {"net.bad_frames", "count"},
    {"storage.archive.stage_ns_per_point", "ns"},
    {"storage.archive.close_epoch_ns_p95", "ns"},
    {"storage.archive.blocks", "count"},
    {"storage.archive.lsm_flushes", "count"},
    {"storage.archive.lsm_compactions", "count"},
    {"core.query_engine.ns_recent", "ns"},
    {"core.query_engine.ns_region", "ns"},
    {"core.query_engine.ns_vessels", "ns"},
    {"core.query_engine.blocks_scanned_share", "share"},
    {"core.query_engine.rows_per_query", "count"},
};

const char* const kWorkloads[] = {"replay_seq", "replay_sharded4",
                                  "netfeed_paced", "archive_live"};

std::string CpuModel() {
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  const size_t first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

const char* ThreadBudget(const std::string& workload) {
  if (workload == "netfeed_paced") return "2 (sender, drain)";
  if (workload == "archive_live") return "3 (ingest, 2 readers)";
  return "1 (ingest)";
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<std::pair<const MetricDef*, double>>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].first->name, metrics[i].second,
                  metrics[i].first->unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void PrintSamples(const char* name, const std::vector<double>& v,
                  const char* unit) {
  if (v.empty()) return;
  double q = 0.0;
  const double tail = TailQuantile(v, 0.99, &q);
  std::printf("  %-22s n=%-7zu p50 %.4g %s  p%.0f %.4g %s  max %.4g %s\n", name,
              v.size(), Median(v), unit, q * 100.0, tail, unit,
              Quantile(v, 1.0), unit);
}

int Usage() {
  std::fprintf(stderr,
               "usage: aisbench --workload <replay_seq|replay_sharded4|"
               "netfeed_paced|archive_live> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>] [--source <id>]\n");
  return 2;
}

/// Self-time table of a traced run: the workload's spans, then the stage
/// replay's layer rows against the untraced wall time.
void PrintTraceReport(const std::string& workload, const WorkloadResult& r,
                      const Tracer& tracer, const StageReplay& replay) {
  std::printf("\ntraced pass — spans around the public calls (%s):\n",
              workload.c_str());
  std::printf("  %-44s %9s %11s %11s %9s %7s\n", "layer:call", "calls",
              "wall_ms", "cpu_ms", "items", "share");
  const double traced_ns = r.traced_wall_s * 1e9;
  for (const std::string& layer : tracer.Layers()) {
    const SpanAgg agg = tracer.Total(layer);
    std::printf("  %-44s %9" PRIu64 " %11.2f %11.2f %9" PRIu64 " %6.1f%%\n",
                layer.c_str(), agg.calls, agg.wall_ns * 1e-6,
                agg.cpu_ns * 1e-6, agg.items,
                100.0 * static_cast<double>(agg.wall_ns) / traced_ns);
  }
  const bool replay_workload =
      workload == "replay_seq" || workload == "replay_sharded4";
  const double wall_ns =
      (replay_workload ? r.untraced_wall_s : r.traced_wall_s) * 1e9;
  std::printf("\nstage replay — layer self time over the same corpus, against "
              "the %s wall time of one %s pass (%.1f ms):\n",
              replay_workload ? "untraced" : "traced", workload.c_str(),
              wall_ns * 1e-6);
  double sum = 0.0;
  for (const auto& [layer, ns] : replay.self_ns) {
    std::printf("  %-30s %11.2f ms %6.1f%%\n", layer.c_str(), ns * 1e-6,
                100.0 * ns / wall_ns);
    sum += ns;
  }
  if (!replay_workload) {
    // An open-loop pass is paced: its wall time is the schedule, not work.
    std::printf("  (paced workload: the pass wall time is set by the offered "
                "rate, so no coverage is computed)\n");
    return;
  }
  std::printf("  %-30s %11.2f ms %6.1f%%\n", "unattributed", (wall_ns - sum) * 1e-6,
              100.0 * (wall_ns - sum) / wall_ns);
  std::printf("stage coverage (%s): sum of layer self time / wall = %.1f%%\n",
              workload.c_str(), 100.0 * sum / wall_ns);
  if (workload == "replay_sharded4") {
    // Serial coordinator stages plus the parallel ones spread over 4 shards.
    double serial = 0.0;
    for (const auto& [layer, ns] : replay.self_ns) {
      if (layer == "ais.assemble" || layer == "core.events.pair") serial += ns;
    }
    std::printf("  critical-path estimate (serial + parallel/4) / wall = "
                "%.1f%%\n",
                100.0 * (serial + (sum - serial) / 4.0) / wall_ns);
  }
  const double untraced = static_cast<double>(r.lines) / r.untraced_wall_s;
  const double traced = static_cast<double>(r.lines) / r.traced_wall_s;
  std::printf("tracing overhead (%s): untraced %.0f lines/s, traced %.0f "
              "lines/s, difference %.0f lines/s (%.2f%%)\n",
              workload.c_str(), untraced, traced, untraced - traced,
              100.0 * (untraced - traced) / untraced);
}

}  // namespace

int Main(int argc, char** argv) {
  RunOptions options;
  std::string work_dir = ".bench_build/aisbench-work";
  std::string source = "unknown";
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--work-dir") {
      work_dir = value;
    } else if (key == "--source") {
      source = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || !have_workload || options.seconds <= 0.0) return Usage();
  bool known = false;
  for (const char* w : kWorkloads) known = known || options.workload == w;
  if (!known) return Usage();

  const std::string build_type = AISBENCH_BUILD_TYPE;
  std::printf("host: nproc=%u cpu=\"%s\" compiler=\"%s\" build=%s source=%s\n",
              std::thread::hardware_concurrency(), CpuModel().c_str(),
              AISBENCH_CXX_COMPILER, build_type.c_str(), source.c_str());
  std::printf("run: workload=%s seed=%" PRIu64 " seconds=%g trace=%d "
              "harness threads=%s\n",
              options.workload.c_str(), options.seed, options.seconds,
              options.trace ? 1 : 0, ThreadBudget(options.workload));
  if (build_type != "Release") {
    std::fprintf(stderr, "aisbench: refusing a %s build; timings need Release\n",
                 build_type.c_str());
    return 2;
  }
#ifdef AISBENCH_ALLOC_PROBE
  if (!options.trace) {
    std::fprintf(stderr, "aisbench: the traced binary only makes traced runs\n");
    return 2;
  }
#endif

  options.scratch_dir = work_dir + "/tmp-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::create_directories(options.scratch_dir, ec);
  if (ec) {
    std::fprintf(stderr, "aisbench: cannot create %s\n",
                 options.scratch_dir.c_str());
    return 2;
  }

  Corpus corpus;
  std::string error;
  if (!GenerateCorpus(options.seed, &corpus, &error)) {
    std::fprintf(stderr, "aisbench: %s\n", error.c_str());
    return 2;
  }
  std::printf("corpus: seed %" PRIu64 ", %zu lines, %zu windows, %zu vessels, "
              "generated in %.2f s (not in any metric)\n",
              options.seed, corpus.lines.size(), corpus.window_last.size() + 1,
              corpus.fleet.size(), corpus.generate_s);
  const Context context;

  // The sequential reference digest, computed in a child process so it
  // neither warms this process nor enters its peak RSS.
  std::pair<uint64_t, uint64_t> reference{0, 0};
  if (!RunInChild(
          [&] {
            const EventDigest d = ReferenceDigest(corpus, context);
            return std::make_pair(d.value(), d.count());
          },
          &reference)) {
    std::fprintf(stderr, "aisbench: reference run failed\n");
    return 2;
  }
  std::printf("reference: sequential MaritimePipeline::Run, %" PRIu64
              " events, digest %016" PRIx64 "\n",
              reference.second, reference.first);

  Tracer tracer;
  WorkloadResult result =
      RunWorkload(options, corpus, context, reference.first,
                  options.trace ? &tracer : nullptr);

  std::printf("\nworkload %s: %d timed pass(es), %zu lines per pass\n",
              options.workload.c_str(), result.passes, corpus.lines.size());
  std::printf("  events %" PRIu64 ", digest %016" PRIx64 " (%s reference)\n",
              result.events, result.digest,
              result.digest == reference.first ? "equals" : "DIFFERS FROM");
  std::printf("  ledger: %s\n", result.ledger.c_str());

  std::vector<std::pair<const MetricDef*, double>> metrics;
  if (!options.trace) {
    const double values[] = {
        Median(result.pass_lines_per_s),
        static_cast<double>(result.cpu_ns) /
            static_cast<double>(std::max<uint64_t>(1, result.lines)) * 1e-3,
        Median(result.pass_query_cpu_ms),
        result.mem_peak_mb,
        Median(result.setup_s),
    };
    const size_t samples[] = {result.pass_lines_per_s.size(),
                              static_cast<size_t>(result.passes),
                              result.query_ms.size(),
                              1,
                              result.setup_s.size()};
    std::printf("\nend-to-end metrics (%s, seed %" PRIu64 "; per-pass "
                "figures are medians over %d passes):\n",
                options.workload.c_str(), options.seed, result.passes);
    for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
      std::printf("  %-18s %14.6g %-8s (n=%zu)\n", kEndToEnd[i].name,
                  values[i], kEndToEnd[i].unit, samples[i]);
      metrics.emplace_back(&kEndToEnd[i], values[i]);
    }
    std::printf("  %-18s %14.6g %-8s (n=%zu; not gated)\n", "window_p50_ms",
                Median(result.pass_window_p50), "ms", result.window_ms.size());
    std::printf("  %-18s %14.6g %-8s (n=%zu; p%.0f, not gated)\n",
                "window_p95_ms", Median(result.pass_window_p95), "ms",
                result.window_ms.size(), result.window_tail_q * 100.0);
    std::printf("  %-18s %14.6g %-8s (n=%zu; mean of the kinds' medians, "
                "not gated)\n",
                "query_mix_p50_ms", Median(result.pass_query_mix_p50), "ms",
                result.query_ms.size());
    std::printf("  %-18s %14.6g %-8s (n=%zu; p%.0f, not gated)\n",
                "query_p99_ms", Median(result.pass_query_p99), "ms",
                result.query_ms.size(), result.query_tail_q * 100.0);
    std::printf("\nsamples:\n");
    std::printf("  %-22s", "pass lines/s");
    for (double v : result.pass_lines_per_s) std::printf(" %.0f", v);
    std::printf("\n");
    PrintSamples("window latency", result.window_ms, "ms");
    PrintSamples("query latency", result.query_ms, "ms");
    PrintSamples("setup", result.setup_s, "s");
    if (!result.loadgen_lag_ms.empty()) {
      std::printf("  loadgen.lag_p99_ms     %.4g ms (generator lateness; a "
                  "pass delivering under 90%% of the offered rate is "
                  "invalid)\n",
                  Quantile(result.loadgen_lag_ms, 0.99));
    }
    if (!result.backlog_samples.empty()) {
      const auto& b = result.backlog_samples;
      const size_t half = b.size() / 2;
      double first = 0.0;
      double second = 0.0;
      for (size_t i = 0; i < b.size(); ++i) (i < half ? first : second) += b[i];
      std::printf("  backlog (lines due or sent, not yet ingested; every "
                  "100 ms): n=%zu max %.0f, mean first half %.1f, second "
                  "half %.1f\n",
                  b.size(), Quantile(b, 1.0), first / std::max<size_t>(1, half),
                  second / std::max<size_t>(1, b.size() - half));
    }
    std::printf("  harness CPU %.1f%% of process CPU\n",
                100.0 * static_cast<double>(result.harness_cpu_ns) /
                    static_cast<double>(std::max<int64_t>(1, result.cpu_ns)));
  } else {
    const StageReplay replay =
        RunStageReplay(corpus, context, options.scratch_dir);
    if (!replay.ok) result.Fail("stage replay: " + replay.error);
    PrintTraceReport(options.workload, result, tracer, replay);
    const std::string trace_path = work_dir + "/trace-" + options.workload +
                                   "-seed" + std::to_string(options.seed) +
                                   ".tsv";
    if (tracer.Write(trace_path)) {
      std::printf("spans per (window, layer) written to %s\n",
                  trace_path.c_str());
    }
    std::printf("\nper-layer metrics (%s, seed %" PRIu64 "):\n",
                options.workload.c_str(), options.seed);
    for (const MetricDef& def : kPerLayer) {
      double value = 0.0;
      const char* source_name = "stage replay";
      if (auto it = result.layer.find(def.name); it != result.layer.end()) {
        value = it->second;
        source_name = "traced pass";
      } else if (auto jt = replay.metrics.find(def.name);
                 jt != replay.metrics.end()) {
        value = jt->second;
      } else {
        result.Fail(std::string("per-layer metric not measured: ") + def.name);
      }
      std::printf("  %-46s %14.6g %-6s [%s]\n", def.name, value, def.unit,
                  source_name);
      metrics.emplace_back(&def, value);
    }
  }

  std::filesystem::remove_all(options.scratch_dir, ec);
  for (const std::string& f : result.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("checks: event digest = sequential reference, exact line ledger%s"
              " -> %s\n",
              options.workload == "archive_live"
                  ? ", archive queries = num_workers=0 reference"
                  : "",
              result.correct ? "pass" : "FAIL");
  PrintJson(result.correct, result.attempted, result.failed, metrics);
  return result.correct ? 0 : 1;
}

}  // namespace aisbench

int main(int argc, char** argv) { return aisbench::Main(argc, argv); }
