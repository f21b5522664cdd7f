#ifndef AISBENCH_BENCH_H_
#define AISBENCH_BENCH_H_

// Shared declarations of the end-to-end AIS pipeline benchmark: the seeded
// corpus, the clocks, the sample statistics, the span tracer and the
// per-workload entry points. See README.md for what each workload and
// metric means.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "context/weather.h"
#include "core/pipeline.h"
#include "core/query_engine.h"
#include "sim/world.h"
#include "stream/event.h"

namespace aisbench {

using marlin::Event;
using marlin::Timestamp;

// --------------------------------------------------------------------------
// Clocks.

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
int64_t ThreadCpuNs();
int64_t ProcessCpuNs();
/// Peak resident set of this process so far, in bytes.
int64_t PeakRssBytes();

// --------------------------------------------------------------------------
// Sample statistics.

/// Nearest-rank quantile of `samples` (copied; q in [0, 1]). 0 when empty.
double Quantile(std::vector<double> samples, double q);
double Median(const std::vector<double>& samples);
/// The highest of p99 / p95 / p90 / p50 that leaves at least ten samples
/// beyond it; returns the quantile used in `*q_used`.
double TailQuantile(const std::vector<double>& samples, double max_q,
                    double* q_used);

// --------------------------------------------------------------------------
// The seeded corpus.

struct Corpus {
  uint64_t seed = 0;
  std::vector<Event<std::string>> lines;  ///< arrival order
  /// Index of the last line of every window the pipelines close while
  /// ingesting (from the public `WindowMustClose`); the trailing partial
  /// window is closed by `Finish`.
  std::vector<size_t> window_last;
  std::vector<marlin::Mmsi> fleet;  ///< every simulated vessel, sorted
  std::vector<marlin::Mmsi> transit;  ///< transit vessels, fleet order
  marlin::BoundingBox bounds;       ///< world extent
  double generate_s = 0.0;
};

/// Generates the corpus for `seed` in a child process (so generation peak
/// memory stays out of this process's peak RSS) and reads it back.
bool GenerateCorpus(uint64_t seed, Corpus* corpus, std::string* error);

/// The pipeline configuration every workload shares (default windows).
marlin::PipelineConfig BaseConfig();

/// Context sources shared by every pipeline (zones + weather; no
/// registries, as in the Figure-2 architecture bench).
struct Context {
  marlin::World world = marlin::World::Basin();
  marlin::WeatherProvider weather{7};
};

/// Order-sensitive digest of an event stream (every field, bit-exact).
class EventDigest {
 public:
  void Add(const std::vector<marlin::DetectedEvent>& events);
  uint64_t value() const { return hash_; }
  uint64_t count() const { return count_; }

 private:
  uint64_t hash_ = 1469598103934665603ull;
  uint64_t count_ = 0;
};

/// Reference event-stream digest: one sequential `MaritimePipeline::Run`.
EventDigest ReferenceDigest(const Corpus& corpus, const Context& context);

/// Runs `fn` in a forked child and returns the two words it produced, so
/// reference computations stay out of this process's peak RSS and caches.
/// Call only while this process has no other threads.
bool RunInChild(const std::function<std::pair<uint64_t, uint64_t>()>& fn,
                std::pair<uint64_t, uint64_t>* out);

// --------------------------------------------------------------------------
// Loopback transport helpers.

/// The corpus as one framed (`kLine` frames) wire image; `offsets[i]` is
/// where line i's frame starts, `offsets[n]` the end.
void BuildWire(const Corpus& corpus, std::string* wire,
               std::vector<size_t>* offsets);
/// Blocking loopback TCP connect; -1 on failure.
int ConnectLoopback(uint16_t port);
/// Sends all of `data`; false on a socket error.
bool SendAll(int fd, const char* data, size_t size);

// --------------------------------------------------------------------------
// The query mix.

enum class QueryKind { kRecent = 0, kRegion = 1, kVessels = 2 };
inline constexpr int kQueryKinds = 3;
const char* QueryKindName(QueryKind kind);

/// Vessels in the query mix's vessel set.
inline constexpr size_t kQueryVessels = 16;

/// Fixed region box (the central quarter of the world extent) and vessel
/// set (the first `kQueryVessels` transit vessels of the fleet, so the
/// set's history is of similar size whatever the seed) of the query mix.
struct QueryMix {
  marlin::BoundingBox region;
  std::vector<marlin::Mmsi> vessels;
};
QueryMix MakeQueryMix(const Corpus& corpus);
/// Query `k` of the mix, relative to the ingest frontier `now` (event time).
marlin::QuerySpec MakeQuery(const QueryMix& mix, QueryKind kind,
                            Timestamp now);

// --------------------------------------------------------------------------
// Tracing: spans around the public calls a workload makes, aggregated per
// (window, layer) in memory and written out at the end of the run.

struct SpanAgg {
  uint64_t calls = 0;
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;  ///< calling thread's CPU (coordinator spans)
  uint64_t items = 0;  ///< lines / queries the calls carried
  void Add(const SpanAgg& o) {
    calls += o.calls;
    wall_ns += o.wall_ns;
    cpu_ns += o.cpu_ns;
    items += o.items;
  }
};

class Tracer {
 public:
  void Record(const std::string& layer, uint64_t window, int64_t wall_ns,
              int64_t cpu_ns, uint64_t items);
  /// Merges spans aggregated elsewhere (e.g. on reader threads).
  void Add(const std::string& layer, uint64_t window, const SpanAgg& agg);
  SpanAgg Total(const std::string& layer) const;
  std::vector<std::string> Layers() const;
  /// Writes one TSV row per (window, layer).
  bool Write(const std::string& path) const;

 private:
  std::map<std::pair<uint64_t, std::string>, SpanAgg> spans_;
};

// --------------------------------------------------------------------------
// Workload results.

struct LedgerCheck {
  bool exact = true;
  uint64_t lost_lines = 0;
  std::string detail;
};

/// Checks the line ledger of one finished pass: every line offered is
/// decoded, pending, dead-lettered or dropped, each by reason.
LedgerCheck CheckLedger(const marlin::PipelineMetrics& m, uint64_t offered,
                        uint64_t delivered, uint64_t enriched_delivered);

struct WorkloadResult {
  bool correct = true;
  std::vector<std::string> failures;  ///< failed checks, human readable
  uint64_t attempted = 0;
  uint64_t failed = 0;
  int passes = 0;
  // End-to-end samples: per-pass statistics (reported as medians over
  // passes, so one disturbed pass does not move a run) and pooled samples.
  std::vector<double> pass_lines_per_s;
  std::vector<double> pass_window_p50;
  std::vector<double> pass_window_p95;
  std::vector<double> pass_query_mix_p50;
  std::vector<double> pass_query_cpu_ms;
  std::vector<double> pass_query_p99;
  /// Lowest tail percentile a pass's sample count supported (0.95 / 0.99
  /// when every pass had at least ten samples beyond them).
  double window_tail_q = 0.95;
  double query_tail_q = 0.99;
  std::vector<double> window_ms;
  std::vector<double> query_ms;
  std::vector<double> setup_s;
  std::vector<double> loadgen_lag_ms;
  std::vector<double> backlog_samples;  ///< sent - drained, over time
  int64_t cpu_ns = 0;
  uint64_t lines = 0;
  int64_t harness_cpu_ns = 0;
  double mem_peak_mb = 0.0;
  uint64_t digest = 0;
  uint64_t events = 0;
  std::string ledger;
  /// Per-layer values the workload's own traced pass measured (override
  /// the stage replay's values of the same name).
  std::map<std::string, double> layer;
  double untraced_wall_s = 0.0;  ///< trace runs: one untraced pass's wall
  double traced_wall_s = 0.0;    ///< trace runs: the traced pass's wall

  void Fail(const std::string& what) {
    correct = false;
    failures.push_back(what);
  }
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 2;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch_dir;  ///< temp archives live under here
};

/// Runs one workload. With a tracer, runs one untraced pass and one traced
/// pass instead of the timed loop.
WorkloadResult RunWorkload(const RunOptions& options, const Corpus& corpus,
                           const Context& context, uint64_t reference_digest,
                           Tracer* tracer);

// --------------------------------------------------------------------------
// Stage replay: each layer's public function fed the previous layer's
// output over the same corpus, timed per layer.

struct StageReplay {
  std::map<std::string, double> metrics;  ///< per-layer metric values
  /// Self time per layer row (ns), in pipeline order, for the coverage
  /// table.
  std::vector<std::pair<std::string, double>> self_ns;
  bool ok = true;
  std::string error;
};

StageReplay RunStageReplay(const Corpus& corpus, const Context& context,
                           const std::string& scratch_dir);

}  // namespace aisbench

#endif  // AISBENCH_BENCH_H_
