// Seeded corpus, shared helpers and correctness checks of the benchmark.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench.h"
#include "sim/scenario.h"
#include "stream/frame.h"

namespace aisbench {

using namespace marlin;

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

int64_t PeakRssBytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return int64_t{usage.ru_maxrss} * 1024;
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n) - 1;
  std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
  return samples[rank];
}

double Median(const std::vector<double>& samples) {
  return Quantile(samples, 0.5);
}

double TailQuantile(const std::vector<double>& samples, double max_q,
                    double* q_used) {
  const double n = static_cast<double>(samples.size());
  for (double q : {0.99, 0.95, 0.90, 0.50}) {
    if (q > max_q) continue;
    if (n * (1.0 - q) >= 10.0 || q == 0.50) {
      *q_used = q;
      return Quantile(samples, q);
    }
  }
  *q_used = 0.50;
  return Quantile(samples, 0.50);
}

// --------------------------------------------------------------------------
// Corpus generation. The scenario is generated in a child process and
// streamed back over a pipe, so the generator's peak memory never enters
// this process's peak RSS (mem_peak_mb is measured against it).

namespace {

ScenarioConfig CorpusConfig(uint64_t seed) {
  // 4x the Figure-2 fleet over 6 h, realistic (coastal + satellite)
  // reception.
  ScenarioConfig config;
  config.seed = seed;
  config.duration = 6 * kMillisPerHour;
  config.transit_vessels = 120;
  config.fishing_vessels = 32;
  config.loiter_vessels = 12;
  config.rendezvous_pairs = 8;
  config.dark_vessels = 16;
  config.spoof_identity_vessels = 4;
  config.spoof_teleport_vessels = 4;
  return config;
}

bool WriteAll(int fd, const void* data, size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t w = ::write(fd, p, size);
    if (w <= 0) return false;
    p += w;
    size -= static_cast<size_t>(w);
  }
  return true;
}

template <typename T>
bool ReadPod(FILE* in, T* value) {
  return std::fread(value, sizeof(T), 1, in) == 1;
}

void WriteCorpus(int fd, uint64_t seed) {
  const World world = World::Basin();
  const ScenarioOutput scenario = GenerateScenario(world, CorpusConfig(seed));
  std::string buf;
  auto put = [&buf](const auto& v) {
    buf.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(static_cast<uint64_t>(scenario.nmea.size()));
  for (const Event<std::string>& ev : scenario.nmea) {
    put(ev.event_time);
    put(ev.ingest_time);
    put(ev.source_id);
    put(static_cast<uint32_t>(ev.payload.size()));
    buf += ev.payload;
    if (buf.size() > (1u << 20)) {
      if (!WriteAll(fd, buf.data(), buf.size())) _exit(3);
      buf.clear();
    }
  }
  put(static_cast<uint64_t>(scenario.fleet.size()));
  for (const VesselSpec& spec : scenario.fleet) {
    put(spec.mmsi);
    put(static_cast<uint8_t>(spec.behaviour == Behaviour::kTransit));
  }
  const BoundingBox bounds = world.Bounds();
  put(bounds);
  if (!WriteAll(fd, buf.data(), buf.size())) _exit(3);
}

bool ReadCorpus(FILE* in, Corpus* corpus) {
  uint64_t n = 0;
  if (!ReadPod(in, &n)) return false;
  corpus->lines.resize(n);
  for (Event<std::string>& ev : corpus->lines) {
    uint32_t len = 0;
    if (!ReadPod(in, &ev.event_time) || !ReadPod(in, &ev.ingest_time) ||
        !ReadPod(in, &ev.source_id) || !ReadPod(in, &len)) {
      return false;
    }
    ev.payload.resize(len);
    if (len > 0 && std::fread(ev.payload.data(), 1, len, in) != len) {
      return false;
    }
  }
  uint64_t fleet = 0;
  if (!ReadPod(in, &fleet)) return false;
  corpus->fleet.resize(fleet);
  for (Mmsi& mmsi : corpus->fleet) {
    uint8_t transit = 0;
    if (!ReadPod(in, &mmsi) || !ReadPod(in, &transit)) return false;
    if (transit != 0) corpus->transit.push_back(mmsi);
  }
  std::sort(corpus->fleet.begin(), corpus->fleet.end());
  return ReadPod(in, &corpus->bounds);
}

}  // namespace

bool GenerateCorpus(uint64_t seed, Corpus* corpus, std::string* error) {
  const int64_t start = NowNs();
  int fds[2];
  if (::pipe(fds) != 0) {
    *error = "pipe failed";
    return false;
  }
  std::fflush(stdout);
  const pid_t child = ::fork();
  if (child < 0) {
    *error = "fork failed";
    return false;
  }
  if (child == 0) {
    ::close(fds[0]);
    WriteCorpus(fds[1], seed);
    ::close(fds[1]);
    _exit(0);
  }
  ::close(fds[1]);
  FILE* in = ::fdopen(fds[0], "rb");
  const bool read_ok = in != nullptr && ReadCorpus(in, corpus);
  if (in != nullptr) {
    std::fclose(in);
  } else {
    ::close(fds[0]);
  }
  int status = 0;
  ::waitpid(child, &status, 0);
  if (!read_ok || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    *error = "corpus generator child failed";
    return false;
  }
  corpus->seed = seed;
  const PipelineConfig config = BaseConfig();
  size_t count = 0;
  Timestamp first = kInvalidTimestamp;
  for (size_t i = 0; i < corpus->lines.size(); ++i) {
    const Timestamp t = corpus->lines[i].ingest_time;
    if (count == 0) first = t;
    ++count;
    if (WindowMustClose(config, count, first, t)) {
      corpus->window_last.push_back(i);
      count = 0;
    }
  }
  corpus->generate_s = static_cast<double>(NowNs() - start) * 1e-9;
  return true;
}

PipelineConfig BaseConfig() {
  PipelineConfig config;
  // The enrichment side-stage sheds its oldest point when its queue is full.
  // At closed-loop replay speed on four shards a scheduling hiccup can fill
  // the default 1024-point queue; 8192 points absorbs those hiccups, so a
  // shed point (counted as a failed line) means the stage really fell behind.
  config.enrichment_queue_depth = 8192;
  return config;
}

bool RunInChild(const std::function<std::pair<uint64_t, uint64_t>()>& fn,
                std::pair<uint64_t, uint64_t>* out) {
  int fds[2];
  if (::pipe(fds) != 0) return false;
  std::fflush(stdout);
  const pid_t child = ::fork();
  if (child < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return false;
  }
  if (child == 0) {
    ::close(fds[0]);
    const std::pair<uint64_t, uint64_t> result = fn();
    const uint64_t words[2] = {result.first, result.second};
    _exit(WriteAll(fds[1], words, sizeof(words)) ? 0 : 3);
  }
  ::close(fds[1]);
  uint64_t words[2] = {0, 0};
  size_t got = 0;
  while (got < sizeof(words)) {
    const ssize_t r =
        ::read(fds[0], reinterpret_cast<char*>(words) + got,
               sizeof(words) - got);
    if (r <= 0) break;
    got += static_cast<size_t>(r);
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(child, &status, 0);
  if (got != sizeof(words) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return false;
  }
  *out = {words[0], words[1]};
  return true;
}

void BuildWire(const Corpus& corpus, std::string* wire,
               std::vector<size_t>* offsets) {
  wire->clear();
  offsets->clear();
  offsets->reserve(corpus.lines.size() + 1);
  for (const Event<std::string>& ev : corpus.lines) {
    offsets->push_back(wire->size());
    AppendLineFrame(ev, wire);
  }
  offsets->push_back(wire->size());
}

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const char* data, size_t size) {
  while (size > 0) {
    const ssize_t w = ::send(fd, data, size, MSG_NOSIGNAL);
    if (w <= 0) return false;
    data += w;
    size -= static_cast<size_t>(w);
  }
  return true;
}

// --------------------------------------------------------------------------
// Event digest.

namespace {

inline void Mix(uint64_t* h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (8 * i)) & 0xFF;
    *h *= 1099511628211ull;
  }
}

}  // namespace

void EventDigest::Add(const std::vector<DetectedEvent>& events) {
  for (const DetectedEvent& ev : events) {
    Mix(&hash_, static_cast<uint64_t>(ev.type));
    Mix(&hash_, static_cast<uint64_t>(ev.start));
    Mix(&hash_, static_cast<uint64_t>(ev.end));
    Mix(&hash_, ev.vessel_a);
    Mix(&hash_, ev.vessel_b);
    Mix(&hash_, std::bit_cast<uint64_t>(ev.where.lat));
    Mix(&hash_, std::bit_cast<uint64_t>(ev.where.lon));
    Mix(&hash_, ev.zone_id);
    Mix(&hash_, std::bit_cast<uint64_t>(ev.severity));
    Mix(&hash_, static_cast<uint64_t>(ev.detected_at));
  }
  count_ += events.size();
}

EventDigest ReferenceDigest(const Corpus& corpus, const Context& context) {
  MaritimePipeline pipeline(BaseConfig(), &context.world.zones(),
                            &context.weather, nullptr, nullptr);
  EventDigest digest;
  digest.Add(pipeline.Run(corpus.lines));
  return digest;
}

// --------------------------------------------------------------------------
// Query mix.

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kRecent: return "recent";
    case QueryKind::kRegion: return "region";
    case QueryKind::kVessels: return "vessels";
  }
  return "unknown";
}

QueryMix MakeQueryMix(const Corpus& corpus) {
  QueryMix mix;
  const BoundingBox& b = corpus.bounds;
  const double dlat = (b.max_lat - b.min_lat) / 4.0;
  const double dlon = (b.max_lon - b.min_lon) / 4.0;
  mix.region = BoundingBox(b.min_lat + dlat, b.min_lon + dlon,
                           b.max_lat - dlat, b.max_lon - dlon);
  const size_t picks = std::min(kQueryVessels, corpus.transit.size());
  mix.vessels.assign(corpus.transit.begin(),
                     corpus.transit.begin() + static_cast<ptrdiff_t>(picks));
  std::sort(mix.vessels.begin(), mix.vessels.end());
  return mix;
}

QuerySpec MakeQuery(const QueryMix& mix, QueryKind kind, Timestamp now) {
  QuerySpec spec;
  switch (kind) {
    case QueryKind::kRecent:
      spec.t0 = now - 15 * kMillisPerMinute;
      spec.t1 = now;
      break;
    case QueryKind::kRegion:
      spec.t0 = now - kMillisPerHour;
      spec.t1 = now;
      spec.region = mix.region;
      break;
    case QueryKind::kVessels:
      spec.vessels = mix.vessels;
      break;
  }
  return spec;
}

// --------------------------------------------------------------------------
// Tracer.

void Tracer::Record(const std::string& layer, uint64_t window,
                    int64_t wall_ns, int64_t cpu_ns, uint64_t items) {
  SpanAgg& agg = spans_[{window, layer}];
  ++agg.calls;
  agg.wall_ns += wall_ns;
  agg.cpu_ns += cpu_ns;
  agg.items += items;
}

void Tracer::Add(const std::string& layer, uint64_t window,
                 const SpanAgg& agg) {
  spans_[{window, layer}].Add(agg);
}

SpanAgg Tracer::Total(const std::string& layer) const {
  SpanAgg total;
  for (const auto& [key, agg] : spans_) {
    if (key.second == layer) total.Add(agg);
  }
  return total;
}

std::vector<std::string> Tracer::Layers() const {
  std::vector<std::string> layers;
  for (const auto& [key, agg] : spans_) {
    if (std::find(layers.begin(), layers.end(), key.second) == layers.end()) {
      layers.push_back(key.second);
    }
  }
  return layers;
}

bool Tracer::Write(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "window\tlayer\tcalls\twall_ns\tcpu_ns\titems\n");
  for (const auto& [key, agg] : spans_) {
    std::fprintf(out, "%llu\t%s\t%llu\t%lld\t%lld\t%llu\n",
                 static_cast<unsigned long long>(key.first),
                 key.second.c_str(),
                 static_cast<unsigned long long>(agg.calls),
                 static_cast<long long>(agg.wall_ns),
                 static_cast<long long>(agg.cpu_ns),
                 static_cast<unsigned long long>(agg.items));
  }
  return std::fclose(out) == 0;
}

// --------------------------------------------------------------------------
// Line ledger.

LedgerCheck CheckLedger(const PipelineMetrics& m, uint64_t offered,
                        uint64_t delivered, uint64_t enriched_delivered) {
  LedgerCheck check;
  const AisDecoder::Stats& d = m.decoder;
  const DeadLetterStats& dl = m.health.dead_letter;
  auto reason = [&dl](DeadLetterReason r) {
    return dl.by_reason[static_cast<size_t>(r)];
  };
  const uint64_t dl_sentence = reason(DeadLetterReason::kBadSentence);
  const uint64_t dl_payload = reason(DeadLetterReason::kBadPayload);
  const SideStageStats& enrich = m.enrichment_stage;
  const uint64_t undelivered = offered - delivered;
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "offered %llu = delivered %llu + undelivered %llu | in %llu = decoded "
      "%llu + pending %llu + dead_letter{bad_sentence %llu, bad_payload "
      "%llu} + assembler_rejects %llu + unsupported %llu | dropped{"
      "enrich_queue %llu, enrich_output %llu, degraded %llu, worker %llu, "
      "frame %llu, archive_at_risk %llu}",
      static_cast<unsigned long long>(offered),
      static_cast<unsigned long long>(delivered),
      static_cast<unsigned long long>(undelivered),
      static_cast<unsigned long long>(d.lines_in),
      static_cast<unsigned long long>(d.messages_out),
      static_cast<unsigned long long>(d.pending_fragments),
      static_cast<unsigned long long>(dl_sentence),
      static_cast<unsigned long long>(dl_payload),
      static_cast<unsigned long long>(d.bad_sentences - dl_sentence),
      static_cast<unsigned long long>(d.unsupported_types),
      static_cast<unsigned long long>(enrich.queue_dropped),
      static_cast<unsigned long long>(enrich.output_dropped),
      static_cast<unsigned long long>(
          reason(DeadLetterReason::kDegradedDrop)),
      static_cast<unsigned long long>(
          reason(DeadLetterReason::kWorkerFailure)),
      static_cast<unsigned long long>(m.net_ingest.bad_frames),
      static_cast<unsigned long long>(m.health.archive_points_at_risk));
  check.detail = buf;
  check.exact =
      delivered <= offered && d.lines_in == delivered &&
      d.lines_in == d.messages_out + d.pending_fragments + d.bad_sentences +
                        d.bad_payloads + d.unsupported_types &&
      dl_sentence <= d.bad_sentences && dl_payload == d.bad_payloads &&
      enrich.submitted ==
          enrich.processed + enrich.queue_dropped + enrich.transform_failed &&
      enriched_delivered + enrich.output_dropped == enrich.processed;
  // Dead letters for malformed input are correct outcomes; everything else
  // that left the healthy path is a lost line.
  check.lost_lines = undelivered + enrich.queue_dropped +
                     (m.health.DataAtRisk() - dl_sentence - dl_payload) +
                     m.net_ingest.bad_frames;
  return check;
}

}  // namespace aisbench
