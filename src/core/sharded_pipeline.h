#ifndef MARLIN_CORE_SHARDED_PIPELINE_H_
#define MARLIN_CORE_SHARDED_PIPELINE_H_

/// \file sharded_pipeline.h
/// \brief Multi-threaded, per-MMSI-sharded variant of the Figure-2 pipeline.
///
/// Stage graph (N = number of shards):
///
///   NMEA lines (arrival order, windows of `window_lines`)
///        │ parse: stateless, chunked across the N shard workers
///        ▼
///   coordinator: fragment reassembly + bit decode (stateful, in order)
///        │ route by splitmix64(MMSI) % N
///        ▼
///   N × PipelineShardCore (reconstruction → synopses → store partition →
///        single-vessel event rules), one thread each, fed through a
///        lock-free StageChannel (the coordinator is each command queue's
///        only producer) — each core also feeds an async enrichment
///        side-stage (own worker + bounded lossy channel) whose output
///        surfaces through SetEnrichedSink / DrainEnriched
///        │ merge: pair observations sorted by (event time, MMSI)
///        ▼
///   coordinator: pair stage (rendezvous / collision) — the same
///        sequential `PairEventEngine::CloseWindow` the single-threaded
///        pipeline runs — + canonical event re-sequencing + alerts +
///        metric merge
///
/// Determinism: every vessel's reports flow through exactly one
/// single-threaded shard core in arrival order, reconstruction watermarks
/// are per-vessel, the pair stage consumes a canonically ordered stream
/// with window boundaries fixed by input line count, and merged events are
/// re-sequenced with a total order. Consequently a `ShardedPipeline` with
/// one shard reproduces `MaritimePipeline`'s event stream *exactly*, and
/// N shards produce the same events for any N.
///
/// Fault tolerance (core/supervisor.h): each shard worker runs under a
/// supervisor. A throwing task is caught and attributed; the shard core is
/// rebuilt from scratch and the raw routed windows buffered in a bounded
/// per-shard `ReplayBuffer` are replayed in order, which reproduces the
/// fault-free event stream exactly (every stage in the core is a
/// deterministic function of its input batches). A restart budget — or a
/// truncated replay history — degrades the worker to counted-drop mode
/// instead of wedging the coordinator. Rejected raw lines (parse/decode)
/// and degraded drops land in a dead-letter quarantine queue shared with
/// the sequential pipeline, so the reject ledgers of both pipelines match
/// line for line.

#include <functional>
#include <latch>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/pipeline.h"
#include "core/shard.h"
#include "core/supervisor.h"
#include "storage/trajectory_store.h"
#include "stream/channel.h"
#include "stream/dead_letter.h"
#include "stream/shard_router.h"

namespace marlin {

/// \brief The sharded integrated system.
class ShardedPipeline {
 public:
  struct Options {
    /// Worker (= shard) count. 0 sizes the pool to the host topology
    /// (`std::thread::hardware_concurrency`, floor 1).
    size_t num_shards = 1;
    /// Command-queue depth per shard. The coordinator keeps at most one
    /// window in flight plus the next window's parse task, so ≥ 2 avoids
    /// push-side blocking; 1 is safe but lock-steps the coordinator with
    /// the slowest shard.
    size_t queue_capacity = 4;
  };

  /// \brief Context sources may be null. With
  /// `PipelineConfig::archive.enabled`, every shard owns its own
  /// `ShardArchive` partition (directory suffix "shard_<i>") whose epochs
  /// close at the shared window boundaries, so N-shard archives are
  /// block-identical to the sequential pipeline's.
  ShardedPipeline(const PipelineConfig& config, const Options& options,
                  const ZoneDatabase* zones, const WeatherProvider* weather,
                  const VesselRegistry* registry_a,
                  const VesselRegistry* registry_b);
  ~ShardedPipeline();

  ShardedPipeline(const ShardedPipeline&) = delete;
  ShardedPipeline& operator=(const ShardedPipeline&) = delete;

  /// \brief Alert callback: invoked on the coordinator thread for events
  /// with severity ≥ 0.5.
  void OnAlert(std::function<void(const DetectedEvent&)> callback) {
    alert_callback_ = std::move(callback);
  }

  /// \brief Subscribes to the enriched output stream. The sink is invoked
  /// concurrently from the N enrichment workers and must be thread-safe;
  /// per-vessel event-time order is preserved (each vessel lives on one
  /// FIFO side-stage). Install before the first ingest call.
  void SetEnrichedSink(EnrichedSink sink);

  /// \brief Batched alternative to a sink: appends each shard's buffered
  /// enriched points (shard index order, per-shard delivery order) to
  /// `out`; returns how many. With one shard and no drops
  /// (`metrics().enrichment_stage.dropped() == 0`) this is byte-identical
  /// to the sequential pipeline's drain; under backpressure the async
  /// stage thins the stream where the synchronous one cannot. Call between
  /// ingest calls.
  size_t DrainEnriched(std::vector<EnrichedPoint>* out);

  /// \brief Coordinator-side merged view of the enriched stream: drains
  /// every shard's buffer and k-way-merges (stream/merge.h) into canonical
  /// (event-time, MMSI) order. With no drops this equals the sequential
  /// pipeline's `DrainEnrichedOrdered` output for any shard count. Appends
  /// to `out`; returns how many. Call between ingest calls.
  size_t DrainEnrichedOrdered(std::vector<EnrichedPoint>* out);

  /// \brief Enrichment delivery barrier: blocks until every point
  /// submitted so far has been enriched (sink/drain buffer) or counted as
  /// dropped. `Finish` runs it before its final metric refresh, so after
  /// Finish the enriched stream is complete. Call between ingest calls.
  void FlushEnrichment();

  /// \brief Moves the retained dead-letter records (rejected raw lines and
  /// degraded-drop markers) into `out`; returns how many. Counters survive
  /// the drain in `metrics().health.dead_letter`. Call between ingest
  /// calls.
  size_t DrainDeadLetters(std::vector<DeadLetter>* out) {
    return dead_letters_.Drain(out);
  }

  /// \brief Batched ingest (arrival order). Returns all events finalized by
  /// the windows this batch completed; partial windows carry over to the
  /// next call (closed by `Finish`).
  std::vector<DetectedEvent> IngestBatch(
      std::span<const Event<std::string>> nmea);

  /// \brief Convenience: runs a whole stream and finishes it.
  std::vector<DetectedEvent> Run(const std::vector<Event<std::string>>& nmea);

  /// \brief Records a network front-door stats snapshot (replacing the
  /// previous one) for surfacing through `metrics().net_ingest`. Call
  /// between ingest calls.
  void RecordNetIngest(const NetIngestStats& stats) {
    metrics_.net_ingest = stats;
  }

  /// \brief Flushes shard reorder buffers, closes open pair states and the
  /// current window.
  std::vector<DetectedEvent> Finish();

  size_t num_shards() const { return shards_.size(); }

  /// \brief Merged per-stage metrics. Refreshed at the end of every
  /// IngestBatch / Finish call (shard stats are only safe to read when the
  /// workers are quiescent, so mid-batch window closes do not refresh).
  const PipelineMetrics& metrics() const { return metrics_; }

  /// \brief Read-only view over the per-shard store partitions. Valid while
  /// the pipeline is alive and quiescent (between ingest calls).
  PartitionedTrajectoryView store_view() const;

  /// \brief Coverage model merged across shards (copy).
  CoverageModel MergedCoverage() const;

  /// \brief Synopsis log merged across shards, ordered by (time, MMSI).
  std::vector<CriticalPoint> MergedSynopsisLog() const;

  /// \brief Partition introspection (e.g. per-shard store sizes).
  const PipelineShardCore& shard_core(size_t i) const {
    return *shards_[i]->core;
  }

  /// \brief The per-shard archive partitions, shard index order — the input
  /// to a `QueryEngine`. Entries are null when `PipelineConfig::archive` is
  /// disabled. Snapshots are safe to read while ingest runs; valid while
  /// the pipeline is alive.
  std::vector<const ShardArchive*> archive_view() const;

 private:
  /// One decoded message routed to a shard, tagged with its ingest time.
  struct RoutedMessage {
    Timestamp ingest_time = kInvalidTimestamp;
    std::variant<PositionReport, StaticVoyageData> payload;
  };

  /// Parallel parse of a chunk of the window's lines into pre-sized slots.
  struct ParseTask {
    const Event<std::string>* lines = nullptr;
    ParsedLine* out = nullptr;
    size_t count = 0;
    std::latch* done = nullptr;
  };

  /// One window's routed work for one shard (outputs owned by the window).
  struct ShardTask {
    std::vector<RoutedMessage>* messages = nullptr;  ///< null for flush
    std::vector<DetectedEvent>* events = nullptr;
    std::vector<PairObservation>* pairs = nullptr;
    std::latch* done = nullptr;
    /// Flush tasks only: the stream's last ingest time, so end-of-stream
    /// points are latency-measured like streamed ones.
    Timestamp flush_ingest_time = kInvalidTimestamp;
    /// Close the shard's archive epoch after this task. True for window and
    /// flush tasks; false for `Finish`'s tail-lines task, whose lines and
    /// flush form ONE window — exactly one epoch, as in the sequential
    /// pipeline.
    bool close_epoch = true;
    /// Coordinator-assigned window sequence. `Finish`'s tail + flush tasks
    /// share one sequence (they are one window); the supervisor routes
    /// replayed output by it.
    uint64_t window_seq = 0;
  };

  /// One ShardTask's raw input, buffered for supervised replay. The
  /// messages are copied at execution time (the window's slices are
  /// recycled once merged), everything else mirrors the task.
  struct WindowRecord {
    uint64_t seq = 0;
    bool is_flush = false;
    Timestamp flush_ingest_time = kInvalidTimestamp;
    bool close_epoch = true;
    std::vector<RoutedMessage> messages;
  };

  /// Per-shard supervision state. Owned by the worker thread; the
  /// coordinator reads `stats` only at quiescent points (RefreshMetrics
  /// runs with every dispatched window merged, i.e. after the latch).
  struct ShardSupervisor {
    explicit ShardSupervisor(size_t replay_max) : replay(replay_max) {}
    ReplayBuffer<WindowRecord> replay;
    SupervisorStats stats;
    bool degraded = false;
  };

  using Command = std::variant<ParseTask, ShardTask>;

  /// All coordinator-side state of one in-flight window. Windows are
  /// pooled: `Reset` clears every vector but keeps its capacity, so a
  /// steady stream reuses two windows' buffers instead of reallocating
  /// per window.
  struct Window {
    std::vector<ParsedLine> parsed;
    std::vector<Timestamp> ingest_times;  ///< original per-line ingest time
    std::vector<std::vector<RoutedMessage>> routed;      // per shard
    std::vector<std::vector<DetectedEvent>> events;      // per shard
    std::vector<std::vector<PairObservation>> pairs;     // per shard
    std::unique_ptr<std::latch> shards_done;

    void Reset() {
      parsed.clear();
      ingest_times.clear();
      for (auto& r : routed) r.clear();
      for (auto& e : events) e.clear();
      for (auto& p : pairs) p.clear();
      shards_done.reset();
    }
  };

  struct Shard {
    Shard(size_t shard_index, size_t queue_capacity, size_t replay_max)
        : index(shard_index), queue(queue_capacity), sup(replay_max) {}
    const size_t index;  ///< names the archive partition on rebuild
    std::unique_ptr<PipelineShardCore> core;
    /// Command hop. The coordinator is the only producer and the shard
    /// worker the only consumer, so the SPSC contract holds.
    StageChannel<Command> queue;
    ShardSupervisor sup;  ///< worker-thread state (stats read when quiescent)
    std::thread thread;
  };

  void WorkerLoop(Shard* shard);
  /// Parse chunk with crash containment (parsing is stateless: a failure
  /// leaves the remaining slots rejected-and-counted, no restart needed).
  void ExecuteParseTask(Shard* shard, ParseTask* parse);
  /// Supervised ShardTask execution: run, and on failure restart-replay or
  /// degrade per the supervision options. Always counts the latch down.
  void ExecuteShardTask(Shard* shard, ShardTask& task);
  /// The raw (unsupervised) task body — fault-site instrumented.
  void RunShardTask(Shard* shard, const ShardTask& task);
  /// Rebuilds the shard's core from scratch (same partition directories;
  /// the archive reopens without self-recovery — replay republishes it).
  void RebuildShardCore(Shard* shard);
  /// Replays the buffered history on a freshly rebuilt core. Records with
  /// the current task's seq regenerate the task's output slots; older
  /// windows' outputs were already merged and are discarded.
  void ReplayShardHistory(Shard* shard, ShardTask& task);
  /// Flips the worker to counted-drop mode and drops the current task.
  void EnterDegradedMode(Shard* shard, ShardTask& task);
  /// Window pool (coordinator thread only).
  std::unique_ptr<Window> AcquireWindow();
  void ReleaseWindow(std::unique_ptr<Window> window);
  /// Parses `lines` across the shard workers (blocking) into `window`.
  void ParseWindow(std::span<const Event<std::string>> lines, Window* window);
  /// Assembles parsed lines (stateful, arrival order) and routes the decoded
  /// messages into the window's per-shard slices. `lines` is the raw window
  /// (same span ParseWindow consumed): rejected lines are dead-lettered from
  /// it with the same classification the sequential pipeline applies.
  void AssembleAndRoute(Window* window,
                        std::span<const Event<std::string>> lines);
  /// Enqueues one ShardTask per shard for the window (non-blocking).
  void DispatchShardTasks(Window* window, uint64_t window_seq,
                          bool close_epoch = true);
  /// AssembleAndRoute + latch setup + DispatchShardTasks.
  void DispatchWindow(Window* window,
                      std::span<const Event<std::string>> lines);
  /// Waits for the window's shards, runs the pair stage, re-sequences,
  /// fires alerts, appends finalized events to `out`.
  void MergeWindow(Window* window, bool flush_pairs,
                   std::vector<DetectedEvent>* out);
  void RefreshMetrics();

  PipelineConfig config_;
  /// Restart configuration: `config_` with archive self-recovery disabled —
  /// a rebuilt core's archive is republished by the replay itself, block
  /// for block (its LSM keys are content-addressed, so re-puts are
  /// idempotent); opening with recovery would double-load the durable
  /// blocks. Outlives the shard cores that reference it.
  PipelineConfig rebuild_config_;
  Options options_;
  ShardRouter router_;
  /// Context sources, retained so a supervised restart can rebuild a core.
  const ZoneDatabase* zones_ = nullptr;
  const WeatherProvider* weather_ = nullptr;
  const VesselRegistry* registry_a_ = nullptr;
  const VesselRegistry* registry_b_ = nullptr;
  EnrichedSink enriched_sink_;  ///< re-installed on rebuilt cores
  std::vector<std::unique_ptr<Shard>> shards_;
  AisDecoder decoder_;          ///< assembly half runs on the coordinator
  QualityAssessor quality_;
  PairEventEngine pair_events_;  ///< pair-rule state, coordinator-owned
  /// Rejected raw lines + degraded-drop markers. Pushed from the
  /// coordinator (decode rejects) and the shard workers (degraded drops) —
  /// the queue is internally locked.
  DeadLetterQueue dead_letters_;
  PipelineMetrics metrics_;
  std::function<void(const DetectedEvent&)> alert_callback_;

  /// Lines accumulated toward the current (partial) window.
  std::vector<Event<std::string>> pending_lines_;
  /// Recycled Window objects (at most two are ever in flight).
  std::vector<std::unique_ptr<Window>> window_pool_;
  Timestamp last_ingest_ = kInvalidTimestamp;  ///< newest line's ingest time
  uint64_t next_window_seq_ = 0;  ///< coordinator-assigned ShardTask seqs
};

}  // namespace marlin

#endif  // MARLIN_CORE_SHARDED_PIPELINE_H_
