// Fault-tolerance tests: the deterministic injector itself, WAL/run crash
// semantics of the LSM store under injected IO failures, and the supervised
// sharded pipeline — a worker killed at any instrumented site must restart,
// replay, and reproduce the fault-free event stream exactly (or degrade to
// counted drops once the restart budget / replay history is exhausted).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/fault.h"
#include "core/pipeline.h"
#include "core/sharded_pipeline.h"
#include "sim/scenario.h"
#include "sim/world.h"
#include "storage/lsm_store.h"
#include "stream/dead_letter.h"

namespace marlin {
namespace {

// --- Injector units ---------------------------------------------------------

TEST(FaultInjectorTest, DisarmedSitesAreInert) {
  FaultInjector::Disarm();
  EXPECT_FALSE(FaultInjector::armed());
  // The macro guards on armed(): with no plan this whole block is a no-op.
  EXPECT_NO_THROW(MARLIN_FAULT_POINT("nonexistent.site"));
}

TEST(FaultInjectorTest, FiresOnExactlyTheNthHit) {
  ScopedFaultPlan plan(FaultPlan().Fail("site.a", 3));
  EXPECT_NO_THROW(FaultInjector::Hit("site.a"));
  EXPECT_NO_THROW(FaultInjector::Hit("site.a"));
  try {
    FaultInjector::Hit("site.a");
    FAIL() << "third hit must throw";
  } catch (const FaultInjectedError& e) {
    EXPECT_EQ(e.site(), "site.a");
  }
  // One-shot rule: later hits pass again.
  EXPECT_NO_THROW(FaultInjector::Hit("site.a"));
  EXPECT_NO_THROW(FaultInjector::Hit("site.other"));
  EXPECT_EQ(FaultInjector::HitCount("site.a"), 4u);
  EXPECT_EQ(FaultInjector::FiredCount(), 1u);
}

TEST(FaultInjectorTest, RepeatedRuleFiresFromFirstHitOnward) {
  ScopedFaultPlan plan(FaultPlan().FailRepeatedly("site.r", 2));
  EXPECT_NO_THROW(FaultInjector::Hit("site.r"));
  for (int i = 0; i < 3; ++i) {
    EXPECT_THROW(FaultInjector::Hit("site.r"), FaultInjectedError);
  }
  EXPECT_EQ(FaultInjector::FiredCount(), 3u);
}

TEST(FaultInjectorTest, IoSitesReportActionsInsteadOfThrowing) {
  ScopedFaultPlan plan(FaultPlan()
                           .Fail("io.err", 1, FaultAction::kIoError)
                           .Fail("io.torn", 1, FaultAction::kShortWrite)
                           .Fail("io.crash", 1, FaultAction::kThrow));
  auto a = FaultInjector::HitIo("io.err");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, FaultAction::kIoError);
  EXPECT_FALSE(FaultInjector::HitIo("io.err").has_value());  // one-shot

  auto b = FaultInjector::HitIo("io.torn");
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*b, FaultAction::kShortWrite);

  // kThrow rules throw even through the IO entry point (worker crash).
  EXPECT_THROW(FaultInjector::HitIo("io.crash"), FaultInjectedError);
}

TEST(FaultInjectorTest, SeededPlansAreReproducible) {
  const std::vector<std::string> sites = {"a", "b", "c", "d"};
  std::set<std::pair<std::string, uint64_t>> picks;
  for (uint64_t seed = 0; seed < 32; ++seed) {
    const FaultPlan p1 = FaultPlan::Seeded(seed, sites, FaultAction::kThrow, 50);
    const FaultPlan p2 = FaultPlan::Seeded(seed, sites, FaultAction::kThrow, 50);
    ASSERT_EQ(p1.rules().size(), 1u);
    ASSERT_EQ(p2.rules().size(), 1u);
    EXPECT_EQ(p1.rules()[0].site, p2.rules()[0].site) << seed;
    EXPECT_EQ(p1.rules()[0].hit, p2.rules()[0].hit) << seed;
    EXPECT_GE(p1.rules()[0].hit, 1u);
    EXPECT_LE(p1.rules()[0].hit, 50u);
    picks.emplace(p1.rules()[0].site, p1.rules()[0].hit);
  }
  // Sweeping seeds sweeps (site, timing) pairs, not one fixed point.
  EXPECT_GT(picks.size(), 4u);
}

TEST(FaultInjectorTest, ScopedPlanDisarmsOnScopeExit) {
  {
    ScopedFaultPlan plan(FaultPlan().FailRepeatedly("scoped.site", 1));
    EXPECT_TRUE(FaultInjector::armed());
    EXPECT_THROW(FaultInjector::Hit("scoped.site"), FaultInjectedError);
  }
  EXPECT_FALSE(FaultInjector::armed());
  EXPECT_NO_THROW(MARLIN_FAULT_POINT("scoped.site"));
}

// --- Dead-letter queue units ------------------------------------------------

TEST(DeadLetterQueueTest, EvictsPayloadsButNeverCounts) {
  DeadLetterQueue q(2);
  q.Push(DeadLetterReason::kBadSentence, "l1", 1);
  q.Push(DeadLetterReason::kBadSentence, "l2", 2);
  q.Push(DeadLetterReason::kBadPayload, "l3", 3);  // evicts l1
  q.PushCount(DeadLetterReason::kDegradedDrop, 5);

  const DeadLetterStats s = q.stats();
  EXPECT_EQ(s.enqueued, 3u);
  EXPECT_EQ(s.counted_only, 5u);
  EXPECT_EQ(s.evicted, 1u);
  EXPECT_EQ(s.depth, 2u);
  EXPECT_EQ(s.total(), 8u);
  EXPECT_EQ(s.by_reason[static_cast<size_t>(DeadLetterReason::kBadSentence)],
            2u);
  EXPECT_EQ(s.by_reason[static_cast<size_t>(DeadLetterReason::kDegradedDrop)],
            5u);

  std::vector<DeadLetter> drained;
  EXPECT_EQ(q.Drain(&drained), 2u);
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].payload, "l2");
  EXPECT_EQ(drained[1].payload, "l3");
  // Counters survive the drain; the retained depth does not.
  EXPECT_EQ(q.stats().total(), 8u);
  EXPECT_EQ(q.stats().depth, 0u);
}

// --- LSM store under injected IO faults -------------------------------------

class LsmFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/marlin_fault_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    FaultInjector::Disarm();  // a failed assertion must not leak a plan
    std::filesystem::remove_all(dir_);
  }
  LsmStore::Options DirOptions() {
    LsmStore::Options opts;
    opts.directory = dir_;
    return opts;
  }
  std::string dir_;
};

TEST_F(LsmFaultTest, WalAppendFailureIsAllOrNothing) {
  auto store = LsmStore::Open(DirOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("k0", "v0").ok());
  {
    ScopedFaultPlan plan(
        FaultPlan().Fail("lsm.wal.append", 1, FaultAction::kIoError));
    EXPECT_FALSE((*store)->Put("k1", "v1").ok());
  }
  // The failed append left neither WAL bytes nor a memtable entry behind.
  EXPECT_FALSE((*store)->Get("k1").ok());
  ASSERT_TRUE((*store)->Put("k2", "v2").ok());
  store->reset();

  auto reopened = LsmStore::Open(DirOptions());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(*(*reopened)->Get("k0"), "v0");
  EXPECT_FALSE((*reopened)->Get("k1").ok());
  EXPECT_EQ(*(*reopened)->Get("k2"), "v2");
  EXPECT_EQ((*reopened)->stats().wal_torn_truncated, 0u);
}

TEST_F(LsmFaultTest, TornWalTailTruncatedAtReopen) {
  auto store = LsmStore::Open(DirOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("k0", "v0").ok());
  {
    // Simulated power loss mid-append: half a frame really lands on disk.
    ScopedFaultPlan plan(
        FaultPlan().Fail("lsm.wal.append", 1, FaultAction::kShortWrite));
    EXPECT_FALSE((*store)->Put("torn", "never-acked").ok());
  }
  store->reset();  // crash: no clean shutdown work happens after this

  auto reopened = LsmStore::Open(DirOptions());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(*(*reopened)->Get("k0"), "v0");
  EXPECT_FALSE((*reopened)->Get("torn").ok());
  EXPECT_GT((*reopened)->stats().wal_torn_truncated, 0u);
  // The truncated log accepts (and preserves) appends again.
  ASSERT_TRUE((*reopened)->Put("k1", "v1").ok());
  reopened->reset();
  auto third = LsmStore::Open(DirOptions());
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(*(*third)->Get("k0"), "v0");
  EXPECT_EQ(*(*third)->Get("k1"), "v1");
}

TEST_F(LsmFaultTest, WalSyncCountsEveryAppend) {
  LsmStore::Options opts = DirOptions();
  opts.wal_sync = true;
  auto store = LsmStore::Open(opts);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*store)->Put("k" + std::to_string(i), "v").ok());
  }
  EXPECT_EQ((*store)->stats().wal_syncs, 5u);
}

TEST_F(LsmFaultTest, RunWriteFailureKeepsMemtableAndWal) {
  auto store = LsmStore::Open(DirOptions());
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*store)->Put("k" + std::to_string(i), "v").ok());
  }
  {
    ScopedFaultPlan plan(
        FaultPlan().Fail("lsm.run.write", 1, FaultAction::kIoError));
    EXPECT_FALSE((*store)->Flush().ok());
  }
  // Nothing lost: the data still lives in memtable + WAL, and the next
  // flush succeeds.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE((*store)->Get("k" + std::to_string(i)).ok()) << i;
  }
  ASSERT_TRUE((*store)->Flush().ok());
  EXPECT_EQ((*store)->NumRuns(), 1u);
  store->reset();
  auto reopened = LsmStore::Open(DirOptions());
  ASSERT_TRUE(reopened.ok());
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE((*reopened)->Get("k" + std::to_string(i)).ok()) << i;
  }
}

// --- Supervised sharded pipeline --------------------------------------------

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

auto EventKey(const DetectedEvent& ev) {
  return std::make_tuple(ev.detected_at, ev.vessel_a, ev.vessel_b,
                         static_cast<int>(ev.type), ev.start, ev.end,
                         ev.zone_id, ev.severity, ev.where.lat, ev.where.lon);
}

void ExpectSameEvents(const std::vector<DetectedEvent>& a,
                      const std::vector<DetectedEvent>& b,
                      bool compare_order) {
  ASSERT_EQ(a.size(), b.size());
  std::vector<decltype(EventKey(a.front()))> ka, kb;
  for (const auto& ev : a) ka.push_back(EventKey(ev));
  for (const auto& ev : b) kb.push_back(EventKey(ev));
  if (!compare_order) {
    std::sort(ka.begin(), ka.end());
    std::sort(kb.begin(), kb.end());
  }
  for (size_t i = 0; i < ka.size(); ++i) {
    EXPECT_EQ(ka[i], kb[i]) << "event mismatch at index " << i;
  }
}

PipelineConfig TestConfig() {
  PipelineConfig pc;
  pc.window_lines = 512;  // several windows per scenario
  return pc;
}

std::vector<DetectedEvent> RunSharded(const PipelineConfig& pc,
                                      size_t num_shards,
                                      const ScenarioOutput& scenario,
                                      PipelineMetrics* metrics_out = nullptr,
                                      std::vector<DeadLetter>* letters_out =
                                          nullptr) {
  ShardedPipeline::Options opts;
  opts.num_shards = num_shards;
  ShardedPipeline sharded(pc, opts, &SharedWorld().zones(), nullptr, nullptr,
                          nullptr);
  auto events = sharded.Run(scenario.nmea);
  if (letters_out != nullptr) sharded.DrainDeadLetters(letters_out);
  if (metrics_out != nullptr) *metrics_out = sharded.metrics();
  return events;
}

// The core restart determinism claim: kill a shard worker mid-window at each
// instrumented site; the restarted worker (rebuilt core + full replay) must
// emit the byte-identical event stream of a run that never crashed.
class SupervisedRestartTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SupervisedRestartTest, RestartReproducesFaultFreeEventStream) {
  const std::string site = GetParam();
  const ScenarioOutput scenario = MakeScenario(941, /*perfect_reception=*/false);
  const PipelineConfig pc = TestConfig();

  MaritimePipeline sequential(pc, &SharedWorld().zones(), nullptr, nullptr,
                              nullptr);
  const auto reference = sequential.Run(scenario.nmea);
  ASSERT_GT(reference.size(), 0u);

  PipelineMetrics metrics;
  std::vector<DetectedEvent> events;
  {
    // Hit 40 lands mid-window for the per-message site; the flush /
    // epoch-close sites reach 40 hits never, so give those hit 1.
    const uint64_t hit = site == "shard.worker.message" ? 40 : 1;
    ScopedFaultPlan plan(FaultPlan().Fail(site, hit));
    events = RunSharded(pc, 2, scenario, &metrics);
  }

  ExpectSameEvents(reference, events, /*compare_order=*/false);
  const SupervisorStats& sup = metrics.health.supervisor;
  EXPECT_EQ(sup.failures, 1u);
  EXPECT_EQ(sup.restarts, 1u);
  EXPECT_EQ(sup.degraded_workers, 0u);
  ASSERT_TRUE(sup.failures_by_site.count(site)) << site;
  EXPECT_EQ(sup.failures_by_site.at(site), 1u);
  EXPECT_GT(sup.windows_replayed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sites, SupervisedRestartTest,
                         ::testing::Values("shard.worker.message",
                                           "shard.worker.flush",
                                           "shard.worker.close_epoch"));

TEST(SupervisedPipelineTest, ArchiveEpochCrashRestartsAndRepublishes) {
  const ScenarioOutput scenario = MakeScenario(942, /*perfect_reception=*/false);
  PipelineConfig pc = TestConfig();
  pc.archive.enabled = true;  // volatile partitions; replay republishes them

  PipelineMetrics clean_metrics;
  const auto reference = RunSharded(pc, 2, scenario, &clean_metrics);
  ASSERT_GT(reference.size(), 0u);
  ASSERT_GT(clean_metrics.archive.blocks, 0u);

  PipelineMetrics metrics;
  std::vector<DetectedEvent> events;
  {
    ScopedFaultPlan plan(FaultPlan().Fail("archive.close_epoch", 3));
    events = RunSharded(pc, 2, scenario, &metrics);
  }
  ExpectSameEvents(reference, events, /*compare_order=*/false);
  EXPECT_EQ(metrics.health.supervisor.failures, 1u);
  EXPECT_EQ(metrics.health.supervisor.restarts, 1u);
  // The rebuilt partition was repopulated by replay: the merged block count
  // matches the run that never crashed.
  EXPECT_EQ(metrics.archive.blocks, clean_metrics.archive.blocks);
  EXPECT_EQ(metrics.archive.epochs, clean_metrics.archive.epochs);
}

TEST(SupervisedPipelineTest, ParseCrashRejectsChunkAndPipelineSurvives) {
  const ScenarioOutput scenario = MakeScenario(943, /*perfect_reception=*/false);
  const PipelineConfig pc = TestConfig();
  PipelineMetrics metrics;
  std::vector<DetectedEvent> events;
  {
    ScopedFaultPlan plan(FaultPlan().Fail("shard.worker.parse", 100));
    events = RunSharded(pc, 2, scenario, &metrics);
  }
  // Parsing is stateless: the failed chunk's remaining lines are rejected
  // (counted) and the stream continues; no restart, no wedge.
  EXPECT_GT(events.size(), 0u);
  const SupervisorStats& sup = metrics.health.supervisor;
  EXPECT_EQ(sup.failures, 1u);
  EXPECT_EQ(sup.restarts, 0u);
  ASSERT_TRUE(sup.failures_by_site.count("shard.worker.parse"));
}

TEST(SupervisedPipelineTest, TruncatedReplayHistoryDegradesInsteadOfRestarting) {
  const ScenarioOutput scenario = MakeScenario(944, /*perfect_reception=*/false);
  PipelineConfig pc = TestConfig();
  // A buffer far smaller than one window: by the second window the history
  // is truncated and a deterministic rebuild is impossible. Single shard so
  // the Nth global hit is deterministically the Nth window — with pipelined
  // shards the hit could land on a worker still inside its first window.
  pc.supervision.replay_max_messages = 8;
  PipelineMetrics metrics;
  std::vector<DetectedEvent> events;
  {
    ScopedFaultPlan plan(FaultPlan().Fail("shard.worker.close_epoch", 3));
    events = RunSharded(pc, 1, scenario, &metrics);
  }
  const SupervisorStats& sup = metrics.health.supervisor;
  EXPECT_EQ(sup.failures, 1u);
  EXPECT_EQ(sup.restarts, 0u);
  EXPECT_EQ(sup.degraded_workers, 1u);
  // Subsequent windows routed to the degraded shard were counted, not lost
  // silently.
  EXPECT_GT(sup.degraded_dropped_messages, 0u);
  EXPECT_EQ(metrics.health.dead_letter.by_reason[static_cast<size_t>(
                DeadLetterReason::kDegradedDrop)],
            sup.degraded_dropped_messages);
  EXPECT_GE(metrics.health.DataAtRisk(), sup.degraded_dropped_messages);
}

TEST(SupervisedPipelineTest, ExhaustedRestartBudgetDegradesAllWorkers) {
  const ScenarioOutput scenario = MakeScenario(945, /*perfect_reception=*/false);
  PipelineConfig pc = TestConfig();
  pc.supervision.restart_budget = 0;
  PipelineMetrics metrics;
  std::vector<DetectedEvent> events;
  {
    ScopedFaultPlan plan(
        FaultPlan().FailRepeatedly("shard.worker.message", 1));
    events = RunSharded(pc, 2, scenario, &metrics);
  }
  // Every worker died on its first window and degraded; the coordinator
  // completed the stream anyway, with every dropped message on the ledger.
  const SupervisorStats& sup = metrics.health.supervisor;
  EXPECT_EQ(sup.degraded_workers, 2u);
  EXPECT_EQ(sup.restarts, 0u);
  EXPECT_GT(sup.degraded_dropped_messages, 0u);
  EXPECT_GT(metrics.health.dead_letter.counted_only, 0u);
}

TEST(SupervisedPipelineTest, DeadLetterLedgersMatchSequentialPipeline) {
  const ScenarioOutput scenario = MakeScenario(947, /*perfect_reception=*/false);
  // Salt the stream with unparseable frames so the reject path is exercised
  // deterministically (both pipelines see the identical salted stream).
  std::vector<Event<std::string>> stream = scenario.nmea;
  std::vector<Event<std::string>> salted;
  salted.reserve(stream.size() + stream.size() / 100 + 1);
  for (size_t i = 0; i < stream.size(); ++i) {
    salted.push_back(stream[i]);
    if (i % 100 == 0) {
      Event<std::string> bad = stream[i];  // same timestamps, garbage payload
      bad.payload = "!AIVDM,mangled-frame-" + std::to_string(i);
      salted.push_back(std::move(bad));
    }
  }

  const PipelineConfig pc = TestConfig();
  MaritimePipeline sequential(pc, &SharedWorld().zones(), nullptr, nullptr,
                              nullptr);
  sequential.Run(salted);
  std::vector<DeadLetter> seq_letters;
  sequential.DrainDeadLetters(&seq_letters);
  ASSERT_GT(seq_letters.size(), 0u);

  ShardedPipeline::Options opts;
  opts.num_shards = 3;
  ShardedPipeline sharded(pc, opts, &SharedWorld().zones(), nullptr, nullptr,
                          nullptr);
  sharded.Run(salted);
  std::vector<DeadLetter> shard_letters;
  sharded.DrainDeadLetters(&shard_letters);

  // Line-for-line parity: same rejects, same reasons, same payloads, same
  // order — shard count notwithstanding.
  ASSERT_EQ(seq_letters.size(), shard_letters.size());
  for (size_t i = 0; i < seq_letters.size(); ++i) {
    EXPECT_EQ(seq_letters[i].reason, shard_letters[i].reason) << i;
    EXPECT_EQ(seq_letters[i].payload, shard_letters[i].payload) << i;
    EXPECT_EQ(seq_letters[i].ingest_time, shard_letters[i].ingest_time) << i;
  }
  const DeadLetterStats& a = sequential.metrics().health.dead_letter;
  const DeadLetterStats& b = sharded.metrics().health.dead_letter;
  EXPECT_EQ(a.enqueued, b.enqueued);
  for (size_t r = 0; r < kDeadLetterReasonCount; ++r) {
    EXPECT_EQ(a.by_reason[r], b.by_reason[r]) << r;
  }
}

TEST(SupervisedPipelineTest, EnrichmentTransformCrashIsIsolated) {
  const ScenarioOutput scenario = MakeScenario(949, /*perfect_reception=*/false);
  const PipelineConfig pc = TestConfig();

  MaritimePipeline sequential(pc, &SharedWorld().zones(), nullptr, nullptr,
                              nullptr);
  const auto reference = sequential.Run(scenario.nmea);

  PipelineMetrics metrics;
  std::vector<DetectedEvent> events;
  {
    ScopedFaultPlan plan(FaultPlan().Fail("enrichment.transform", 5));
    events = RunSharded(pc, 2, scenario, &metrics);
  }
  // The side-stage loses exactly the crashed item (counted); the event
  // stream — fed by the main path — is untouched, and Finish's delivery
  // barrier still terminates.
  ExpectSameEvents(reference, events, /*compare_order=*/false);
  EXPECT_GE(metrics.health.enrichment_transform_failures, 1u);
  EXPECT_GE(metrics.health.DataAtRisk(), 1u);
}

}  // namespace
}  // namespace marlin
