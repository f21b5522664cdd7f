// Unit tests for marlin_storage: codecs, bloom, skiplist, LSM store (incl.
// persistence & recovery), R-tree, grid index, interval index, trajectories.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>

#include "common/fault.h"
#include "common/rng.h"
#include "geo/geodesy.h"
#include "storage/bloom.h"
#include "storage/coding.h"
#include "storage/grid_index.h"
#include "storage/interval_index.h"
#include "storage/lsm_store.h"
#include "storage/rtree.h"
#include "storage/skiplist.h"
#include "storage/trajectory.h"
#include "storage/trajectory_store.h"

namespace marlin {
namespace {

// --- Coding ------------------------------------------------------------------

TEST(CodingTest, Fixed64RoundTrip) {
  std::string buf;
  PutFixed64BE(&buf, 0x0102030405060708ull);
  EXPECT_EQ(GetFixed64BE(buf, 0), 0x0102030405060708ull);
  EXPECT_EQ(buf[0], 0x01);  // big endian: most significant first
}

TEST(CodingTest, BigEndianPreservesOrder) {
  Rng rng(81);
  for (int i = 0; i < 500; ++i) {
    const uint64_t a = rng.NextU64() >> (rng.NextBounded(40));
    const uint64_t b = rng.NextU64() >> (rng.NextBounded(40));
    std::string ka, kb;
    PutFixed64BE(&ka, a);
    PutFixed64BE(&kb, b);
    EXPECT_EQ(a < b, ka < kb);
  }
}

TEST(CodingTest, OrderedInt64HandlesNegatives) {
  const std::vector<int64_t> values = {INT64_MIN, -1000, -1, 0, 1, 1000,
                                       INT64_MAX};
  std::vector<std::string> keys;
  for (int64_t v : values) {
    std::string k;
    PutOrderedInt64(&k, v);
    EXPECT_EQ(GetOrderedInt64(k, 0), v);
    keys.push_back(k);
  }
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(CodingTest, VarintRoundTrip) {
  for (uint32_t v : {0u, 1u, 127u, 128u, 300u, 16383u, 16384u, 0xFFFFFFFFu}) {
    std::string buf;
    PutVarint32(&buf, v);
    uint32_t out = 0;
    EXPECT_EQ(GetVarint32(buf, 0, &out), buf.size());
    EXPECT_EQ(out, v);
  }
}

TEST(CodingTest, VarintTruncationDetected) {
  std::string buf;
  PutVarint32(&buf, 1u << 30);
  buf.resize(buf.size() - 1);
  uint32_t out = 0;
  EXPECT_EQ(GetVarint32(buf, 0, &out), 0u);
}

TEST(CodingTest, DoubleRoundTrip) {
  for (double v : {0.0, -1.5, 3.14159265358979, 1e300, -1e-300}) {
    std::string buf;
    PutDoubleLE(&buf, v);
    EXPECT_EQ(GetDoubleLE(buf, 0), v);
  }
}

TEST(CodingTest, Crc32cKnownVector) {
  // RFC 3720 test vector: CRC-32C of 32 zero bytes = 0x8A9136AA.
  unsigned char zeros[32] = {0};
  EXPECT_EQ(Crc32c(zeros, sizeof(zeros)), 0x8A9136AAu);
}

TEST(CodingTest, Crc32cDetectsCorruption) {
  std::string data = "maritime data integration";
  const uint32_t crc = Crc32c(data.data(), data.size());
  data[3] ^= 1;
  EXPECT_NE(Crc32c(data.data(), data.size()), crc);
}

// --- Bloom ------------------------------------------------------------------

TEST(BloomTest, NoFalseNegatives) {
  BloomFilter filter(1000, 10);
  std::vector<std::string> keys;
  for (int i = 0; i < 1000; ++i) {
    keys.push_back("key-" + std::to_string(i));
    filter.Add(keys.back());
  }
  for (const auto& k : keys) EXPECT_TRUE(filter.MayContain(k));
}

TEST(BloomTest, FalsePositiveRateReasonable) {
  BloomFilter filter(10000, 10);
  for (int i = 0; i < 10000; ++i) filter.Add("present-" + std::to_string(i));
  int fp = 0;
  const int probes = 20000;
  for (int i = 0; i < probes; ++i) {
    if (filter.MayContain("absent-" + std::to_string(i))) ++fp;
  }
  // 10 bits/key ≈ 1 % theoretical; allow generous margin.
  EXPECT_LT(static_cast<double>(fp) / probes, 0.03);
}

TEST(BloomTest, SerializeDeserialize) {
  BloomFilter filter(100, 10);
  filter.Add("alpha");
  filter.Add("beta");
  const BloomFilter restored = BloomFilter::Deserialize(filter.Serialize());
  EXPECT_TRUE(restored.MayContain("alpha"));
  EXPECT_TRUE(restored.MayContain("beta"));
}

// --- SkipList ---------------------------------------------------------------

TEST(SkipListTest, MatchesReferenceMap) {
  SkipList list;
  std::map<std::string, std::string> reference;
  Rng rng(83);
  for (int i = 0; i < 2000; ++i) {
    const std::string key = "k" + std::to_string(rng.NextBounded(500));
    const std::string value = "v" + std::to_string(i);
    list.Insert(key, value);
    reference[key] = value;
  }
  EXPECT_EQ(list.size(), reference.size());
  for (const auto& [k, v] : reference) {
    const std::string* found = list.Find(k);
    ASSERT_NE(found, nullptr) << k;
    EXPECT_EQ(*found, v);
  }
  EXPECT_EQ(list.Find("nonexistent"), nullptr);
  // Iteration yields sorted order identical to the map.
  SkipList::Iterator it(&list);
  auto ref_it = reference.begin();
  for (it.SeekToFirst(); it.Valid(); it.Next(), ++ref_it) {
    ASSERT_NE(ref_it, reference.end());
    EXPECT_EQ(it.key(), ref_it->first);
    EXPECT_EQ(it.value(), ref_it->second);
  }
  EXPECT_EQ(ref_it, reference.end());
}

TEST(SkipListTest, SeekSemantics) {
  SkipList list;
  list.Insert("b", "1");
  list.Insert("d", "2");
  list.Insert("f", "3");
  SkipList::Iterator it(&list);
  it.Seek("c");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "d");
  it.Seek("f");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "f");
  it.Seek("g");
  EXPECT_FALSE(it.Valid());
}

TEST(SkipListTest, OverwriteKeepsSingleEntry) {
  SkipList list;
  list.Insert("k", "old");
  list.Insert("k", "new");
  EXPECT_EQ(list.size(), 1u);
  EXPECT_EQ(*list.Find("k"), "new");
}

// --- LsmStore (in-memory) ----------------------------------------------------

TEST(LsmTest, PutGetDelete) {
  auto store = LsmStore::Open(LsmStore::Options{});
  ASSERT_TRUE(store.ok());
  LsmStore& db = **store;
  ASSERT_TRUE(db.Put("a", "1").ok());
  ASSERT_TRUE(db.Put("b", "2").ok());
  EXPECT_EQ(*db.Get("a"), "1");
  EXPECT_EQ(*db.Get("b"), "2");
  EXPECT_TRUE(db.Get("c").status().IsNotFound());
  ASSERT_TRUE(db.Delete("a").ok());
  EXPECT_TRUE(db.Get("a").status().IsNotFound());
}

TEST(LsmTest, OverwriteAcrossFlush) {
  auto store = LsmStore::Open(LsmStore::Options{});
  LsmStore& db = **store;
  ASSERT_TRUE(db.Put("k", "v1").ok());
  ASSERT_TRUE(db.Flush().ok());
  ASSERT_TRUE(db.Put("k", "v2").ok());
  EXPECT_EQ(*db.Get("k"), "v2");  // memtable shadows the run
  ASSERT_TRUE(db.Flush().ok());
  EXPECT_EQ(*db.Get("k"), "v2");  // newer run shadows older
  ASSERT_TRUE(db.CompactAll().ok());
  EXPECT_EQ(*db.Get("k"), "v2");
  EXPECT_EQ(db.NumRuns(), 1u);
}

TEST(LsmTest, DeleteShadowsOlderRunAndCompactsAway) {
  auto store = LsmStore::Open(LsmStore::Options{});
  LsmStore& db = **store;
  ASSERT_TRUE(db.Put("k", "v").ok());
  ASSERT_TRUE(db.Flush().ok());
  ASSERT_TRUE(db.Delete("k").ok());
  EXPECT_TRUE(db.Get("k").status().IsNotFound());
  ASSERT_TRUE(db.CompactAll().ok());
  EXPECT_TRUE(db.Get("k").status().IsNotFound());
  // After full compaction the tombstone itself is gone.
  auto it = db.NewIterator();
  it->SeekToFirst();
  EXPECT_FALSE(it->Valid());
}

TEST(LsmTest, AutomaticFlushOnMemtableLimit) {
  LsmStore::Options opts;
  opts.memtable_bytes_limit = 4096;
  auto store = LsmStore::Open(opts);
  LsmStore& db = **store;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        db.Put("key-" + std::to_string(i), std::string(64, 'x')).ok());
  }
  EXPECT_GT(db.stats().flushes, 0u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(db.Get("key-" + std::to_string(i)).ok());
  }
}

TEST(LsmTest, IteratorMergesAllSources) {
  auto store = LsmStore::Open(LsmStore::Options{});
  LsmStore& db = **store;
  ASSERT_TRUE(db.Put("a", "1").ok());
  ASSERT_TRUE(db.Put("c", "3").ok());
  ASSERT_TRUE(db.Flush().ok());
  ASSERT_TRUE(db.Put("b", "2").ok());
  ASSERT_TRUE(db.Delete("c").ok());
  auto it = db.NewIterator();
  std::vector<std::string> keys;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    keys.emplace_back(it->key());
  }
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b"}));
}

TEST(LsmTest, ScanRange) {
  auto store = LsmStore::Open(LsmStore::Options{});
  LsmStore& db = **store;
  for (int i = 0; i < 100; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%03d", i);
    ASSERT_TRUE(db.Put(key, std::to_string(i)).ok());
  }
  ASSERT_TRUE(db.Flush().ok());
  const auto hits = db.Scan("k010", "k020");
  ASSERT_EQ(hits.size(), 10u);
  EXPECT_EQ(hits.front().first, "k010");
  EXPECT_EQ(hits.back().first, "k019");
  // Limit applies.
  EXPECT_EQ(db.Scan("k000", "k999", 5).size(), 5u);
}

TEST(LsmTest, RandomizedAgainstReferenceMap) {
  LsmStore::Options opts;
  opts.memtable_bytes_limit = 8192;  // force frequent flushes
  opts.max_runs = 3;                 // force compactions
  auto store = LsmStore::Open(opts);
  LsmStore& db = **store;
  std::map<std::string, std::string> reference;
  Rng rng(87);
  for (int i = 0; i < 5000; ++i) {
    const std::string key = "k" + std::to_string(rng.NextBounded(400));
    if (rng.Bernoulli(0.25)) {
      ASSERT_TRUE(db.Delete(key).ok());
      reference.erase(key);
    } else {
      const std::string value = "v" + std::to_string(i);
      ASSERT_TRUE(db.Put(key, value).ok());
      reference[key] = value;
    }
  }
  for (const auto& [k, v] : reference) {
    auto got = db.Get(k);
    ASSERT_TRUE(got.ok()) << k;
    EXPECT_EQ(*got, v);
  }
  // Iterator sees exactly the reference contents.
  auto it = db.NewIterator();
  size_t n = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++n) {
    auto ref = reference.find(std::string(it->key()));
    ASSERT_NE(ref, reference.end());
    EXPECT_EQ(it->value(), ref->second);
  }
  EXPECT_EQ(n, reference.size());
  EXPECT_GT(db.stats().compactions, 0u);
}

// --- LsmStore persistence -------------------------------------------------

class LsmPersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/marlin_lsm_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(LsmPersistenceTest, RecoverFromWalAndRuns) {
  LsmStore::Options opts;
  opts.directory = dir_;
  {
    auto store = LsmStore::Open(opts);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("flushed", "on-disk").ok());
    ASSERT_TRUE((*store)->Flush().ok());
    ASSERT_TRUE((*store)->Put("wal-only", "replayed").ok());
    // No flush: "wal-only" lives only in the WAL.
  }
  auto reopened = LsmStore::Open(opts);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(*(*reopened)->Get("flushed"), "on-disk");
  EXPECT_EQ(*(*reopened)->Get("wal-only"), "replayed");
  EXPECT_GT((*reopened)->stats().wal_records_replayed, 0u);
}

TEST_F(LsmPersistenceTest, TornWalTailIgnored) {
  LsmStore::Options opts;
  opts.directory = dir_;
  {
    auto store = LsmStore::Open(opts);
    ASSERT_TRUE((*store)->Put("good", "1").ok());
    ASSERT_TRUE((*store)->Put("tail", "2").ok());
  }
  // Corrupt the last byte of the WAL (simulated torn write).
  const std::string wal = dir_ + "/wal.log";
  const auto size = std::filesystem::file_size(wal);
  std::filesystem::resize_file(wal, size - 1);
  auto reopened = LsmStore::Open(opts);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(*(*reopened)->Get("good"), "1");
  EXPECT_TRUE((*reopened)->Get("tail").status().IsNotFound());
}

TEST_F(LsmPersistenceTest, CompactionReducesRunFiles) {
  LsmStore::Options opts;
  opts.directory = dir_;
  auto store = LsmStore::Open(opts);
  LsmStore& db = **store;
  for (int r = 0; r < 4; ++r) {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          db.Put("r" + std::to_string(r) + "k" + std::to_string(i), "v").ok());
    }
    ASSERT_TRUE(db.Flush().ok());
  }
  EXPECT_EQ(db.NumRuns(), 4u);
  ASSERT_TRUE(db.CompactAll().ok());
  EXPECT_EQ(db.NumRuns(), 1u);
  size_t sst_files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    if (e.path().extension() == ".sst") ++sst_files;
  }
  EXPECT_EQ(sst_files, 1u);
  for (int r = 0; r < 4; ++r) {
    for (int i = 0; i < 10; ++i) {
      EXPECT_TRUE(
          db.Get("r" + std::to_string(r) + "k" + std::to_string(i)).ok());
    }
  }
}

TEST_F(LsmPersistenceTest, CompactionKilledBeforeRenameLeavesInputsIntact) {
  // Kill the compaction in the crash window between the durable temp file
  // and its rename: no input run may be deleted, no key may vanish, and the
  // orphaned temp must be reaped (counted) on the next open.
  LsmStore::Options opts;
  opts.directory = dir_;
  {
    auto store = LsmStore::Open(opts);
    LsmStore& db = **store;
    for (int r = 0; r < 4; ++r) {
      for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(
            db.Put("r" + std::to_string(r) + "k" + std::to_string(i), "v")
                .ok());
      }
      ASSERT_TRUE(db.Flush().ok());
    }
    ASSERT_EQ(db.NumRuns(), 4u);
    {
      ScopedFaultPlan plan(
          FaultPlan().Fail("lsm.run.rename", 1, FaultAction::kIoError));
      EXPECT_FALSE(db.CompactAll().ok());
    }
    // Inputs untouched, nothing merged away, every key still readable.
    EXPECT_EQ(db.NumRuns(), 4u);
    EXPECT_EQ(db.stats().compactions, 0u);
    for (int r = 0; r < 4; ++r) {
      for (int i = 0; i < 10; ++i) {
        EXPECT_TRUE(
            db.Get("r" + std::to_string(r) + "k" + std::to_string(i)).ok());
      }
    }
    // The durable-but-unpublished temp is really on disk.
    size_t temps = 0;
    for (const auto& e : std::filesystem::directory_iterator(dir_)) {
      if (e.path().extension() == ".tmp") ++temps;
    }
    EXPECT_EQ(temps, 1u);
  }
  auto reopened = LsmStore::Open(opts);
  ASSERT_TRUE(reopened.ok());
  LsmStore& db = **reopened;
  EXPECT_GE(db.stats().temps_removed, 1u);
  // No double-counted runs: exactly the 4 inputs, each key served once.
  EXPECT_EQ(db.NumRuns(), 4u);
  const auto all = db.Scan("", "~");
  EXPECT_EQ(all.size(), 40u);
  ASSERT_TRUE(db.CompactAll().ok());
  EXPECT_EQ(db.NumRuns(), 1u);
  EXPECT_EQ(db.Scan("", "~").size(), 40u);
}

TEST_F(LsmPersistenceTest, BackgroundCompactorSurvivesInjectedCrash) {
  // A compaction that *throws* on the background worker must not take the
  // process (or the worker) down: the failure surfaces on the next Flush as
  // a Status, and once disarmed the store compacts normally.
  LsmStore::Options opts;
  opts.directory = dir_;
  opts.background_compaction = true;
  opts.max_runs = 1;
  auto store = LsmStore::Open(opts);
  ASSERT_TRUE(store.ok());
  LsmStore& db = **store;
  {
    ScopedFaultPlan plan(
        FaultPlan().Fail("lsm.compact", 1, FaultAction::kThrow));
    for (int r = 0; r < 3; ++r) {
      for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(
            db.Put("r" + std::to_string(r) + "k" + std::to_string(i), "v")
                .ok());
      }
      (void)db.Flush();  // the crashed merge's Status surfaces on some Flush
    }
    db.WaitForCompaction();
    // The worker caught the injected crash and kept running; nothing merged
    // away wrongly — every key is still readable.
    EXPECT_EQ(db.Scan("", "~").size(), 30u);
  }
  ASSERT_TRUE(db.CompactAll().ok());
  EXPECT_EQ(db.NumRuns(), 1u);
  EXPECT_EQ(db.Scan("", "~").size(), 30u);
}

TEST(SortedRunTest, CorruptFileRejected) {
  SortedRun run = SortedRun::Build({{"a", std::string(1, '\0') + "1"}}, 10);
  std::string data = run.Serialize();
  data[10] ^= 0x40;
  EXPECT_TRUE(SortedRun::Deserialize(data).status().IsCorruption());
  EXPECT_TRUE(SortedRun::Deserialize("short").status().IsCorruption());
}

TEST(SortedRunTest, PrefixBloomRoundTrip) {
  // Archival-schema-like keys: 4-byte prefix + suffix.
  std::vector<std::pair<std::string, std::string>> entries;
  for (int v = 0; v < 8; ++v) {
    std::string key(4, static_cast<char>('A' + v));
    key += "suffix";
    entries.emplace_back(std::move(key), std::string(1, '\0') + "val");
  }
  const SortedRun run = SortedRun::Build(std::move(entries), 10);
  EXPECT_TRUE(run.MayContainPrefix("AAAA"));
  EXPECT_TRUE(run.MayContainPrefix("HHHH"));
  // Outside the [min, max] prefix range: definitively excluded.
  EXPECT_FALSE(run.MayContainPrefix("ZZZZ"));
  // Short prefixes are conservatively admitted.
  EXPECT_TRUE(run.MayContainPrefix("AA"));

  // The filter survives MRLNSST2 serialization.
  auto restored = SortedRun::Deserialize(run.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->MayContainPrefix("AAAA"));
  EXPECT_FALSE(restored->MayContainPrefix("ZZZZ"));
}

TEST(LsmTest, SingleVesselScanSkipsRunsViaPrefixBloom) {
  auto store = LsmStore::Open(LsmStore::Options{});
  LsmStore& db = **store;
  // One run per 4-byte "MMSI" prefix.
  for (int v = 0; v < 4; ++v) {
    const std::string prefix(4, static_cast<char>('a' + v));
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(db.Put(prefix + std::to_string(i), "v").ok());
    }
    ASSERT_TRUE(db.Flush().ok());
  }
  ASSERT_EQ(db.NumRuns(), 4u);
  // Same-prefix scan touches one run; the other three are skipped by the
  // prefix filter without a binary search.
  const auto hits = db.Scan("bbbb0", "bbbb9");
  EXPECT_EQ(hits.size(), 5u);
  EXPECT_EQ(db.stats().prefix_bloom_skipped, 3u);
  // A cross-prefix scan cannot use the filter (no skips added).
  const uint64_t skipped = db.stats().prefix_bloom_skipped;
  EXPECT_EQ(db.Scan("aaaa0", "dddd9").size(), 20u);
  EXPECT_EQ(db.stats().prefix_bloom_skipped, skipped);
}

TEST(LsmTest, BackgroundCompactionCollapsesRuns) {
  LsmStore::Options opts;
  opts.background_compaction = true;
  opts.max_runs = 2;
  auto store = LsmStore::Open(opts);
  LsmStore& db = **store;
  for (int r = 0; r < 6; ++r) {
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(
          db.Put("r" + std::to_string(r) + "k" + std::to_string(i),
                 "v" + std::to_string(r))
              .ok());
    }
    ASSERT_TRUE(db.Flush().ok());
  }
  db.WaitForCompaction();
  EXPECT_GT(db.stats().compactions, 0u);
  EXPECT_LE(db.NumRuns(), static_cast<size_t>(opts.max_runs) + 1);
  // Newest-wins semantics survive the background merges.
  for (int r = 0; r < 6; ++r) {
    for (int i = 0; i < 20; ++i) {
      auto got = db.Get("r" + std::to_string(r) + "k" + std::to_string(i));
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, "v" + std::to_string(r));
    }
  }
}

TEST(LsmPersistenceTest2, BackgroundCompactionDeletesOnlyMergedFiles) {
  const std::string dir = ::testing::TempDir() + "/marlin_lsm_bg";
  std::filesystem::remove_all(dir);
  LsmStore::Options opts;
  opts.directory = dir;
  opts.background_compaction = true;
  opts.max_runs = 2;
  {
    auto store = LsmStore::Open(opts);
    LsmStore& db = **store;
    for (int r = 0; r < 5; ++r) {
      for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(
            db.Put("r" + std::to_string(r) + "k" + std::to_string(i), "v").ok());
      }
      ASSERT_TRUE(db.Flush().ok());
    }
    db.WaitForCompaction();
  }
  // Reopen: every key must still be there — a compaction that deleted a
  // file it did not merge would lose data here.
  auto reopened = LsmStore::Open(opts);
  ASSERT_TRUE(reopened.ok());
  for (int r = 0; r < 5; ++r) {
    for (int i = 0; i < 10; ++i) {
      EXPECT_TRUE(
          (*reopened)->Get("r" + std::to_string(r) + "k" + std::to_string(i))
              .ok())
          << "r" << r << "k" << i;
    }
  }
  std::filesystem::remove_all(dir);
}

// --- RTree ----------------------------------------------------------------

class RTreeQueryTest : public ::testing::TestWithParam<int> {};

TEST_P(RTreeQueryTest, MatchesBruteForce) {
  const int n = GetParam();
  Rng rng(91 + n);
  std::vector<RTreeEntry> entries;
  for (int i = 0; i < n; ++i) {
    const GeoPoint p(rng.Uniform(35, 45), rng.Uniform(-6, 9));
    BoundingBox box;
    box.Extend(p);
    entries.push_back(RTreeEntry{box, static_cast<uint64_t>(i)});
  }
  const RTree tree(entries);
  EXPECT_EQ(tree.size(), static_cast<size_t>(n));
  for (int q = 0; q < 20; ++q) {
    const double lat = rng.Uniform(35, 44);
    const double lon = rng.Uniform(-6, 8);
    const BoundingBox query(lat, lon, lat + rng.Uniform(0.1, 2.0),
                            lon + rng.Uniform(0.1, 2.0));
    std::set<uint64_t> expected;
    for (const auto& e : entries) {
      if (e.box.Intersects(query)) expected.insert(e.id);
    }
    const auto got = tree.Query(query);
    EXPECT_EQ(std::set<uint64_t>(got.begin(), got.end()), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RTreeQueryTest,
                         ::testing::Values(0, 1, 15, 16, 17, 100, 1000, 5000));

TEST(RTreeTest, NearestMatchesBruteForce) {
  Rng rng(97);
  std::vector<RTreeEntry> entries;
  std::vector<GeoPoint> points;
  for (int i = 0; i < 500; ++i) {
    const GeoPoint p(rng.Uniform(35, 45), rng.Uniform(-6, 9));
    points.push_back(p);
    BoundingBox box;
    box.Extend(p);
    entries.push_back(RTreeEntry{box, static_cast<uint64_t>(i)});
  }
  const RTree tree(entries);
  for (int q = 0; q < 10; ++q) {
    const GeoPoint query(rng.Uniform(35, 45), rng.Uniform(-6, 9));
    const auto got = tree.Nearest(query, 5);
    ASSERT_EQ(got.size(), 5u);
    // Brute force by haversine ranks the same id first (approx metric can
    // permute near-ties, so compare distance of the top hit instead).
    double best = 1e18;
    for (const auto& p : points) {
      best = std::min(best, HaversineDistance(query, p));
    }
    EXPECT_NEAR(got[0].second, best, best * 0.01 + 1.0);
    // Returned distances are non-decreasing.
    for (size_t i = 1; i < got.size(); ++i) {
      EXPECT_GE(got[i].second, got[i - 1].second);
    }
  }
}

TEST(RTreeTest, VisitEarlyStop) {
  std::vector<RTreeEntry> entries;
  for (int i = 0; i < 100; ++i) {
    BoundingBox box;
    box.Extend(GeoPoint(40.0 + i * 0.001, 5.0));
    entries.push_back(RTreeEntry{box, static_cast<uint64_t>(i)});
  }
  const RTree tree(entries);
  int visited = 0;
  tree.Visit(BoundingBox(39, 4, 41, 6), [&](const RTreeEntry&) {
    ++visited;
    return visited < 10;
  });
  EXPECT_EQ(visited, 10);
}

// --- GridIndex ----------------------------------------------------------

TEST(GridIndexTest, UpsertMoveRemove) {
  GridIndex grid(0.1);
  grid.Upsert(1, GeoPoint(40.0, 5.0));
  EXPECT_EQ(grid.size(), 1u);
  EXPECT_TRUE(grid.Get(1).has_value());
  grid.Upsert(1, GeoPoint(41.0, 6.0));  // move across cells
  EXPECT_EQ(grid.size(), 1u);
  const auto hits = grid.Query(BoundingBox(40.9, 5.9, 41.1, 6.1));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_TRUE(grid.Query(BoundingBox(39.9, 4.9, 40.1, 5.1)).empty());
  grid.Remove(1);
  EXPECT_EQ(grid.size(), 0u);
  grid.Remove(1);  // idempotent
}

TEST(GridIndexTest, QueryMatchesBruteForce) {
  Rng rng(101);
  GridIndex grid(0.25);
  std::vector<GeoPoint> points;
  for (uint64_t i = 0; i < 2000; ++i) {
    const GeoPoint p(rng.Uniform(35, 45), rng.Uniform(-6, 9));
    points.push_back(p);
    grid.Upsert(i, p);
  }
  for (int q = 0; q < 20; ++q) {
    const double lat = rng.Uniform(35, 44);
    const double lon = rng.Uniform(-6, 8);
    const BoundingBox box(lat, lon, lat + 1.0, lon + 1.5);
    std::set<uint64_t> expected;
    for (uint64_t i = 0; i < points.size(); ++i) {
      if (box.Contains(points[i])) expected.insert(i);
    }
    const auto got = grid.Query(box);
    EXPECT_EQ(std::set<uint64_t>(got.begin(), got.end()), expected);
  }
}

TEST(GridIndexTest, RadiusQuery) {
  GridIndex grid(0.1);
  const GeoPoint centre(40.0, 5.0);
  grid.Upsert(1, Destination(centre, 45.0, 500.0));
  grid.Upsert(2, Destination(centre, 180.0, 1500.0));
  grid.Upsert(3, Destination(centre, 270.0, 5000.0));
  const auto hits = grid.QueryRadius(centre, 2000.0);
  std::set<uint64_t> ids;
  for (const auto& [id, d] : hits) ids.insert(id);
  EXPECT_EQ(ids, (std::set<uint64_t>{1, 2}));
}

TEST(GridIndexTest, NearestExpandingRing) {
  GridIndex grid(0.1);
  const GeoPoint centre(40.0, 5.0);
  for (uint64_t i = 1; i <= 20; ++i) {
    grid.Upsert(i, Destination(centre, 30.0 * i, 1000.0 * i));
  }
  const auto nearest = grid.Nearest(centre, 3);
  ASSERT_EQ(nearest.size(), 3u);
  EXPECT_EQ(nearest[0].first, 1u);
  EXPECT_EQ(nearest[1].first, 2u);
  EXPECT_EQ(nearest[2].first, 3u);
}

// --- IntervalIndex ----------------------------------------------------------

TEST(IntervalIndexTest, StabAndOverlapMatchBruteForce) {
  Rng rng(103);
  std::vector<IntervalEntry> entries;
  for (uint64_t i = 0; i < 1000; ++i) {
    const Timestamp start = static_cast<Timestamp>(rng.NextBounded(100000));
    entries.push_back(
        IntervalEntry{start,
                      start + static_cast<Timestamp>(rng.NextBounded(5000)),
                      i});
  }
  const IntervalIndex index(entries);
  EXPECT_EQ(index.size(), entries.size());
  for (int q = 0; q < 50; ++q) {
    const Timestamp t = static_cast<Timestamp>(rng.NextBounded(105000));
    std::set<uint64_t> expected;
    for (const auto& e : entries) {
      if (e.start <= t && t <= e.end) expected.insert(e.id);
    }
    const auto got = index.Stab(t);
    EXPECT_EQ(std::set<uint64_t>(got.begin(), got.end()), expected);
  }
  for (int q = 0; q < 50; ++q) {
    const Timestamp t0 = static_cast<Timestamp>(rng.NextBounded(100000));
    const Timestamp t1 = t0 + static_cast<Timestamp>(rng.NextBounded(8000));
    std::set<uint64_t> expected;
    for (const auto& e : entries) {
      if (e.start <= t1 && t0 <= e.end) expected.insert(e.id);
    }
    const auto got = index.Overlapping(t0, t1);
    EXPECT_EQ(std::set<uint64_t>(got.begin(), got.end()), expected);
  }
}

TEST(IntervalIndexTest, EmptyIndex) {
  IntervalIndex index;
  EXPECT_TRUE(index.Stab(0).empty());
  EXPECT_TRUE(index.Overlapping(0, 100).empty());
}

// --- Trajectory ------------------------------------------------------------

Trajectory MakeLineTrajectory(uint32_t mmsi, int n, Timestamp step_ms) {
  Trajectory traj;
  traj.mmsi = mmsi;
  for (int i = 0; i < n; ++i) {
    TrajectoryPoint p;
    p.t = 1000000 + i * step_ms;
    p.position = GeoPoint(40.0 + i * 0.01, 5.0);
    p.sog_mps = 10.0f;
    p.cog_deg = 0.0f;
    traj.points.push_back(p);
  }
  return traj;
}

TEST(TrajectoryTest, InterpolationAtSamplesAndBetween) {
  const Trajectory traj = MakeLineTrajectory(1, 10, 60000);
  const TrajectoryPoint exact = traj.At(1000000 + 3 * 60000);
  EXPECT_NEAR(exact.position.lat, 40.03, 1e-9);
  const TrajectoryPoint mid = traj.At(1000000 + 3 * 60000 + 30000);
  EXPECT_NEAR(mid.position.lat, 40.035, 1e-6);
  // Clamping outside the span.
  EXPECT_NEAR(traj.At(0).position.lat, 40.0, 1e-9);
  EXPECT_NEAR(traj.At(1e15).position.lat, 40.09, 1e-9);
}

TEST(TrajectoryTest, SliceAndBounds) {
  const Trajectory traj = MakeLineTrajectory(1, 10, 60000);
  const Trajectory slice = traj.Slice(1000000 + 120000, 1000000 + 300000);
  EXPECT_EQ(slice.points.size(), 4u);  // minutes 2,3,4,5
  const BoundingBox box = traj.Bounds();
  EXPECT_NEAR(box.min_lat, 40.0, 1e-9);
  EXPECT_NEAR(box.max_lat, 40.09, 1e-9);
}

TEST(TrajectoryTest, LengthAccumulates) {
  const Trajectory traj = MakeLineTrajectory(1, 11, 60000);
  // 10 segments of 0.01 degree latitude each ≈ 11.1 km.
  EXPECT_NEAR(traj.LengthMetres(), 11120.0, 30.0);
}

TEST(TrajectoryTest, SedErrorZeroForIdenticalTrajectories) {
  const Trajectory traj = MakeLineTrajectory(1, 20, 30000);
  const TrajectoryError err = ComputeSedError(traj, traj);
  EXPECT_NEAR(err.mean_m, 0.0, 1e-6);
  EXPECT_NEAR(err.max_m, 0.0, 1e-6);
}

TEST(TrajectoryTest, SedErrorDetectsDrop) {
  const Trajectory traj = MakeLineTrajectory(1, 21, 30000);
  Trajectory endpoints;
  endpoints.mmsi = 1;
  endpoints.points = {traj.points.front(), traj.points.back()};
  // A straight constant-speed trajectory is perfectly reconstructible from
  // its endpoints (within spherical interpolation error).
  const TrajectoryError err = ComputeSedError(traj, endpoints);
  EXPECT_LT(err.max_m, 5.0);
}

TEST(TrajectoryKeyTest, EncodingRoundTripAndOrder) {
  const std::string k1 = EncodeTrajectoryKey(228000001, 1000);
  const std::string k2 = EncodeTrajectoryKey(228000001, 2000);
  const std::string k3 = EncodeTrajectoryKey(228000002, 0);
  EXPECT_LT(k1, k2);  // time order within vessel
  EXPECT_LT(k2, k3);  // vessel-major order
  uint32_t mmsi = 0;
  Timestamp t = 0;
  ASSERT_TRUE(DecodeTrajectoryKey(k1, &mmsi, &t));
  EXPECT_EQ(mmsi, 228000001u);
  EXPECT_EQ(t, 1000);
  EXPECT_FALSE(DecodeTrajectoryKey("short", &mmsi, &t));
}

// --- TrajectoryStore -------------------------------------------------------

TEST(TrajectoryStoreTest, AppendAndRetrieve) {
  TrajectoryStore store;
  const Trajectory traj = MakeLineTrajectory(228000001, 10, 60000);
  for (const auto& p : traj.points) {
    ASSERT_TRUE(store.Append(228000001, p).ok());
  }
  EXPECT_EQ(store.VesselCount(), 1u);
  EXPECT_EQ(store.PointCount(), 10u);
  auto got = store.GetTrajectory(228000001);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->points.size(), 10u);
  EXPECT_TRUE(store.GetTrajectory(999).status().IsNotFound());
}

TEST(TrajectoryStoreTest, RejectsOutOfOrderAppends) {
  TrajectoryStore store;
  TrajectoryPoint p;
  p.t = 2000;
  p.position = GeoPoint(40, 5);
  ASSERT_TRUE(store.Append(1, p).ok());
  p.t = 1000;
  EXPECT_TRUE(store.Append(1, p).IsInvalid());
}

TEST(TrajectoryStoreTest, LiveQueriesTrackLatestPosition) {
  TrajectoryStore store;
  TrajectoryPoint p;
  p.t = 1000;
  p.position = GeoPoint(40.0, 5.0);
  ASSERT_TRUE(store.Append(1, p).ok());
  p.t = 2000;
  p.position = GeoPoint(42.0, 7.0);
  ASSERT_TRUE(store.Append(1, p).ok());
  EXPECT_TRUE(store.QueryLive(BoundingBox(39.9, 4.9, 40.1, 5.1)).empty());
  const auto hits = store.QueryLive(BoundingBox(41.9, 6.9, 42.1, 7.1));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 1u);
}

TEST(TrajectoryStoreTest, WindowQueryMatchesBruteForce) {
  TrajectoryStore store;
  Rng rng(107);
  std::map<uint32_t, Trajectory> reference;
  for (uint32_t v = 1; v <= 30; ++v) {
    Trajectory traj;
    traj.mmsi = v;
    double lat = rng.Uniform(36, 44);
    double lon = rng.Uniform(-5, 8);
    for (int i = 0; i < 100; ++i) {
      TrajectoryPoint p;
      p.t = 1000000 + i * 10000;
      lat += rng.Uniform(-0.01, 0.01);
      lon += rng.Uniform(-0.01, 0.01);
      p.position = GeoPoint(lat, lon);
      traj.points.push_back(p);
      ASSERT_TRUE(store.Append(v, p).ok());
    }
    reference[v] = traj;
  }
  const BoundingBox box(38, -2, 42, 4);
  const Timestamp t0 = 1000000 + 20 * 10000;
  const Timestamp t1 = 1000000 + 60 * 10000;
  const auto got = store.QueryWindow(box, t0, t1);
  // Brute force.
  std::map<uint32_t, size_t> expected;
  for (const auto& [v, traj] : reference) {
    size_t count = 0;
    for (const auto& p : traj.points) {
      if (p.t >= t0 && p.t <= t1 && box.Contains(p.position)) ++count;
    }
    if (count > 0) expected[v] = count;
  }
  ASSERT_EQ(got.size(), expected.size());
  for (const auto& traj : got) {
    ASSERT_TRUE(expected.count(traj.mmsi));
    EXPECT_EQ(traj.points.size(), expected[traj.mmsi]);
  }
}

TEST(TrajectoryStoreTest, TimeSliceInterpolates) {
  TrajectoryStore store;
  const Trajectory traj = MakeLineTrajectory(5, 10, 60000);
  for (const auto& p : traj.points) ASSERT_TRUE(store.Append(5, p).ok());
  const auto slice = store.TimeSlice(1000000 + 90000);  // between samples
  ASSERT_EQ(slice.size(), 1u);
  EXPECT_EQ(slice[0].first, 5u);
  EXPECT_NEAR(slice[0].second.position.lat, 40.015, 1e-6);
  // Outside the observed span: no entry.
  EXPECT_TRUE(store.TimeSlice(1).empty());
}

}  // namespace
}  // namespace marlin
