// Unit tests for marlin_stream: queues, watermarks, reordering, merging,
// rate metering, side-stages.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "stream/event.h"
#include "stream/merge.h"
#include "stream/queue.h"
#include "stream/rate.h"
#include "stream/reorder.h"
#include "stream/side_stage.h"
#include "stream/watermark.h"

namespace marlin {
namespace {

// --- BoundedQueue ---------------------------------------------------------

TEST(QueueTest, FifoOrder) {
  BoundedQueue<int> q(10);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.Push(i));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(*q.Pop(), i);
}

TEST(QueueTest, TryPushRespectsCapacity) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));  // full: backpressure point
  q.Pop();
  EXPECT_TRUE(q.TryPush(3));
}

TEST(QueueTest, CloseDrainsThenSignalsEnd) {
  BoundedQueue<int> q(10);
  q.Push(1);
  q.Push(2);
  q.Close();
  EXPECT_FALSE(q.Push(3));  // closed: rejected
  EXPECT_EQ(*q.Pop(), 1);
  EXPECT_EQ(*q.Pop(), 2);
  EXPECT_FALSE(q.Pop().has_value());  // end of stream
}

TEST(QueueTest, ProducerConsumerThreads) {
  BoundedQueue<int> q(4);  // small capacity forces blocking
  constexpr int kCount = 1000;
  std::thread producer([&q] {
    for (int i = 0; i < kCount; ++i) q.Push(i);
    q.Close();
  });
  int expected = 0;
  int64_t sum = 0;
  while (auto v = q.Pop()) {
    EXPECT_EQ(*v, expected++);
    sum += *v;
  }
  producer.join();
  EXPECT_EQ(expected, kCount);
  EXPECT_EQ(sum, static_cast<int64_t>(kCount) * (kCount - 1) / 2);
}

TEST(QueueTest, TryPopNonBlocking) {
  BoundedQueue<int> q(2);
  EXPECT_FALSE(q.TryPop().has_value());
  q.Push(9);
  EXPECT_EQ(*q.TryPop(), 9);
}

TEST(QueueTest, MultiProducerMultiConsumerStress) {
  BoundedQueue<int> q(8);  // tight capacity: producers and consumers block
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 5000;
  std::vector<std::thread> producers, consumers;
  std::atomic<int64_t> consumed_sum{0};
  std::atomic<int64_t> consumed_count{0};
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(p * kPerProducer + i));
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (auto v = q.Pop()) {
        consumed_sum.fetch_add(*v, std::memory_order_relaxed);
        consumed_count.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : consumers) t.join();
  constexpr int64_t kTotal = int64_t{kProducers} * kPerProducer;
  EXPECT_EQ(consumed_count.load(), kTotal);
  EXPECT_EQ(consumed_sum.load(), kTotal * (kTotal - 1) / 2);
  EXPECT_EQ(q.size(), 0u);
}

TEST(QueueTest, CloseUnblocksWaitingProducers) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::thread producer([&q] {
    EXPECT_FALSE(q.Push(2));  // blocks on full queue until Close rejects it
  });
  // Give the producer time to block, then close.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Close();
  producer.join();
  // The queued item is still drainable after close.
  EXPECT_EQ(*q.Pop(), 1);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(QueueTest, CloseUnblocksWaitingConsumers) {
  BoundedQueue<int> q(4);
  std::thread consumer([&q] { EXPECT_FALSE(q.Pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Close();
  consumer.join();
}

TEST(QueueTest, PopBatchDrainsUpToLimit) {
  BoundedQueue<int> q(16);
  for (int i = 0; i < 10; ++i) q.Push(i);
  std::vector<int> out;
  EXPECT_EQ(q.PopBatch(&out, 4), 4u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(q.PopBatch(&out, 100), 6u);
  EXPECT_EQ(out.size(), 10u);
  q.Close();
  EXPECT_EQ(q.PopBatch(&out, 4), 0u);  // closed & drained
}

TEST(QueueTest, PopBatchBlocksUntilFirstItem) {
  BoundedQueue<int> q(4);
  std::vector<int> out;
  std::thread consumer([&] { EXPECT_EQ(q.PopBatch(&out, 8), 1u); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Push(77);
  consumer.join();
  EXPECT_EQ(out, std::vector<int>{77});
}

// --- Watermark ---------------------------------------------------------------

TEST(WatermarkTest, TracksMaxMinusDelay) {
  WatermarkGenerator wm(5000);
  EXPECT_EQ(wm.Current(), kMinTimestamp);
  wm.Observe(100000);
  EXPECT_EQ(wm.Current(), 95000);
  wm.Observe(90000);  // older event does not regress the watermark
  EXPECT_EQ(wm.Current(), 95000);
  wm.Observe(120000);
  EXPECT_EQ(wm.Current(), 115000);
}

TEST(WatermarkTest, LatenessClassification) {
  WatermarkGenerator wm(5000);
  wm.Observe(100000);
  EXPECT_TRUE(wm.IsLate(94000));
  EXPECT_TRUE(wm.IsLate(95000));  // at the watermark = late
  EXPECT_FALSE(wm.IsLate(96000));
}

// --- ReorderBuffer -------------------------------------------------------

TEST(ReorderTest, EmitsInEventTimeOrder) {
  ReorderBuffer<int> buffer(
      ReorderBuffer<int>::Options{1000, false});
  Rng rng(71);
  std::vector<Event<int>> out;
  // Events shuffled within a 1 s out-of-orderness bound.
  for (int i = 0; i < 500; ++i) {
    const Timestamp base = i * 100;
    const Timestamp jitter = static_cast<Timestamp>(rng.NextBounded(900));
    buffer.Push(Event<int>(base + jitter, i), &out);
  }
  buffer.Flush(&out);
  ASSERT_GE(out.size(), 450u);  // some may be dropped as late at the margin
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_LE(out[i - 1].event_time, out[i].event_time);
  }
}

TEST(ReorderTest, DropsLateEvents) {
  ReorderBuffer<int> buffer(ReorderBuffer<int>::Options{1000, false});
  std::vector<Event<int>> out;
  buffer.Push(Event<int>(10000, 1), &out);
  buffer.Push(Event<int>(20000, 2), &out);  // watermark now 19000
  buffer.Push(Event<int>(5000, 3), &out);   // far too late
  buffer.Flush(&out);
  EXPECT_EQ(buffer.stats().dropped_late, 1u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].payload, 1);
  EXPECT_EQ(out[1].payload, 2);
}

TEST(ReorderTest, EmitLateOptionKeepsThem) {
  ReorderBuffer<int> buffer(ReorderBuffer<int>::Options{1000, true});
  std::vector<Event<int>> out;
  buffer.Push(Event<int>(10000, 1), &out);
  buffer.Push(Event<int>(20000, 2), &out);
  buffer.Push(Event<int>(5000, 3), &out);
  buffer.Flush(&out);
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(buffer.stats().late, 1u);
  EXPECT_EQ(buffer.stats().dropped_late, 0u);
}

// --- StreamMerger ---------------------------------------------------------

TEST(MergeTest, GlobalEventTimeOrder) {
  std::vector<Event<int>> a, b, c;
  for (int i = 0; i < 50; ++i) a.push_back(Event<int>(i * 30, 100 + i));
  for (int i = 0; i < 50; ++i) b.push_back(Event<int>(i * 50 + 7, 200 + i));
  for (int i = 0; i < 20; ++i) c.push_back(Event<int>(i * 111 + 3, 300 + i));
  StreamMerger<int> merger(
      {VectorSource(a), VectorSource(b), VectorSource(c)});
  const auto merged = merger.DrainAll();
  EXPECT_EQ(merged.size(), 120u);
  for (size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LE(merged[i - 1].event_time, merged[i].event_time);
  }
}

TEST(MergeTest, HandlesEmptySources) {
  StreamMerger<int> merger({VectorSource(std::vector<Event<int>>{}),
                            VectorSource(std::vector<Event<int>>{
                                Event<int>(5, 1)})});
  const auto merged = merger.DrainAll();
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].payload, 1);
}

TEST(MergeTest, AllEmpty) {
  StreamMerger<int> merger({});
  EXPECT_FALSE(merger.Next().has_value());
}

// --- RateMeter / LatencyReservoir ------------------------------------------

TEST(RateTest, EventsPerSecond) {
  RateMeter meter;
  for (int i = 0; i <= 100; ++i) meter.Observe(i * 100);  // 10 evt/s, 10 s
  EXPECT_EQ(meter.count(), 101u);
  EXPECT_NEAR(meter.EventsPerSecond(), 10.1, 0.2);
}

TEST(RateTest, DegenerateCases) {
  RateMeter meter;
  EXPECT_EQ(meter.EventsPerSecond(), 0.0);
  meter.Observe(1000);
  EXPECT_EQ(meter.EventsPerSecond(), 0.0);  // single event: undefined rate
}

TEST(LatencyReservoirTest, MeanAndQuantiles) {
  LatencyReservoir res(1024);
  for (int i = 1; i <= 1000; ++i) res.Observe(i);
  EXPECT_EQ(res.count(), 1000u);
  EXPECT_NEAR(res.Mean(), 500.5, 1e-9);
  EXPECT_NEAR(static_cast<double>(res.Quantile(0.5)), 500.0, 10.0);
  EXPECT_NEAR(static_cast<double>(res.Quantile(0.99)), 990.0, 12.0);
}

TEST(LatencyReservoirTest, BoundedMemoryUnderLongStreams) {
  LatencyReservoir res(128);
  for (int i = 0; i < 100000; ++i) res.Observe(i % 1000);
  EXPECT_EQ(res.count(), 100000u);
  // Quantiles still roughly reflect the uniform 0..999 distribution.
  EXPECT_GT(res.Quantile(0.9), 600);
}

// --- Event helpers --------------------------------------------------------

TEST(EventTest, LatencyComputation) {
  Event<int> e(1000, 3500, 1, 42);
  EXPECT_EQ(e.Latency(), 2500);
  Event<int> no_ingest(1000, 42);
  EXPECT_EQ(no_ingest.Latency(), 0);
}

// --- Regressions: rate/latency metrics under merge & disorder --------------

TEST(RateTest, OutOfOrderStreamUsesEventTimeEnvelope) {
  // Satellite deliveries can surface an *earlier* event after a later one.
  // The observed span must be min..max of event times, not first-arrival..max,
  // or the rate is overestimated.
  RateMeter meter;
  meter.Observe(10'000);  // arrives first but is NOT the earliest event
  for (int i = 0; i <= 100; ++i) meter.Observe(i * 100);  // 0..10 s
  EXPECT_EQ(meter.first_event(), 0);
  EXPECT_EQ(meter.last_event(), 10'000);
  // 102 events over exactly 10 s.
  EXPECT_NEAR(meter.EventsPerSecond(), 10.2, 1e-9);
}

TEST(LatencyReservoirTest, MergeMixedCapacitiesKeepsReplacementInBounds) {
  // Merging a larger-capacity reservoir used to leave the systematic
  // replacement index desynchronised from the thinned sample set.
  LatencyReservoir a(64), b(256);
  for (int i = 1; i <= 500; ++i) a.Observe(10);
  for (int i = 1; i <= 1000; ++i) b.Observe(20);
  a.Merge(b);
  EXPECT_EQ(a.count(), 1500u);
  EXPECT_NEAR(a.Mean(), (500.0 * 10 + 1000.0 * 20) / 1500.0, 1e-9);

  // Replacement after the merge walks a well-defined ring over the thinned
  // set: 64 fresh observations must refresh the *entire* reservoir.
  for (int i = 0; i < 64; ++i) a.Observe(99);
  EXPECT_EQ(a.Quantile(0.0), 99);
  EXPECT_EQ(a.Quantile(1.0), 99);
  EXPECT_EQ(a.count(), 1564u);
}

TEST(LatencyReservoirTest, MergeBelowCapacityKeepsAllSamples) {
  LatencyReservoir a(4096), b(64);
  for (int i = 1; i <= 10; ++i) a.Observe(i);
  for (int i = 11; i <= 20; ++i) b.Observe(i);
  a.Merge(b);
  EXPECT_EQ(a.count(), 20u);
  EXPECT_EQ(a.Quantile(0.0), 1);
  EXPECT_EQ(a.Quantile(1.0), 20);
}

// --- Lossy push (side-stage backpressure primitive) ------------------------

TEST(QueueTest, PushEvictOldestNeverBlocksAndCountsEvictions) {
  BoundedQueue<int> q(2);
  size_t evicted = 0;
  size_t total_evicted = 0;
  for (int i = 1; i <= 5; ++i) {
    EXPECT_TRUE(q.PushEvictOldest(i, &evicted));
    total_evicted += evicted;
  }
  EXPECT_EQ(total_evicted, 3u);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.Pop(), 4);  // the oldest survivors are the newest two
  EXPECT_EQ(q.Pop(), 5);
  q.Close();
  EXPECT_FALSE(q.PushEvictOldest(6, &evicted));
  EXPECT_EQ(evicted, 0u);
}

// --- Async side-stage ------------------------------------------------------

TEST(SideStageTest, SynchronousModeDeliversInline) {
  AsyncSideStage<int, int>::Options opts;
  opts.async = false;
  AsyncSideStage<int, int> stage(opts, [](const int& v) { return v * 2; });
  std::vector<int> seen;
  stage.SetSink([&seen](const int& v) { seen.push_back(v); });
  for (int i = 0; i < 5; ++i) stage.Submit(i);
  // Inline mode: everything delivered before Submit returns.
  EXPECT_EQ(seen, (std::vector<int>{0, 2, 4, 6, 8}));
  const SideStageStats stats = stage.stats();
  EXPECT_EQ(stats.submitted, 5u);
  EXPECT_EQ(stats.processed, 5u);
  EXPECT_EQ(stats.dropped(), 0u);
}

TEST(SideStageTest, FlushIsACompletenessBarrier) {
  AsyncSideStage<int, int>::Options opts;
  opts.queue_depth = 4096;
  AsyncSideStage<int, int> stage(opts, [](const int& v) { return v + 1; });
  for (int i = 0; i < 2000; ++i) stage.Submit(i);
  stage.Flush();
  std::vector<int> out;
  EXPECT_EQ(stage.Drain(&out), 2000u);
  // FIFO: delivery order is submission order.
  for (int i = 0; i < 2000; ++i) ASSERT_EQ(out[i], i + 1);
  const SideStageStats stats = stage.stats();
  EXPECT_EQ(stats.submitted, 2000u);
  EXPECT_EQ(stats.processed + stats.queue_dropped, stats.submitted);
  EXPECT_EQ(stats.queue_dropped, 0u);
}

TEST(SideStageTest, DropOldestUnderSlowTransform) {
  AsyncSideStage<int, int>::Options opts;
  opts.queue_depth = 4;
  opts.max_batch = 1;
  AsyncSideStage<int, int> stage(opts, [](const int& v) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return v;
  });
  const int n = 200;
  for (int i = 0; i < n; ++i) stage.Submit(i);  // far faster than 1 ms/item
  stage.Flush();
  const SideStageStats stats = stage.stats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(n));
  EXPECT_GT(stats.queue_dropped, 0u);
  EXPECT_EQ(stats.processed + stats.queue_dropped, stats.submitted);
  EXPECT_GE(stats.max_queue_depth, 4u);
  // Drops thin the stream but never reorder it.
  std::vector<int> out;
  stage.Drain(&out);
  EXPECT_EQ(out.size(), stats.processed);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
}

TEST(SideStageTest, DrainBufferEvictsOldestWhenUnconsumed) {
  AsyncSideStage<int, int>::Options opts;
  opts.async = false;  // deterministic accounting
  opts.output_capacity = 8;
  AsyncSideStage<int, int> stage(opts, [](const int& v) { return v; });
  for (int i = 0; i < 32; ++i) stage.Submit(i);
  std::vector<int> out;
  EXPECT_EQ(stage.Drain(&out), 8u);
  EXPECT_EQ(out, (std::vector<int>{24, 25, 26, 27, 28, 29, 30, 31}));
  const SideStageStats stats = stage.stats();
  EXPECT_EQ(stats.output_dropped, 24u);
  EXPECT_EQ(stats.processed, 32u);
}

TEST(SideStageStatsTest, MergeAccumulates) {
  SideStageStats a, b;
  a.submitted = 10;
  a.processed = 8;
  a.queue_dropped = 2;
  a.max_queue_depth = 3;
  b.submitted = 20;
  b.processed = 20;
  b.output_dropped = 5;
  b.max_queue_depth = 7;
  a.Merge(b);
  EXPECT_EQ(a.submitted, 30u);
  EXPECT_EQ(a.processed, 28u);
  EXPECT_EQ(a.dropped(), 7u);
  EXPECT_EQ(a.max_queue_depth, 7u);
}

TEST(SideStageTest, SourceAttributionAggregatesPerName) {
  // The transform attributes its per-source wall-clock through the stage;
  // the stage aggregates by name under the stats lock (sync mode here for
  // deterministic accounting — async shares the code path).
  AsyncSideStage<int, int>::Options opts;
  opts.async = false;
  AsyncSideStage<int, int>* stage_ptr = nullptr;
  AsyncSideStage<int, int> stage(opts, [&stage_ptr](const int& v) {
    stage_ptr->AttributeSource("alpha", 5);
    stage_ptr->AttributeSource("beta", static_cast<uint64_t>(10 + v));
    return v;
  });
  stage_ptr = &stage;  // installed before the first Submit
  for (int i = 0; i < 4; ++i) stage.Submit(i);
  stage.Flush();

  const SideStageStats stats = stage.stats();
  ASSERT_EQ(stats.source_latency.size(), 2u);
  const SourceLatency& alpha = stats.source_latency.at("alpha");
  EXPECT_EQ(alpha.calls, 4u);
  EXPECT_EQ(alpha.total_us, 20u);
  EXPECT_EQ(alpha.max_us, 5u);
  EXPECT_DOUBLE_EQ(alpha.MeanUs(), 5.0);
  const SourceLatency& beta = stats.source_latency.at("beta");
  EXPECT_EQ(beta.calls, 4u);
  EXPECT_EQ(beta.total_us, 10u + 11u + 12u + 13u);
  EXPECT_EQ(beta.max_us, 13u);
}

TEST(SideStageStatsTest, MergeUnionsSourceLatencyByName) {
  SideStageStats a, b;
  a.source_latency["zones"] = SourceLatency{10, 100, 20};
  a.source_latency["weather"] = SourceLatency{10, 5000, 900};
  b.source_latency["weather"] = SourceLatency{5, 1000, 400};
  b.source_latency["registry"] = SourceLatency{5, 50, 15};
  a.Merge(b);
  ASSERT_EQ(a.source_latency.size(), 3u);
  EXPECT_EQ(a.source_latency["zones"].calls, 10u);
  EXPECT_EQ(a.source_latency["weather"].calls, 15u);
  EXPECT_EQ(a.source_latency["weather"].total_us, 6000u);
  EXPECT_EQ(a.source_latency["weather"].max_us, 900u);
  EXPECT_EQ(a.source_latency["registry"].total_us, 50u);
  EXPECT_DOUBLE_EQ(a.source_latency["weather"].MeanUs(), 400.0);
}

}  // namespace
}  // namespace marlin
