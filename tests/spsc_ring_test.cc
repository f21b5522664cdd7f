// Tests for the lock-free SPSC rings and the StageChannel hop: wraparound
// FIFO order, close/drain end-of-stream, blocked-side wake-ups, randomized
// two-thread stress (the tsan-critical surface), single-threaded
// differential scripts against BoundedQueue, and the hop-stats invariants.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "stream/channel.h"
#include "stream/lossy_ring.h"
#include "stream/queue.h"
#include "stream/spsc_ring.h"

namespace marlin {
namespace {

// --- Single-threaded semantics --------------------------------------------

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(4).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(1000).capacity(), 1024u);
}

TEST(SpscRingTest, FifoOrderAcrossWraparound) {
  SpscRing<int> ring(4);  // capacity 4: forces many wraps
  int next_out = 0;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(ring.Push(i));
    if (i % 3 == 2) {  // drain in uneven gulps so head/tail wrap unaligned
      while (ring.size() > 0) EXPECT_EQ(*ring.Pop(), next_out++);
    }
  }
  while (ring.size() > 0) EXPECT_EQ(*ring.Pop(), next_out++);
  EXPECT_EQ(next_out, 100);
}

TEST(SpscRingTest, TryPushRespectsCapacityAndKeepsItem) {
  SpscRing<int> ring(2);
  int a = 1, b = 2, c = 3;
  EXPECT_TRUE(ring.TryPush(a));
  EXPECT_TRUE(ring.TryPush(b));
  EXPECT_FALSE(ring.TryPush(c));  // full: backpressure point
  EXPECT_EQ(c, 3);                // failed TryPush must not consume the item
  ring.Pop();
  EXPECT_TRUE(ring.TryPush(c));
}

TEST(SpscRingTest, CloseDrainsThenSignalsEnd) {
  SpscRing<int> ring(8);
  EXPECT_TRUE(ring.Push(1));
  EXPECT_TRUE(ring.Push(2));
  ring.Close();
  EXPECT_FALSE(ring.Push(3));  // closed: rejected
  EXPECT_EQ(*ring.Pop(), 1);
  EXPECT_EQ(*ring.Pop(), 2);
  EXPECT_FALSE(ring.Pop().has_value());  // end of stream
  std::vector<int> batch;
  EXPECT_EQ(ring.PopBatch(&batch, 8), 0u);
}

TEST(SpscRingTest, PushBatchPopBatchRoundTrip) {
  SpscRing<int> ring(8);
  int items[6] = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(ring.PushBatch(items, 6), 6u);
  std::vector<int> out;
  EXPECT_EQ(ring.PopBatch(&out, 4), 4u);  // caps at max_items
  EXPECT_EQ(ring.PopBatch(&out, 4), 2u);  // then drains the rest
  for (int i = 0; i < 6; ++i) EXPECT_EQ(out[i], i);
}

TEST(SpscRingTest, StatsCountPushedPoppedAndBatches) {
  SpscRing<int> ring(16);
  for (int i = 0; i < 10; ++i) ring.Push(i);
  std::vector<int> out;
  ring.PopBatch(&out, 16);  // one batch of 10 → bucket 8–15
  const QueueHopStats s = ring.stats();
  EXPECT_EQ(s.pushed, 10u);
  EXPECT_EQ(s.popped, 10u);
  EXPECT_EQ(s.depth_high_water, 10u);
  EXPECT_EQ(s.batch_hist[QueueHopStats::BatchBucket(10)], 1u);
  EXPECT_DOUBLE_EQ(s.MeanBatch(), 10.0);
  EXPECT_EQ(s.notifies, 0u);  // uncontended: no waiter, so no wake-up
}

// --- Blocking paths --------------------------------------------------------

TEST(SpscRingTest, BlockedConsumerWakesOnPush) {
  SpscRing<int> ring(4);
  std::thread consumer([&ring] {
    EXPECT_EQ(*ring.Pop(), 42);  // blocks (spin → park) until the push
  });
  // Give the consumer a moment to reach the empty-wait path.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ring.Push(42);
  consumer.join();
}

TEST(SpscRingTest, BlockedProducerWakesOnPop) {
  SpscRing<int> ring(2);
  ASSERT_TRUE(ring.Push(0));
  ASSERT_TRUE(ring.Push(1));
  std::thread producer([&ring] {
    EXPECT_TRUE(ring.Push(2));  // blocks until the consumer frees a slot
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(*ring.Pop(), 0);
  producer.join();
  EXPECT_EQ(*ring.Pop(), 1);
  EXPECT_EQ(*ring.Pop(), 2);
}

TEST(SpscRingTest, BlockedConsumerUnblocksOnClose) {
  SpscRing<int> ring(4);
  std::thread consumer([&ring] {
    EXPECT_FALSE(ring.Pop().has_value());  // parked, then woken by Close
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ring.Close();
  consumer.join();
}

TEST(SpscRingTest, BlockedProducerUnblocksOnClose) {
  SpscRing<int> ring(2);
  ASSERT_TRUE(ring.Push(0));
  ASSERT_TRUE(ring.Push(1));
  std::thread producer([&ring] {
    EXPECT_FALSE(ring.Push(2));  // parked on full, rejected by Close
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ring.Close();
  producer.join();
}

// --- Two-thread stress (the tsan-critical surface) -------------------------

TEST(SpscRingTest, ProducerConsumerStressSingletons) {
  SpscRing<uint64_t> ring(4);  // tiny capacity maximizes full/empty races
  constexpr uint64_t kCount = 200000;
  std::thread producer([&ring] {
    for (uint64_t i = 0; i < kCount; ++i) ASSERT_TRUE(ring.Push(i));
    ring.Close();
  });
  uint64_t expected = 0;
  while (auto item = ring.Pop()) {
    ASSERT_EQ(*item, expected);  // FIFO, no loss, no duplication
    ++expected;
  }
  producer.join();
  EXPECT_EQ(expected, kCount);
  const QueueHopStats s = ring.stats();
  EXPECT_EQ(s.pushed, kCount);
  EXPECT_EQ(s.popped, kCount);
}

TEST(SpscRingTest, ProducerConsumerStressRandomBatches) {
  SpscRing<uint64_t> ring(32);
  constexpr uint64_t kCount = 200000;
  std::thread producer([&ring] {
    Rng rng(7);
    uint64_t next = 0;
    uint64_t batch[17];
    while (next < kCount) {
      const size_t n = static_cast<size_t>(
          std::min<uint64_t>(1 + rng.NextBounded(17), kCount - next));
      for (size_t i = 0; i < n; ++i) batch[i] = next + i;
      ASSERT_EQ(ring.PushBatch(batch, n), n);
      next += n;
    }
    ring.Close();
  });
  Rng rng(13);
  std::vector<uint64_t> out;
  uint64_t expected = 0;
  while (true) {
    out.clear();
    const size_t n = ring.PopBatch(&out, 1 + rng.NextBounded(23));
    if (n == 0) break;
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], expected++);
  }
  producer.join();
  EXPECT_EQ(expected, kCount);
  // Every pop was accounted to a batch bucket and the histogram is
  // consistent with the item count.
  const QueueHopStats s = ring.stats();
  EXPECT_EQ(s.popped, kCount);
  EXPECT_GE(s.batches(), kCount / 23);
  EXPECT_GT(s.MeanBatch(), 0.0);
}

// --- Differential vs BoundedQueue -----------------------------------------

// Replays one randomized single-threaded push/pop/batch script through the
// ring and the mutex queue and asserts identical observable behaviour:
// accepted pushes, delivered items, order, and end-of-stream.
TEST(SpscRingTest, DifferentialAgainstBoundedQueueScript) {
  constexpr size_t kCapacity = 8;  // power of two so both arms agree exactly
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SpscRing<int> ring(kCapacity);
    BoundedQueue<int> queue(kCapacity);
    Rng rng(seed);
    int next_value = 0;
    std::vector<int> ring_out, queue_out;
    bool closed = false;
    for (int step = 0; step < 500; ++step) {
      switch (rng.NextBounded(4)) {
        case 0: {  // TryPush one value
          int rv = next_value, qv = next_value;
          ++next_value;
          EXPECT_EQ(ring.TryPush(rv), queue.TryPush(qv));
          break;
        }
        case 1: {  // TryPop / Pop-if-nonempty
          std::optional<int> q = queue.TryPop();
          std::optional<int> r =
              ring.size() > 0 ? ring.Pop() : std::nullopt;
          EXPECT_EQ(r.has_value(), q.has_value());
          if (r) {
            EXPECT_EQ(*r, *q);
            ring_out.push_back(*r);
            queue_out.push_back(*q);
          }
          break;
        }
        case 2: {  // batch pop
          std::vector<int> r, q;
          const size_t want = 1 + rng.NextBounded(5);
          if (queue.size() > 0) queue.PopBatch(&q, want);
          if (ring.size() > 0) ring.PopBatch(&r, want);
          EXPECT_EQ(r, q);
          ring_out.insert(ring_out.end(), r.begin(), r.end());
          queue_out.insert(queue_out.end(), q.begin(), q.end());
          break;
        }
        case 3: {  // close late in the script
          if (step > 400 && !closed) {
            ring.Close();
            queue.Close();
            closed = true;
          }
          break;
        }
      }
      EXPECT_EQ(ring.size(), queue.size());
      EXPECT_EQ(ring.closed(), queue.closed());
    }
    // Drain both to end-of-stream and compare the full delivered streams.
    ring.Close();
    queue.Close();
    while (auto r = ring.Pop()) ring_out.push_back(*r);
    while (auto q = queue.Pop()) queue_out.push_back(*q);
    EXPECT_EQ(ring_out, queue_out) << "seed " << seed;
  }
}

// --- StageChannel seam ------------------------------------------------------

TEST(StageChannelTest, StressAndStatsInvariants) {
  StageChannel<uint64_t> channel(16);
  constexpr uint64_t kCount = 100000;
  std::thread producer([&channel] {
    for (uint64_t i = 0; i < kCount; ++i) ASSERT_TRUE(channel.Push(i));
    channel.Close();
  });
  Rng rng(3);
  std::vector<uint64_t> out;
  uint64_t expected = 0;
  while (true) {
    out.clear();
    const size_t n = channel.PopBatch(&out, 1 + rng.NextBounded(31));
    if (n == 0) break;
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], expected++);
  }
  producer.join();
  EXPECT_EQ(expected, kCount);
  const QueueHopStats s = channel.stats();
  EXPECT_EQ(s.pushed, kCount);
  EXPECT_EQ(s.popped, kCount);
  EXPECT_LE(s.depth_high_water, channel.capacity());
  // Each pop-batch carried between 1 and 31 items, so the batch count is
  // bracketed by the item count on both sides.
  EXPECT_GE(s.batches(), kCount / 31);
  EXPECT_LE(s.batches(), kCount);
}

TEST(StageChannelTest, PushLossyNeverBlocksAndAccountsDrops) {
  StageChannel<int> channel(4, /*lossy=*/true);
  size_t total_dropped = 0;
  for (int i = 0; i < 100; ++i) {
    size_t dropped = 0;
    EXPECT_TRUE(channel.PushLossy(i, &dropped));
    total_dropped += dropped;
  }
  // No consumer ran: exactly capacity items survive, the rest were evicted.
  EXPECT_EQ(channel.size(), channel.capacity());
  EXPECT_EQ(total_dropped, 100 - channel.capacity());
  channel.Close();
  size_t dropped = 0;
  EXPECT_FALSE(channel.PushLossy(101, &dropped));  // closed: rejected
  EXPECT_EQ(dropped, 0u);
  // Overload semantics are evict-oldest: the survivors are exactly the
  // newest `capacity` items, in FIFO order.
  std::vector<int> survivors;
  while (auto item = channel.Pop()) survivors.push_back(*item);
  ASSERT_EQ(survivors.size(), channel.capacity());
  for (size_t i = 0; i < survivors.size(); ++i) {
    EXPECT_EQ(survivors[i], static_cast<int>(100 - channel.capacity() + i));
  }
}

// The evict-oldest differential: run the exact same interleaved lossy-push /
// pop script against the lossy ring and the BoundedQueue reference and
// require that they shed the *identical* item set — not just the same
// count.
TEST(StageChannelTest, LossyArmsShedIdenticalItemSets) {
  Rng rng(17);
  for (int round = 0; round < 50; ++round) {
    SpscLossyRing<int> ring(8);
    BoundedQueue<int> queue(8);
    std::vector<int> ring_out, queue_out;
    size_t ring_dropped = 0, queue_dropped = 0;
    int next = 0;
    for (int step = 0; step < 300; ++step) {
      if (rng.NextBounded(3) != 0) {  // push-heavy: force overload
        size_t d = 0;
        ASSERT_TRUE(ring.PushEvictOldest(next, &d));
        ring_dropped += d;
        d = 0;
        ASSERT_TRUE(queue.PushEvictOldest(next, &d));
        queue_dropped += d;
        ++next;
      } else {
        std::vector<int> r, q;
        const size_t want = 1 + rng.NextBounded(3);
        if (ring.size() > 0) ring.PopBatch(&r, want);
        if (queue.size() > 0) queue.PopBatch(&q, want);
        EXPECT_EQ(r, q) << "round " << round << " step " << step;
        ring_out.insert(ring_out.end(), r.begin(), r.end());
        queue_out.insert(queue_out.end(), q.begin(), q.end());
      }
    }
    ring.Close();
    queue.Close();
    while (auto item = ring.Pop()) ring_out.push_back(*item);
    while (auto item = queue.Pop()) queue_out.push_back(*item);
    // Identical survivors (and therefore identical shed sets), and both
    // uphold accepted == delivered + dropped.
    EXPECT_EQ(ring_out, queue_out) << "round " << round;
    EXPECT_EQ(ring_dropped, queue_dropped);
    EXPECT_EQ(ring_out.size() + ring_dropped, static_cast<size_t>(next));
  }
}

}  // namespace
}  // namespace marlin
