#ifndef MARLIN_STREAM_CHANNEL_H_
#define MARLIN_STREAM_CHANNEL_H_

/// \file channel.h
/// \brief The hand-off surface between pipeline stages.
///
/// Every inter-stage hop in the sharded pipeline (coordinator → shard
/// worker, shard core → enrichment side-stage) is
/// single-producer/single-consumer, so a channel is a lock-free ring:
/// `SpscRing` for blocking hops, `SpscLossyRing` for overload-shedding
/// ones. The one many-producer hop — query fan-out — holds a
/// `BoundedQueue` directly (core/query_engine.h).
///
/// The channel also exposes the per-hop instrumentation (`QueueHopStats`),
/// which each ring keeps itself.

#include <cassert>
#include <memory>
#include <optional>
#include <vector>

#include "stream/lossy_ring.h"
#include "stream/spsc_ring.h"

namespace marlin {

/// \brief One inter-stage hop: bounded FIFO with close/drain end-of-stream
/// semantics. The SPSC contract (one pushing thread, one popping thread at
/// a time) must hold.
///
/// A channel constructed with `lossy = true` is an overload-shedding hop
/// backed by `SpscLossyRing`: its producer calls `PushLossy`, which evicts
/// the *oldest* queued item under overload (the semantics of
/// `BoundedQueue::PushEvictOldest`). Any other channel is a blocking hop
/// backed by `SpscRing`, whose producer calls `Push`.
template <typename T>
class StageChannel {
 public:
  explicit StageChannel(size_t capacity, bool lossy = false) {
    if (lossy) {
      lossy_ring_ = std::make_unique<SpscLossyRing<T>>(capacity);
    } else {
      ring_ = std::make_unique<SpscRing<T>>(capacity);
    }
  }

  size_t capacity() const {
    return ring_ ? ring_->capacity() : lossy_ring_->capacity();
  }

  size_t size() const { return ring_ ? ring_->size() : lossy_ring_->size(); }

  /// \brief Blocks until space is available; returns false if closed.
  /// Only valid on a channel constructed without `lossy`.
  bool Push(T item) {
    assert(ring_ != nullptr);
    return ring_->Push(std::move(item));
  }

  /// \brief Lossy push for latency-critical producers: never blocks. Only
  /// valid on a channel constructed with `lossy = true`. Returns false only
  /// when the channel is closed (the item is rejected and `*dropped` is 0).
  /// Under overload the new item always enters and the oldest queued items
  /// are evicted and counted in `*dropped`, preserving FIFO order of the
  /// survivors and the `accepted == delivered + dropped` completeness
  /// invariant.
  bool PushLossy(T item, size_t* dropped) {
    assert(lossy_ring_ != nullptr);
    *dropped = 0;
    return lossy_ring_->PushEvictOldest(std::move(item), dropped);
  }

  /// \brief Blocks until an item arrives; std::nullopt once closed+drained.
  std::optional<T> Pop() { return ring_ ? ring_->Pop() : lossy_ring_->Pop(); }

  /// \brief Blocking batch pop; 0 means closed-and-drained.
  size_t PopBatch(std::vector<T>* out, size_t max_items) {
    return ring_ ? ring_->PopBatch(out, max_items)
                 : lossy_ring_->PopBatch(out, max_items);
  }

  /// \brief Marks end-of-stream; wakes all waiters.
  void Close() {
    if (ring_) {
      ring_->Close();
    } else {
      lossy_ring_->Close();
    }
  }

  bool closed() const {
    return ring_ ? ring_->closed() : lossy_ring_->closed();
  }

  /// \brief Snapshot of the hop counters (safe while both sides run).
  QueueHopStats stats() const {
    return ring_ ? ring_->stats() : lossy_ring_->stats();
  }

 private:
  std::unique_ptr<SpscRing<T>> ring_;
  std::unique_ptr<SpscLossyRing<T>> lossy_ring_;
};

}  // namespace marlin

#endif  // MARLIN_STREAM_CHANNEL_H_
