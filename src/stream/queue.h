#ifndef MARLIN_STREAM_QUEUE_H_
#define MARLIN_STREAM_QUEUE_H_

/// \file queue.h
/// \brief Bounded blocking MPMC queue — the backpressure boundary between
/// pipeline stages (paper §2.1: in-situ processing must be communication
/// efficient; a bounded queue is where that pressure becomes visible).
///
/// The single-producer pipeline hops run on lock-free rings
/// (stream/channel.h); this queue serves the one many-producer,
/// many-consumer hop (query fan-out, core/query_engine.h) and is the
/// reference the rings are tested against.
///
/// Condition variables are always notified *after* the mutex is released:
/// notifying under the lock makes the woken thread immediately block on
/// the very mutex the notifier still holds (hurry-up-and-wait), adding a
/// futex round-trip per hand-off on contended hops.

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

namespace marlin {

/// \brief Thread-safe bounded queue with blocking push/pop and close().
///
/// After Close(), pushes are rejected and pops drain the remaining items
/// then return std::nullopt — the conventional end-of-stream protocol.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// \brief Blocks until space is available; returns false if closed.
  /// `*depth_after` (when non-null) receives the queue size after the push
  /// and `*blocked` whether the producer had to wait — the hop
  /// instrumentation reads both without a second lock acquisition.
  bool Push(T item, size_t* depth_after = nullptr, bool* blocked = nullptr) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (blocked != nullptr) {
        *blocked = items_.size() >= capacity_ && !closed_;
      }
      not_full_.wait(lock,
                     [this] { return items_.size() < capacity_ || closed_; });
      if (closed_) return false;
      items_.push_back(std::move(item));
      if (depth_after != nullptr) *depth_after = items_.size();
    }
    not_empty_.notify_one();
    return true;
  }

  /// \brief Non-blocking push; returns false when full or closed.
  bool TryPush(T item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// \brief Lossy push for latency-critical producers: never blocks. When
  /// the queue is full the oldest queued item is evicted to make room — the
  /// backpressure policy of side-stages that must not stall the hot path.
  /// `*evicted` receives the number of items discarded (0 or 1);
  /// `*depth_after`, when non-null, the queue size after the push (saves
  /// the producer a separate size() lock when tracking high-water marks).
  /// Returns false only when the queue is closed (the item is rejected,
  /// nothing is evicted).
  bool PushEvictOldest(T item, size_t* evicted, size_t* depth_after = nullptr) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      *evicted = 0;
      if (closed_) return false;
      // The emptiness check makes capacity 0 safe (degenerates to a
      // size-1 always-evict slot rather than popping an empty deque).
      while (!items_.empty() && items_.size() >= capacity_) {
        items_.pop_front();
        ++*evicted;
      }
      items_.push_back(std::move(item));
      if (depth_after != nullptr) *depth_after = items_.size();
    }
    not_empty_.notify_one();
    return true;
  }

  /// \brief Blocks until an item arrives; std::nullopt once closed & drained.
  std::optional<T> Pop() {
    std::optional<T> item;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      not_empty_.wait(lock, [this] { return !items_.empty() || closed_; });
      if (items_.empty()) return std::nullopt;
      item = std::move(items_.front());
      items_.pop_front();
    }
    not_full_.notify_one();
    return item;
  }

  /// \brief Blocking batch pop: waits for at least one item (or close),
  /// then drains up to `max_items` in one lock acquisition. Returns the
  /// number of items appended to `out`; 0 means closed-and-drained.
  size_t PopBatch(std::vector<T>* out, size_t max_items) {
    size_t n = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      not_empty_.wait(lock, [this] { return !items_.empty() || closed_; });
      out->reserve(out->size() + std::min(items_.size(), max_items));
      while (!items_.empty() && n < max_items) {
        out->push_back(std::move(items_.front()));
        items_.pop_front();
        ++n;
      }
    }
    if (n > 0) not_full_.notify_all();
    return n;
  }

  /// \brief Non-blocking pop.
  std::optional<T> TryPop() {
    std::optional<T> item;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (items_.empty()) return std::nullopt;
      item = std::move(items_.front());
      items_.pop_front();
    }
    not_full_.notify_one();
    return item;
  }

  /// \brief Marks end-of-stream; wakes all waiters.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace marlin

#endif  // MARLIN_STREAM_QUEUE_H_
