#ifndef ROTOM_UTIL_PREFETCHER_H_
#define ROTOM_UTIL_PREFETCHER_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace rotom {

/// Bounded single-producer/single-consumer pipeline that materializes work
/// items ahead of the consumer: while the trainer runs step t on the main
/// thread (and fans kernel work out over the compute pool), the producer
/// thread builds batch t+1 in the background (SOTASTREAM-style decoupling of
/// data generation from the training step).
///
/// Items are delivered strictly in production order, and producers must be
/// deterministic functions of their own state (per-example RNG streams split
/// from the epoch seed — never a shared sequential Rng), so the consumer
/// sees the exact item sequence the serial path would compute. The queue
/// holds kDepth = 2 items: classic double buffering.
///
/// With `enabled = false` the producer runs inline inside Next() on the
/// caller's thread — same code, no thread — which is both the fallback for
/// single-threaded configs and the reference path the determinism test
/// compares against. Because items are identical either way, the prefetcher
/// also falls back to inline production when the compute pool is configured
/// with a single thread (the serial configuration: a producer thread could
/// only timeslice against the consumer — pure context-switch overhead, no
/// overlap). Asking for more threads than the hardware has
/// (ROTOM_NUM_THREADS=4 on a 1-core host) keeps the producer thread: that
/// is how the sanitizer sweep and the determinism tests exercise it.
///
/// Thread-safety: Next() must be called from a single consumer thread; the
/// producer callback runs on at most one background thread. The Prefetcher
/// object itself must not be shared across consumers. Ownership: the
/// destructor cancels and joins the producer, so captured references in
/// `producer` must outlive the Prefetcher (stack order in the trainers).
///
/// Determinism: items are delivered strictly in index order and the
/// producer draws no shared randomness, so enabling/disabling prefetch never
/// changes the item sequence — only timing. The
/// observability counters below (produced/blocked/starved; see
/// OBSERVABILITY.md) are timing diagnostics and do not feed back into
/// production order.
template <typename T>
class Prefetcher {
 public:
  /// `producer(i)` must return the i-th item (i counts from 0) and is called
  /// exactly `total` times. When `enabled`, calls happen on a background
  /// thread; the producer must not touch consumer-side state.
  Prefetcher(std::function<T(size_t)> producer, size_t total, bool enabled)
      : producer_(std::move(producer)),
        total_(total),
        enabled_(enabled && total > 0 && ComputeThreads() > 1) {
    if (enabled_) worker_ = std::thread([this] { Run(); });
  }

  ~Prefetcher() {
    if (enabled_) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        cancelled_ = true;
      }
      space_cv_.notify_all();
      worker_.join();
    }
  }

  Prefetcher(const Prefetcher&) = delete;
  Prefetcher& operator=(const Prefetcher&) = delete;

  /// Returns the next item in order, or nullopt once all `total` items have
  /// been consumed. Blocks until the background thread has produced it (or
  /// produces inline when disabled).
  std::optional<T> Next() {
    if (consumed_ >= total_) return std::nullopt;
    if (!enabled_) {
      static obs::Counter& produced_inline =
          obs::GetCounter("prefetcher.produced_inline");
      produced_inline.Add(1);
      return producer_(consumed_++);
    }
    std::unique_lock<std::mutex> lock(mu_);
    if (queue_.empty()) {
      // Starvation: the consumer outran the producer and has to stall.
      static obs::Counter& consumer_blocked =
          obs::GetCounter("prefetcher.consumer_blocked");
      consumer_blocked.Add(1);
    }
    item_cv_.wait(lock, [this] { return !queue_.empty(); });
    T item = std::move(queue_.front());
    queue_.pop_front();
    ++consumed_;
    lock.unlock();
    space_cv_.notify_one();
    return item;
  }

 private:
  void Run() {
    for (size_t i = 0; i < total_; ++i) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (!cancelled_ && queue_.size() >= kDepth) {
          // Backpressure: the queue is full and the producer has to stall.
          static obs::Counter& producer_blocked =
              obs::GetCounter("prefetcher.producer_blocked");
          producer_blocked.Add(1);
        }
        space_cv_.wait(lock,
                       [this] { return cancelled_ || queue_.size() < kDepth; });
        if (cancelled_) return;
      }
      // Produce outside the lock so the consumer can drain concurrently.
      T item = producer_(i);
      static obs::Counter& produced = obs::GetCounter("prefetcher.produced");
      produced.Add(1);
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (cancelled_) return;
        queue_.push_back(std::move(item));
      }
      item_cv_.notify_one();
    }
  }

  static constexpr size_t kDepth = 2;  // items produced ahead of the consumer

  std::function<T(size_t)> producer_;
  const size_t total_;
  const bool enabled_;
  size_t consumed_ = 0;

  std::mutex mu_;
  std::condition_variable item_cv_;
  std::condition_variable space_cv_;
  std::deque<T> queue_;
  bool cancelled_ = false;
  std::thread worker_;
};

}  // namespace rotom

#endif  // ROTOM_UTIL_PREFETCHER_H_
