// Bounded single-producer / single-consumer queue (Lamport ring buffer
// with cached indices), the ingress channel between the Session's
// routing thread and each shard worker.
//
// Design notes:
//   * Exactly one producer thread may call try_push and exactly one
//     consumer thread may call try_pop; the two indices are only ever
//     written by their owning side, so a store-release / load-acquire
//     pair per operation is sufficient — no CAS, no locks.
//   * Each side keeps a CACHED copy of the other side's index and only
//     re-reads the shared atomic when the cached value says the queue
//     looks full (producer) or empty (consumer). On the fast path an
//     operation touches one shared cache line instead of two.
//   * Capacity is rounded up to a power of two so wrap-around is a mask,
//     and one slot is intentionally never used (full at capacity-1) to
//     distinguish full from empty without a separate counter.
//   * try_push/try_pop never block: the sharded runner decides the
//     backpressure policy (it yields and retries, keeping arrival order
//     intact rather than dropping).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "common/contracts.hpp"

namespace oosp {

template <typename T>
class SpscQueue {
 public:
  explicit SpscQueue(std::size_t min_capacity) {
    OOSP_REQUIRE(min_capacity >= 2, "SpscQueue capacity must be >= 2");
    std::size_t cap = 1;
    while (cap < min_capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  // Producer side. Returns false when the ring is full (caller retries).
  bool try_push(T&& v) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t next = (tail + 1) & mask_;
    if (next == head_cache_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (next == head_cache_) return false;
    }
    slots_[tail] = std::move(v);
    tail_.store(next, std::memory_order_release);
    return true;
  }

  // Producer side: free slots, counted from the cached consumer index —
  // the shared one is re-read (acquire) only when the cache shows fewer
  // than `want`. Never more than the true free count, and only the
  // producer fills slots, so a following try_push_n of at most this many
  // elements moves them all.
  std::size_t room(std::size_t want) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t free_slots = mask_ - ((tail - head_cache_) & mask_);
    if (free_slots < want) {
      head_cache_ = head_.load(std::memory_order_acquire);
      free_slots = mask_ - ((tail - head_cache_) & mask_);
    }
    return free_slots;
  }

  // Producer side, bulk: moves as many leading elements of src into the
  // ring as fit right now and returns that count (0 when full). One
  // acquire (at most) and one release for the whole transaction, so a
  // batch of n amortizes the shared-cache-line traffic n ways.
  std::size_t try_push_n(std::span<T> src) {
    const std::size_t n = std::min(src.size(), room(src.size()));
    if (n == 0) return 0;
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < n; ++i) {
      slots_[(tail + i) & mask_] = std::move(src[i]);
    }
    tail_.store((tail + n) & mask_, std::memory_order_release);
    return n;
  }

  // Consumer side. Returns false when the ring is empty.
  bool try_pop(T& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;
    }
    out = std::move(slots_[head]);
    head_.store((head + 1) & mask_, std::memory_order_release);
    return true;
  }

  // Consumer side, bulk: moves up to max elements into out and returns
  // the count (0 when empty). Symmetric with try_push_n.
  std::size_t try_pop_n(T* out, std::size_t max) {
    if (max == 0) return 0;
    const std::size_t head = head_.load(std::memory_order_relaxed);
    std::size_t avail = (tail_cache_ - head) & mask_;
    if (avail < max) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      avail = (tail_cache_ - head) & mask_;
      if (avail == 0) return 0;
    }
    const std::size_t n = std::min(max, avail);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = std::move(slots_[(head + i) & mask_]);
    }
    head_.store((head + n) & mask_, std::memory_order_release);
    return n;
  }

  // Usable from either side (approximate under concurrency; exact once
  // the other side has quiesced).
  bool empty() const noexcept {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

  std::size_t capacity() const noexcept { return mask_; }  // usable slots

  // Occupancy snapshot for observability gauges. Approximate under
  // concurrency (the two indices are read at different instants) but
  // always within [0, capacity()]; exact once the other side quiesces.
  std::size_t size_approx() const noexcept {
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    return (tail - head) & mask_;
  }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 0;

  static constexpr std::size_t kCacheLine = 64;
  // Owned by the consumer; read-acquired by the producer on apparent full.
  alignas(kCacheLine) std::atomic<std::size_t> head_{0};
  // Owned by the producer; read-acquired by the consumer on apparent empty.
  alignas(kCacheLine) std::atomic<std::size_t> tail_{0};
  // Producer-local mirror of head_ / consumer-local mirror of tail_.
  alignas(kCacheLine) std::size_t head_cache_ = 0;
  alignas(kCacheLine) std::size_t tail_cache_ = 0;
};

}  // namespace oosp
