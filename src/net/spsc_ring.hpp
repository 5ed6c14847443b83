#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <utility>

namespace reconf::net {

/// Bounded single-producer single-consumer ring queue — the only channel
/// between an I/O thread and a shard worker in the async serving tier. One
/// designated producer thread calls try_push, one designated consumer
/// thread calls try_pop; under that contract the fast path is two relaxed
/// loads, one acquire load and one release store per operation — no locks,
/// no CAS, no contention beyond the unavoidable cache-line handoff.
///
/// The ring holds exactly `capacity` values (its storage is rounded up to a
/// power of two for masking). A full ring fails the push (the caller
/// decides: shed the request or flow-control the connection); an empty
/// ring fails the pop (the caller parks — see Parker below).
///
/// Slot storage is allocated uninitialized: a value is constructed on push
/// and destroyed on pop, so a ring costs no page touches until it carries
/// traffic — a server with a deep ring per (io, shard) pair starts as fast
/// as one with shallow rings.
template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity)
      : capacity_(std::max<std::size_t>(1, capacity)) {
    std::size_t slots = 1;
    while (slots < capacity_) slots <<= 1;
    slots_ = std::allocator<T>().allocate(slots);
    mask_ = slots - 1;
  }

  ~SpscRing() {
    for (std::size_t i = head_.load(); i != tail_.load(); ++i) {
      std::destroy_at(&slots_[i & mask_]);
    }
    std::allocator<T>().deallocate(slots_, mask_ + 1);
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer thread only. A full ring leaves `value` untouched.
  [[nodiscard]] bool try_push(T&& value) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ >= capacity_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ >= capacity_) return false;  // full
    }
    std::construct_at(&slots_[tail & mask_], std::move(value));
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer thread only.
  [[nodiscard]] bool try_pop(T& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;  // empty
    }
    T& slot = slots_[head & mask_];
    out = std::move(slot);
    std::destroy_at(&slot);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Any thread; racy snapshot.
  [[nodiscard]] bool empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

  /// Any thread; racy snapshot.
  [[nodiscard]] std::size_t size() const {
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    return tail - head;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  std::size_t capacity_;
  T* slots_ = nullptr;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> head_{0};  ///< consumer cursor
  alignas(64) std::atomic<std::size_t> tail_{0};  ///< producer cursor
  alignas(64) std::size_t head_cache_ = 0;  ///< producer's view of head_
  alignas(64) std::size_t tail_cache_ = 0;  ///< consumer's view of tail_
};

/// Sleep/wake handshake for a ring consumer. The consumer spins briefly,
/// then publishes `parked`, re-checks for work (closing the race with a
/// producer that pushed before seeing the flag), and sleeps; producers call
/// notify() after pushing. The bounded wait_for makes any residual missed
/// wakeup self-healing instead of a hang — this is a latency backstop, not
/// a correctness crutch: the flag protocol above already covers the
/// ordinary interleavings.
class Parker {
 public:
  void notify() {
    if (parked_.load(std::memory_order_seq_cst)) {
      const std::lock_guard<std::mutex> lock(mutex_);
      cv_.notify_one();
    }
  }

  /// `has_work` must return true when the consumer should run (work queued
  /// or shutdown requested). Returns when it does, or after a bounded nap.
  template <typename Pred>
  void park(const Pred& has_work) {
    parked_.store(true, std::memory_order_seq_cst);
    if (has_work()) {
      parked_.store(false, std::memory_order_seq_cst);
      return;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_for(lock, std::chrono::milliseconds(10),
                 [&] { return has_work(); });
    parked_.store(false, std::memory_order_seq_cst);
  }

 private:
  std::atomic<bool> parked_{false};
  std::mutex mutex_;
  std::condition_variable cv_;
};

}  // namespace reconf::net
