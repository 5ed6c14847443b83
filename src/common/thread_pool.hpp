#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace reconf {

/// Runs `body(i)` for every i in [0, n) using up to `threads` worker threads
/// (0 selects the hardware concurrency). Iterations are distributed in
/// contiguous blocks; `body` must be safe to call concurrently for distinct
/// indices.
///
/// Determinism contract: callers must derive any randomness from the index
/// (not from thread identity), so results are identical for any thread count
/// — the idiom used throughout the experiment harness.
///
/// Exceptions thrown by `body` are captured and the first one is rethrown on
/// the calling thread after all workers join.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  unsigned threads = 0);

/// Number of worker threads `parallel_for` would use for `requested`.
[[nodiscard]] unsigned effective_threads(unsigned requested) noexcept;

/// A persistent worker pool for request-serving workloads where the per-call
/// thread spawn of `parallel_for` would dominate: threads are started once
/// and reused across every `parallel_for` call.
///
/// The same determinism contract applies to `parallel_for`: derive all
/// randomness from the index, never from thread identity or completion
/// order, and results are identical for any pool size.
class ThreadPool {
 public:
  /// Starts `threads` workers (0 selects the hardware concurrency).
  explicit ThreadPool(unsigned threads = 0);

  /// Drains nothing: outstanding jobs are finished, queued jobs still run,
  /// then workers join.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned thread_count() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Block-scheduled index loop on the persistent workers; same semantics as
  /// the free `parallel_for` (first exception rethrown on the caller) but
  /// without spawning threads. The calling thread participates, so the loop
  /// makes progress even while the workers are busy with other jobs.
  ///
  /// Must not be called from inside a pool job: the caller waits for its
  /// helper jobs to be dequeued, which can deadlock when the caller occupies
  /// the only worker.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);

 private:
  void enqueue(std::function<void()> job);
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

}  // namespace reconf
