#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace reconf {

/// Snapshot of one ThreadPool's work accounting (see ThreadPool::stats).
struct PoolStats {
  std::uint64_t jobs_submitted = 0;   ///< enqueue() calls so far
  std::uint64_t jobs_executed = 0;    ///< jobs completed by workers
  std::uint64_t busy_ns = 0;          ///< worker time inside jobs; only
                                      ///< accumulated while obs::enabled()
  std::size_t queue_depth = 0;        ///< jobs waiting right now
  std::size_t max_queue_depth = 0;    ///< high-water mark since construction

  /// Fraction of `threads` worker capacity spent inside jobs over
  /// `elapsed_seconds` of wall time. Meaningful only when busy_ns was
  /// accumulated (obs enabled for the whole window).
  [[nodiscard]] double utilization(double elapsed_seconds,
                                   unsigned threads) const noexcept {
    const double capacity = elapsed_seconds * 1e9 * threads;
    return capacity <= 0.0 ? 0.0 : static_cast<double>(busy_ns) / capacity;
  }
};

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
/// and reused across every `submit`/`parallel_for` call.
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

  /// Schedules `fn` on the pool and returns a future for its result.
  template <typename F>
  [[nodiscard]] auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    enqueue([task] { (*task)(); });
    return result;
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

  /// Work accounting since construction: submitted/executed job counts,
  /// current and high-water queue depth, and (while obs::enabled()) the
  /// summed wall time workers spent inside jobs — the utilization input.
  /// A racy snapshot, safe to call concurrently with submits.
  [[nodiscard]] PoolStats stats() const;

 private:
  void enqueue(std::function<void()> job);
  void worker_loop();

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
  std::uint64_t jobs_submitted_ = 0;   ///< guarded by mutex_
  std::size_t max_queue_depth_ = 0;    ///< guarded by mutex_
  std::atomic<std::uint64_t> jobs_executed_{0};
  std::atomic<std::uint64_t> busy_ns_{0};
};

}  // namespace reconf
