#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

#include "common/contracts.hpp"

namespace reconf {

namespace {

/// Shared state of one index loop: dynamic chunk claiming plus first-error
/// capture. Used by both the one-shot `parallel_for` and the persistent
/// ThreadPool so the scheduling and error semantics cannot drift apart.
///
/// Early exit on failure reads the atomic `failed` flag (the exception_ptr
/// itself is only touched under the mutex — reading a non-atomic
/// exception_ptr concurrently with the store would be a data race).
struct LoopControl {
  LoopControl(std::size_t total, std::size_t participants) : n(total) {
    chunk = std::max<std::size_t>(1, n / (participants * 8));
  }

  /// Claims chunks and runs `body` until the index space is drained or a
  /// participant failed. Safe to call from any number of threads.
  void drain(const std::function<void(std::size_t)>& body) {
    for (;;) {
      const std::size_t begin = next.fetch_add(chunk);
      if (begin >= n) return;
      const std::size_t end = std::min(n, begin + chunk);
      for (std::size_t i = begin; i < end; ++i) {
        if (failed.load(std::memory_order_relaxed)) return;  // best effort
        try {
          body(i);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
          return;
        }
      }
    }
  }

  void rethrow_if_failed() {
    if (failed.load()) std::rethrow_exception(first_error);
  }

  std::atomic<std::size_t> next{0};
  std::size_t n;
  std::size_t chunk;
  std::mutex error_mutex;
  std::exception_ptr first_error;
  std::atomic<bool> failed{false};
};

}  // namespace

unsigned effective_threads(unsigned requested) noexcept {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : hw;
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  unsigned threads) {
  RECONF_EXPECTS(static_cast<bool>(body));
  if (n == 0) return;

  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(effective_threads(threads), n));
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  // Dynamic chunked scheduling: cheap enough for coarse tasks, and it keeps
  // workers busy when per-index cost is skewed (simulation near the
  // schedulability cliff is far slower than far from it).
  LoopControl loop(n, workers);
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned t = 0; t < workers; ++t) {
    pool.emplace_back([&] { loop.drain(body); });
  }
  for (auto& t : pool) t.join();
  loop.rethrow_if_failed();
}

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned n = effective_threads(threads);
  workers_.reserve(n);
  for (unsigned t = 0; t < n; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::enqueue(std::function<void()> job) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    RECONF_EXPECTS(!stopping_);
    queue_.push_back(std::move(job));
  }
  wake_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  RECONF_EXPECTS(static_cast<bool>(body));
  if (n == 0) return;

  // The caller participates alongside the pool workers, so the loop makes
  // progress even while the workers are busy with other jobs. The loop
  // state lives on this frame: the caller only returns after every helper
  // job has finished, so the references the helpers hold stay valid. The
  // helper counter is read AND written only under done_mutex — the caller's
  // predicate must not be able to observe zero (and destroy this frame)
  // while a helper still has the notify ahead of it.
  LoopControl loop(n, thread_count() + 1);
  std::mutex done_mutex;
  std::condition_variable done;
  unsigned active_helpers = 0;  // guarded by done_mutex

  // One helper job per worker, capped by the number of chunks; helpers that
  // arrive after the index space is drained exit immediately.
  const unsigned helpers = static_cast<unsigned>(std::min<std::size_t>(
      thread_count(), (n + loop.chunk - 1) / loop.chunk));
  active_helpers = helpers;
  for (unsigned h = 0; h < helpers; ++h) {
    enqueue([&] {
      loop.drain(body);
      {
        const std::lock_guard<std::mutex> lock(done_mutex);
        --active_helpers;
        if (active_helpers == 0) done.notify_all();
      }
    });
  }

  loop.drain(body);
  {
    std::unique_lock<std::mutex> lock(done_mutex);
    done.wait(lock, [&] { return active_helpers == 0; });
  }
  loop.rethrow_if_failed();
}

}  // namespace reconf
