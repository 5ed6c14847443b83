#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "svc/batch.hpp"
#include "svc/shard_cache.hpp"
#include "svc/verdict_cache.hpp"

namespace reconf::net {

/// Configuration of the serving core (reconf_serve, over stdio or TCP).
struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;     ///< 0 = ephemeral (tests); port() reports it
  unsigned io_threads = 1;    ///< epoll/poll reader loops (parse + frame)
  unsigned shards = 0;        ///< shard workers; 0 = hardware concurrency
  std::size_t cache_capacity = 65536;  ///< split across shards; 0 disables
  /// Parsed requests one io thread may have queued toward the shard
  /// workers, split evenly across its shard rings (max(1, max_queue /
  /// shards) each).
  std::size_t max_queue = 4096;
  bool shed_on_overload = false;  ///< full ring: shed (true) or flow-control
                                  ///< the connection (false)
  long long request_timeout_ms = 0;  ///< 0 = no per-request deadline
  bool pin_cores = false;   ///< pin shard workers to cores (Linux only)
  svc::BatchOptions options;  ///< pipeline analysis configuration
};

/// Monotonic serving totals (reconf_serve's --stats line).
struct ServerTotals {
  std::uint64_t connections = 0;
  std::uint64_t served = 0;    ///< responses emitted (verdict/error/shed/stats)
  std::uint64_t accepted = 0;  ///< schedulable verdicts
  std::uint64_t errors = 0;
  std::uint64_t sheds = 0;
};

/// Multi-core NDJSON admission-control server — the one serving core
/// behind both of reconf_serve's transports: TCP connections (start) and a
/// pre-adopted byte stream such as stdin/stdout (start_stream).
///
/// Architecture (one box per thread):
///
///   accept ─▶ [ io thread 0..I )  level-triggered epoll (poll fallback)
///   stream ─▶  frame NDJSON lines (1 MiB cap), parse, resolve the lineup
///              (one svc::EngineTable per io thread), cache-key route
///                 │  SPSC ring per (io, shard): request + its engine
///                 ▼
///            [ shard worker 0..S )  consistent-hash owner of its key range
///              private contention-free ShardCache; no engine of its own
///                 │  SPSC ring per (shard, io): responses
///                 ▼
///            [ io thread ]  per-connection in-order reassembly (seq),
///              write buffers with partial-write handling
///
/// Requests are routed by jump-consistent-hash of the verdict-cache key
/// (svc::verdict_cache_key: canonical taskset hash mixed with the resolved
/// engine's fingerprint), so one shard owns every duplicate of a (taskset,
/// lineup) pair, however the lineup is spelled: its cache partition needs
/// no locks, hit/miss patterns are deterministic per key, and snapshot
/// restore — which places stored entries by the same key — always lands a
/// verdict on the shard its future duplicates route to.
/// Responses carry (connection, seq) and are re-ordered per
/// connection before writing — the wire contract (responses in request
/// order) survives out-of-order shard completion. Stats requests are
/// answered by the io thread at emission time, after everything ahead of
/// them on their connection.
class AsyncServer {
 public:
  explicit AsyncServer(ServerConfig config);
  ~AsyncServer();

  AsyncServer(const AsyncServer&) = delete;
  AsyncServer& operator=(const AsyncServer&) = delete;

  /// Binds the TCP listener and spawns the io threads and shard workers.
  /// Returns false with `error` set on bind failure.
  bool start(std::string* error);

  /// Serves one pre-adopted byte stream — `in_fd` read, `out_fd` written
  /// (reconf_serve: stdin and stdout) — as a connection of io thread 0,
  /// with no listener. Pipes, sockets, terminals, regular files and
  /// /dev/null all work. Both fds are made nonblocking; wait() gives them
  /// back their original file-status flags. The caller keeps ownership of
  /// the fds. The server stops by itself once the stream is done: input at
  /// EOF and every answer written, or the output closed by its reader.
  bool start_stream(int in_fd, int out_fd, std::string* error);

  /// The bound port (after start(); useful with config.port = 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Requests a graceful drain: stop accepting and reading, answer
  /// everything already parsed, flush, then stop. Async-signal-safe (one
  /// lock-free atomic store); the io threads observe it within one poll
  /// tick.
  void request_stop() noexcept;

  /// Blocks until the server has stopped — request_stop(), a finished
  /// stream, or a fatal accept error — and drained, and every thread has
  /// joined.
  void wait();

  /// request_stop() + wait(). Safe to call more than once; implied by the
  /// destructor.
  void stop();

  [[nodiscard]] ServerTotals totals() const;

  /// Per-shard cache statistics, shard-index order (live; racy snapshot).
  [[nodiscard]] std::vector<svc::CacheStats> shard_cache_stats() const;

  /// Aggregate over shard_cache_stats().
  [[nodiscard]] svc::CacheStats cache_stats() const;

  /// Poller backend of the io threads ("epoll"/"poll").
  [[nodiscard]] const char* backend() const noexcept;

  /// CPU ids the shard workers are pinned to (-1 = unpinned), shard order.
  [[nodiscard]] std::vector<int> pinned_cpus() const;

  /// Warm-restores the per-shard caches from a v1 snapshot file, routing
  /// every key into the CURRENT shard count regardless of the writer's
  /// topology. Call before start()/start_stream(). Missing file = cold
  /// start (returns true, 0 restored); a malformed file is refused.
  bool load_cache_snapshot(const std::string& path, std::size_t* restored,
                           std::string* error);

  /// Writes the merged per-shard caches as a v1 snapshot. Call after
  /// wait() or stop() (workers quiesced).
  bool save_cache_snapshot(const std::string& path, std::string* error);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::uint16_t port_ = 0;
};

}  // namespace reconf::net
