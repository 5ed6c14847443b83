#include "net/server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "analysis/engine.hpp"
#include "common/contracts.hpp"
#include "net/poller.hpp"
#include "net/spsc_ring.hpp"
#include "obs/metrics.hpp"
#include "svc/codec.hpp"
#include "svc/shard_route.hpp"
#include "svc/stats_surface.hpp"

namespace reconf::net {

namespace {

/// Poller tags. Connection ids start above the specials.
constexpr std::uint64_t kListenTag = 0;
constexpr std::uint64_t kWakeTag = 1;
constexpr std::uint64_t kFirstConnId = 2;

constexpr std::size_t kReadChunk = 64 * 1024;

/// Per-connection write buffer cap before reads pause (flow control).
constexpr std::size_t kMaxOutbuf = 4u << 20;

/// Longest an io thread sleeps in its poller before re-checking the stop
/// flag (and re-arming a listener paused on a full fd table).
constexpr int kPollTimeoutMs = 10;

/// One parsed request in flight from an io thread to its shard owner, with
/// the engine its io thread resolved for its lineup.
struct RequestMsg {
  std::uint64_t conn = 0;
  std::uint64_t seq = 0;
  const analysis::AnalysisEngine* engine = nullptr;
  svc::BatchRequest request;
};

/// One formatted response line on its way back to the owning io thread.
struct ResponseMsg {
  std::uint64_t conn = 0;
  std::uint64_t seq = 0;
  std::string text;
};

/// Coalescing self-pipe: shard workers (and the acceptor handing off a new
/// connection) wake an io thread parked in poll/epoll. The atomic pending
/// flag keeps a burst of notifications down to one pipe write.
struct WakePipe {
  int fds[2] = {-1, -1};
  std::atomic<bool> pending{false};

  bool open() {
    if (::pipe(fds) != 0) return false;
    return set_nonblocking(fds[0]) && set_nonblocking(fds[1]);
  }

  void close_fds() {
    for (int& fd : fds) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
  }

  void notify() {
    if (pending.exchange(true, std::memory_order_seq_cst)) return;
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(fds[1], &byte, 1);
  }

  void drain() {
    pending.store(false, std::memory_order_seq_cst);
    char buf[64];
    while (::read(fds[0], buf, sizeof buf) > 0) {
    }
  }
};

/// A queued response waiting for its turn in the connection's emit order.
/// Stats requests are materialized at emission time — the snapshot then
/// reflects every request answered before it on that connection.
struct PendingOut {
  bool is_stats = false;
  std::string text;  ///< formatted line, or the request id when is_stats
};

/// Per-connection state, owned by exactly one io thread. A TCP connection
/// reads and writes one socket; a stream (start_stream) reads `fd` and
/// writes `out_fd`.
struct Conn {
  int fd = -1;
  int out_fd = -1;
  std::uint64_t id = 0;
  /// Stream only: `fd` is registered with the poller (while reading is
  /// wanted).
  bool in_watched = true;
  svc::StreamFramer framer;
  std::uint64_t next_seq = 0;   ///< seq for the next parsed line
  std::uint64_t next_emit = 0;  ///< seq the next emitted response must have
  std::uint64_t inflight = 0;   ///< pushed to a shard, not yet answered
  std::map<std::uint64_t, PendingOut> done;  ///< arrived/local, not emitted
  std::string outbuf;
  std::size_t out_off = 0;
  bool want_write = false;
  bool read_closed = false;  ///< peer EOF seen
  bool eof_flushed = false;  ///< framer.finish() already ran
  bool paused = false;       ///< read interest dropped (flow control)
  /// Block-mode overload: a parsed request that found its shard ring full.
  /// Reading is paused until it fits (or the drain sheds it).
  std::unique_ptr<RequestMsg> blocked;
  std::uint32_t blocked_shard = 0;

  [[nodiscard]] bool stream() const noexcept { return fd != out_fd; }
};

}  // namespace

struct AsyncServer::Impl {
  ServerConfig config;
  unsigned io_count = 1;
  unsigned shard_count = 1;

  int listen_fd = -1;
  std::atomic<bool> stop{false};
  /// io threads that have observed stop and will never push again. Shard
  /// workers exit only when this reaches io_count AND their rings are empty
  /// — the release/acquire pair makes "saw all-stopped then saw empty" a
  /// proof that no request can still be in flight toward the worker.
  std::atomic<unsigned> io_stopped{0};
  std::atomic<bool> accept_failed{false};

  /// rings[io][shard]: requests. back[shard][io]: responses.
  std::vector<std::vector<std::unique_ptr<SpscRing<RequestMsg>>>> requests;
  std::vector<std::vector<std::unique_ptr<SpscRing<ResponseMsg>>>> responses;
  std::vector<std::unique_ptr<Parker>> shard_parkers;
  /// kicks[io][shard]: io thread `io` pushed to `shard` since its last
  /// kick_shards(). Each vector is touched by its own io thread only.
  std::vector<std::vector<char>> kicks;
  std::vector<std::unique_ptr<WakePipe>> wakes;  ///< one per io thread

  std::vector<std::unique_ptr<svc::ShardCache>> caches;
  std::vector<std::atomic<int>> pinned;  ///< cpu id per shard, -1 = none

  /// New connections handed to their owner io thread as (in, out) fds:
  /// sockets accepted by io thread 0 (in == out) and the stream.
  struct Inbox {
    std::mutex mutex;
    std::vector<std::pair<int, int>> fds;
  };
  std::vector<std::unique_ptr<Inbox>> inboxes;

  /// The stream's fds and their file-status flags before start_stream.
  std::vector<std::pair<int, int>> stream_flags;

  std::vector<std::thread> io_threads;
  std::vector<std::thread> shard_threads;
  std::atomic<const char*> backend_name{"poll"};

  // Serving totals (relaxed: monotonic counters, no ordering needed).
  std::atomic<std::uint64_t> connections{0};
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> sheds{0};

  std::atomic<std::uint64_t> next_conn_id{kFirstConnId};

  bool stopped_joined = false;

  // ----------------------------------------------------------- routing ----

  /// One engine table per io thread, each touched only by its own thread.
  /// Shard workers evaluate against the engines it hands out: an engine is
  /// immutable, and its counters are process-wide per analyzer id.
  std::vector<std::unique_ptr<svc::EngineTable>> engines;

  /// Consistent-hash of the verdict-cache key itself — the key
  /// evaluate_with_engine will look up. Using the cache key as the routing
  /// key makes placement a single function shared with snapshot restore
  /// (load_shard_snapshot routes stored entries by this same key), so a
  /// warm-restored verdict always lands on the shard its future duplicates
  /// are routed to. Duplicates of a (taskset, lineup) pair land on one
  /// shard, whose private cache partition is the only place that verdict
  /// can live.
  [[nodiscard]] std::uint32_t route(
      const svc::BatchRequest& request,
      const analysis::AnalysisEngine& engine) const {
    return svc::shard_for_key(
        svc::verdict_cache_key(request.taskset, request.device, engine),
        shard_count);
  }

  // ------------------------------------------------------ shard workers ----

  void shard_main(std::uint32_t shard) {
    svc::ShardCache* cache =
        caches[shard]->enabled() ? caches[shard].get() : nullptr;
    Parker& parker = *shard_parkers[shard];
    RequestMsg msg;
    for (;;) {
      bool did_work = false;
      for (unsigned io = 0; io < io_count; ++io) {
        SpscRing<RequestMsg>& in = *requests[io][shard];
        SpscRing<ResponseMsg>& out = *responses[shard][io];
        bool answered = false;
        while (in.try_pop(msg)) {
          answered = true;
          ResponseMsg reply;
          reply.conn = msg.conn;
          reply.seq = msg.seq;
          reply.text = answer(msg, cache);
          // The response ring can only be full when the io thread is busy;
          // it drains every tick, so yielding (never dropping — a dropped
          // response would wedge the connection's emit order) is enough.
          while (!out.try_push(std::move(reply))) {
            wakes[io]->notify();
            std::this_thread::yield();
          }
        }
        // One wake-up per drained batch: the io thread takes every answer
        // in the ring when it runs.
        if (answered) {
          did_work = true;
          wakes[io]->notify();
        }
      }
      if (!did_work) {
        if (drained(shard)) return;
        parker.park([&] {
          if (stop.load(std::memory_order_acquire)) return true;
          for (unsigned io = 0; io < io_count; ++io) {
            if (!requests[io][shard]->empty()) return true;
          }
          return false;
        });
      }
    }
  }

  [[nodiscard]] bool drained(std::uint32_t shard) const {
    if (io_stopped.load(std::memory_order_acquire) != io_count) return false;
    for (unsigned io = 0; io < io_count; ++io) {
      if (!requests[io][shard]->empty()) return false;
    }
    return true;
  }

  std::string answer(const RequestMsg& msg, svc::ShardCache* cache) {
    const svc::BatchVerdict v =
        svc::evaluate_with_engine(*msg.engine, msg.request, cache,
                                  config.options.explain);
    if (!v.shed.empty()) {
      sheds.fetch_add(1, std::memory_order_relaxed);
      return svc::format_shed_line(v.id, v.shed);
    }
    if (!v.error.empty()) {
      errors.fetch_add(1, std::memory_order_relaxed);
      return svc::format_error_line(v.id, v.error);
    }
    if (v.accepted) accepted.fetch_add(1, std::memory_order_relaxed);
    return svc::format_verdict_line(v, &msg.request.taskset);
  }

  /// Pins shard `shard`'s just-spawned worker to core shard % cores.
  /// Called from start() on the thread's native handle, so pinned_cpus()
  /// is accurate the moment start() returns (no race with worker startup).
  void maybe_pin(std::uint32_t shard, std::thread& worker) {
#if defined(__linux__)
    if (!config.pin_cores) return;
    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    const int cpu = static_cast<int>(shard % cores);
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    if (::pthread_setaffinity_np(worker.native_handle(), sizeof set, &set) ==
        0) {
      pinned[shard].store(cpu, std::memory_order_relaxed);
    }
#else
    (void)shard;
    (void)worker;
#endif
  }

  // --------------------------------------------------------- io threads ----

  void io_main(unsigned io) {
    Poller poller;
    if (io == 0) backend_name.store(poller.backend());
    WakePipe& wake = *wakes[io];
    poller.add(wake.fds[0], kWakeTag, /*want_read=*/true,
               /*want_write=*/false);
    if (io == 0 && listen_fd >= 0) {
      poller.add(listen_fd, kListenTag, /*want_read=*/true,
                 /*want_write=*/false);
    }

    std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns;
    std::uint64_t pending = 0;  ///< pushed-to-shard, response not yet popped
    std::vector<PollEvent> events;
    std::vector<std::uint64_t> dead;
    std::vector<std::uint64_t> answered;
    bool announced_stop = false;
    // Set while the listen fd has no read interest: the fd table was full
    // (EMFILE/ENFILE), so a level-triggered poller would report the pending
    // connections again at once, and forever. They wait in the kernel
    // backlog until the listener is re-armed one poll timeout later.
    bool accept_paused = false;
    std::chrono::steady_clock::time_point accept_rearm_at;
    char buf[kReadChunk];

    obs::Counter& shed_queue = obs::MetricsRegistry::instance().counter(
        "reconf_svc_shed_total{reason=\"queue\"}");

    for (;;) {
      // Adopt handed-over connections first: the stream is in the inbox
      // before the first wait, and must not sit out a poll timeout.
      adopt_new(poller, conns, io);
      poller.wait(events, kPollTimeoutMs);
      if (accept_paused &&
          std::chrono::steady_clock::now() >= accept_rearm_at) {
        accept_paused = false;
        if (!stop.load(std::memory_order_acquire)) {
          poller.update(listen_fd, /*want_read=*/true, /*want_write=*/false);
        }
      }

      for (const PollEvent& ev : events) {
        if (ev.tag == kWakeTag) {
          wake.drain();
          continue;
        }
        if (ev.tag == kListenTag) {
          if (!stop.load(std::memory_order_acquire) && !accept_new()) {
            poller.update(listen_fd, /*want_read=*/false,
                          /*want_write=*/false);
            accept_paused = true;
            accept_rearm_at = std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(kPollTimeoutMs);
          }
          continue;
        }
        const auto it = conns.find(ev.tag);
        if (it == conns.end()) continue;  // closed earlier in this batch
        Conn& conn = *it->second;
        // An error, or a hangup of the output side (for a socket: both
        // directions shut), means the peer is gone.
        if (ev.error || (ev.hangup && ev.fd == conn.out_fd)) {
          teardown(poller, conns, conn.id);
          continue;
        }
        if (ev.writable && ev.fd == conn.out_fd) {
          if (!flush_out(poller, conn)) {
            teardown(poller, conns, conn.id);
            continue;
          }
        }
        // A hangup of a stream's input is a pipe whose writer closed: what
        // it still holds is read up to EOF like any readable input.
        if ((ev.readable || ev.hangup) && ev.fd == conn.fd && !conn.paused &&
            !conn.read_closed && !stop.load(std::memory_order_acquire)) {
          if (!read_conn(poller, conn, buf, io, pending, shed_queue)) {
            teardown(poller, conns, conn.id);
            continue;
          }
        }
        maybe_close(poller, conns, conn.id);
      }

      // Drain every shard's response ring into per-connection emit order,
      // then emit once per connection that got answers: one write per
      // tick, not one per answer.
      ResponseMsg reply;
      answered.clear();
      for (unsigned shard = 0; shard < shard_count; ++shard) {
        while (responses[shard][io]->try_pop(reply)) {
          --pending;
          const auto it = conns.find(reply.conn);
          if (it == conns.end()) continue;  // connection died meanwhile
          Conn& conn = *it->second;
          --conn.inflight;
          conn.done.emplace(reply.seq,
                            PendingOut{false, std::move(reply.text)});
          if (answered.empty() || answered.back() != conn.id) {
            answered.push_back(conn.id);
          }
        }
      }
      std::sort(answered.begin(), answered.end());
      answered.erase(std::unique(answered.begin(), answered.end()),
                     answered.end());
      for (const std::uint64_t id : answered) {
        const auto it = conns.find(id);
        if (it == conns.end()) continue;
        if (!emit_ready(poller, *it->second)) {
          teardown(poller, conns, id);
          continue;
        }
        maybe_close(poller, conns, id);
      }

      // Retry block-mode parked requests; their connections resume reading
      // once the shard ring has room again.
      dead.clear();
      for (auto& [id, conn] : conns) {
        if (conn->blocked == nullptr) continue;
        if (stop.load(std::memory_order_acquire)) {
          // Drain: a parked request will never fit (workers are exiting) —
          // answer it shed, exactly what block-mode overload means when the
          // input side is being turned off.
          local_response(
              *conn, conn->blocked->seq,
              PendingOut{false, svc::format_shed_line(
                                    conn->blocked->request.id, "queue")});
          sheds.fetch_add(1, std::memory_order_relaxed);
          shed_queue.inc();
          conn->blocked.reset();
          if (!emit_ready(poller, *conn)) dead.push_back(id);
          continue;
        }
        const std::uint32_t shard = conn->blocked_shard;
        if (requests[io][shard]->try_push(std::move(*conn->blocked))) {
          conn->blocked.reset();
          ++conn->inflight;
          ++pending;
          shard_parkers[shard]->notify();
          if (!pump_conn(poller, *conn, io, pending, shed_queue)) {
            dead.push_back(id);
            continue;
          }
          update_interest(poller, *conn);
        }
      }
      for (const std::uint64_t id : dead) teardown(poller, conns, id);
      for (auto it = conns.begin(); it != conns.end();) {
        const std::uint64_t id = (it++)->first;
        maybe_close(poller, conns, id);
      }

      if (stop.load(std::memory_order_acquire)) {
        if (!announced_stop) {
          announced_stop = true;
          if (io == 0 && listen_fd >= 0) poller.remove(listen_fd);
          // Stop reading every connection: drain answers what was already
          // parsed, nothing more; unread input is dropped.
          for (auto& [id, conn] : conns) {
            if (!conn->read_closed && !conn->paused) {
              update_interest(poller, *conn);
            }
          }
        }
        bool blocked_left = false;
        for (auto& [id, conn] : conns) {
          if (conn->blocked != nullptr) blocked_left = true;
        }
        if (pending == 0 && !blocked_left) {
          bool flushed = true;
          for (auto& [id, conn] : conns) {
            if (conn->out_off < conn->outbuf.size()) flushed = false;
          }
          if (flushed) break;
        }
      }
    }

    // No further pushes from this thread: let the shard workers drain out.
    io_stopped.fetch_add(1, std::memory_order_release);
    for (unsigned shard = 0; shard < shard_count; ++shard) {
      shard_parkers[shard]->notify();
    }
    for (auto& [id, conn] : conns) release(poller, *conn);
    poller.remove(wake.fds[0]);
  }

  unsigned rr_next_ = 0;  ///< round-robin cursor; io thread 0 only

  /// Accepts every pending connection. Returns false when the fd table is
  /// full (EMFILE/ENFILE): the caller then drops read interest on the
  /// listener until the next poll timeout.
  bool accept_new() {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EMFILE || errno == ENFILE) return false;
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
            errno == ECONNABORTED) {
          return true;
        }
        accept_failed.store(true, std::memory_order_release);
        stop.store(true, std::memory_order_release);
        return true;
      }
      if (!set_nonblocking(fd)) {
        ::close(fd);
        continue;
      }
      set_tcp_nodelay(fd);
      // Round-robin handoff; io thread 0 takes its share through the same
      // inbox so connection adoption has one code path.
      const unsigned target = rr_next_++ % io_count;
      {
        const std::lock_guard<std::mutex> lock(inboxes[target]->mutex);
        inboxes[target]->fds.emplace_back(fd, fd);
      }
      if (target != 0) wakes[target]->notify();
    }
  }

  void adopt_new(Poller& poller,
                 std::unordered_map<std::uint64_t, std::unique_ptr<Conn>>&
                     conns,
                 unsigned io) {
    std::vector<std::pair<int, int>> fds;
    {
      const std::lock_guard<std::mutex> lock(inboxes[io]->mutex);
      fds.swap(inboxes[io]->fds);
    }
    for (const auto& [in, out] : fds) {
      auto conn = std::make_unique<Conn>();
      conn->fd = in;
      conn->out_fd = out;
      if (stop.load(std::memory_order_acquire)) {
        // Accepted but never served: drain refuses new work.
        if (!conn->stream()) ::close(in);
        continue;
      }
      connections.fetch_add(1, std::memory_order_relaxed);
      conn->id = next_conn_id.fetch_add(1, std::memory_order_relaxed);
      poller.add(in, conn->id, /*want_read=*/true, /*want_write=*/false);
      if (conn->stream()) {
        poller.add(out, conn->id, /*want_read=*/false, /*want_write=*/false);
      }
      conns.emplace(conn->id, std::move(conn));
    }
  }

  /// One read per readiness event, framing and dispatching the complete
  /// lines it holds. The poller is level-triggered, so unread input is
  /// reported again on the next tick — after the responses this read
  /// produced were drained and written. Reading to EAGAIN instead lets a
  /// writer that keeps the pipe full hold the io thread here, parsing into
  /// the rings, while no answer goes out.
  bool read_conn(Poller& poller, Conn& conn, char* buf, unsigned io,
                 std::uint64_t& pending, obs::Counter& shed_queue) {
    const ssize_t n = ::read(conn.fd, buf, kReadChunk);
    if (n > 0) {
      conn.framer.feed(buf, static_cast<std::size_t>(n));
      return pump_conn(poller, conn, io, pending, shed_queue);
    }
    if (n == 0) {
      conn.read_closed = true;
      if (conn.blocked == nullptr) {
        return finish_eof(poller, conn, io, pending, shed_queue);
      }
      return true;  // final line handled once the parked request clears
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      return true;
    }
    return false;  // ECONNRESET and friends: tear down
  }

  /// Pops framed lines and routes them, until the connection blocks (full
  /// shard ring in block mode) or flow control pauses it.
  bool pump_conn(Poller& poller, Conn& conn, unsigned io,
                 std::uint64_t& pending, obs::Counter& shed_queue) {
    std::string line;
    svc::LineStatus status;
    while (conn.blocked == nullptr && conn.framer.next(line, status)) {
      if (!handle_line(conn, line, status, io, pending, shed_queue)) break;
    }
    kick_shards(io);
    if (conn.read_closed && !conn.eof_flushed && conn.blocked == nullptr) {
      if (!finish_eof(poller, conn, io, pending, shed_queue)) return false;
    }
    if (!emit_ready(poller, conn)) return false;
    update_interest(poller, conn);
    return true;
  }

  bool finish_eof(Poller& poller, Conn& conn, unsigned io,
                  std::uint64_t& pending, obs::Counter& shed_queue) {
    std::string line;
    svc::LineStatus status;
    if (!conn.eof_flushed && conn.framer.finish(line, status)) {
      handle_line(conn, line, status, io, pending, shed_queue);
      kick_shards(io);
    }
    // A parked final line keeps eof_flushed false so the next pump retries.
    if (conn.blocked == nullptr) conn.eof_flushed = true;
    return emit_ready(poller, conn);
  }

  /// Returns false when the line parked the connection (caller stops
  /// pumping); local responses and successful dispatches return true.
  bool handle_line(Conn& conn, std::string& line, svc::LineStatus status,
                   unsigned io, std::uint64_t& pending,
                   obs::Counter& shed_queue) {
    if (status == svc::LineStatus::kOversized) {
      errors.fetch_add(1, std::memory_order_relaxed);
      local_response(
          conn, conn.next_seq++,
          PendingOut{false,
                     svc::format_error_line(
                         svc::recover_request_id(line),
                         "bad request: line exceeds " +
                             std::to_string(svc::kMaxRequestLine) +
                             " bytes")});
      return true;
    }
    if (line.empty()) return true;

    svc::BatchRequest request;
    try {
      request = svc::parse_request_line(line);
    } catch (const svc::CodecError& e) {
      errors.fetch_add(1, std::memory_order_relaxed);
      local_response(conn, conn.next_seq++,
                     PendingOut{false,
                                svc::format_error_line(e.id(), e.what())});
      return true;
    }
    if (request.stats) {
      local_response(conn, conn.next_seq++,
                     PendingOut{true, request.id});
      return true;
    }
    if (config.request_timeout_ms > 0) {
      request.deadline =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(config.request_timeout_ms);
    }

    RequestMsg msg;
    msg.conn = conn.id;
    msg.seq = conn.next_seq++;
    msg.engine = &engines[io]->resolve(request.tests);
    const std::uint32_t shard = route(request, *msg.engine);
    msg.request = std::move(request);
    if (requests[io][shard]->try_push(std::move(msg))) {
      ++conn.inflight;
      ++pending;
      kicks[io][shard] = 1;
      return true;
    }
    if (config.shed_on_overload) {
      // Drop the work, answer {"shed":"queue"} in stream order, keep
      // reading.
      sheds.fetch_add(1, std::memory_order_relaxed);
      shed_queue.inc();
      local_response(conn, msg.seq,
                     PendingOut{false, svc::format_shed_line(
                                           msg.request.id, "queue")});
      return true;
    }
    // Block mode: back-pressure this connection — park the request, pause
    // reading, retry every tick. (`msg` is intact: try_push checks for a
    // full ring before touching the slot, so a failed push never moves
    // from its argument.)
    conn.blocked = std::make_unique<RequestMsg>(std::move(msg));
    conn.blocked_shard = shard;
    return false;
  }

  /// Wakes every shard that handle_line() pushed to since the last call:
  /// once per read, not once per line. A per-line wake lets a shard park
  /// and be woken again between two lines (a futex call on this thread
  /// and two context switches per request).
  void kick_shards(unsigned io) {
    for (unsigned shard = 0; shard < shard_count; ++shard) {
      if (kicks[io][shard] != 0) {
        kicks[io][shard] = 0;
        shard_parkers[shard]->notify();
      }
    }
  }

  void local_response(Conn& conn, std::uint64_t seq, PendingOut out) {
    conn.done.emplace(seq, std::move(out));
  }

  /// Emits every response whose turn has come into the write buffer, then
  /// flushes. Returns false when the connection must be torn down.
  bool emit_ready(Poller& poller, Conn& conn) {
    auto it = conn.done.find(conn.next_emit);
    while (it != conn.done.end()) {
      PendingOut& out = it->second;
      if (out.is_stats) {
        publish_stats();
        conn.outbuf += svc::format_stats_line(out.text);
      } else {
        conn.outbuf += out.text;
      }
      conn.outbuf += '\n';
      served.fetch_add(1, std::memory_order_relaxed);
      conn.done.erase(it);
      it = conn.done.find(++conn.next_emit);
    }
    return flush_out(poller, conn);
  }

  /// Writes the buffered output, handling partial writes; keeps the write
  /// interest and read-side flow control in sync with the buffer level.
  /// Sockets are written with MSG_NOSIGNAL: a client that closes before
  /// reading its answers is an EPIPE here, not a SIGPIPE that kills the
  /// process. A stream is written with write(2) (send fails on a pipe or
  /// file); its owner decides what SIGPIPE does.
  bool flush_out(Poller& poller, Conn& conn) {
    while (conn.out_off < conn.outbuf.size()) {
      const char* data = conn.outbuf.data() + conn.out_off;
      const std::size_t size = conn.outbuf.size() - conn.out_off;
      const ssize_t n = conn.stream()
                            ? ::write(conn.out_fd, data, size)
                            : ::send(conn.fd, data, size, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
      return false;  // EPIPE/ECONNRESET: peer is gone
    }
    if (conn.out_off >= conn.outbuf.size()) {
      conn.outbuf.clear();
      conn.out_off = 0;
    } else if (conn.out_off > (1u << 16)) {
      conn.outbuf.erase(0, conn.out_off);
      conn.out_off = 0;
    }
    conn.want_write = conn.out_off < conn.outbuf.size();
    update_interest(poller, conn);
    return true;
  }

  /// One place computes the poller interest set from the connection state:
  /// read while not blocked/closed/stopping and the write buffer is within
  /// bounds; write while the buffer has unsent bytes.
  void update_interest(Poller& poller, Conn& conn) {
    const bool backlogged =
        conn.outbuf.size() - conn.out_off > kMaxOutbuf;
    const bool stopping_now = stop.load(std::memory_order_acquire);
    const bool want_read = !conn.read_closed && conn.blocked == nullptr &&
                           !backlogged && !stopping_now;
    conn.paused = !want_read && !conn.read_closed;
    if (!conn.stream()) {
      poller.update(conn.fd, want_read, conn.want_write);
      return;
    }
    // A stream's input is registered only while reading is wanted: a pipe
    // whose writer closed reports a hangup whatever the interest set, which
    // would spin this loop while reading is paused or done.
    if (want_read != conn.in_watched) {
      if (want_read) {
        poller.add(conn.fd, conn.id, /*want_read=*/true, /*want_write=*/false);
      } else {
        poller.remove(conn.fd);
      }
      conn.in_watched = want_read;
    }
    poller.update(conn.out_fd, /*want_read=*/false, conn.want_write);
  }

  void maybe_close(
      Poller& poller,
      std::unordered_map<std::uint64_t, std::unique_ptr<Conn>>& conns,
      std::uint64_t id) {
    const auto it = conns.find(id);
    if (it == conns.end()) return;
    Conn& conn = *it->second;
    if (!conn.read_closed || !conn.eof_flushed || conn.inflight > 0 ||
        conn.blocked != nullptr || !conn.done.empty() ||
        conn.out_off < conn.outbuf.size()) {
      return;
    }
    teardown(poller, conns, id);
  }

  void teardown(
      Poller& poller,
      std::unordered_map<std::uint64_t, std::unique_ptr<Conn>>& conns,
      std::uint64_t id) {
    const auto it = conns.find(id);
    if (it == conns.end()) return;
    // The stream is the whole job: once it is done, so is the server.
    if (it->second->stream()) stop.store(true, std::memory_order_release);
    release(poller, *it->second);
    // Responses still in flight for this connection are dropped when they
    // surface — the conns lookup fails — and `pending` still decrements.
    conns.erase(it);
  }

  /// Deregisters a connection's fds; closes a socket (the stream's fds
  /// belong to the start_stream caller).
  static void release(Poller& poller, const Conn& conn) {
    poller.remove(conn.fd);
    if (conn.stream()) {
      poller.remove(conn.out_fd);
    } else {
      ::close(conn.fd);
    }
  }

  /// Opens the wake pipes and spawns the threads: io threads first, so the
  /// first read does not wait behind the shard worker spawns (a shard ring
  /// simply holds requests until its worker runs).
  bool launch(std::string* error) {
    for (auto& wake : wakes) {
      if (!wake->open()) {
        if (error != nullptr) *error = "cannot create wake pipe";
        return false;
      }
    }
    for (unsigned io = 0; io < io_count; ++io) {
      io_threads.emplace_back([this, io] {
        name_this_thread("reconf-io-", io);
        io_main(io);
      });
    }
    for (unsigned s = 0; s < shard_count; ++s) {
      shard_threads.emplace_back([this, s] {
        name_this_thread("reconf-shard-", s);
        shard_main(s);
      });
      maybe_pin(s, shard_threads.back());
    }
    return true;
  }

  /// Names the calling thread `prefix` + `index`, cut to the 15 bytes Linux
  /// keeps, so /proc/<pid>/task/*/comm and `top -H` tell io threads from
  /// shards. Each thread names itself: that is one prctl, where naming
  /// another thread opens and writes its /proc comm file.
  static void name_this_thread(const char* prefix, unsigned index) {
#if defined(__linux__)
    std::string name = prefix + std::to_string(index);
    name.resize(std::min<std::size_t>(name.size(), 15));
    ::pthread_setname_np(::pthread_self(), name.c_str());
#else
    (void)prefix;
    (void)index;
#endif
  }

  void publish_stats() {
    std::vector<svc::CacheStats> stats;
    stats.reserve(caches.size());
    for (const auto& cache : caches) stats.push_back(cache->stats());
    svc::publish_shard_cache_stats(stats, config.cache_capacity);
    obs::MetricsRegistry& metrics = obs::MetricsRegistry::instance();
    metrics.gauge("reconf_net_io_threads").set(static_cast<double>(io_count));
    metrics.gauge("reconf_net_shards").set(static_cast<double>(shard_count));
    metrics.gauge("reconf_net_connections")
        .set(static_cast<double>(connections.load(std::memory_order_relaxed)));
    metrics.gauge("reconf_net_backend_epoll")
        .set(std::strcmp(backend_name.load(), "epoll") == 0 ? 1.0 : 0.0);
    for (std::size_t s = 0; s < pinned.size(); ++s) {
      metrics.gauge("reconf_net_shard_cpu{shard=\"" + std::to_string(s) +
                    "\"}")
          .set(static_cast<double>(pinned[s].load(std::memory_order_relaxed)));
    }
  }
};

AsyncServer::AsyncServer(ServerConfig config)
    : impl_(std::make_unique<Impl>()) {
  impl_->config = std::move(config);
  impl_->io_count = std::max(1u, impl_->config.io_threads);
  impl_->shard_count =
      impl_->config.shards > 0
          ? impl_->config.shards
          : std::max(1u, std::thread::hardware_concurrency());

  const std::size_t per_shard_capacity =
      impl_->config.cache_capacity == 0
          ? 0
          : std::max<std::size_t>(
                1, impl_->config.cache_capacity / impl_->shard_count);
  impl_->caches.reserve(impl_->shard_count);
  for (unsigned s = 0; s < impl_->shard_count; ++s) {
    impl_->caches.push_back(
        std::make_unique<svc::ShardCache>(per_shard_capacity));
  }
  impl_->pinned = std::vector<std::atomic<int>>(impl_->shard_count);
  for (auto& p : impl_->pinned) p.store(-1, std::memory_order_relaxed);

  // --max-queue is a budget per io thread, split across its shard rings.
  const std::size_t ring_capacity = std::max<std::size_t>(
      1, impl_->config.max_queue / impl_->shard_count);
  impl_->requests.resize(impl_->io_count);
  for (unsigned io = 0; io < impl_->io_count; ++io) {
    for (unsigned s = 0; s < impl_->shard_count; ++s) {
      impl_->requests[io].push_back(
          std::make_unique<SpscRing<RequestMsg>>(ring_capacity));
    }
  }
  impl_->responses.resize(impl_->shard_count);
  for (unsigned s = 0; s < impl_->shard_count; ++s) {
    for (unsigned io = 0; io < impl_->io_count; ++io) {
      impl_->responses[s].push_back(
          std::make_unique<SpscRing<ResponseMsg>>(ring_capacity));
    }
    impl_->shard_parkers.push_back(std::make_unique<Parker>());
  }
  for (unsigned io = 0; io < impl_->io_count; ++io) {
    impl_->wakes.push_back(std::make_unique<WakePipe>());
    impl_->inboxes.push_back(std::make_unique<Impl::Inbox>());
    impl_->engines.push_back(
        std::make_unique<svc::EngineTable>(impl_->config.options));
  }
  impl_->kicks.assign(impl_->io_count,
                      std::vector<char>(impl_->shard_count, 0));
}

AsyncServer::~AsyncServer() { stop(); }

bool AsyncServer::start(std::string* error) {
  std::uint16_t bound = 0;
  impl_->listen_fd =
      listen_tcp(impl_->config.host, impl_->config.port, &bound, error);
  if (impl_->listen_fd < 0) return false;
  port_ = bound;
  return impl_->launch(error);
}

bool AsyncServer::start_stream(int in_fd, int out_fd, std::string* error) {
  RECONF_EXPECTS(in_fd != out_fd);
  // Read both flag sets before changing either: stdin and stdout may share
  // one open file description (a terminal).
  for (const int fd : {in_fd, out_fd}) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0) {
      if (error != nullptr) {
        *error = "fd " + std::to_string(fd) + ": " + std::strerror(errno);
      }
      return false;
    }
    impl_->stream_flags.emplace_back(fd, flags);
  }
  for (const int fd : {in_fd, out_fd}) set_nonblocking(fd);
  impl_->inboxes[0]->fds.emplace_back(in_fd, out_fd);
  return impl_->launch(error);
}

void AsyncServer::request_stop() noexcept {
  impl_->stop.store(true, std::memory_order_release);
}

void AsyncServer::wait() {
  if (impl_->stopped_joined) return;
  for (std::thread& t : impl_->io_threads) {
    if (t.joinable()) t.join();
  }
  for (std::thread& t : impl_->shard_threads) {
    if (t.joinable()) t.join();
  }
  impl_->io_threads.clear();
  impl_->shard_threads.clear();
  if (impl_->listen_fd >= 0) {
    ::close(impl_->listen_fd);
    impl_->listen_fd = -1;
  }
  for (auto& wake : impl_->wakes) wake->close_fds();
  for (auto it = impl_->stream_flags.rbegin();
       it != impl_->stream_flags.rend(); ++it) {
    ::fcntl(it->first, F_SETFL, it->second);
  }
  impl_->stream_flags.clear();
  impl_->stopped_joined = true;
}

void AsyncServer::stop() {
  if (impl_->stopped_joined) return;
  request_stop();
  // Parked threads self-heal within the Parker/poller 10ms backstop even
  // without these nudges; they just shorten the tail.
  for (auto& wake : impl_->wakes) {
    if (wake->fds[1] >= 0) wake->notify();
  }
  for (auto& parker : impl_->shard_parkers) parker->notify();
  wait();
}

ServerTotals AsyncServer::totals() const {
  ServerTotals t;
  t.connections = impl_->connections.load(std::memory_order_relaxed);
  t.served = impl_->served.load(std::memory_order_relaxed);
  t.accepted = impl_->accepted.load(std::memory_order_relaxed);
  t.errors = impl_->errors.load(std::memory_order_relaxed);
  t.sheds = impl_->sheds.load(std::memory_order_relaxed);
  return t;
}

std::vector<svc::CacheStats> AsyncServer::shard_cache_stats() const {
  std::vector<svc::CacheStats> out;
  out.reserve(impl_->caches.size());
  for (const auto& cache : impl_->caches) out.push_back(cache->stats());
  return out;
}

svc::CacheStats AsyncServer::cache_stats() const {
  svc::CacheStats total;
  for (const svc::CacheStats& s : shard_cache_stats()) total += s;
  return total;
}

const char* AsyncServer::backend() const noexcept {
  return impl_->backend_name.load();
}

std::vector<int> AsyncServer::pinned_cpus() const {
  std::vector<int> out;
  out.reserve(impl_->pinned.size());
  for (const auto& p : impl_->pinned) {
    out.push_back(p.load(std::memory_order_relaxed));
  }
  return out;
}

bool AsyncServer::load_cache_snapshot(const std::string& path,
                                      std::size_t* restored,
                                      std::string* error) {
  std::vector<svc::ShardCache*> shards;
  shards.reserve(impl_->caches.size());
  for (const auto& cache : impl_->caches) shards.push_back(cache.get());
  return svc::load_shard_snapshot(shards, path, restored, error);
}

bool AsyncServer::save_cache_snapshot(const std::string& path,
                                      std::string* error) {
  std::vector<svc::ShardCache*> shards;
  shards.reserve(impl_->caches.size());
  for (const auto& cache : impl_->caches) shards.push_back(cache.get());
  return svc::save_shard_snapshot(shards, path, error);
}

}  // namespace reconf::net
