// Integration tests for the serving core (src/net/): pipelined and
// fragmented NDJSON over real TCP connections, byte-compared against a
// single-process replay through the same evaluate_with_engine funnel;
// oversized/malformed line recovery; concurrent connections with interleaved
// stats requests; block-mode back-pressure on a full shard ring; clients
// that close before reading; a full fd table (accepts pause, no
// busy-spin); snapshot topology portability (save under one shard count,
// warm-restore under another); graceful EOF flush; the poll(2) fallback
// backend selected via RECONF_NET_POLL=1; and the stream transport
// (reconf_serve's stdio) on pipes, regular files and /dev/null, answering
// one request log byte-identically to TCP and the committed wire corpus
// byte-identically to its recorded answers.

#include <algorithm>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "net/poller.hpp"
#include "net/server.hpp"
#include "svc/batch.hpp"
#include "svc/codec.hpp"
#include "svc/shard_cache.hpp"
#include "svc/verdict_cache.hpp"

namespace reconf {
namespace {

// ------------------------------------------------------------ helpers ----

/// A valid request line whose canonical hash is unique per `g` below
/// 36,000 (C = 1 + g mod 600, A = 1 + (g / 600) mod 60).
std::string request_line(std::uint64_t g, const std::string& id) {
  const unsigned c = static_cast<unsigned>(1 + g % 600);
  const unsigned a = static_cast<unsigned>(1 + (g / 600) % 60);
  std::string out = "{\"id\":\"" + id + "\",\"device\":100,\"tasks\":[{\"c\":";
  out += std::to_string(c);
  out += ",\"d\":700,\"t\":700,\"a\":";
  out += std::to_string(a);
  out += "},{\"c\":40,\"d\":500,\"t\":500,\"a\":7}]}";
  return out;
}

/// Blocking connect to a test server.
int must_connect(std::uint16_t port) {
  std::string error;
  const int fd = net::connect_tcp("127.0.0.1", port, &error);
  EXPECT_GE(fd, 0) << error;
  return fd;
}

void send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    ASSERT_GT(n, 0) << std::strerror(errno);
    off += static_cast<std::size_t>(n);
  }
}

/// Reads until `count` newline-terminated lines have arrived (or EOF).
std::vector<std::string> read_lines(int fd, std::size_t count) {
  std::vector<std::string> lines;
  std::string pending;
  char buf[16 * 1024];
  while (lines.size() < count) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) break;
    pending.append(buf, static_cast<std::size_t>(n));
    std::size_t at;
    while ((at = pending.find('\n')) != std::string::npos) {
      lines.push_back(pending.substr(0, at));
      pending.erase(0, at + 1);
    }
  }
  return lines;
}

/// Replaces every "micros":<number> with "micros":0 — analyzer wall times
/// are the one nondeterministic part of a verdict line.
std::string normalize_timing(std::string line) {
  static const std::string key = "\"micros\":";
  std::size_t at = 0;
  while ((at = line.find(key, at)) != std::string::npos) {
    std::size_t end = at + key.size();
    while (end < line.size() &&
           (std::isdigit(static_cast<unsigned char>(line[end])) != 0 ||
            line[end] == '.' || line[end] == '-' || line[end] == '+' ||
            line[end] == 'e')) {
      ++end;
    }
    line.replace(at, end - at, key + "0");
    at += key.size();
  }
  return line;
}

/// Single-process replay of one request line through the exact funnel the
/// serving core uses — its lineup resolved by an engine table, then
/// evaluate_with_engine — the reference output for byte comparison.
std::string replay_line(const std::string& line, svc::EngineTable& engines,
                        svc::VerdictStore* cache) {
  svc::BatchRequest request;
  try {
    request = svc::parse_request_line(line);
  } catch (const svc::CodecError& e) {
    return svc::format_error_line(e.id(), e.what());
  }
  const svc::BatchVerdict v = svc::evaluate_with_engine(
      engines.resolve(request.tests), request, cache);
  return svc::format_verdict_line(v, &request.taskset);
}

net::ServerConfig test_config(unsigned shards) {
  net::ServerConfig config;
  config.shards = shards;
  config.cache_capacity = 4096;
  return config;
}

struct TempDir {
  std::filesystem::path path;
  TempDir() {
    path = std::filesystem::temp_directory_path() /
           ("reconf_net_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

// ------------------------------------------- replay parity over TCP ----

/// Sends `lines` over one connection in deliberately awkward fragments
/// (split mid-line every `frag` bytes) and byte-compares the responses,
/// timing-normalized, against the single-process replay.
void run_parity(const net::ServerConfig& config,
                const std::vector<std::string>& lines, std::size_t frag) {
  net::AsyncServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  std::string wire;
  for (const std::string& line : lines) wire += line + "\n";

  const int fd = must_connect(server.port());
  std::thread writer([&] {
    for (std::size_t off = 0; off < wire.size(); off += frag) {
      send_all(fd, wire.substr(off, frag));
    }
    ::shutdown(fd, SHUT_WR);
  });
  const std::vector<std::string> got = read_lines(fd, lines.size());
  writer.join();
  ::close(fd);
  server.stop();

  // Reference: same lines through the same funnel against a fresh striped
  // cache. Duplicates of a key land on one shard worker in send order, so
  // the hit/miss pattern matches the sequential replay exactly — this is
  // the sharded-vs-striped cache parity check of the acceptance criteria.
  svc::VerdictCache reference(config.cache_capacity);
  svc::EngineTable engines(config.options);
  ASSERT_EQ(got.size(), lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(normalize_timing(got[i]),
              normalize_timing(replay_line(lines[i], engines, &reference)))
        << "line " << i;
  }
}

std::vector<std::string> parity_workload() {
  std::vector<std::string> lines;
  for (std::uint64_t g = 0; g < 40; ++g) {
    lines.push_back(request_line(g, "u" + std::to_string(g)));
  }
  // Duplicates — must come back "cache":"hit" from the owning shard,
  // bit-identical to the striped cache's answer.
  lines.push_back(request_line(3, "dup-a"));
  lines.push_back(request_line(17, "dup-b"));
  lines.push_back(request_line(3, "dup-c"));
  // Malformed: parse error with the id recovered from the broken line.
  lines.push_back("{\"id\":\"bad-1\",\"device\":100,\"tasks\":17}");
  lines.push_back("not json at all");
  // Custom analyzer lineups: resolved by the io thread's engine table.
  lines.push_back(
      "{\"id\":\"lineup\",\"device\":100,\"tests\":[\"dp\"],"
      "\"tasks\":[{\"c\":10,\"d\":700,\"t\":700,\"a\":9}]}");
  lines.push_back(request_line(17, "dup-d"));
  // Three spellings of one lineup: one engine, one key, so the second and
  // third answer "cache":"hit" from the first one's shard.
  for (const char* tests : {R"(["gn1","dp"])", R"(["dp","gn1"])",
                            R"(["dp","gn1","gn1","dp"])"}) {
    std::string line = request_line(5, "respelled");
    line.insert(line.size() - 1, std::string(",\"tests\":") + tests);
    lines.push_back(std::move(line));
  }
  return lines;
}

TEST(NetServer, PipelinedRepliesMatchSingleProcessReplay) {
  run_parity(test_config(3), parity_workload(), 64 * 1024);
}

TEST(NetServer, FragmentedWritesReassembleIdentically) {
  // 7-byte fragments tear every line across many reads.
  run_parity(test_config(2), parity_workload(), 7);
}

TEST(NetServer, PollFallbackBackendServesIdentically) {
  ::setenv("RECONF_NET_POLL", "1", 1);
  net::ServerConfig config = test_config(2);
  {
    net::AsyncServer probe(config);
    std::string error;
    ASSERT_TRUE(probe.start(&error)) << error;
    EXPECT_STREQ(probe.backend(), "poll");
    probe.stop();
  }
  run_parity(config, parity_workload(), 1024);
  ::unsetenv("RECONF_NET_POLL");
}

TEST(NetServer, OversizedLineAnswersErrorAndRecovers) {
  net::AsyncServer server(test_config(2));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  std::string huge = "{\"id\":\"toobig\",\"device\":100,\"tasks\":[";
  huge.append(svc::kMaxRequestLine + 1024, ' ');
  huge += "]}";

  const int fd = must_connect(server.port());
  std::thread writer([&] {
    send_all(fd, huge + "\n" + request_line(1, "after") + "\n");
    ::shutdown(fd, SHUT_WR);
  });
  const std::vector<std::string> got = read_lines(fd, 2);
  writer.join();
  ::close(fd);
  server.stop();

  ASSERT_EQ(got.size(), 2u);
  // The oversized line is answered as a correlated error (the id is in the
  // retained prefix), and the connection keeps serving afterwards.
  EXPECT_NE(got[0].find("\"id\":\"toobig\""), std::string::npos) << got[0];
  EXPECT_NE(got[0].find("\"error\":"), std::string::npos) << got[0];
  EXPECT_NE(got[1].find("\"id\":\"after\""), std::string::npos) << got[1];
  EXPECT_NE(got[1].find("\"verdict\":"), std::string::npos) << got[1];
}

// ------------------------------------------------- concurrency and EOF ----

TEST(NetServer, ConcurrentConnectionsKeepPerConnectionOrder) {
  net::ServerConfig config = test_config(4);
  net::AsyncServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  constexpr unsigned kConns = 8;
  constexpr std::uint64_t kPerConn = 50;
  // A stats request follows every 10th request, so snapshots are taken
  // while the other connections keep the shards busy.
  constexpr std::uint64_t kStatsEvery = 10;
  constexpr std::uint64_t kLinesPerConn = kPerConn + kPerConn / kStatsEvery;
  const auto id = [](unsigned c, const std::string& n) {
    return "c" + std::to_string(c) + "-" + n;
  };
  std::vector<std::vector<std::string>> replies(kConns);
  {
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kConns; ++c) {
      clients.emplace_back([&, c] {
        const int fd = must_connect(server.port());
        std::string wire;
        for (std::uint64_t i = 0; i < kPerConn; ++i) {
          // Half the keys are shared across connections (cross-conn cache
          // traffic on the owning shards), half are private.
          const std::uint64_t g = (i % 2 == 0) ? i : 1000 + c * kPerConn + i;
          wire += request_line(g, id(c, std::to_string(i)));
          wire += '\n';
          if ((i + 1) % kStatsEvery == 0) {
            wire += "{\"id\":\"" + id(c, "s" + std::to_string(i)) +
                    "\",\"stats\":true}\n";
          }
        }
        send_all(fd, wire);
        ::shutdown(fd, SHUT_WR);
        replies[c] = read_lines(fd, kLinesPerConn);
        ::close(fd);
      });
    }
    for (std::thread& t : clients) t.join();
  }
  server.stop();

  for (unsigned c = 0; c < kConns; ++c) {
    ASSERT_EQ(replies[c].size(), kLinesPerConn) << "connection " << c;
    std::size_t line = 0;
    for (std::uint64_t i = 0; i < kPerConn; ++i) {
      const std::string& reply = replies[c][line++];
      EXPECT_NE(reply.find("\"id\":\"" + id(c, std::to_string(i)) + "\""),
                std::string::npos)
          << "conn " << c << " response " << i << " out of order: " << reply;
      EXPECT_NE(reply.find("\"verdict\":"), std::string::npos);
      if ((i + 1) % kStatsEvery != 0) continue;
      const std::string& snap = replies[c][line++];
      EXPECT_NE(
          snap.find("\"id\":\"" + id(c, "s" + std::to_string(i)) + "\""),
          std::string::npos)
          << "conn " << c << " stats after " << i
          << " out of order: " << snap;
      EXPECT_NE(snap.find("\"stats\":"), std::string::npos) << snap;
    }
  }
  const net::ServerTotals totals = server.totals();
  EXPECT_EQ(totals.connections, kConns);
  EXPECT_EQ(totals.served, kConns * kLinesPerConn);
}

TEST(NetServer, FinalLineWithoutNewlineIsAnsweredAtEof) {
  net::AsyncServer server(test_config(2));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const int fd = must_connect(server.port());
  send_all(fd, request_line(5, "no-newline"));  // note: no trailing '\n'
  ::shutdown(fd, SHUT_WR);
  const std::vector<std::string> got = read_lines(fd, 1);
  ::close(fd);
  server.stop();

  ASSERT_EQ(got.size(), 1u);
  EXPECT_NE(got[0].find("\"id\":\"no-newline\""), std::string::npos) << got[0];
  EXPECT_NE(got[0].find("\"verdict\":"), std::string::npos) << got[0];
}

TEST(NetServer, StatsRequestAnsweredInStreamOrder) {
  net::AsyncServer server(test_config(2));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const int fd = must_connect(server.port());
  send_all(fd, request_line(2, "before") + "\n" +
                   "{\"id\":\"snap\",\"stats\":true}\n" +
                   request_line(9, "later") + "\n");
  ::shutdown(fd, SHUT_WR);
  const std::vector<std::string> got = read_lines(fd, 3);
  ::close(fd);
  server.stop();

  ASSERT_EQ(got.size(), 3u);
  EXPECT_NE(got[0].find("\"id\":\"before\""), std::string::npos);
  EXPECT_NE(got[1].find("\"id\":\"snap\""), std::string::npos) << got[1];
  EXPECT_NE(got[1].find("\"stats\":"), std::string::npos) << got[1];
  // The snapshot reflects the request answered before it on this stream.
  EXPECT_NE(got[1].find("reconf_svc_requests_total"), std::string::npos)
      << got[1];
  EXPECT_NE(got[2].find("\"id\":\"later\""), std::string::npos);
}

TEST(NetServer, ShedModeAnswersEveryRequest) {
  net::ServerConfig config = test_config(1);
  config.max_queue = 4;  // one shard: a 4-slot ring forces the overload path
  config.shed_on_overload = true;
  net::AsyncServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  constexpr std::uint64_t kCount = 400;
  std::string wire;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    wire += request_line(i, "s" + std::to_string(i)) + "\n";
  }
  const int fd = must_connect(server.port());
  std::thread writer([&] {
    send_all(fd, wire);
    ::shutdown(fd, SHUT_WR);
  });
  const std::vector<std::string> got = read_lines(fd, kCount);
  writer.join();
  ::close(fd);
  server.stop();

  // Overload may shed any subset, but every request gets exactly one
  // response, in order, and a shed is marked as such — never dropped.
  ASSERT_EQ(got.size(), kCount);
  std::uint64_t verdicts = 0;
  std::uint64_t sheds = 0;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    const std::string id = "\"id\":\"s" + std::to_string(i) + "\"";
    ASSERT_NE(got[i].find(id), std::string::npos) << got[i];
    if (got[i].find("\"verdict\":") != std::string::npos) {
      ++verdicts;
    } else if (got[i].find("\"shed\":\"queue\"") != std::string::npos) {
      ++sheds;
    } else {
      FAIL() << "unexpected response: " << got[i];
    }
  }
  EXPECT_EQ(verdicts + sheds, kCount);
  EXPECT_EQ(server.totals().sheds, sheds);
}

TEST(NetServer, BlockModeBackPressuresConnectionsOnAFullRing) {
  // The default overload mode: one shard behind a 4-slot ring, filled by
  // four pipelining connections at once. A connection whose request finds
  // the ring full parks it and stops reading until it fits; nothing is
  // shed and nothing is lost.
  net::ServerConfig config = test_config(1);
  config.max_queue = 4;
  net::AsyncServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  constexpr unsigned kConns = 4;
  constexpr std::uint64_t kPerConn = 200;
  const auto id = [](unsigned c, std::uint64_t i) {
    return "b" + std::to_string(c) + "-" + std::to_string(i);
  };
  std::vector<std::vector<std::string>> replies(kConns);
  {
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kConns; ++c) {
      clients.emplace_back([&, c] {
        const int fd = must_connect(server.port());
        std::string wire;
        for (std::uint64_t i = 0; i < kPerConn; ++i) {
          wire += request_line(c * kPerConn + i, id(c, i)) + "\n";
        }
        std::thread writer([&] {
          send_all(fd, wire);
          ::shutdown(fd, SHUT_WR);
        });
        replies[c] = read_lines(fd, kPerConn);
        writer.join();
        ::close(fd);
      });
    }
    for (std::thread& t : clients) t.join();
  }
  server.stop();

  for (unsigned c = 0; c < kConns; ++c) {
    ASSERT_EQ(replies[c].size(), kPerConn) << "connection " << c;
    for (std::uint64_t i = 0; i < kPerConn; ++i) {
      const std::string& reply = replies[c][i];
      EXPECT_EQ(reply.rfind("{\"id\":\"" + id(c, i) + "\",", 0), 0u)
          << "conn " << c << " response " << i << " out of order: " << reply;
      EXPECT_NE(reply.find("\"verdict\":"), std::string::npos) << reply;
      EXPECT_EQ(reply.find("\"shed\""), std::string::npos) << reply;
    }
  }
  EXPECT_EQ(server.totals().sheds, 0u);
  EXPECT_EQ(server.totals().served, kConns * kPerConn);
}

// ------------------------------------------- snapshot topology change ----

TEST(NetServer, SnapshotWarmRestoreAcrossShardCounts) {
  TempDir dir;
  const std::string snap = (dir.path / "verdicts.snap").string();

  // Serve under 3 shards, save the merged snapshot.
  {
    net::AsyncServer server(test_config(3));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    const int fd = must_connect(server.port());
    std::string wire;
    for (std::uint64_t g = 0; g < 30; ++g) {
      wire += request_line(g, "w" + std::to_string(g)) + "\n";
    }
    send_all(fd, wire);
    ::shutdown(fd, SHUT_WR);
    EXPECT_EQ(read_lines(fd, 30).size(), 30u);
    ::close(fd);
    server.stop();
    ASSERT_TRUE(server.save_cache_snapshot(snap, &error)) << error;
  }

  // Restore under 5 shards: every key must be rehashed to its new owner,
  // so each replayed request is a hit.
  {
    net::AsyncServer server(test_config(5));
    std::string error;
    std::size_t restored = 0;
    ASSERT_TRUE(server.load_cache_snapshot(snap, &restored, &error)) << error;
    EXPECT_EQ(restored, 30u);
    ASSERT_TRUE(server.start(&error)) << error;
    const int fd = must_connect(server.port());
    std::string wire;
    for (std::uint64_t g = 0; g < 30; ++g) {
      wire += request_line(g, "r" + std::to_string(g)) + "\n";
    }
    send_all(fd, wire);
    ::shutdown(fd, SHUT_WR);
    const std::vector<std::string> got = read_lines(fd, 30);
    ::close(fd);
    server.stop();
    ASSERT_EQ(got.size(), 30u);
    for (const std::string& line : got) {
      EXPECT_NE(line.find("\"cache\":\"hit\""), std::string::npos) << line;
    }
    const svc::CacheStats stats = server.cache_stats();
    EXPECT_EQ(stats.hits, 30u);
    EXPECT_EQ(stats.misses, 0u);
  }

  // The same v1 snapshot also warm-starts a bare fleet of shard caches
  // outside any server — the format carries no topology.
  {
    svc::ShardCache a(4096);
    svc::ShardCache b(4096);
    const std::vector<svc::ShardCache*> fleet = {&a, &b};
    std::size_t restored = 0;
    std::string error;
    ASSERT_TRUE(svc::load_shard_snapshot(fleet, snap, &restored, &error))
        << error;
    EXPECT_EQ(restored, 30u);
    EXPECT_EQ(a.size() + b.size(), 30u);
  }
}

// ------------------------------------------------------ thread names ----

/// The names of this process's threads, from /proc/self/task/*/comm.
std::vector<std::string> thread_names() {
  std::vector<std::string> names;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream comm(task.path() / "comm");
    std::string name;
    if (std::getline(comm, name)) names.push_back(name);
  }
  return names;
}

TEST(NetServer, ServingThreadsCarryTheirRoleNames) {
  net::AsyncServer server(test_config(3));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
#if defined(__linux__)
  const std::vector<std::string> want = {"reconf-io", "reconf-shard-0",
                                         "reconf-shard-1", "reconf-shard-2"};
  // Each thread names itself as it starts; give them up to 5 s to run.
  std::vector<std::string> names;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    names = thread_names();
    const bool all = std::all_of(
        want.begin(), want.end(), [&](const std::string& name) {
          return std::count(names.begin(), names.end(), name) == 1;
        });
    if (all || std::chrono::steady_clock::now() > deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (const std::string& name : want) {
    EXPECT_EQ(std::count(names.begin(), names.end(), name), 1) << name;
  }
#endif
  server.stop();
}

// ----------------------------------------------- clients gone early ----

TEST(NetServer, ClientsClosingBeforeReadingDoNotKillTheServer) {
  // Each client pipelines its requests, half-closes, and resets the
  // connection without reading its answers: the server's writes then fail
  // with EPIPE/ECONNRESET. A plain write(2) there raises SIGPIPE, whose
  // default action kills the whole process (this test binary included).
  net::AsyncServer server(test_config(2));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  std::string wire;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    wire += request_line(i, "p" + std::to_string(i)) + "\n";
  }
  for (int c = 0; c < 4; ++c) {
    const int fd = must_connect(server.port());
    send_all(fd, wire);
    ::shutdown(fd, SHUT_WR);
    EXPECT_FALSE(read_lines(fd, 1).empty());  // the server is answering
    const linger reset{1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof reset);
    ::close(fd);
  }
  const int fd = must_connect(server.port());
  send_all(fd, request_line(7, "later") + "\n");
  ::shutdown(fd, SHUT_WR);
  const std::vector<std::string> got = read_lines(fd, 1);
  ::close(fd);
  server.stop();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_NE(got[0].find("\"id\":\"later\""), std::string::npos) << got[0];
}

// ------------------------------------------------ stream transport ----

/// Lowers the soft RLIMIT_NOFILE for the life of the guard.
struct FdLimitGuard {
  rlimit saved{};
  bool lowered = false;
  explicit FdLimitGuard(rlim_t soft) {
    EXPECT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
    rlimit lower = saved;
    lower.rlim_cur = soft;
    lowered = ::setrlimit(RLIMIT_NOFILE, &lower) == 0;
    EXPECT_TRUE(lowered) << std::strerror(errno);
  }
  ~FdLimitGuard() {
    if (lowered) ::setrlimit(RLIMIT_NOFILE, &saved);
  }
};

double process_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

TEST(NetServer, FullFdTablePausesAcceptsInsteadOfSpinning) {
  net::AsyncServer server(test_config(1));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  // Two served connections, then four sockets that will connect once the
  // fd table is full: connect() needs no new fd, accept() does.
  std::vector<int> held;
  for (std::uint64_t g = 0; g < 2; ++g) {
    held.push_back(must_connect(server.port()));
    send_all(held.back(), request_line(g, "held") + "\n");
    ASSERT_EQ(read_lines(held.back(), 1).size(), 1u);
  }
  std::vector<int> backlogged;
  const timeval timeout{5, 0};
  for (int i = 0; i < 4; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    backlogged.push_back(fd);
  }
  // Every fd below the lowest free one is taken: make that the limit.
  const int lowest_free = ::open("/dev/null", O_RDONLY);
  ASSERT_GE(lowest_free, 0);
  ::close(lowest_free);
  const FdLimitGuard limit(static_cast<rlim_t>(lowest_free));
  ASSERT_TRUE(limit.lowered);
  ASSERT_LT(::open("/dev/null", O_RDONLY), 0);
  EXPECT_EQ(errno, EMFILE);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  for (const int fd : backlogged) {
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof addr),
              0)
        << std::strerror(errno);
  }
  // The listener stays readable while accept() fails; a server that keeps
  // polling it spins a core for as long as the table stays full.
  const double cpu_before = process_cpu_seconds();
  const auto wall_before = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const double cpu = process_cpu_seconds() - cpu_before;
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall_before)
                          .count();
  EXPECT_LT(cpu, 0.25 * wall) << "cpu " << cpu << " s over " << wall
                              << " s of wall time";

  // Closing clients frees fds; the backlogged connections are then served.
  for (const int fd : held) ::close(fd);
  for (std::size_t i = 0; i < backlogged.size(); ++i) {
    send_all(backlogged[i],
             request_line(10 + i, "late" + std::to_string(i)) + "\n");
    const std::vector<std::string> got = read_lines(backlogged[i], 1);
    ASSERT_EQ(got.size(), 1u) << "backlogged connection " << i;
    EXPECT_NE(got[0].find("\"id\":\"late" + std::to_string(i) + "\""),
              std::string::npos)
        << got[0];
  }
  for (const int fd : backlogged) ::close(fd);
  server.stop();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// A log with everything a transport could mangle: duplicates, custom
/// lineups, malformed lines, a line over the 1 MiB cap, a stats request, an
/// empty line (not answered) and a final line without a newline.
std::string transport_log() {
  std::string log;
  for (std::uint64_t g = 0; g < 30; ++g) {
    log += request_line(g, "u" + std::to_string(g)) + "\n";
  }
  log += request_line(3, "dup-a") + "\n" + request_line(17, "dup-b") + "\n";
  const std::string lineup =
      "\"device\":100,\"tasks\":[{\"c\":10,\"d\":700,\"t\":700,\"a\":9}]";
  log += "{\"id\":\"dp-only\",\"tests\":[\"dp\"]," + lineup + "}\n";
  log += "{\"id\":\"gn2-dp\",\"tests\":[\"gn2\",\"dp\"]," + lineup + "}\n";
  log += "{\"id\":\"dp-again\",\"tests\":[\"dp\"]," + lineup + "}\n";
  log += "{\"id\":\"bad-1\",\"device\":100,\"tasks\":17}\n";
  log += "not json at all\n";
  log += "{\"id\":\"huge\",\"device\":100,\"tasks\":[";
  log.append(svc::kMaxRequestLine + 4096, ' ');
  log += "]}\n";
  log += "\n";
  log += "{\"id\":\"snap\",\"stats\":true}\n";
  log += request_line(3, "dup-c") + "\n";
  log += request_line(40, "last-no-newline");
  return log;
}

constexpr std::size_t kTransportAnswers = 30 + 2 + 3 + 2 + 1 + 1 + 2;

/// stdio on pipes: a writer thread feeds the log and closes, a reader
/// thread collects the answers. Also checks that the pipe fds get their
/// blocking mode back.
std::vector<std::string> serve_over_pipes(const std::string& log) {
  int in[2];
  int out[2];
  EXPECT_EQ(::pipe(in), 0);
  EXPECT_EQ(::pipe(out), 0);
  const int in_flags = ::fcntl(in[0], F_GETFL);
  const int out_flags = ::fcntl(out[1], F_GETFL);
  net::AsyncServer server(test_config(3));
  std::string error;
  EXPECT_TRUE(server.start_stream(in[0], out[1], &error)) << error;
  std::thread writer([&] {
    send_all(in[1], log);
    ::close(in[1]);
  });
  std::vector<std::string> got;
  std::thread reader([&] { got = read_lines(out[0], SIZE_MAX); });
  writer.join();
  server.wait();  // input drained and answered: the server stops by itself
  EXPECT_EQ(::fcntl(in[0], F_GETFL), in_flags);
  EXPECT_EQ(::fcntl(out[1], F_GETFL), out_flags);
  ::close(out[1]);  // the reader sees EOF
  reader.join();
  ::close(in[0]);
  ::close(out[0]);
  return got;
}

/// stdio on regular files in and out — fds epoll refuses (EPERM).
std::vector<std::string> serve_over_files(const std::string& log) {
  TempDir dir;
  const auto in_path = dir.path / "requests.ndjson";
  const auto out_path = dir.path / "responses.ndjson";
  std::ofstream(in_path, std::ios::binary) << log;
  const int in = ::open(in_path.c_str(), O_RDONLY);
  const int out = ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  EXPECT_GE(in, 0);
  EXPECT_GE(out, 0);
  net::AsyncServer server(test_config(3));
  std::string error;
  EXPECT_TRUE(server.start_stream(in, out, &error)) << error;
  server.wait();
  ::close(in);
  ::close(out);
  return split_lines(read_file(out_path));
}

std::vector<std::string> serve_over_tcp(const std::string& log) {
  net::AsyncServer server(test_config(3));
  std::string error;
  EXPECT_TRUE(server.start(&error)) << error;
  const int fd = must_connect(server.port());
  std::thread writer([&] {
    send_all(fd, log);
    ::shutdown(fd, SHUT_WR);
  });
  // The server closes the connection once it answered everything.
  const std::vector<std::string> got = read_lines(fd, SIZE_MAX);
  writer.join();
  ::close(fd);
  server.stop();
  return got;
}

TEST(NetServerStream, ThreeTransportsAnswerOneLogIdentically) {
  const std::string log = transport_log();
  const std::vector<std::string> pipes = serve_over_pipes(log);
  const std::vector<std::string> files = serve_over_files(log);
  const std::vector<std::string> tcp = serve_over_tcp(log);
  ASSERT_EQ(pipes.size(), kTransportAnswers);
  ASSERT_EQ(files.size(), kTransportAnswers);
  ASSERT_EQ(tcp.size(), kTransportAnswers);
  const std::string stats_prefix = "{\"id\":\"snap\",\"stats\":{";
  std::size_t stats_lines = 0;
  for (std::size_t i = 0; i < kTransportAnswers; ++i) {
    if (pipes[i].rfind(stats_prefix, 0) == 0) {
      // The metrics payload differs run to run; its place does not.
      ++stats_lines;
      EXPECT_EQ(files[i].rfind(stats_prefix, 0), 0u) << files[i];
      EXPECT_EQ(tcp[i].rfind(stats_prefix, 0), 0u) << tcp[i];
      continue;
    }
    EXPECT_EQ(files[i], pipes[i]) << "line " << i;
    EXPECT_EQ(tcp[i], pipes[i]) << "line " << i;
  }
  EXPECT_EQ(stats_lines, 1u);
  // Spot checks on the shared answer: duplicates hit, the oversized line
  // and the malformed ones are correlated errors, the final line counts.
  EXPECT_NE(pipes[30].find("\"id\":\"dup-a\""), std::string::npos);
  EXPECT_NE(pipes[30].find("\"cache\":\"hit\""), std::string::npos);
  EXPECT_NE(pipes[34].find("\"cache\":\"hit\""), std::string::npos)
      << "same custom lineup, same key";
  EXPECT_NE(pipes[35].find("\"id\":\"bad-1\",\"error\""), std::string::npos);
  EXPECT_NE(pipes[37].find("\"id\":\"huge\",\"error\""), std::string::npos);
  EXPECT_NE(pipes.back().find("\"id\":\"last-no-newline\""),
            std::string::npos);
}

TEST(NetServerStream, WireCorpusAnswersAsRecorded) {
  // tests/corpus/requests/wire.ndjson: the benchmark's request shapes,
  // duplicates (renamed, reordered, reformatted), custom lineups, the
  // taskset form and every malformed class the codec pins. wire.expected
  // holds the answers, recorded byte for byte; duplicates of a key route to
  // one shard's FIFO ring, so hit/miss is part of the record.
  const std::filesystem::path dir =
      std::filesystem::path(RECONF_CORPUS_DIR) / "requests";
  TempDir out_dir;
  const auto out_path = out_dir.path / "wire.out";
  const int in = ::open((dir / "wire.ndjson").c_str(), O_RDONLY);
  const int out = ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(in, 0);
  ASSERT_GE(out, 0);
  net::AsyncServer server(test_config(3));
  std::string error;
  ASSERT_TRUE(server.start_stream(in, out, &error)) << error;
  server.wait();
  ::close(in);
  ::close(out);
  const std::string expected = read_file(dir / "wire.expected");
  const std::string got = read_file(out_path);
  ASSERT_FALSE(expected.empty());
  if (got != expected) {
    const std::vector<std::string> want = split_lines(expected);
    const std::vector<std::string> have = split_lines(got);
    for (std::size_t i = 0; i < std::max(want.size(), have.size()); ++i) {
      const std::string w = i < want.size() ? want[i] : "<missing>";
      const std::string h = i < have.size() ? have[i] : "<missing>";
      if (w != h) {
        ADD_FAILURE() << "first difference at answer " << i << "\n  got:  "
                      << h << "\n  want: " << w;
        break;
      }
    }
  }
  EXPECT_EQ(got.size(), expected.size());
}

TEST(NetServerStream, AnswersEverythingLeftInAPipeWhoseWriterClosed) {
  // `cat log | reconf_serve`: the writer may be gone before the server
  // first reads, so the pipe reports a hangup along with the data.
  int in[2];
  int out[2];
  ASSERT_EQ(::pipe(in), 0);
  ASSERT_EQ(::pipe(out), 0);
  std::string wire;
  for (std::uint64_t g = 0; g < 300; ++g) {
    wire += request_line(g, "h" + std::to_string(g)) + "\n";
  }
  ASSERT_LT(wire.size(), 60'000u);  // fits the pipe buffer
  send_all(in[1], wire);
  ::close(in[1]);
  net::AsyncServer server(test_config(2));
  std::string error;
  ASSERT_TRUE(server.start_stream(in[0], out[1], &error)) << error;
  std::vector<std::string> got;
  std::thread reader([&] { got = read_lines(out[0], SIZE_MAX); });
  server.wait();
  ::close(out[1]);
  reader.join();
  ::close(in[0]);
  ::close(out[0]);
  ASSERT_EQ(got.size(), 300u);
  EXPECT_NE(got.back().find("\"id\":\"h299\""), std::string::npos);
}

TEST(NetServerStream, DevNullInAndOut) {
  // `reconf_serve < /dev/null`: nothing to answer, the server just ends.
  {
    const int in = ::open("/dev/null", O_RDONLY);
    int out[2];
    ASSERT_EQ(::pipe(out), 0);
    net::AsyncServer server(test_config(2));
    std::string error;
    ASSERT_TRUE(server.start_stream(in, out[1], &error)) << error;
    server.wait();
    EXPECT_EQ(server.totals().served, 0u);
    ::close(in);
    ::close(out[0]);
    ::close(out[1]);
  }
  // `reconf_serve requests.ndjson > /dev/null`: everything is answered.
  {
    TempDir dir;
    const auto in_path = dir.path / "requests.ndjson";
    std::ofstream(in_path) << request_line(1, "a") << "\n"
                           << request_line(2, "b") << "\n";
    const int in = ::open(in_path.c_str(), O_RDONLY);
    const int out = ::open("/dev/null", O_WRONLY);
    net::AsyncServer server(test_config(2));
    std::string error;
    ASSERT_TRUE(server.start_stream(in, out, &error)) << error;
    server.wait();
    EXPECT_EQ(server.totals().served, 2u);
    ::close(in);
    ::close(out);
  }
}

TEST(NetServerStream, RequestStopDrainsAnOpenStream) {
  // SIGINT/SIGTERM in reconf_serve: the input stays open, yet the server
  // answers what it read and stops.
  int in[2];
  int out[2];
  ASSERT_EQ(::pipe(in), 0);
  ASSERT_EQ(::pipe(out), 0);
  net::AsyncServer server(test_config(2));
  std::string error;
  ASSERT_TRUE(server.start_stream(in[0], out[1], &error)) << error;
  std::string wire;
  for (std::uint64_t g = 0; g < 20; ++g) {
    wire += request_line(g, "s" + std::to_string(g)) + "\n";
  }
  send_all(in[1], wire);
  EXPECT_EQ(read_lines(out[0], 20).size(), 20u);
  server.request_stop();
  server.wait();
  EXPECT_EQ(server.totals().served, 20u);
  for (const int fd : {in[0], in[1], out[0], out[1]}) ::close(fd);
}

TEST(NetServerStream, ClosedOutputEndsTheServer) {
  // `reconf_serve | head -1`: once the reader is gone the answers have
  // nowhere to go. reconf_serve ignores SIGPIPE; so does this test.
  const auto previous = std::signal(SIGPIPE, SIG_IGN);
  int in[2];
  int out[2];
  ASSERT_EQ(::pipe(in), 0);
  ASSERT_EQ(::pipe(out), 0);
  ::close(out[0]);
  net::AsyncServer server(test_config(2));
  std::string error;
  ASSERT_TRUE(server.start_stream(in[0], out[1], &error)) << error;
  send_all(in[1], request_line(1, "x") + "\n");
  server.wait();  // returns although the input is still open
  for (const int fd : {in[0], in[1], out[1]}) ::close(fd);
  std::signal(SIGPIPE, previous);
}

}  // namespace
}  // namespace reconf
