// Tests for the NDJSON request/response codec of the admission service.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/registry.hpp"
#include "common/json_escape.hpp"
#include "common/rng.hpp"
#include "svc/batch.hpp"
#include "svc/codec.hpp"
#include "svc/json.hpp"
#include "task/io.hpp"
#include "task/task.hpp"

// Counts heap allocations made by this test binary, so a test can pin how
// many one parse costs.
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// GCC cannot see that this operator new allocates with malloc.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace reconf {
namespace {

// ------------------------------------------------------------ parsing ----

TEST(CodecParse, InlineTasksForm) {
  const auto req = svc::parse_request_line(
      R"({"id":"r1","device":100,"tasks":[)"
      R"({"c":126,"d":700,"t":700,"a":9,"name":"fir"},)"
      R"({"c":200,"d":500,"t":500,"a":7}]})");
  EXPECT_EQ(req.id, "r1");
  EXPECT_EQ(req.device.width, 100);
  ASSERT_EQ(req.taskset.size(), 2u);
  EXPECT_EQ(req.taskset[0].wcet, 126);
  EXPECT_EQ(req.taskset[0].deadline, 700);
  EXPECT_EQ(req.taskset[0].period, 700);
  EXPECT_EQ(req.taskset[0].area, 9);
  EXPECT_EQ(req.taskset[0].name, "fir");
  EXPECT_EQ(req.taskset[1].name, "");
}

TEST(CodecParse, EmbeddedTasksetForm) {
  const auto req = svc::parse_request_line(
      R"({"id":7,"taskset":"taskset v1\ndevice 10\ntask t1 210 500 500 7\n"})");
  EXPECT_EQ(req.id, "7");  // integer ids are stringified
  EXPECT_EQ(req.device.width, 10);
  ASSERT_EQ(req.taskset.size(), 1u);
  EXPECT_EQ(req.taskset[0].name, "t1");
  EXPECT_EQ(req.taskset[0].wcet, 210);
}

TEST(CodecParse, RoundTripsThroughIoWriter) {
  // Any taskset the v1 writer emits must be acceptable as an embedded
  // "taskset" payload — the codec is layered on task/io.hpp.
  const TaskSet ts({make_task(2.10, 5, 5, 7, "a"), make_task(3.00, 10, 10, 6)});
  const Device dev{10};
  const std::string text = io::to_string(ts, dev);
  const std::string line =
      "{\"id\":\"rt\",\"taskset\":\"" + reconf::json_escape(text) + "\"}";
  const auto req = svc::parse_request_line(line);
  EXPECT_EQ(req.device.width, dev.width);
  ASSERT_EQ(req.taskset.size(), ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(req.taskset[i].wcet, ts[i].wcet);
    EXPECT_EQ(req.taskset[i].deadline, ts[i].deadline);
    EXPECT_EQ(req.taskset[i].period, ts[i].period);
    EXPECT_EQ(req.taskset[i].area, ts[i].area);
    EXPECT_EQ(req.taskset[i].name, ts[i].name);
  }
}

TEST(CodecParse, TestsArraySelectsAnalyzers) {
  const auto req = svc::parse_request_line(
      R"({"id":"r9","device":100,"tasks":[{"c":1,"d":2,"t":2,"a":1}],)"
      R"("tests":["gn2","dp"]})");
  EXPECT_EQ(req.tests, (std::vector<std::string>{"gn2", "dp"}));
  // Absent => empty => the serving default lineup.
  const auto plain = svc::parse_request_line(
      R"({"device":100,"tasks":[{"c":1,"d":2,"t":2,"a":1}]})");
  EXPECT_TRUE(plain.tests.empty());
}

TEST(CodecParse, MissingIdDefaultsToEmpty) {
  const auto req = svc::parse_request_line(
      R"({"device":10,"tasks":[{"c":1,"d":2,"t":2,"a":1}]})");
  EXPECT_EQ(req.id, "");
  EXPECT_EQ(req.taskset.size(), 1u);
}

TEST(CodecParse, StringEscapes) {
  const auto req = svc::parse_request_line(
      R"({"id":"a\"b\\cA","device":10,"tasks":[]})");
  EXPECT_EQ(req.id, "a\"b\\cA");
  EXPECT_TRUE(req.taskset.empty());
}

void expect_rejected(const std::string& line, const std::string& fragment) {
  try {
    (void)svc::parse_request_line(line);
    FAIL() << "expected CodecError for: " << line;
  } catch (const svc::CodecError& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << "message was: " << e.what();
  }
}

TEST(CodecParse, RejectsMalformedInput) {
  expect_rejected("", "unexpected end");
  expect_rejected("not json", "invalid literal");
  expect_rejected("[1,2,3]", "must be a JSON object");
  expect_rejected(R"({"id":"x"})", "requires either");
  expect_rejected(R"({"device":10})", "requires either");
  expect_rejected(R"({"device":10,"tasks":[]} trailing)", "trailing");
  expect_rejected(R"({"device":0,"tasks":[]})", "device must be positive");
  expect_rejected(R"({"device":-4,"tasks":[]})", "device must be positive");
  expect_rejected(R"({"device":10.5,"tasks":[]})", "must be an integer");
  expect_rejected(R"({"device":9999999999,"tasks":[]})", "out of range");
  expect_rejected(R"({"device":10,"tasks":{}})", "tasks must be an array");
  expect_rejected(R"({"device":10,"tasks":[[1,2,3,4]]})", "must be an object");
  expect_rejected(R"({"device":10,"tasks":[{"c":1,"d":2,"t":2}]})",
                  "requires keys");
  expect_rejected(R"({"device":10,"tasks":[{"c":-1,"d":2,"t":2,"a":1}]})",
                  "must be positive");
  expect_rejected(R"({"device":10,"tasks":[{"c":1.5,"d":2,"t":2,"a":1}]})",
                  "must be an integer");
  expect_rejected(
      R"({"device":10,"tasks":[{"c":1,"d":2,"perid":2,"a":1}]})",
      "unknown key");
  expect_rejected(R"({"device":10,"tasks":[],"taskset":"x"})", "excludes");
  expect_rejected(R"({"taskset":"garbage"})", "parse error");
  expect_rejected(R"({"taskset":42})", "must be a string");
  expect_rejected(R"({"frobnicate":1,"device":10,"tasks":[]})", "unknown key");
  expect_rejected(R"({"id":"x","device":10,"tasks":[)", "unexpected end");
  expect_rejected("{\"id\":\"\x01\",\"device\":10,\"tasks\":[]}",
                  "control character");
}

TEST(CodecParse, StatsRequestForm) {
  const svc::BatchRequest r =
      svc::parse_request_line(R"({"id":"s1","stats":true})");
  EXPECT_EQ(r.id, "s1");
  EXPECT_TRUE(r.stats);
  EXPECT_TRUE(r.tests.empty());
  // Analysis requests are not stats requests.
  EXPECT_FALSE(svc::parse_request_line(
                   R"({"device":10,"tasks":[{"c":1,"d":2,"t":2,"a":1}]})")
                   .stats);
}

TEST(CodecParse, StatsRequestRejectsFalseAndMixing) {
  expect_rejected(R"({"id":"s","stats":false})", "literal true");
  expect_rejected(R"({"id":"s","stats":1})", "literal true");
  expect_rejected(R"({"id":"s","stats":"yes"})", "literal true");
  expect_rejected(R"({"stats":true,"device":10,"tasks":[]})", "excludes");
  expect_rejected(R"({"stats":true,"taskset":"x"})", "excludes");
  expect_rejected(R"({"stats":true,"tests":["dp"]})", "excludes");
}

TEST(CodecParse, TestsArrayRejectsUnknownAndMalformed) {
  expect_rejected(
      R"({"device":10,"tasks":[],"tests":["gnX"]})", "unknown analyzer 'gnX'");
  // The error is actionable: it lists what IS registered.
  expect_rejected(
      R"({"device":10,"tasks":[],"tests":["gnX"]})", "registered analyzers:");
  expect_rejected(R"({"device":10,"tasks":[],"tests":[]})", "non-empty");
  expect_rejected(R"({"device":10,"tasks":[],"tests":"dp"})", "non-empty");
  expect_rejected(R"({"device":10,"tasks":[],"tests":[42]})",
                  "tests[0] must be a string");
}

TEST(CodecParse, ErrorsCarryRequestIdWhenRecoverable) {
  try {
    (void)svc::parse_request_line(
        R"({"id":"r7","device":100,"tasks":[{"c":0,"d":2,"t":2,"a":1}]})");
    FAIL() << "expected CodecError";
  } catch (const svc::CodecError& e) {
    EXPECT_EQ(e.id(), "r7");
  }
  // id declared after the failing field must still be recovered.
  try {
    (void)svc::parse_request_line(R"({"device":-1,"tasks":[],"id":"late"})");
    FAIL() << "expected CodecError";
  } catch (const svc::CodecError& e) {
    EXPECT_EQ(e.id(), "late");
  }
  // Invalid JSON: no id is recoverable.
  try {
    (void)svc::parse_request_line("{broken");
    FAIL() << "expected CodecError";
  } catch (const svc::CodecError& e) {
    EXPECT_EQ(e.id(), "");
  }
}

// --------------------------------------------------------- responses ----

TEST(CodecFormat, VerdictLineContainsAllFields) {
  svc::BatchVerdict v;
  v.id = "r\"1";
  v.accepted = true;
  v.accepted_by = "GN2";
  v.hash = 0xABCDEF0123456789ull;
  v.cache_hit = true;
  const TaskSet ts({make_task(2.10, 5, 5, 7)});
  const std::string line = svc::format_verdict_line(v, &ts);

  EXPECT_NE(line.find(R"("id":"r\"1")"), std::string::npos) << line;
  EXPECT_NE(line.find(R"("verdict":"schedulable")"), std::string::npos);
  EXPECT_NE(line.find(R"("accepted_by":"GN2")"), std::string::npos);
  EXPECT_NE(line.find(R"("cache":"hit")"), std::string::npos);
  EXPECT_NE(line.find(R"("hash":"abcdef0123456789")"), std::string::npos);
  EXPECT_NE(line.find(R"("n":1)"), std::string::npos);
}

TEST(CodecFormat, RejectionOmitsAcceptedBy) {
  svc::BatchVerdict v;
  v.id = "r2";
  const std::string line = svc::format_verdict_line(v, nullptr);
  EXPECT_NE(line.find(R"("verdict":"inconclusive")"), std::string::npos);
  EXPECT_EQ(line.find("accepted_by"), std::string::npos);
  EXPECT_NE(line.find(R"("cache":"miss")"), std::string::npos);
  EXPECT_EQ(line.find("\"n\":"), std::string::npos);
}

TEST(CodecFormat, SubReportsRenderedInExecutionOrder) {
  svc::BatchVerdict v;
  v.id = "r3";
  v.accepted = true;
  v.accepted_by = "gn2";
  v.sub = {{"dp", true, false, 1.5},
           {"gn2", true, true, 12.25},
           {"gn1", false, false, 0.0}};
  const std::string line = svc::format_verdict_line(v, nullptr);
  const auto dp = line.find(R"({"test":"dp","verdict":"inconclusive")");
  const auto gn2 = line.find(R"({"test":"gn2","verdict":"schedulable")");
  const auto gn1 = line.find(R"({"test":"gn1","skipped":true})");
  EXPECT_NE(dp, std::string::npos) << line;
  EXPECT_NE(gn2, std::string::npos) << line;
  EXPECT_NE(gn1, std::string::npos) << line;
  EXPECT_LT(dp, gn2);
  EXPECT_LT(gn2, gn1);
  EXPECT_NE(line.find(R"("micros":12.2)"), std::string::npos) << line;
}

TEST(CodecFormat, CacheHitOmitsSubReports) {
  svc::BatchVerdict v;
  v.id = "r4";
  v.cache_hit = true;
  const std::string line = svc::format_verdict_line(v, nullptr);
  EXPECT_EQ(line.find("\"sub\""), std::string::npos) << line;
}

TEST(CodecFormat, ErrorLine) {
  const std::string line = svc::format_error_line("x", "bad \"stuff\"\n");
  EXPECT_EQ(line, R"({"id":"x","error":"bad \"stuff\"\n"})");
}

TEST(CodecFormat, JsonEscapeControlCharacters) {
  EXPECT_EQ(reconf::json_escape(std::string("a\x01z")), "a\\u0001z");
  EXPECT_EQ(reconf::json_escape("tab\there"), "tab\\there");
}

TEST(CodecFormat, ShedLine) {
  EXPECT_EQ(svc::format_shed_line("r9", "queue"),
            R"({"id":"r9","shed":"queue"})");
  EXPECT_EQ(svc::format_shed_line("", "deadline"),
            R"({"id":"","shed":"deadline"})");
}

// ----------------------------------------------------------- hardening ----

TEST(CodecHardening, DeeplyNestedJsonIsRejectedNotStackOverflowed) {
  // 1000 nested arrays: must fail with a depth error, not crash the parser.
  std::string line = R"({"id":"d","device":10,"tasks":)";
  for (int i = 0; i < 1000; ++i) line += '[';
  for (int i = 0; i < 1000; ++i) line += ']';
  line += '}';
  try {
    (void)svc::parse_request_line(line);
    FAIL() << "deep nesting accepted";
  } catch (const svc::CodecError& e) {
    EXPECT_NE(std::string(e.what()).find("deep"), std::string::npos)
        << e.what();
  }
}

TEST(CodecHardening, NonFiniteNumbersAreRejected) {
  // 1e999 overflows double to +inf; a non-finite value must never leak into
  // tick arithmetic.
  EXPECT_THROW(
      (void)svc::parse_request_line(
          R"({"id":"n","device":10,"tasks":[{"c":1e999,"d":5,"t":5,"a":1}]})"),
      svc::CodecError);
}

TEST(CodecHardening, OversizedRequestLineIsRejected) {
  std::string line = R"({"id":"big","device":10,"tasks":[],"pad":")";
  line.append(svc::kMaxRequestLine, 'x');
  line += "\"}";
  try {
    (void)svc::parse_request_line(line);
    FAIL() << "oversized line accepted";
  } catch (const svc::CodecError& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds"), std::string::npos);
  }
}

TEST(CodecHardening, TruncatedRequestsErrorPerKind) {
  // Truncations of each request form must throw (with the id when it was
  // recoverable), never return a half-parsed request.
  const std::string full =
      R"({"id":"r1","device":100,"tasks":[{"c":5,"d":9,"t":9,"a":1}]})";
  for (const std::size_t cut :
       {std::size_t{10}, std::size_t{25}, std::size_t{40}, full.size() - 2}) {
    EXPECT_THROW((void)svc::parse_request_line(full.substr(0, cut)),
                 svc::CodecError)
        << "cut at " << cut;
  }
  EXPECT_THROW((void)svc::parse_request_line(R"({"id":"s","taskset":"task)"),
               svc::CodecError);
  EXPECT_THROW((void)svc::parse_request_line(R"({"id":"t","stats":)"),
               svc::CodecError);
}

// ------------------------------------------------------------ framing ----

using Framed = std::vector<std::pair<std::string, svc::LineStatus>>;

/// Frames `text` through one StreamFramer fed in `chunk`-byte pieces, then
/// drains finish(); every line in order.
Framed frame(const std::string& text, std::size_t chunk, std::size_t max_len) {
  svc::StreamFramer framer(max_len);
  Framed out;
  std::string line;
  svc::LineStatus status;
  for (std::size_t off = 0; off < text.size(); off += chunk) {
    framer.feed(text.data() + off, std::min(chunk, text.size() - off));
    while (framer.next(line, status)) out.emplace_back(line, status);
  }
  while (framer.finish(line, status)) out.emplace_back(line, status);
  return out;
}

/// Each case runs twice: the whole text in one feed, and one byte at a time.
std::vector<std::size_t> chunkings(const std::string& text) {
  return {std::max<std::size_t>(1, text.size()), 1};
}

constexpr svc::LineStatus kLine = svc::LineStatus::kLine;
constexpr svc::LineStatus kOversized = svc::LineStatus::kOversized;

TEST(StreamFramer, SplitsLinesAndKeepsEmptyLines) {
  const std::string text = "short\n\nlast\n";
  for (const std::size_t chunk : chunkings(text)) {
    EXPECT_EQ(frame(text, chunk, 64),
              (Framed{{"short", kLine}, {"", kLine}, {"last", kLine}}))
        << "chunk " << chunk;
  }
}

TEST(StreamFramer, FinalUnterminatedLineComesFromFinish) {
  // A stream ending without a trailing newline must not lose its last
  // request — but only finish() (end of stream) may release it.
  const std::string text = "first\nlast-no-newline";
  for (const std::size_t chunk : chunkings(text)) {
    svc::StreamFramer framer(64);
    std::string line;
    svc::LineStatus status;
    for (std::size_t off = 0; off < text.size(); off += chunk) {
      framer.feed(text.data() + off, std::min(chunk, text.size() - off));
    }
    ASSERT_TRUE(framer.next(line, status));
    EXPECT_EQ(line, "first");
    EXPECT_FALSE(framer.next(line, status)) << "partial line released early";
    ASSERT_TRUE(framer.finish(line, status));
    EXPECT_EQ(line, "last-no-newline");
    EXPECT_EQ(status, kLine);
    EXPECT_FALSE(framer.finish(line, status));
  }
  svc::StreamFramer empty(64);
  std::string line;
  svc::LineStatus status;
  EXPECT_FALSE(empty.finish(line, status));
}

TEST(StreamFramer, LineOfExactlyMaxLenIsALine) {
  const std::string cap(10, 'x');
  for (const std::string& text : {cap + "\n", cap}) {
    for (const std::size_t chunk : chunkings(text)) {
      EXPECT_EQ(frame(text, chunk, 10), (Framed{{cap, kLine}}))
          << "chunk " << chunk << (text.back() == '\n' ? "" : ", at EOF");
    }
  }
}

TEST(StreamFramer, OneByteOverMaxLenIsOversizedAndNextLineRecovers) {
  // Cap of 10: the kept prefix is exactly the cap, the rest of the line is
  // discarded unbuffered, and framing resumes at the following line.
  const std::string one_over = "0123456789X\nafter\n";
  const std::string far_over = std::string(100, 'a') + "\nafter";
  for (const std::size_t chunk : chunkings(one_over)) {
    EXPECT_EQ(frame(one_over, chunk, 10),
              (Framed{{"0123456789", kOversized}, {"after", kLine}}))
        << "chunk " << chunk;
  }
  for (const std::size_t chunk : chunkings(far_over)) {
    EXPECT_EQ(frame(far_over, chunk, 10),
              (Framed{{std::string(10, 'a'), kOversized}, {"after", kLine}}))
        << "chunk " << chunk;
  }
  // An over-cap final line without a newline still surfaces at EOF.
  const std::string tail = std::string(30, 'z');
  for (const std::size_t chunk : chunkings(tail)) {
    EXPECT_EQ(frame(tail, chunk, 10),
              (Framed{{std::string(10, 'z'), kOversized}}))
        << "chunk " << chunk;
  }
}


// ---------------------------------------------------- parity contract ----

std::string error_of(const std::string& line, std::string* id = nullptr) {
  try {
    (void)svc::parse_request_line(line);
  } catch (const svc::CodecError& e) {
    if (id != nullptr) *id = e.id();
    return e.what();
  }
  return "";
}

TEST(CodecParse, DuplicateMembersFollowTheContract) {
  const std::string task = R"({"c":126,"d":700,"t":700,"a":9})";
  // The first id wins; later ones are not even type-checked.
  EXPECT_EQ(svc::parse_request_line(R"({"id":"a","id":[1],"device":10,)"
                                    R"("tasks":[]})")
                .id,
            "a");
  std::string id = "unset";
  EXPECT_EQ(error_of(R"({"id":1.5,"id":"b","device":10,"tasks":[]})", &id),
            "bad request: id must be a string or integer");
  EXPECT_EQ(id, "");
  // The last device/tasks/taskset wins; shadowed values are only
  // syntax-checked.
  const auto last = svc::parse_request_line(
      R"({"id":"d","device":0,"device":100,"tasks":[{"c":0}],"tasks":[)" +
      task + "]}");
  EXPECT_EQ(last.device.width, 100);
  ASSERT_EQ(last.taskset.size(), 1u);
  EXPECT_EQ(error_of(R"({"id":"d","device":100,"device":"x","tasks":[]})"),
            "bad request: device must be an integer");
  EXPECT_EQ(svc::parse_request_line(
                R"({"taskset":7,"taskset":"taskset v1\ndevice 4\n"})")
                .device.width,
            4);
  // Every tests/stats and per-task occurrence is validated; the last valid
  // one wins.
  EXPECT_EQ(svc::parse_request_line(R"({"device":10,"tasks":[],)"
                                    R"("tests":["gn2"],"tests":["dp"]})")
                .tests,
            (std::vector<std::string>{"dp"}));
  EXPECT_NE(error_of(R"({"device":10,"tasks":[],"tests":["dp"],"tests":[1]})"),
            "");
  EXPECT_EQ(error_of(R"({"id":"s","stats":true,"stats":false})"),
            "bad request: stats must be the literal true");
  const auto named = svc::parse_request_line(
      R"({"device":100,"tasks":[{"c":1,"c":126,"d":700,"t":700,"a":9,)"
      R"("name":"a","name":"b"}]})");
  EXPECT_EQ(named.taskset[0].wcet, 126);
  EXPECT_EQ(named.taskset[0].name, "b");
  EXPECT_EQ(error_of(R"({"device":100,"tasks":[{"c":126,"c":-1,"d":700,)"
                     R"("t":700,"a":9}]})"),
            "bad request: tasks[0].c must be positive");
}

TEST(CodecParse, SchemaErrorPrecedence) {
  // Member-loop errors (unknown key, tests, stats) in member order beat
  // every device/tasks error, and keep the id even when it comes last.
  std::string id;
  EXPECT_EQ(error_of(R"({"device":0,"tests":"dp","zz":1,"id":"x"})", &id),
            "bad request: tests must be a non-empty array of analyzer ids");
  EXPECT_EQ(id, "x");
  EXPECT_EQ(error_of(R"({"device":0,"tasks":[{"c":0}],"taskset":"x",)"
                     R"("stats":true})"),
            "bad request: 'stats' excludes "
            "'tasks'/'device'/'taskset'/'tests'");
  EXPECT_EQ(error_of(R"({"device":0,"tasks":[{"c":0},7]})"),
            "bad request: device must be positive");
  EXPECT_EQ(error_of(R"({"device":1,"tasks":[{"c":1,"d":2,"t":2,"a":1},)"
                     R"({"c":0},7]})"),
            "bad request: tasks[1].c must be positive");
  // A syntax error after a schema error still wins, with no id.
  id = "unset";
  EXPECT_EQ(error_of(R"({"id":"x","zz":1,"device":1,"tasks":[],)", &id),
            "json error at byte 39: unexpected end of input");
  EXPECT_EQ(id, "");
}

TEST(CodecParse, NumberAcceptSet) {
  const auto c_of = [](const std::string& number) {
    return R"({"device":100,"tasks":[{"c":)" + number +
           R"(,"d":700,"t":700,"a":9}]})";
  };
  EXPECT_EQ(svc::parse_request_line(c_of("+5")).taskset[0].wcet, 5);
  EXPECT_EQ(svc::parse_request_line(c_of("007")).taskset[0].wcet, 7);
  EXPECT_EQ(svc::parse_request_line(c_of("2147483647")).taskset[0].wcet,
            2147483647);
  // An int64 beyond the input domain is read as an integer, then refused
  // by the domain rule that names the bound.
  EXPECT_EQ(error_of(c_of("999999999999999999")),
            "bad request: tasks[0]: C, D or T out of range (max 2147483647)");
  EXPECT_EQ(error_of(c_of("-0")), "bad request: tasks[0].c must be positive");
  EXPECT_EQ(error_of(c_of("1e2")),
            "bad request: tasks[0].c must be an integer");
  EXPECT_EQ(error_of(c_of("9999999999999999999")),
            "bad request: tasks[0].c must be an integer");
  EXPECT_EQ(error_of(c_of("1e999")),
            "json error at byte 33: unparsable number '1e999'");
  EXPECT_EQ(svc::parse_request_line(R"({"id":-0,"taskset":"taskset v1\n)"
                                    R"(device 3\n"})")
                .id,
            "0");
}

TEST(CodecParse, WellFormedRequestAllocatesOnlyItsTasks) {
  const std::string line =
      R"({"id":"r1","device":100,"tasks":[{"c":126,"d":700,"t":700,"a":9},)"
      R"({"c":40,"d":500,"t":500,"a":7},{"c":30,"d":900,"t":900,"a":5}]})";
  (void)svc::parse_request_line(line);  // warms the per-thread staging
  const std::size_t before = g_allocations.load();
  const svc::BatchRequest req = svc::parse_request_line(line);
  const std::size_t allocations = g_allocations.load() - before;
  EXPECT_EQ(req.taskset.size(), 3u);
  EXPECT_EQ(allocations, 1u) << "the task vector and nothing else";
}

// ------------------------------------------------ differential fuzzing ----

// The schema walk over a json::Value document that parse_request_line used
// before it read requests in one pass: the reference the single-pass reader
// must match on every line, malformed or not.
namespace reference {

using JsonValue = svc::json::Value;

[[noreturn]] void bad_request(const std::string& what) {
  throw svc::CodecError("bad request: " + what);
}

long long require_positive_int(const JsonValue& v, const std::string& what) {
  if (v.kind != JsonValue::Kind::kNumber || !v.integral) {
    bad_request(what + " must be an integer");
  }
  if (v.integer <= 0) bad_request(what + " must be positive");
  return v.integer;
}

Task parse_task_object(const JsonValue& v, std::size_t index) {
  const std::string where = "tasks[" + std::to_string(index) + "]";
  if (v.kind != JsonValue::Kind::kObject) {
    bad_request(where + " must be an object");
  }
  long long f[4] = {};
  bool has[4] = {};
  std::string name;
  for (const auto& [key, val] : v.members) {
    const char* const keys[4] = {"c", "d", "t", "a"};
    bool matched = false;
    for (int k = 0; k < 4; ++k) {
      if (key == keys[k]) {
        f[k] = require_positive_int(val, where + "." + keys[k]);
        has[k] = true;
        matched = true;
      }
    }
    if (matched) continue;
    if (key == "name") {
      if (val.kind != JsonValue::Kind::kString) {
        bad_request(where + ".name must be a string");
      }
      name = val.text;
    } else {
      bad_request(where + " has unknown key '" + key + "'");
    }
  }
  if (!has[0] || !has[1] || !has[2] || !has[3]) {
    bad_request(where + " requires keys c, d, t, a");
  }
  try {
    return io::make_task_checked(name.empty() ? "-" : name, f[0], f[1], f[2],
                                 f[3], where);
  } catch (const std::exception& e) {
    bad_request(e.what());
  }
}

std::vector<std::string> parse_tests_array(const JsonValue& v) {
  if (v.kind != JsonValue::Kind::kArray || v.items.empty()) {
    bad_request("tests must be a non-empty array of analyzer ids");
  }
  const auto& registry = analysis::AnalyzerRegistry::instance();
  std::vector<std::string> out;
  for (std::size_t i = 0; i < v.items.size(); ++i) {
    const JsonValue& item = v.items[i];
    if (item.kind != JsonValue::Kind::kString) {
      bad_request("tests[" + std::to_string(i) + "] must be a string");
    }
    if (registry.find(item.text) == nullptr) {
      bad_request("unknown analyzer '" + item.text +
                  "'; registered analyzers: " + registry.id_list());
    }
    out.push_back(item.text);
  }
  return out;
}

svc::BatchRequest parse_members(const JsonValue& doc, std::string id) {
  svc::BatchRequest out;
  out.id = std::move(id);
  const JsonValue* device = nullptr;
  const JsonValue* tasks = nullptr;
  const JsonValue* taskset_text = nullptr;
  for (const auto& [key, val] : doc.members) {
    if (key == "id") {
    } else if (key == "device") {
      device = &val;
    } else if (key == "tasks") {
      tasks = &val;
    } else if (key == "taskset") {
      taskset_text = &val;
    } else if (key == "tests") {
      out.tests = parse_tests_array(val);
    } else if (key == "stats") {
      if (val.kind != JsonValue::Kind::kBool || !val.boolean) {
        bad_request("stats must be the literal true");
      }
      out.stats = true;
    } else {
      bad_request("unknown key '" + key + "'");
    }
  }
  if (out.stats) {
    if (device != nullptr || tasks != nullptr || taskset_text != nullptr ||
        !out.tests.empty()) {
      bad_request("'stats' excludes 'tasks'/'device'/'taskset'/'tests'");
    }
    return out;
  }
  if (taskset_text != nullptr) {
    if (tasks != nullptr || device != nullptr) {
      bad_request("'taskset' excludes 'tasks'/'device'");
    }
    if (taskset_text->kind != JsonValue::Kind::kString) {
      bad_request("taskset must be a string in the task/io.hpp v1 format");
    }
    try {
      io::ParsedTaskSet parsed = io::from_string(taskset_text->text);
      out.taskset = std::move(parsed.taskset);
      out.device = parsed.device;
    } catch (const std::exception& e) {
      bad_request(e.what());
    }
    return out;
  }
  if (device == nullptr || tasks == nullptr) {
    bad_request("requires either 'taskset' or both 'device' and 'tasks'");
  }
  const long long width = require_positive_int(*device, "device");
  if (const char* why = width_domain_error(width)) bad_request(why);
  out.device = Device{static_cast<Area>(width)};
  if (tasks->kind != JsonValue::Kind::kArray) {
    bad_request("tasks must be an array");
  }
  std::vector<Task> parsed;
  for (std::size_t i = 0; i < tasks->items.size(); ++i) {
    parsed.push_back(parse_task_object(tasks->items[i], i));
  }
  out.taskset = TaskSet(std::move(parsed));
  return out;
}

svc::BatchRequest parse_request_line(const std::string& line) {
  if (line.size() > svc::kMaxRequestLine) {
    throw svc::CodecError("bad request: line exceeds " +
                          std::to_string(svc::kMaxRequestLine) + " bytes");
  }
  JsonValue doc;
  try {
    doc = svc::json::parse(line);
  } catch (const svc::json::JsonError& e) {
    throw svc::CodecError(e.what());
  }
  if (doc.kind != JsonValue::Kind::kObject) {
    bad_request("request line must be a JSON object");
  }
  std::string id;
  for (const auto& [key, val] : doc.members) {
    if (key != "id") continue;
    if (val.kind == JsonValue::Kind::kString) {
      id = val.text;
    } else if (val.kind == JsonValue::Kind::kNumber && val.integral) {
      id = std::to_string(val.integer);
    } else {
      bad_request("id must be a string or integer");
    }
    break;
  }
  try {
    return parse_members(doc, id);
  } catch (const svc::CodecError& e) {
    throw svc::CodecError(e.what(), id);
  }
}

}  // namespace reference

/// Either the request (every field) or the error text and id, rendered as
/// one comparable string.
template <class Parse>
std::string outcome(Parse parse, const std::string& line) {
  std::string out;
  try {
    const svc::BatchRequest r = parse(line);
    out = "ok id=" + r.id + " device=" + std::to_string(r.device.width) +
          " stats=" + std::to_string(r.stats) + " tests=";
    for (const std::string& t : r.tests) out += t + ",";
    for (const Task& t : r.taskset) {
      out += " [" + std::to_string(t.wcet) + " " + std::to_string(t.deadline) +
             " " + std::to_string(t.period) + " " + std::to_string(t.area) +
             " " + t.name + "]";
    }
  } catch (const svc::CodecError& e) {
    out = std::string("error id=") + e.id() + " what=" + e.what();
  }
  return out;
}

/// Valid request lines of every form, the mutation seeds.
std::vector<std::string> seed_lines() {
  std::vector<std::string> seeds = {
      R"({"id":"r1","device":100,"tasks":[{"c":126,"d":700,"t":700,"a":9},)"
      R"({"c":40,"d":500,"t":500,"a":7},{"c":30,"d":900,"t":900,"a":5}]})",
      R"({"id":7,"device":10,"tasks":[{"c":1,"d":2,"t":2,"a":1,"name":"fir"}],)"
      R"("tests":["gn2","dp"]})",
      R"({"id":"ts","taskset":"taskset v1\ndevice 10\ntask t1 210 500 500 7\n)"
      R"(task - 3 9 9 2\n"})",
      R"({"id":"s","stats":true})",
      R"({"device":100,"tasks":[{"a":9,"t":700,"d":700,"c":126,)"
      R"("name":"xyz"}],"id":"late"})",
      R"( { "id" : "w\ts" , "device" : 64 , "tasks" : [ { "c" : 5 , "d" : 9 ,)"
      R"( "t" : 9 , "a" : 1 } ] } )",
  };
  std::string wide = R"({"id":"n16","device":100,"tasks":[)";
  for (int i = 0; i < 16; ++i) {
    if (i != 0) wide += ',';
    wide += R"({"c":)" + std::to_string(10 + 7 * i) + R"(,"d":)" +
            std::to_string(400 + 13 * i) + R"(,"t":)" +
            std::to_string(500 + 13 * i) + R"(,"a":)" +
            std::to_string(1 + i % 9) + "}";
  }
  seeds.push_back(wide + R"(],"tests":["dp","gn1","gn2"]})");
  return seeds;
}

/// Fragments spliced into seed lines: duplicate members of every kind,
/// escapes, control bytes, edge-case numbers, literals and punctuation.
const std::vector<std::string>& fragments() {
  static const std::vector<std::string> kFragments = {
      R"("id":"dup",)", R"("id":5,)", R"("id":1.5,)", R"("id":[1],)",
      R"("device":0,)", R"("device":100,)", R"("device":"x",)",
      R"("device":2147483648,)", R"("tasks":[],)", R"("tasks":{},)",
      R"("tasks":[{"c":0}],)", R"("tasks":[7],)", R"("taskset":42,)",
      R"("taskset":"taskset v1\ndevice 4\ntask - 1 2 2 1\n",)",
      R"("taskset":"bogus",)", R"("tests":["dp"],)", R"("tests":[],)",
      R"("tests":["nope"],)", R"("tests":[7],)", R"("stats":true,)",
      R"("stats":false,)", R"("c":1,)", R"("c":-1,)", R"("a":3,)",
      R"("a":2147483648,)", R"("name":"n",)", R"("name":"-",)",
      R"("name":7,)", R"("zz":null,)", R"("c":4,)", R"("id":"e",)",
      "[[[[[[[[", "]]]]", R"({"x":)", R"(\u0063)", R"(\ud800)",
      R"(\u00e9)", R"(\u4e2d)", R"(\q)", "\\", "\"", "\x01", "\x1f", "\x7f", "\xc3\xa9",
      "+5", "007", "-0", "1e999", "1e-999", "1e2", "9999999999999999999",
      "999999999999999999", "-9223372036854775808", "9223372036854775807",
      "0.5", "1-2", "--1", ".5", "1e", " ", "\t", "\r\n", "true", "false",
      "null", "tru", "nul", ":", ",", "{}", "[]", "}", "]",
  };
  return kFragments;
}

std::string mutate(std::string line, Xoshiro256ss& rng) {
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const auto at = [&](const std::string& s) { return pick(s.size() + 1); };
  // Mostly one mutation, and mostly a fragment where a member or an item
  // may start, so that many mutants stay valid JSON and reach the schema.
  // Deep nesting is rare: unwinding 64 frames dwarfs every other case.
  static constexpr int kOperators[] = {0, 1, 2, 3, 4, 5, 5, 5, 5, 5, 5, 5, 5};
  const int rounds = 1 + static_cast<int>(rng.uniform_int(0, 9) / 6);
  for (int r = 0; r < rounds; ++r) {
    const int op = rng.uniform_int(0, 39) == 0
                       ? 6
                       : kOperators[pick(std::size(kOperators))];
    switch (op) {
      case 0:  // truncation
        line.resize(at(line));
        break;
      case 1: {  // deletion
        const std::size_t from = at(line);
        line.erase(from, 1 + pick(8));
        break;
      }
      case 2:  // byte flip
        if (!line.empty()) {
          line[pick(line.size())] = static_cast<char>(rng.uniform_int(0, 255));
        }
        break;
      case 3: {  // slice duplication
        const std::size_t from = at(line);
        const std::string slice = line.substr(from, 1 + pick(24));
        line.insert(at(line), slice);
        break;
      }
      case 4:  // a fragment anywhere
        line.insert(at(line), fragments()[pick(fragments().size())]);
        break;
      case 5: {  // a fragment where a member or item may start
        std::vector<std::size_t> starts;
        for (std::size_t i = 0; i < line.size(); ++i) {
          if (line[i] == '{' || line[i] == '[' || line[i] == ',') {
            starts.push_back(i + 1);
          }
        }
        const std::size_t where = starts.empty() ? 0 : starts[pick(starts.size())];
        line.insert(where, fragments()[pick(fragments().size())]);
        break;
      }
      default: {  // nesting around the depth cap
        const std::size_t depth = 58 + pick(10);
        std::string nest(depth, '[');
        if (rng.uniform_int(0, 1) == 1) nest += std::string(depth, ']');
        line.insert(at(line), nest);
      }
    }
  }
  return line;
}

std::string printable(const std::string& line) {
  std::string out;
  for (const char c : line) {
    const auto u = static_cast<unsigned char>(c);
    if (u < 0x20 || u >= 0x7f) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\x%02x", u);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

TEST(CodecDifferential, MutatedLinesMatchTheReferenceSchemaWalk) {
  const std::vector<std::string> seeds = seed_lines();
  for (const std::string& seed : seeds) {
    ASSERT_EQ(outcome(svc::parse_request_line, seed).rfind("ok ", 0), 0u)
        << seed;
  }
  Xoshiro256ss rng(0x5EED0C0DEC);
  constexpr std::size_t kLines = 100'000;
  std::size_t diffs = 0;
  std::size_t accepted = 0;
  std::size_t schema_errors = 0;
  std::size_t syntax_errors = 0;
  const auto started = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kLines; ++i) {
    const std::string line = mutate(seeds[i % seeds.size()], rng);
    const std::string got = outcome(svc::parse_request_line, line);
    const std::string want = outcome(reference::parse_request_line, line);
    if (got != want) {
      if (++diffs <= 5) {
        ADD_FAILURE() << "line: " << printable(line)
                      << "\n  reader:    " << printable(got)
                      << "\n  reference: " << printable(want);
      }
      continue;
    }
    if (got.rfind("ok ", 0) == 0) ++accepted;
    else if (got.find("what=bad request: ") != std::string::npos) ++schema_errors;
    else ++syntax_errors;
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - started)
                             .count();
  EXPECT_EQ(diffs, 0u);
  // The mutations reach every outcome class, not just syntax errors.
  EXPECT_GT(accepted, kLines / 50);
  EXPECT_GT(schema_errors, kLines / 20);
  EXPECT_GT(syntax_errors, kLines / 20);
  std::printf("%zu mutated lines in %.2f s: %zu accepted, %zu schema errors, "
              "%zu syntax errors, %zu differences\n",
              kLines, seconds, accepted, schema_errors, syntax_errors, diffs);
}

// ------------------------------------------------ writer vs snprintf ----

// The snprintf-based writer the to_chars one replaced: its output is the
// wire format the to_chars writer must reproduce byte for byte.
namespace reference {

std::string json_escape(const std::string& raw) {
  std::string out;
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string format_verdict_line(const svc::BatchVerdict& verdict,
                                const TaskSet* taskset) {
  char hash_hex[17];
  std::snprintf(hash_hex, sizeof hash_hex, "%016llx",
                static_cast<unsigned long long>(verdict.hash));
  std::string out = "{\"id\":\"" + json_escape(verdict.id) + "\"";
  out += ",\"verdict\":\"";
  out += verdict.accepted ? "schedulable" : "inconclusive";
  out += "\"";
  if (!verdict.accepted_by.empty()) {
    out += ",\"accepted_by\":\"" + json_escape(verdict.accepted_by) + "\"";
  }
  out += ",\"cache\":\"";
  out += verdict.cache_hit ? "hit" : "miss";
  out += "\",\"hash\":\"";
  out += hash_hex;
  out += "\"";
  if (taskset != nullptr) {
    char buf[96];
    std::snprintf(buf, sizeof buf, ",\"n\":%zu,\"ut\":%.6g,\"us\":%.6g",
                  taskset->size(), taskset->time_utilization(),
                  taskset->system_utilization());
    out += buf;
  }
  if (!verdict.sub.empty()) {
    out += ",\"sub\":[";
    for (std::size_t i = 0; i < verdict.sub.size(); ++i) {
      const svc::SubVerdict& s = verdict.sub[i];
      if (i != 0) out += ",";
      out += "{\"test\":\"" + json_escape(s.test) + "\"";
      if (!s.ran) {
        out += ",\"skipped\":true}";
        continue;
      }
      out += ",\"verdict\":\"";
      out += s.accepted ? "schedulable" : "inconclusive";
      char buf[48];
      std::snprintf(buf, sizeof buf, "\",\"micros\":%.3g}", s.micros);
      out += buf;
    }
    out += "]";
  }
  out += "}";
  return out;
}

}  // namespace reference

std::string random_text(Xoshiro256ss& rng) {
  static const std::string kBytes =
      std::string("abcXYZ019 -_.:/\"\\\b\f\n\r\t\x01\x1f\x7f\xc3\xa9") +
      '\0';
  std::string out;
  const auto n = rng.uniform_int(0, 12);
  for (std::int64_t i = 0; i < n; ++i) {
    out.push_back(kBytes[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kBytes.size()) - 1))]);
  }
  return out;
}

/// A double spread over many decades, with rounding-boundary values.
double random_magnitude(Xoshiro256ss& rng) {
  static const double kEdges[] = {0.0,     -0.0,     0.0005,  0.00049999,
                                  9.995,   9.9995,   99.95,   999.5,
                                  999999.5, 1e15,    1.5e-7,  123456789.0};
  if (rng.uniform_int(0, 9) == 0) {
    return kEdges[rng.uniform_int(
        0, static_cast<std::int64_t>(std::size(kEdges)) - 1)];
  }
  return rng.uniform01() * std::pow(10.0, rng.uniform(-8.0, 17.0));
}

TEST(CodecFormat, WriterMatchesSnprintfReference) {
  Xoshiro256ss rng(0xF0F0A7);
  const char* const kTests[] = {"dp", "gn1", "gn2", "mp-\"q\"", ""};
  for (int i = 0; i < 20'000; ++i) {
    svc::BatchVerdict v;
    v.id = random_text(rng);
    v.accepted = rng.uniform_int(0, 1) == 1;
    v.accepted_by = rng.uniform_int(0, 2) == 0 ? "" : kTests[i % 4];
    v.hash = rng.next() >> (rng.uniform_int(0, 15) * 4);
    v.cache_hit = rng.uniform_int(0, 1) == 1;
    const auto subs = rng.uniform_int(0, 4);
    for (std::int64_t s = 0; s < subs; ++s) {
      v.sub.push_back({kTests[rng.uniform_int(0, 4)], rng.uniform_int(0, 3) != 0,
                       rng.uniform_int(0, 1) == 1, random_magnitude(rng)});
    }
    std::vector<Task> tasks;
    const auto n = rng.uniform_int(0, 70);
    for (std::int64_t k = 0; k < n; ++k) {
      Task t;
      t.period = rng.uniform_int(1, rng.uniform_int(0, 3) == 0
                                        ? 1'000'000'000'000
                                        : 5'000);
      t.wcet = rng.uniform_int(1, t.period * 2);
      t.deadline = t.period;
      t.area = static_cast<Area>(rng.uniform_int(1, 1000));
      tasks.push_back(t);
    }
    const TaskSet ts(std::move(tasks));
    const TaskSet* with = rng.uniform_int(0, 3) == 0 ? nullptr : &ts;
    ASSERT_EQ(svc::format_verdict_line(v, with),
              reference::format_verdict_line(v, with))
        << "verdict " << i;
    const std::string text = random_text(rng);
    ASSERT_EQ(reconf::json_escape(text), reference::json_escape(text));
    ASSERT_EQ(svc::format_error_line(v.id, text),
              "{\"id\":\"" + reference::json_escape(v.id) + "\",\"error\":\"" +
                  reference::json_escape(text) + "\"}");
    ASSERT_EQ(svc::format_shed_line(v.id, text),
              "{\"id\":\"" + reference::json_escape(v.id) + "\",\"shed\":\"" +
                  reference::json_escape(text) + "\"}");
  }
}

}  // namespace
}  // namespace reconf
