// Tests for the NDJSON request/response codec of the admission service.

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "svc/batch.hpp"
#include "svc/codec.hpp"
#include "task/io.hpp"
#include "task/task.hpp"

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
      "{\"id\":\"rt\",\"taskset\":\"" + svc::json_escape(text) + "\"}";
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
  EXPECT_EQ(svc::json_escape(std::string("a\x01z")), "a\\u0001z");
  EXPECT_EQ(svc::json_escape("tab\there"), "tab\\there");
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
/// drains finish(); every line in order. `peak` (when non-null) receives
/// the most bytes the framer ever buffered.
Framed frame(const std::string& text, std::size_t chunk, std::size_t max_len,
             std::size_t* peak = nullptr) {
  svc::StreamFramer framer(max_len);
  Framed out;
  std::string line;
  svc::LineStatus status;
  for (std::size_t off = 0; off < text.size(); off += chunk) {
    framer.feed(text.data() + off, std::min(chunk, text.size() - off));
    if (peak != nullptr) *peak = std::max(*peak, framer.buffered());
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
    std::size_t peak = 0;
    EXPECT_EQ(frame(far_over, chunk, 10, &peak),
              (Framed{{std::string(10, 'a'), kOversized}, {"after", kLine}}))
        << "chunk " << chunk;
    if (chunk == 1) {
      EXPECT_LE(peak, 10u) << "over-cap bytes were buffered";
    }
  }
  // An over-cap final line without a newline still surfaces at EOF.
  const std::string tail = std::string(30, 'z');
  for (const std::size_t chunk : chunkings(tail)) {
    EXPECT_EQ(frame(tail, chunk, 10),
              (Framed{{std::string(10, 'z'), kOversized}}))
        << "chunk " << chunk;
  }
}

}  // namespace
}  // namespace reconf
