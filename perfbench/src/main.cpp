// perfbench_driver — runs one benchmark workload and prints one JSON line:
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --serve PATH --out DIR
//   perfbench_driver --probe-runtime --seed N
//
// NAME is tcp-small-unique, stdio-paper-mix or runtime-scenarios. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, and a Chrome trace of the layer spans lands in DIR.
// perfbench/run.py builds this driver and wraps its output; see
// perfbench/README.md.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 --serve PATH --out DIR\n"
               "       perfbench_driver --probe-runtime --seed N\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  // A server that dies mid-run must show up as a failed write, not kill
  // the driver.
  std::signal(SIGPIPE, SIG_IGN);

  RunOptions opt;
  opt.self_path = argv[0];
  bool probe = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--probe-runtime") {
      probe = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = v == "1";
    } else if (a == "--serve") {
      opt.serve_path = v;
    } else if (a == "--out") {
      opt.out_dir = v;
    } else {
      return usage();
    }
  }
  if (probe) return runtime_probe(opt.seed);
  if (opt.seconds <= 0 || opt.out_dir.empty() || opt.serve_path.empty()) {
    return usage();
  }

  RunResult result;
  try {
    if (opt.workload == "tcp-small-unique") {
      run_tcp_small_unique(opt, result);
    } else if (opt.workload == "stdio-paper-mix") {
      run_stdio_paper_mix(opt, result);
    } else if (opt.workload == "runtime-scenarios") {
      run_runtime_scenarios(opt, result);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }

  std::string notes = "[";
  for (const std::string& n : result.tally.notes) {
    notes += (notes.size() > 1 ? "," : "") + json_string(n);
  }
  notes += "]";
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s, \"server_command\": %s, \"notes\": %s}\n",
      result.tally.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(result.tally.attempted),
      static_cast<unsigned long long>(result.tally.failed),
      result.metrics.json().c_str(),
      json_string(join_command(result.server_command)).c_str(), notes.c_str());
  return 0;
}
