#!/usr/bin/env python3
"""Repository benchmark: builds reconf_serve and the benchmark driver from
source, runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --seconds S --repeat K

Workloads: tcp-small-unique, stdio-paper-mix, runtime-scenarios (see
perfbench/README.md). The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones and writes a span file to .bench_out/.
--repeat K is the steadiness mode: K runs on seeds N..N+K-1, then the median,
quartiles and spread (interquartile range over median) of every metric.

Run from the root of the source tree. The build goes to $CARGO_TARGET_DIR
when set, else .bench_build/.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("tcp-small-unique", "stdio-paper-mix", "runtime-scenarios")
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def source_root():
    root = Path(__file__).resolve().parent.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        raise SystemExit(
            f"perfbench: {root} holds no reconf-edf sources (CMakeLists.txt "
            "and src/ are required)")
    return root


def build(root):
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", str(os.cpu_count() or 1),
         "--target", "perfbench_driver", "reconf_serve"],
        check=True, stdout=sys.stderr)
    return build_dir


def cache_value(build_dir, key):
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return "unknown"


def host_record(root, build_dir):
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = cache_value(build_dir, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, check=True).stdout.splitlines()[0]
    except (OSError, subprocess.CalledProcessError, IndexError):
        version = compiler
    commit = "unknown (not a git checkout)"
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
            capture_output=True, text=True, check=True).stdout.split()
        # A checkout without .git must not report an enclosing repository.
        if Path(top).resolve() == root:
            commit = head
    except (OSError, subprocess.CalledProcessError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "compiler": version,
        "build_type": cache_value(build_dir, "CMAKE_BUILD_TYPE"),
        "git_commit": commit,
    }


def run_driver(root, build_dir, workload, seed, seconds, trace):
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    cmd = [str(build_dir / "perfbench_driver"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           "--serve", str(build_dir / "reconf" / "reconf_serve"),
           "--out", str(out_dir)]
    # Own session, so a timeout takes down the driver and any server it
    # started together.
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit("perfbench: driver timed out")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: driver failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def listed_metrics(root, trace):
    """Metric names BENCHMARK.json lists for this mode, or None."""
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: K runs on consecutive seeds")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = source_root()
    try:
        build_dir = build(root)
    except (OSError, subprocess.CalledProcessError) as e:
        raise SystemExit(f"perfbench: build failed: {e}")
    host = host_record(root, build_dir)

    if args.repeat > 0:
        return steadiness(root, build_dir, host, args)

    result = run_driver(root, build_dir, args.workload, args.seed,
                        args.seconds, args.trace)
    host["server_command"] = result["server_command"]
    print("host: " + json.dumps(host))
    listed = listed_metrics(root, args.trace)
    for name, m in result["metrics"].items():
        extra = "" if listed is None or name in listed else "  (not bounded)"
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}{extra}")
    fail_share = result["failed"] / max(1, result["attempted"])
    print(f"{'fail_share':32s} {fail_share:>16.6g} ratio  (not bounded)")
    for note in result["notes"]:
        print(f"failure: {note}")
    final = {key: result[key] for key in ("correct", "attempted", "failed")}
    final["metrics"] = {name: m for name, m in result["metrics"].items()
                        if listed is None or name in listed}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host,
              "result": final}
    (root / ".bench_out" / f"{args.workload}.trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(final))
    return 0


def steadiness(root, build_dir, host, args):
    values = {}
    units = {}
    failed = 0
    for i in range(args.repeat):
        result = run_driver(root, build_dir, args.workload, args.seed + i,
                            args.seconds, args.trace)
        failed += result["failed"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        log(f"run {i + 1}/{args.repeat} (seed {args.seed + i}) done")
    print("host: " + json.dumps(host))
    print(f"{'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s}")
    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0], None, vals[0]))
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "unit": units[name], "values": vals}
        print(f"{name:32s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}")
    print(json.dumps({"workload": args.workload, "runs": args.repeat,
                      "failed": failed, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
