#!/usr/bin/env python3
"""Self-test of the benchmark: a one-second run of every workload, untraced
and traced, checked against BENCHMARK.json.

    python3 perfbench/selftest.py

Each run must print a last line with exactly the keys correct, attempted,
failed and metrics; report every end-to-end (untraced) or per-layer (traced)
metric named in BENCHMARK.json with its unit; answer everything correctly
(fail_share == 0); and, when traced, write its span file. Exit 0 when all
pass, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_run(spec, workload, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", "7",
                             "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    problems = []
    if proc.returncode != 0:
        return [f"exit status {proc.returncode}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0:
        problems.append(f"failed {result.get('failed')} of "
                        f"{result.get('attempted')}")
    if result.get("attempted", 0) < 1:
        problems.append("attempted < 1")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"missing metric {m['name']}")
        elif got.get("unit") != m["unit"]:
            problems.append(f"{m['name']} unit {got.get('unit')} != "
                            f"{m['unit']}")
        elif not isinstance(got.get("value"), (int, float)):
            problems.append(f"{m['name']} value is not a number")
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"unlisted metrics {sorted(extra)}")
    if trace:
        span_file = ROOT / ".bench_out" / f"{workload}.trace.json"
        try:
            events = json.loads(span_file.read_text())["traceEvents"]
            if not events:
                problems.append("span file has no events")
        except (OSError, ValueError, KeyError) as e:
            problems.append(f"span file unreadable: {e}")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems = check_run(spec, w["name"], trace)
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"{w['name']:20s} trace={trace}  {status}", flush=True)
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
