#!/usr/bin/env python3
"""CI's timing gate: compares fresh perfbench runs with a committed point.

    for w in artefacts montecarlo api; do
      python3 perfbench/run.py --workload $w --seed 1 --seconds 10 --trace 0 \\
        > .perfbench/results/$w-seed1-trace0.out
    done
    python3 .github/perfbench_gate.py

PERFBENCH_POINT.json maps each workload to the
`.perfbench/results/<W>-seed1-trace0.json` object of one such run, host
record included. For each of its workloads the gate reads the last line of
`.perfbench/results/<W>-seed1-trace0.out`, the result object run.py
prints. A run fails the gate unless it is `correct` with 0 failed
operations, and when `p50_ms`, `p90_ms` or `throughput_ops` is worse than
the point by more than that metric's bound in BENCHMARK.json. `peak_rss_mb`
and `setup_s` depend on the host, so they are printed but not gated.

To record a new point, run the loop above on the tree to be committed, then

    python3 -c 'import json; json.dump({w: json.load(open(
        ".perfbench/results/%s-seed1-trace0.json" % w)) for w in
        ("artefacts", "montecarlo", "api")}, open("PERFBENCH_POINT.json", "w"),
        indent=1, sort_keys=True)'
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, ".perfbench", "results")
GATED = ("p50_ms", "p90_ms", "throughput_ops")


def last_json(path):
    with open(path) as f:
        lines = f.read().strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def worse_by(metric, point, run):
    """How much worse `run` is than `point`, as a share of `point`."""
    if metric["better"] == "lower":
        return (run - point) / point
    return (point - run) / point


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    with open(os.path.join(ROOT, "PERFBENCH_POINT.json")) as f:
        point = json.load(f)
    failures = []
    for workload, recorded in sorted(point.items()):
        path = os.path.join(RESULTS, "%s-seed1-trace0.out" % workload)
        try:
            result = last_json(path)
        except (OSError, ValueError) as e:
            failures.append("%s: no result object in %s (%s)" % (workload, path, e))
            continue
        if result is None or not result.get("correct") or result.get("failed") != 0:
            failures.append("%s: not correct with 0 failed operations: %s" % (
                workload, None if result is None else {
                    k: result.get(k) for k in ("correct", "attempted", "failed")}))
            continue
        for name in sorted(spec):
            was = recorded["metrics"][name]["value"]
            now = result["metrics"][name]["value"]
            worse = worse_by(spec[name], was, now)
            bound = spec[name]["bound"]
            verdict = "info"
            if name in GATED:
                verdict = "FAIL" if worse > bound else "ok"
            print("%-4s %-10s %-14s point %10.4g  run %10.4g  worse by %+6.1f%% (bound %.0f%%)"
                  % (verdict, workload, name, was, now, worse * 100, bound * 100))
            if verdict == "FAIL":
                failures.append("%s: %s worse than the point by %.1f%%, bound %.0f%%"
                                % (workload, name, worse * 100, bound * 100))
    for failure in failures:
        print("perfbench gate: " + failure, file=sys.stderr)
    if not failures:
        print("perfbench gate: %d workload(s) passed" % len(point))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
