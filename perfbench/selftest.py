#!/usr/bin/env python3
"""The benchmark's own checks. Run from the repository root:

    python3 perfbench/selftest.py

1. BENCHMARK.json keeps its required shape: keys, name and unit
   syntax, counts, bounds of at most 0.25, setup_s with the largest.
2. Each workload at smoke size, untraced and traced: the last line is the
   result object, its metric names equal BENCHMARK.json's, nothing fails.
3. A corrupted `repro all` stdout and a corrupted served body are both
   counted as failures.
4. In a directory holding only BENCHMARK.json and perfbench/, run.py exits
   non-zero without printing a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def check(cond, what):
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        check.failed += 1


check.failed = 0


def check_spec():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    check(os.path.getsize(path) <= 64 * 1024, "BENCHMARK.json is at most 64 KiB")
    with open(path) as f:
        spec = json.load(f)
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          "BENCHMARK.json has exactly the required keys")
    check(1 <= len(spec["paths"]) <= 16 and all(
        PATH.match(p) and not p.startswith("/") and ".." not in p.split("/")
        for p in spec["paths"]), "paths are relative and well-formed")
    check(len(spec["command"]) <= 32 and all(len(c) <= 200 for c in spec["command"]),
          "command is at most 32 strings of at most 200 characters")
    check(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
          "run_seconds is a whole number in 1..60")
    names = []
    check(2 <= len(spec["workloads"]) <= 8 and all(
        set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        for w in spec["workloads"]), "2-8 workloads, each a name and a one-line why")
    names += [w["name"] for w in spec["workloads"]]
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
          "BENCHMARK.json workloads are the ones run.py runs")
    e2e, layer = spec["end_to_end"], spec["per_layer"]
    check(1 <= len(e2e) <= 16 and all(
        set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25 for m in e2e),
        "1-16 end-to-end metrics, each with a bound of at most 0.25")
    check(1 <= len(layer) <= 128 and all(set(m) == {"name", "unit", "better"} for m in layer),
          "1-128 per-layer metrics without bounds")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in e2e),
          "setup_s is in seconds, lower is better, with the largest bound")
    metrics = e2e + layer
    names += [m["name"] for m in metrics]
    check(all(NAME.match(n) for n in names) and len(set(names)) == len(names),
          "names are well-formed and used once")
    check(all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics),
          "units are well-formed and better is higher or lower")


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def check_smoke():
    for workload in sorted(run.WORKLOADS):
        for trace in (0, 1):
            r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                                workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
                                "--smoke"], cwd=run.ROOT, capture_output=True, text=True,
                               timeout=600)
            what = "%s --trace %d at smoke size" % (workload, trace)
            res = last_json(r.stdout)
            check(r.returncode == 0 and res is not None
                  and set(res) == {"correct", "attempted", "failed", "metrics"},
                  what + ": exits 0 with the result object last")
            if res is None:
                print(r.stderr[-2000:])
                continue
            declared = run.declared_metrics(trace)
            check(set(res["metrics"]) == set(declared)
                  and all(v["unit"] == declared[k] for k, v in res["metrics"].items()),
                  what + ": metric names and units equal BENCHMARK.json")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  what + ": correct, nothing failed")


def check_corruption():
    run.build()
    shutil.rmtree(run.WORK, ignore_errors=True)
    os.makedirs(run.WORK)
    with open(run.GOLDEN, "rb") as g:
        golden = g.read()
    var = subprocess.run([run.REPRO, "variability"], capture_output=True, check=True).stdout
    ref = os.path.join(run.WORK, "corrupt.ref")
    for corrupt, want in ((False, 0), (True, 2)):
        data = bytearray(golden + var)
        if corrupt:
            data[len(data) // 2] ^= 0x01
        with open(ref, "wb") as f:
            f.write(data)
        result = run.Result()
        run.run_cli(result, [[ref, run.REPRO, "all"]], ["all"], 1, 0.01)
        check(result.attempted == 2 and result.failed == want,
              "repro all against a %s reference: %d of 2 passes failed"
              % ("corrupted" if corrupt else "clean", result.failed))

    srv, _ = run.start_warm_server("selftest")
    try:
        records, _ = run.run_load(srv, 1, 7, os.path.join(run.WORK, "selftest.jsonl"))
    finally:
        srv.stop()
    for corrupt in (False, True):
        recs = [dict(r) for r in records]
        if corrupt:
            hot = next(r for r in recs if r["class"] == "hot")
            hot["hash"] = "%016x" % (int(hot["hash"], 16) ^ 1)
        result = run.Result()
        run.check_bodies(result, recs, 7, 4)
        want = {("hot:" + hot["id"], "mismatch"): 1} if corrupt else {}
        check(result.attempted == len(recs) and dict(result.failures) == want,
              "api with a %s hot body: %d failure(s) counted"
              % ("corrupted" if corrupt else "clean", result.failed))


def check_bare():
    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__", "target"))
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "artefacts", "--seed",
                        "1", "--seconds", "1", "--trace", "0"], cwd=bare, env=env,
                       capture_output=True, text=True, timeout=180)
    check(r.returncode != 0 and last_json(r.stdout) is None,
          "with only BENCHMARK.json and perfbench/: exit %d, no result" % r.returncode)
    shutil.rmtree(bare)


def main():
    check_spec()
    check_corruption()
    check_smoke()
    check_bare()
    print("%d check(s) failed" % check.failed)
    sys.exit(1 if check.failed else 0)


if __name__ == "__main__":
    main()
