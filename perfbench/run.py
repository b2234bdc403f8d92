#!/usr/bin/env python3
"""End-to-end benchmark of the cnt-beol reproduction (see README.md).

    python3 perfbench/run.py --workload artefacts|montecarlo|api \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root. Builds `repro` and the benchmark's helper
(`perfbench/probe`) from source, runs the workload against the shipped
`repro` binary, checks every output, prints one line per metric (name,
value, unit, sample count) and, as the last line, one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
end-to-end metrics of BENCHMARK.json, `--trace 1` the per-layer ones.
"""

import argparse
import collections
import concurrent.futures
import hashlib
import json
import math
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import time
import urllib.request

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Run scratch (references, data dirs, logs); emptied at the start of
# every run. Results and traces land beside it and are kept.
OUT = os.path.join(ROOT, ".perfbench")
WORK = os.path.join(OUT, "scratch")
TARGET = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
REPRO = os.path.join(TARGET, "release", "repro")
PROBE = os.path.join(TARGET, "release", "perfbench-probe")
GOLDEN = os.path.join(ROOT, "tests", "golden", "repro_all.txt")

# montecarlo: trials per sweep of a pass (smoke: SMOKE_TRIALS).
TRIALS = 4000
SMOKE_TRIALS = 400
# Set-ups per run; setup_s is their median.
SETUPS = 3
# Cold bodies checked against the CLI after the timed phase; every hot
# and every sweep body is checked.
COLD_CHECKS = 48
# Pool workers of the served instance: as many as the 2-vCPU host the
# api workload was sized on, so its two keep-alive connections hold both.
SERVE_WORKERS = 2
# Local requests only: never route them through a proxy from the
# environment.
HTTP = urllib.request.build_opener(urllib.request.ProxyHandler({}))
# Seconds a finished job stays pollable. The client polls for each result
# every millisecond, so the job table holds only the last few seconds of
# jobs.
JOB_TTL_S = 2


def quantile(values, q):
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    if not xs:
        return float("nan")
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return quantile(values, 0.5)


def fnv1a(data):
    """FNV-1a 64, the hash the probe reports for each body."""
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return "%016x" % h


def splitmix(n):
    z = (n + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def sweep_seed(seed):
    """The montecarlo root seed derived from the workload seed."""
    return splitmix(seed) >> 33


# ---------------------------------------------------------------- build

def build():
    env = dict(os.environ, CARGO_TARGET_DIR=TARGET)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(ROOT, "Cargo.toml"), "-p", "cnt-bench", "--bin", "repro"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join(HERE, "probe", "Cargo.toml")],
    ):
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise SystemExit("perfbench: build failed: %s" % " ".join(cmd))


def probe(*args):
    r = subprocess.run([PROBE] + [str(a) for a in args], cwd=WORK,
                       stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    if r.returncode != 0:
        raise SystemExit("perfbench: probe %s failed" % args[0])
    return r.stdout


# ---------------------------------------------------------------- host

def cpu_times():
    """Jiffies of all CPUs: (stolen by the hypervisor, spent running)."""
    with open("/proc/stat") as f:
        j = [int(x) for x in f.readline().split()[1:9]]
    return j[7], j[0] + j[1] + j[2] + j[5] + j[6]


def steal_share(before, after):
    """Share of the CPU time this machine wanted to run that the
    hypervisor gave to someone else (idle CPUs accrue no steal)."""
    steal, busy = after[0] - before[0], after[1] - before[1]
    return steal / (steal + busy) if steal + busy else 0.0


def source_digest():
    """sha1 of the sources `repro` is built from (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha1()
    paths = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for top in ("crates", "src"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x != "target")
            paths += [os.path.join(d, f) for f in files]
    for p in sorted(paths):
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
    except OSError:
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def host_record():
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "kernel": os.uname().release,
        "commit": git_commit(),
        "source_sha1": source_digest(),
        "calib_ms": json.loads(probe("calib"))["calib_ms"],
    }


# ---------------------------------------------------------------- results

class Result:
    """Metrics of one run plus every operation's outcome."""

    def __init__(self):
        self.metrics = {}  # name -> (value, samples)
        self.attempted = 0
        self.failures = collections.Counter()  # (id, status) -> count
        self.notes = []
        self.shares = {}  # per-layer metric -> share of its pass

    def put(self, name, value, samples):
        self.metrics[name] = (value, samples)

    def op(self, ident, ok, status):
        self.attempted += 1
        if not ok:
            self.failures[(ident, str(status))] += 1

    @property
    def failed(self):
        return sum(self.failures.values())


def run_cli(result, spec_lines, ident_of, warmup, seconds):
    """Timed passes of `repro` children through the probe; returns the
    pass records."""
    spec = os.path.join(WORK, "spec.tsv")
    with open(spec, "w") as f:
        f.write("".join("\t".join(line) + "\n" for line in spec_lines))
    out = probe("cli", "--spec", spec, "--warmup", warmup, "--seconds", seconds)
    passes = [json.loads(line) for line in out.splitlines() if line]
    for p in passes:
        for i, cmd in enumerate(p["cmds"]):
            status = cmd["status"] if cmd["status"] else "mismatch"
            result.op(ident_of[i], cmd["ok"], status)
    return passes


def unstolen(p):
    """A pass's wall time less the share the hypervisor stole over it
    (see README.md)."""
    return p["ms"] * (1 - steal_share((0, 0), (p["steal"], p["busy"])))


def summarize_passes(result, passes):
    setup = [unstolen(p) for p in passes if p["phase"] == "setup"]
    timed = [p for p in passes if p["phase"] == "timed"]
    ms = [unstolen(p) for p in timed]
    rss = [max(c["rss_kb"] for c in p["cmds"]) / 1024 for p in timed]
    result.put("setup_s", median(setup) / 1e3, len(setup))
    result.put("peak_rss_mb", median(rss), len(rss))
    result.put("p50_ms", median(ms), len(ms))
    result.put("p90_ms", quantile(ms, 0.9), len(ms))
    result.put("throughput_ops", len(ms) / (sum(ms) / 1e3), len(ms))
    wall = [p["ms"] for p in timed]
    cpu = [sum(c["cpu_s"] for c in p["cmds"]) * 1e3 for p in timed]
    steal = steal_share((0, 0), (sum(p["steal"] for p in timed), sum(p["busy"] for p in timed)))
    result.notes.append("pass wall p50 %.2f ms p90 %.2f ms before removing %.1f%% steal; "
                        "children's cpu p50 %.2f ms" % (median(wall), quantile(wall, 0.9),
                                                        steal * 100, median(cpu)))


# ---------------------------------------------------------------- workloads

def workload_artefacts(args, result):
    """One pass = one `repro all` process, all 21 ids at the paper point.
    Reference: the pinned golden followed by `repro variability`."""
    var = subprocess.run([REPRO, "variability"], cwd=WORK, capture_output=True)
    result.op("variability", var.returncode == 0, var.returncode)
    ref = os.path.join(WORK, "repro_all.ref")
    with open(GOLDEN, "rb") as g, open(ref, "wb") as f:
        f.write(g.read() + var.stdout)
    passes = run_cli(result, [[ref, REPRO, "all"]], ["all"], args.setups, args.seconds)
    summarize_passes(result, passes)


def workload_montecarlo(args, result):
    """One pass = `repro sweep <id> --trials T --no-cache --seed S` for the
    8 sweep ids. References come from the library at one thread."""
    seed = sweep_seed(args.seed)
    refs = os.path.join(WORK, "refs")
    os.makedirs(refs, exist_ok=True)
    ids = json.loads(probe("refs", "--trials", args.trials, "--seed", seed, "--dir", refs))["ids"]
    lines = [[os.path.join(refs, i + ".txt"), REPRO, "sweep", i, "--trials", str(args.trials),
              "--no-cache", "--seed", str(seed)] for i in ids]
    passes = run_cli(result, lines, ids, args.setups, args.seconds)
    summarize_passes(result, passes)
    result.notes.append("montecarlo trials %d seed %d" % (args.trials, seed))


class Server:
    """A fresh `repro serve` with its own data dir."""

    def __init__(self, name):
        self.data = os.path.join(WORK, name)
        os.makedirs(self.data)
        self.log = os.path.join(WORK, name + ".log")
        with open(self.log, "w") as err:
            self.proc = subprocess.Popen(
                [REPRO, "serve", "--addr", "127.0.0.1:0", "--workers", str(SERVE_WORKERS),
                 "--jobs", "1000000", "--job-ttl", str(JOB_TTL_S), "--data-dir", self.data],
                cwd=WORK, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        deadline = time.monotonic() + 60
        self.addr = None
        while self.addr is None:
            with open(self.log) as f:
                m = re.search(r"http://(\S+) ", f.read())
            if m:
                self.addr = m.group(1)
            elif self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise SystemExit("perfbench: repro serve did not start (see %s)" % self.log)
            else:
                time.sleep(0.002)

    def get(self, path):
        with HTTP.open("http://%s%s" % (self.addr, path), timeout=30) as r:
            return r.status, r.read().decode()

    def hwm_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        return float("nan")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def start_warm_server(name):
    """Spawn → /v1/healthz 200 → hot set computed; returns the server and
    the seconds that took, steal removed."""
    stat = cpu_times()
    started = time.perf_counter()
    srv = Server(name)
    try:
        status, _ = srv.get("/v1/healthz")
        if status != 200:
            raise SystemExit("perfbench: healthz answered %d" % status)
        probe("warm", "--addr", srv.addr)
    except BaseException:
        srv.stop()
        raise
    took = time.perf_counter() - started
    return srv, took * (1 - steal_share(stat, cpu_times()))


def reference_cmd(rec):
    """The CLI command whose stdout a served body must equal."""
    cmd = [REPRO, "sweep", rec["id"], "--no-cache"] if rec["class"] == "sweep" else [REPRO, rec["id"]]
    for kv in rec["sets"].split():
        cmd += ["--set", kv]
    return cmd + ["--format", "json"]


def check_bodies(result, records, seed, cold_checks):
    """Every operation counts once: a non-200 final status, a transport
    error, or a body that differs from the CLI's bytes is a failure. All
    hot and sweep bodies and a seeded sample of cold ones are compared."""
    cold = [i for i, r in enumerate(records) if r["class"] == "cold" and r["status"] == 200]
    checked = set(i for i, r in enumerate(records) if r["class"] != "cold")
    checked.update(random.Random(seed).sample(cold, min(len(cold), cold_checks)))
    wanted = {tuple(reference_cmd(records[i])) for i in checked if records[i]["status"] == 200}

    def reference(cmd):
        r = subprocess.run(list(cmd), cwd=WORK, capture_output=True)
        return cmd, (fnv1a(r.stdout) if r.returncode == 0 else "exit %d" % r.returncode)

    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        refs = dict(pool.map(reference, sorted(wanted)))
    for i, rec in enumerate(records):
        ident = rec["class"] + ":" + rec["id"]
        if rec["error"] or rec["status"] != 200:
            result.op(ident, False, rec["status"] or "transport")
        elif i in checked and refs[tuple(reference_cmd(rec))] != rec["hash"]:
            result.op(ident, False, "mismatch")
        else:
            result.op(ident, True, 200)
    result.notes.append("checked %d of %d bodies against the CLI (%d references)"
                        % (len(checked), len(records), len(refs)))


def run_load(srv, seconds, seed, out, spans=None):
    args = ["load", "--addr", srv.addr, "--seconds", seconds, "--seed", seed, "--out", out]
    if spans:
        args += ["--spans", spans]
    summary = json.loads(probe(*args))
    with open(out) as f:
        records = [json.loads(line) for line in f if line.strip()]
    return records, summary


def class_stats(result, records):
    """Per-class latency lines (hot, cold, sweep), human output only."""
    for cls in ("hot", "cold", "sweep"):
        ms = [r["ms"] for r in records if r["class"] == cls and r["status"] == 200]
        if ms:
            result.notes.append("%-5s p50 %8.3f ms  p90 %8.3f ms  n=%d"
                                % (cls, median(ms), quantile(ms, 0.9), len(ms)))


def workload_api(args, result):
    """Closed loop, two clients on two keep-alive connections against a
    fresh `repro serve --workers 2`: 60% hot, 30% cold, 10% sweep."""
    setups, setup_rss = [], []
    srv = None
    try:
        for i in range(args.setups):
            if srv is not None:
                srv.stop()
            srv, took = start_warm_server("serve%d" % i)
            setups.append(took)
            setup_rss.append(srv.hwm_mb())
        stat = cpu_times()
        records, summary = run_load(srv, args.seconds, args.seed, os.path.join(WORK, "load.jsonl"))
        steal = steal_share(stat, cpu_times())
        rss = srv.hwm_mb()
    finally:
        if srv is not None:
            srv.stop()
    check_bodies(result, records, args.seed, args.cold_checks)
    ok = [r for r in records if r["status"] == 200 and not r["error"]]
    runs = [r["ms"] for r in ok if r["class"] != "sweep"]
    kept = 1 - steal
    result.put("setup_s", median(setups), len(setups))
    result.put("peak_rss_mb", median(setup_rss), len(setup_rss))
    result.put("p50_ms", median(runs) * kept, len(runs))
    result.put("p90_ms", quantile(runs, 0.9) * kept, len(runs))
    result.put("throughput_ops", len(ok) / (summary["elapsed_s"] * kept), len(ok))
    result.notes.append("%.1f%% steal removed from the timed phase; server VmHWM %.2f MB after "
                        "set-up, %.2f MB before shutdown" % (steal * 100, setup_rss[-1], rss))
    class_stats(result, records)
    result.notes.append("server closed %d connection(s)" % summary["reconnects"])


# ---------------------------------------------------------------- traced run

def parse_prom(text):
    series = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            series[name] = float(value)
    return series


def traced(args, result):
    """The traced run: the probe's in-process layer calls with this seed's
    inputs, then a short api session whose client spans are paired with
    before/after scrapes of /v1/metrics and /v1/profile/folded."""
    out = os.path.join(OUT, "trace-%s-seed%d" % (args.workload, args.seed))
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    layers = json.loads(probe(
        "layers", "--repro", REPRO, "--golden", GOLDEN, "--spans", os.path.join(out, "layers"),
        "--trials", args.trials, "--seed", sweep_seed(args.seed), "--reps", args.reps))
    for name, value in layers["metrics"].items():
        result.put(name, value, args.reps)
    for failure in layers["failures"]:
        result.op("layers", False, failure)
    for _ in range(layers["attempted"] - len(layers["failures"])):
        result.op("layers", True, "ok")
    result.shares = layers["shares"]

    srv, _ = start_warm_server("trace-serve")
    try:
        _, metrics0 = srv.get("/v1/metrics")
        _, folded0 = srv.get("/v1/profile/folded")
        records, summary = run_load(srv, args.api_seconds, args.seed,
                                    os.path.join(out, "load.jsonl"), os.path.join(out, "client"))
        _, metrics1 = srv.get("/v1/metrics")
        _, folded1 = srv.get("/v1/profile/folded")
        rss = srv.hwm_mb()
    finally:
        srv.stop()
    for name, text in (("metrics-before.prom", metrics0), ("metrics-after.prom", metrics1),
                       ("profile-before.folded", folded0), ("profile-after.folded", folded1)):
        with open(os.path.join(out, name), "w") as f:
            f.write(text)
    check_bodies(result, records, args.seed, args.cold_checks)

    before, after = parse_prom(metrics0), parse_prom(metrics1)

    def d(name):
        return after.get(name, 0.0) - before.get(name, 0.0)

    def mean_ms(hist):
        return d(hist + "_sum") / max(d(hist + "_count"), 1.0) * 1e3

    ok = [r for r in records if r["status"] == 200 and not r["error"]]
    runs = [r for r in ok if r["class"] != "sweep"]
    sweeps = [r for r in ok if r["class"] == "sweep"]
    jobs = max(len(sweeps), 1)
    polls = sum(r["polls"] for r in sweeps)
    hits, misses = d("cnt_serve_cache_hits_total"), d("cnt_serve_cache_misses_total")
    put = result.put
    put("serve.lru_hit_ratio", hits / max(hits + misses, 1.0), len(runs))
    put("serve.runs", d("cnt_serve_runs_total") / max(len(runs), 1), len(runs))
    for phase in ("queue_wait", "request", "run", "serialize", "write"):
        put("serve.%s_ms" % phase, mean_ms("cnt_serve_%s_seconds" % phase),
            int(d("cnt_serve_%s_seconds_count" % phase)))
    put("serve.peak_rss_mb", rss, 1)
    put("serve.reconnects", summary["reconnects"], len(records))
    put("serve.errors_5xx", sum(d(k) for k in after
                                if re.match(r'cnt_serve_requests_total\{status="5', k)),
        len(records))
    job_run = mean_ms("cnt_span_serve_job_seconds")
    sweep_ms = [r["ms"] for r in sweeps]
    put("fleet.job_run_ms", job_run, int(d("cnt_span_serve_job_seconds_count")))
    put("fleet.job_wait_ms", (sum(sweep_ms) / jobs) - job_run, len(sweeps))
    put("fleet.polls_per_job", polls / jobs, len(sweeps))
    put("fleet.poll_waste", sum(r["polls_202"] for r in sweeps) / max(polls, 1), polls)
    put("fleet.journal_records", d("cnt_serve_journal_records_total") / jobs, len(sweeps))
    put("fleet.chunks", d('cnt_fleet_chunks_total{outcome="local"}') / jobs, len(sweeps))
    put("sweep.store_hits", d("cnt_sweep_cache_hits_total") / jobs, len(sweeps))
    put("sweep.store_misses", d("cnt_sweep_cache_misses_total") / jobs, len(sweeps))
    for cls in ("hot", "cold", "sweep"):
        ms = [r["ms"] for r in ok if r["class"] == cls]
        put("client.%s_p50_ms" % cls, median(ms), len(ms))
    class_stats(result, records)
    result.notes.append("spans, folded stacks and scrapes in %s" % os.path.relpath(out, ROOT))


# ---------------------------------------------------------------- main

WORKLOADS = {
    "artefacts": workload_artefacts,
    "montecarlo": workload_montecarlo,
    "api": workload_api,
}


# The end-to-end metric (and workload) each per-layer metric should move,
# by longest matching name prefix; README.md explains each row.
MOVES = {
    "artefact.": "p50_ms artefacts; p90_ms api for ids with knobs",
    "atomistic.": "p50_ms artefacts, p90_ms api",
    "fields.": "p50_ms artefacts",
    "circuit.": "p50_ms artefacts, p90_ms api",
    "interconnect.delay_grid": "p50_ms artefacts",
    "interconnect.render": "p50_ms artefacts, p50_ms api",
    "sweep.family.": "p50_ms montecarlo",
    "sweep.kernel": "p50_ms montecarlo, throughput_ops api",
    "sweep.reduce": "p50_ms montecarlo, throughput_ops api",
    "sweep.jobs": "p50_ms montecarlo",
    "sweep.job_us": "p50_ms montecarlo, artefacts",
    "sweep.pool_jobs": "p50_ms artefacts",
    "sweep.serial": "p50_ms montecarlo",
    "sweep.efficiency": "p50_ms montecarlo",
    "sweep.store": "throughput_ops api",
    "obs.": "p50_ms artefacts, montecarlo",
    "bench.": "setup_s; p50_ms montecarlo",
    "serve.lru": "throughput_ops, p50_ms, p90_ms api",
    "serve.runs": "throughput_ops, p50_ms, p90_ms api",
    "serve.queue_wait": "throughput_ops api",
    "serve.run_ms": "p90_ms api",
    "serve.peak_rss": "peak_rss_mb api",
    "serve.reconnects": "throughput_ops api",
    "serve.errors": "failed",
    "serve.": "p50_ms api",
    "fleet.": "throughput_ops api",
    "client.": "p50_ms, p90_ms, throughput_ops api",
}


def moves(name):
    prefix = max((p for p in MOVES if name.startswith(p)), key=len, default=None)
    return MOVES.get(prefix, "")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="smallest sizes, for the benchmark's own checks")
    args = p.parse_args(argv)
    args.trials = SMOKE_TRIALS if args.smoke else TRIALS
    args.setups = 1 if args.smoke else SETUPS
    args.reps = 1 if args.smoke else 3
    args.cold_checks = 8 if args.smoke else COLD_CHECKS
    args.api_seconds = max(1.0, args.seconds / 4)
    return args


def main(argv):
    args = parse_args(argv)
    declared = declared_metrics(args.trace)
    build()
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    stat0 = cpu_times()
    host = host_record()
    result = Result()
    (traced if args.trace else WORKLOADS[args.workload])(args, result)
    host["steal"] = steal_share(stat0, cpu_times())
    host["calib_end_ms"] = json.loads(probe("calib"))["calib_ms"]

    print("perfbench %s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("host: %s" % json.dumps(host, sort_keys=True))
    for note in result.notes:
        print("  " + note)
    for name in sorted(result.metrics):
        value, n = result.metrics[name]
        share = result.shares.get(name)
        print("%-28s %14.6g %-8s n=%-6d%s%s" % (
            name, value, declared.get(name, "?"), n,
            "" if share is None else " share %5.1f%%" % (share * 100),
            "  moves " + moves(name) if args.trace else ""))
    print("error_rate %.6f (%d of %d operations failed)"
          % (result.failed / max(result.attempted, 1), result.failed, result.attempted))
    for (ident, status), count in sorted(result.failures.items()):
        print("  failed: %s status %s x%d" % (ident, status, count))

    names_ok = set(result.metrics) == set(declared)
    if not names_ok:
        print("perfbench: printed metrics differ from BENCHMARK.json: missing %s, extra %s"
              % (sorted(set(declared) - set(result.metrics)),
                 sorted(set(result.metrics) - set(declared))), file=sys.stderr)
    finite = all(math.isfinite(v) for v, _ in result.metrics.values())
    positive = args.trace or all(v > 0 for v, _ in result.metrics.values())
    # A metric with no samples is NaN: printed as 0 in the result object
    # (JSON has no NaN), and the run is not correct.
    metrics = {name: {"value": value if math.isfinite(value) else 0.0,
                      "unit": declared.get(name, "?")}
               for name, (value, _) in sorted(result.metrics.items())}
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"host": host, "args": vars(args), "metrics": metrics,
                   "samples": {k: n for k, (_, n) in result.metrics.items()},
                   "failures": ["%s %s x%d" % (i, s, c) for (i, s), c in result.failures.items()],
                   "notes": result.notes}, f, indent=1)
    print(json.dumps({
        "correct": result.failed == 0 and names_ok and finite and bool(positive),
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
