#!/usr/bin/env python3
"""The C4 benchmark: one command, four workloads, checked verdicts.

    python3 perfbench/run.py --workload {cold,edit,serve,serve-sharded} \
        --seed N --seconds S --trace {0,1}

Builds the analyzer, c4-serve, c4-router and perfbench-loadgen from this
checkout (CMake, into .bench_build/), generates the workload's inputs from
the seed, runs perfbench-loadgen on them, checks every verdict against
perfbench/expected.json and prints the metrics.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics.  perfbench/NOTES.md explains
the workloads and metrics.
"""

import argparse
import fcntl
import json
import math
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "cmake"
WORK = ROOT / ".bench_build" / "work"

WORKLOADS = ("cold", "edit", "serve", "serve-sharded")

# The four Table 1 apps whose cold analysis takes seconds (Relatd, Cloud
# Card, killrchat, Super Chat: 31.6 of 35.7 s for all 28 apps at two
# threads). No workload runs them: one pass would outlast a run.
HEAVY = {"Relatd", "Cloud Card", "killrchat", "Super Chat"}
# Apps the general SSG alone proves serializable in well under a
# millisecond. The in-process workloads leave them out: they add nothing to
# a pass but would put the median program between two clusters of times.
FAST_PROVED = {"Cloud List", "EC2 Demo Chat", "Contest Voting",
               "NuvolaList 2", "FieldGPS", "Instant Poll", "Unique Poll",
               "cassandra-lock", "curr-exchange", "playlist", "roomstore",
               "shopping-cart"}
# Kept out of `edit`, whose set-up fills one incremental cache per app twice
# and whose pass renames every transaction once: Events and
# cassandra-twitter take 7.9 and 2.6 s to fill, and Sky Locale's 12
# transactions would add 7.6 s to a pass.
EDIT_SKIP = {"Events", "cassandra-twitter", "Sky Locale"}
# Apps whose cold analysis takes over 0.2 s at one thread; kept out of the
# serving workloads' first-seen programs, so that misses keep the server
# workers busy for a small share of the run.
SLOW_MISS = {"Events", "cassandra-twitter", "Expense Rec.", "Sky Locale",
             "Chatter Box"}

THREADS = 2          # analyzer threads of the in-process workloads
CLIENTS = 4          # client connections of the serving workloads
WINDOW = 8           # requests each connection keeps in flight
MISS_RATE = 3        # first-seen programs sent per second of the timed loop
HITS = 20000         # seeded resubmission picks, repeated as needed
MAX_PASSES = 64      # passes generated for the in-process workloads
SETUP_REPS = {"cold": 2, "edit": 2, "serve": 2, "serve-sharded": 2}


TXN_DECL = re.compile(r"^txn\s+([A-Za-z_][A-Za-z_0-9]*)\s*\(", re.M)


class BenchError(Exception):
    """A failure that leaves no result to print."""


# --------------------------------------------------------------------------
# Inputs


def load_apps():
    """The 28 Table 1 programs with their known answers, in Table 1 order."""
    expected = json.loads((HERE / "expected.json").read_text())
    apps = []
    for app in expected["apps"]:
        app = dict(app)
        app["source"] = (HERE / "apps" / app["file"]).read_text()
        apps.append(app)
    return apps


def txn_names(source):
    return TXN_DECL.findall(source)


def rename(source, old, new):
    """Renames the declaration of transaction `old` to `new`."""
    if new in txn_names(source):
        raise BenchError(f"rename target {new} already declared")
    pattern = re.compile(r"^(txn\s+)" + re.escape(old) + r"(\s*\()", re.M)
    out, count = pattern.subn(r"\g<1>" + new + r"\g<2>", source)
    if count != 1:
        raise BenchError(f"transaction {old} is declared {count} times")
    return out


def renamed(app, old, tag):
    new = f"{old}_{tag}"
    return {"app": app["name"], "source": rename(app["source"], old, new),
            "rename": [old, new]}


def make_plan(workload, seed, seconds, apps):
    """Everything the load generator runs, derived from the seed alone."""
    rng = random.Random(f"{workload}/{seed}")
    light = [a for a in apps if a["name"] not in HEAVY]
    plan = {"workload": workload, "seconds": seconds,
            "setup_reps": SETUP_REPS[workload]}

    if workload in ("cold", "edit"):
        skip = FAST_PROVED | (EDIT_SKIP if workload == "edit" else set())
        suite = [a for a in light if a["name"] not in skip]
        # A cold pass analyzes every app; an edit pass renames every
        # transaction of every app once (the cost of an edit depends on
        # which transaction changed), each to a name fresh to the pass.
        units = [(i, None) for i in range(len(suite))]
        if workload == "edit":
            units = [(i, t) for i, a in enumerate(suite)
                     for t in txn_names(a["source"])]
        passes = []
        for p in range(MAX_PASSES):
            rng.shuffle(units)
            passes.append([
                dict(renamed(suite[i], t, f"s{seed}p{p}") if t else
                     {"app": suite[i]["name"], "source": suite[i]["source"],
                      "rename": None}, program=i)
                for i, t in units])
        # Enough passes for a median program time (20 samples).
        plan.update(mode="inproc", threads=THREADS,
                    min_passes=math.ceil(20 / len(units)),
                    programs=[a["source"] for a in suite], passes=passes)
        return plan

    # First-seen programs cycle through the pool in seeded order.
    pool = [a for a in light if a["name"] not in SLOW_MISS]
    misses, cycle = [], []
    while len(misses) < seconds * MISS_RATE:
        if not cycle:
            cycle = list(range(len(pool)))
            rng.shuffle(cycle)
        app = pool[cycle.pop()]
        misses.append(renamed(app, rng.choice(txn_names(app["source"])),
                              f"s{seed}m{len(misses)}"))
    plan.update(mode="serve", clients=CLIENTS, window=WINDOW,
                server="serve" if workload == "serve" else "router",
                warm=[a["source"] for a in light],
                apps=[a["name"] for a in light],
                hits=[rng.randrange(len(light)) for _ in range(HITS)],
                misses=[m["source"] for m in misses],
                miss_info=[{"app": m["app"], "rename": m["rename"]}
                           for m in misses],
                miss_rate=MISS_RATE)
    return plan


# --------------------------------------------------------------------------
# Build and run


def build():
    """Configures and builds the programs (both steps are quick when the
    build is up to date; configuring every time picks up new targets)."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(ROOT), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release",
              f"-DCMAKE_PROJECT_INCLUDE={HERE / 'project.cmake'}"],
             ["cmake", "--build", str(BUILD), "-j", jobs, "--target",
              "perfbench-loadgen", "c4-serve", "c4-router"]]
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                raise BenchError(f"build failed; see {log}")


def cpu_times():
    """(steal, total) CPU jiffies since boot from /proc/stat, or zeros."""
    try:
        line = Path("/proc/stat").read_text().split("\n", 1)[0]
    except OSError:
        return 0, 0
    fields = [int(x) for x in line.split()[1:9]]
    return (fields[7] if len(fields) == 8 else 0), sum(fields)


def kill_group(proc):
    """Kills `proc`'s process group and waits (up to 10 s) until it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_loadgen(plan, name):
    """Writes the plan, runs the load generator on it, returns its output.

    It runs in a process group of its own: whatever it leaves
    behind (a server it could not drain, a router's workers) is killed and
    waited for before this returns."""
    loadgen = BUILD / "perfbench" / "perfbench-loadgen"
    plan_path = WORK / f"{name}.plan.json"
    out_path = WORK / f"{name}.out.json"
    plan_path.write_text(json.dumps(plan))
    proc = subprocess.Popen([str(loadgen), str(plan_path), str(out_path)],
                            cwd=ROOT, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=170)
    finally:
        kill_group(proc)
    if proc.returncode != 0:
        raise BenchError(f"load generator failed: {err.strip()}")
    return json.loads(out_path.read_text())


# --------------------------------------------------------------------------
# Statistics


def percentile(samples, q):
    """Linearly interpolated q-quantile of `samples`, or None (refused) when
    fewer than ten samples lie beyond it."""
    n = len(samples)
    pos = q * (n - 1)
    lo = math.floor(pos)
    if n - 1 - lo < 10:
        return None
    xs = sorted(samples)
    return xs[lo] + (xs[lo + 1] - xs[lo]) * (pos - lo)


def ratio(num, den):
    return num / den if den else 0.0


# --------------------------------------------------------------------------
# Checking


def expected_of(apps):
    return {a["name"]: a for a in apps}


def check_program(record, expect, rename_pair):
    """Returns None if an in-process verdict matches the known answer (the
    renamed transaction mapped back), else a description of the mismatch."""
    back = {}
    if rename_pair:
        back[rename_pair[1]] = rename_pair[0]
    got = sorted((sorted(back.get(t, t) for t in v["txns"]), v["mark"])
                 for v in record["violations"])
    want = sorted((sorted(v["txns"]), v["mark"]) for v in expect["violations"])
    if record["serializable"] != expect["serializable"] or got != want:
        return f"{expect['name']}: got {got}, expected {want}"
    if record["witness_failures"]:
        return (f"{expect['name']}: {record['witness_failures']} validated "
                "witness(es) fail the outside re-check")
    return None


def summary_of(expect):
    marks = [v["mark"] for v in expect["violations"]]
    return {"transactions": expect["transactions"],
            "serializable": expect["serializable"],
            "violations": len(marks),
            "validated": marks.count("validated"),
            "unvalidated": marks.count("unvalidated"),
            "inconclusive": marks.count("inconclusive")}


def check_reply(sample, expect, want_hit):
    """Returns None if a serving reply is a correct verdict with the
    expected cache behaviour, else a description of the failure."""
    status, verdict, error = sample[2], sample[4], sample[9]
    if status != "ok":
        return f"{expect['name']}: {status} reply ({error})"
    if verdict != summary_of(expect):
        return f"{expect['name']}: got {verdict}, expected {summary_of(expect)}"
    if sample[3] != want_hit:
        return f"{expect['name']}: cache_hit {sample[3]}, expected {want_hit}"
    return None


# --------------------------------------------------------------------------
# Metrics


# Every metric a run can print, with its unit. Untraced runs print exactly
# the end-to-end metrics, traced runs exactly the per-layer ones; the names
# match BENCHMARK.json. A per-layer metric of a layer the workload does not
# run reads 0 with 0 samples.
END_TO_END = {"setup_s": "s", "verdict_ms.p50": "ms", "throughput_rps": "1/s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "frontend.s": "s", "frontend.lex_s": "s", "frontend.parse_s": "s",
    "frontend.build_s": "s", "frontend.events": "count",
    "passes.s": "s", "passes.events_removed": "count",
    "passes.fresh_promotions": "count",
    "analysis.cache_open_s": "s", "analysis.cache_s": "s",
    "analysis.backend_s": "s", "analysis.verdict_hits": "count",
    "analysis.verdict_misses": "count",
    "ssg.s": "s", "ssg.edges": "count", "ssg.flagged": "count",
    "unfold.s": "s", "unfold.checked": "count", "unfold.subsumed": "count",
    "unfold.layouts_filtered": "count",
    "domain.s": "s", "domain.killed": "count", "domain.kill_ratio": "ratio",
    "smt.s": "s", "smt.queries": "count", "smt.solves": "count",
    "smt.rlimit": "count", "smt.retries": "count",
    "smt.refuted_ratio": "ratio", "smt.query_ms.p50": "ms",
    "smt.query_ms.p90": "ms",
    "validate.calls": "count", "validate.ms.p50": "ms",
    "oracle.sat_hits": "count", "oracle.sat_misses": "count",
    "oracle.hit_ratio": "ratio", "oracle.imported": "count",
    "incremental.s": "s", "incremental.replayed": "count",
    "incremental.replay_ratio": "ratio", "incremental.txn_hits": "count",
    "green.hits": "count", "green.misses": "count",
    "disk.hits": "count", "disk.misses": "count", "disk.stores": "count",
    "serve.hit_ms.p50": "ms", "serve.hit_ms.p99": "ms",
    "serve.miss_ms.p50": "ms", "serve.miss_ms.p75": "ms",
    "serve.frontend_ms": "ms", "serve.passes_ms": "ms",
    "serve.overhead_ms.p50": "ms", "serve.overhead_ms.p99": "ms",
    "serve.miss_overhead_ms.p50": "ms",
    "serve.backend_runs": "count", "serve.single_flight_waits": "count",
    "serve.overload_rejects": "count", "serve.replies_dropped": "count",
    "router.rerouted": "count", "router.worker_restarts": "count",
    "router.snapshot_broadcasts": "count",
    "router.snapshot_facts_imported": "count", "router.backend_runs": "count",
    "trace.overhead_suite_s": "s", "trace.overhead_verdict_ms": "ms",
}


class Report:
    """Collects metric values with their sample counts, and failures."""

    def __init__(self, trace):
        self.units = PER_LAYER if trace else END_TO_END
        self.metrics = {name: (0.0, 0) for name in self.units} if trace else {}
        self.refused = set()
        self.attempted = 0
        self.failures = []

    def add(self, name, value, samples):
        if name not in self.units:
            raise BenchError(f"metric {name} is not declared")
        self.metrics[name] = (value, samples)

    def add_percentile(self, name, values, q):
        """Adds a percentile; an end-to-end one the sample cannot support
        ends the run without a result, a per-layer one reads 0."""
        value = percentile(values, q)
        if value is None:
            if self.units is END_TO_END:
                raise BenchError(f"{name}: {len(values)} samples leave fewer "
                                 "than ten beyond the percentile; refused")
            self.refused.add(name)
            value = 0.0
        self.add(name, value, len(values))

    def check(self, failure):
        self.attempted += 1
        if failure:
            self.failures.append(failure)


def layer_metrics(report, stats, per):
    """Per-layer metrics from summed stats-JSON fields, divided by `per`
    (the passes of an in-process run, 1 for a serving run)."""
    def s(key):
        return stats.get(key, 0.0) / per

    queries, flagged = s("smt_queries"), s("ssg_flagged")
    hits, misses = s("sat_cache_hits"), s("sat_cache_misses")
    replayed = queries - s("smt_solves")
    for name, value in (
            ("frontend.s", s("frontend_seconds")),
            ("frontend.lex_s", s("lex_seconds")),
            ("frontend.parse_s", s("parse_seconds")),
            ("frontend.build_s", s("build_seconds")),
            ("frontend.events", s("events_before_passes")),
            ("passes.s", s("pass_seconds")),
            ("passes.events_removed",
             s("events_before_passes") - s("events_after_passes")),
            ("passes.fresh_promotions", s("fresh_promotions")),
            ("analysis.backend_s", s("backend_seconds")),
            ("ssg.s", s("ssg_seconds")),
            ("ssg.edges", s("ssg_edges")),
            ("ssg.flagged", flagged),
            ("unfold.s", s("enum_seconds")),
            ("unfold.checked", s("unfoldings_checked")),
            ("unfold.subsumed", s("unfoldings_subsumed")),
            ("unfold.layouts_filtered", s("layouts_filtered")),
            ("domain.s", s("prefilter_seconds")),
            ("domain.killed", s("smt_queries_prefiltered")),
            ("domain.kill_ratio", ratio(s("smt_queries_prefiltered"), queries)),
            ("smt.s", s("smt_seconds")),
            ("smt.queries", queries),
            ("smt.solves", s("smt_solves")),
            ("smt.rlimit", s("rlimit_spent")),
            ("smt.retries", s("smt_retries")),
            ("smt.refuted_ratio", ratio(s("smt_refuted"), flagged)),
            # Unfoldings whose cycle the SMT stage confirmed: each witness
            # went through validation.
            ("validate.calls", flagged - s("smt_refuted") - s("smt_unknown")),
            ("oracle.sat_hits", hits),
            ("oracle.sat_misses", misses),
            ("oracle.hit_ratio", ratio(hits, hits + misses)),
            ("incremental.s", s("incremental_seconds")),
            ("incremental.replayed", replayed),
            ("incremental.replay_ratio", ratio(replayed, queries)),
            ("incremental.txn_hits", s("txn_fingerprint_hits")),
            ("green.hits", s("constraint_cache_hits")),
            ("green.misses", s("constraint_cache_misses"))):
        report.add(name, value, per)


# Per-program fields of the load generator's in-process records, summed.
RECORD_TOTALS = ("cache_open_seconds", "analyze_seconds", "oracle_imported",
                 "verdict_hits", "verdict_misses", "disk_hits", "disk_misses",
                 "disk_stores")


def inproc_report(plan, out, apps, trace):
    expect = expected_of(apps)
    report = Report(trace)
    passes = out["passes"]
    latencies, traced_latencies, stats = [], [], {}
    witness_ms, query_ms = [], []
    for p, done in enumerate(passes):
        for item, rec in zip(plan["passes"][p], done["programs"]):
            report.check(check_program(rec, expect[item["app"]],
                                       item["rename"]))
            (traced_latencies if done["traced"] else latencies).append(
                rec["seconds"] * 1e3)
            numbers = [(k, v) for k, v in rec["stats"].items()
                       if isinstance(v, (int, float))]
            numbers += [(k, rec[k]) for k in RECORD_TOTALS]
            for key, value in numbers:
                stats[key] = stats.get(key, 0.0) + value
            witness_ms += rec["witness_ms"]
            query_ms += rec["query_ms"]
    untraced = [p["seconds"] for p in passes if not p["traced"]]

    if not trace:
        report.add("setup_s", statistics.median(out["setup_seconds"]),
                   len(out["setup_seconds"]))
        report.add_percentile("verdict_ms.p50", latencies, 0.5)
        rates = [len(p["programs"]) / p["seconds"] for p in passes]
        report.add("throughput_rps", statistics.median(rates), len(rates))
        report.add("peak_rss_mb", out["peak_rss_mb"], 1)
        return report

    n = len(passes)
    layer_metrics(report, stats, n)
    for name, key in (("analysis.cache_open_s", "cache_open_seconds"),
                      ("analysis.verdict_hits", "verdict_hits"),
                      ("analysis.verdict_misses", "verdict_misses"),
                      ("oracle.imported", "oracle_imported"),
                      ("disk.hits", "disk_hits"),
                      ("disk.misses", "disk_misses"),
                      ("disk.stores", "disk_stores")):
        report.add(name, stats[key] / n, n)
    report.add("analysis.cache_s",
               (stats["analyze_seconds"] - stats["backend_seconds"]) / n, n)
    report.add_percentile("smt.query_ms.p50", query_ms, 0.5)
    report.add_percentile("smt.query_ms.p90", query_ms, 0.9)
    report.add_percentile("validate.ms.p50", witness_ms, 0.5)
    traced = [p["seconds"] for p in passes if p["traced"]]
    report.add("trace.overhead_suite_s",
               statistics.median(traced) - statistics.median(untraced), n)
    report.add("trace.overhead_verdict_ms",
               statistics.median(traced_latencies) -
               statistics.median(latencies),
               len(latencies) + len(traced_latencies))
    return report


def serve_report(plan, out, apps, trace):
    expect = expected_of(apps)
    report = Report(trace)
    for warmup in out["warmups"]:
        for sample in warmup:
            report.check(check_reply(sample, expect[plan["apps"][sample[0]]],
                                     False))
    hits, misses, traced, untraced = [], [], [], []
    overhead, miss_overhead, frontend_ms, passes_ms = [], [], [], []
    for sample in out["timed"]:
        prog = sample[0]
        miss = prog < 0
        app = (plan["miss_info"][-1 - prog]["app"] if miss
               else plan["apps"][prog])
        report.check(check_reply(sample, expect[app], not miss))
        if sample[2] != "ok":
            continue
        (misses if miss else hits).append(sample[1])
        (traced if sample[8] else untraced).append(sample[1])
        frontend_ms.append(sample[5])
        passes_ms.append(sample[6])
        # A hit's backend time is the cold run's, rehydrated: not spent here.
        overhead.append(sample[1] - sample[5] - sample[6] -
                        (sample[7] if miss else 0.0))
        if miss:
            miss_overhead.append(overhead[-1])
    for _ in range(out["drains"]):
        report.check(None)
    report.failures += ["unclean drain"] * out["unclean_drains"]

    stats = out["stats"] or {}
    workers = [w or {} for w in out["worker_stats"]]
    if out["stats"] is None or None in out["worker_stats"]:
        report.failures.append("stats op unanswered")
    # Behind a router the serving counters live in the workers.
    counter = {k: sum(w.get(k, 0) for w in (workers or [stats]))
               for k in ("backend_runs", "single_flight_waits",
                         "overload_rejects", "replies_dropped",
                         "verdict_hits", "verdict_misses", "disk_hits",
                         "disk_misses", "disk_stores")}
    lost = counter["replies_dropped"]
    if workers:
        lost += stats.get("replies_dropped", 0) + stats.get("worker_restarts", 0)
    report.failures += ["dropped reply or worker restart"] * lost

    if not trace:
        report.add("setup_s", statistics.median(out["setup_seconds"]),
                   len(out["setup_seconds"]))
        report.add_percentile("verdict_ms.p50", hits + misses, 0.5)
        # Replies per whole second of the loop, median over the seconds.
        windows = [0] * int(out["elapsed_seconds"])
        for sample in out["timed"]:
            if sample[2] == "ok" and int(sample[10]) < len(windows):
                windows[int(sample[10])] += 1
        report.add("throughput_rps", statistics.median(windows), len(windows))
        report.add("peak_rss_mb", out["peak_rss_mb"], 1)
        return report

    # Every reply compiles and reduces its program afresh; only missed
    # replies carry this run's back-end timers and counters.
    sums = dict(out["fresh"])
    for key in ("frontend_seconds", "lex_seconds", "parse_seconds",
                "build_seconds", "events_before_passes", "pass_seconds",
                "events_after_passes", "fresh_promotions"):
        sums[key] = out["all"].get(key, 0.0)
    layer_metrics(report, sums, 1)
    for name, key in (("analysis.verdict_hits", "verdict_hits"),
                      ("analysis.verdict_misses", "verdict_misses"),
                      ("disk.hits", "disk_hits"),
                      ("disk.misses", "disk_misses"),
                      ("disk.stores", "disk_stores")):
        report.add(name, counter[key], 1)
    report.add_percentile("serve.hit_ms.p50", hits, 0.5)
    report.add_percentile("serve.hit_ms.p99", hits, 0.99)
    report.add_percentile("serve.miss_ms.p50", misses, 0.5)
    report.add_percentile("serve.miss_ms.p75", misses, 0.75)
    report.add_percentile("serve.frontend_ms", frontend_ms, 0.5)
    report.add_percentile("serve.passes_ms", passes_ms, 0.5)
    report.add_percentile("serve.overhead_ms.p50", overhead, 0.5)
    report.add_percentile("serve.overhead_ms.p99", overhead, 0.99)
    report.add_percentile("serve.miss_overhead_ms.p50", miss_overhead, 0.5)
    for name in ("backend_runs", "single_flight_waits", "overload_rejects",
                 "replies_dropped"):
        report.add("serve." + name, counter[name], 1)
    if workers:
        for name, key in (("router.rerouted", "rerouted_requests"),
                          ("router.worker_restarts", "worker_restarts"),
                          ("router.snapshot_broadcasts", "snapshot_broadcasts"),
                          ("router.snapshot_facts_imported",
                           "snapshot_facts_imported")):
            report.add(name, stats.get(key, 0), 1)
        report.add("router.backend_runs", counter["backend_runs"], 1)
    report.add("trace.overhead_verdict_ms",
               statistics.median(traced) - statistics.median(untraced),
               len(traced) + len(untraced))
    return report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=16)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        apps = load_apps()
        if not (ROOT / "CMakeLists.txt").is_file():
            raise BenchError(f"no CMakeLists.txt in {ROOT}; nothing to build")
        BUILD.mkdir(parents=True, exist_ok=True)
        # One run at a time per checkout: runs share the build and work dirs.
        lock = open(BUILD.parent / "lock", "w")
        fcntl.flock(lock, fcntl.LOCK_EX)
        build()
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir(parents=True)
        plan = make_plan(args.workload, args.seed, args.seconds, apps)
        plan["work_dir"] = os.path.relpath(WORK / args.workload, ROOT)
        (WORK / args.workload).mkdir()
        plan["trace"] = args.trace
        plan["trace_file"] = str(WORK / f"{args.workload}.spans.jsonl")
        if plan["mode"] == "serve":
            binary = "c4-serve" if plan["server"] == "serve" else "c4-router"
            plan["binary"] = str(BUILD / "tools" / binary)
        steal, total = cpu_times()
        out = run_loadgen(plan, args.workload)
        steal, total = (a - b for a, b in zip(cpu_times(), (steal, total)))
        make = inproc_report if plan["mode"] == "inproc" else serve_report
        report = make(plan, out, apps, bool(args.trace))
        if set(report.metrics) != set(report.units):
            raise BenchError("missing metrics: " +
                             ", ".join(set(report.units) - set(report.metrics)))
    except (BenchError, OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    for failure in report.failures[:20]:
        print(f"FAILED {failure}")
    print(f"hypervisor steal during the run: {100 * ratio(steal, total):.1f}% "
          "of CPU time")
    print(f"{'metric':<32} {'value':>14}  {'unit':<6} samples")
    for name, (value, samples) in report.metrics.items():
        note = "  refused: too few samples" if name in report.refused else ""
        print(f"{name:<32} {value:>14.6g}  {report.units[name]:<6} "
              f"{samples}{note}")
    failed = len(report.failures)
    result = {"correct": failed == 0, "attempted": max(report.attempted, 1),
              "failed": failed,
              "metrics": {name: {"value": value, "unit": report.units[name]}
                          for name, (value, _) in report.metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
