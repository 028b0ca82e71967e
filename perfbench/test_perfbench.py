#!/usr/bin/env python3
"""Tests of the benchmark itself, not of the analyzer.

    python3 perfbench/test_perfbench.py

The rename test builds perfbench-loadgen into .bench_build/ the way run.py
does (about a minute from scratch); the other tests need no build.
"""

import copy
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def reproducing_record(expect, rename_pair):
    """A load generator record that reproduces the known answer of `expect`."""
    old, new = rename_pair or (None, None)
    return {"seconds": 0.01, "serializable": expect["serializable"],
            "violations": [{"txns": sorted(new if t == old else t
                                           for t in v["txns"]),
                            "mark": v["mark"]}
                           for v in expect["violations"]],
            "witness_failures": 0, "witness_ms": [], "query_ms": [],
            "cache_open_seconds": 0, "analyze_seconds": 0,
            "oracle_imported": 0, "verdict_hits": 0, "verdict_misses": 0,
            "disk_hits": 0, "disk_misses": 0, "disk_stores": 0, "stats": {}}


class PlanTests(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        apps = run.load_apps()
        for workload in run.WORKLOADS:
            first = json.dumps(run.make_plan(workload, 7, 2, apps))
            again = json.dumps(run.make_plan(workload, 7, 2, apps))
            other = json.dumps(run.make_plan(workload, 8, 2, apps))
            self.assertEqual(first, again, workload)
            self.assertNotEqual(first, other, workload)

    def test_renames_compile_with_unchanged_transaction_count(self):
        apps = run.load_apps()
        sources, want = [], []
        for app in apps:  # every single-transaction rename of every app
            for txn in run.txn_names(app["source"]):
                sources.append(run.rename(app["source"], txn, txn + "_x"))
                want.append(app["transactions"])
        self.assertEqual(len(sources), 158)
        count = {a["name"]: a["transactions"] for a in apps}
        for item in sum(run.make_plan("edit", 7, 1, apps)["passes"][:2], []):
            sources.append(item["source"])
            want.append(count[item["app"]])
        serve = run.make_plan("serve", 7, 1, apps)
        sources += serve["misses"]
        want += [count[m["app"]] for m in serve["miss_info"]]
        run.build()
        run.WORK.mkdir(parents=True, exist_ok=True)
        out = run.run_loadgen({"mode": "txns", "programs": sources}, "txns")
        self.assertEqual(out["transactions"], want)


class CheckTests(unittest.TestCase):
    def test_wrong_expected_verdict_is_a_failed_operation(self):
        apps = run.load_apps()
        plan = run.make_plan("edit", 3, 1, apps)
        plan["passes"] = plan["passes"][:2]
        expect = run.expected_of(apps)
        out = {"setup_seconds": [1.0], "peak_rss_mb": 1.0, "passes": [
            {"seconds": 1.0, "traced": False,
             "programs": [reproducing_record(expect[item["app"]],
                                             item["rename"])
                          for item in items]}
            for items in plan["passes"]]}
        report = run.inproc_report(plan, out, apps, False)
        self.assertEqual(report.failures, [])
        self.assertEqual(report.attempted, sum(map(len, plan["passes"])))

        wrong = copy.deepcopy(apps)
        tetris = next(a for a in wrong if a["name"] == "Tetris")
        tetris["violations"][0]["txns"] = ["syncBest", "saveScore"]
        report = run.inproc_report(plan, out, wrong, False)
        edits = sum(item["app"] == "Tetris" for items in plan["passes"]
                    for item in items)
        self.assertEqual(len(report.failures), edits)
        self.assertTrue(all("Tetris" in f for f in report.failures))

    def test_wrong_expected_reply_is_a_failed_operation(self):
        apps = run.load_apps()
        tetris = next(a for a in apps if a["name"] == "Tetris")
        sample = [0, 1.0, "ok", True, run.summary_of(tetris), 0.1, 0.1, 0.0,
                  False, ""]
        self.assertIsNone(run.check_reply(sample, tetris, True))
        self.assertIsNotNone(run.check_reply(sample, tetris, False))
        wrong = dict(tetris, serializable=True, violations=[])
        self.assertIsNotNone(run.check_reply(sample, wrong, True))
        overloaded = sample[:2] + ["overloaded"] + sample[3:]
        self.assertIsNotNone(run.check_reply(overloaded, tetris, True))


class PercentileTests(unittest.TestCase):
    def test_percentile_needs_ten_samples_beyond_it(self):
        self.assertIsNone(run.percentile(list(range(19)), 0.5))
        self.assertEqual(run.percentile(list(range(21)), 0.5), 10)
        for n in range(1, 1300, 3):
            for q in (0.5, 0.75, 0.9, 0.99):
                value = run.percentile(list(range(n)), q)
                pos = q * (n - 1)
                beyond = sum(x > pos for x in range(n))
                self.assertEqual(value is None, beyond < 10, (n, q))
                if value is not None:
                    self.assertAlmostEqual(value, pos)

    def test_refused_end_to_end_percentile_is_not_printed(self):
        report = run.Report(trace=False)
        with self.assertRaises(run.BenchError):
            report.add_percentile("verdict_ms.p50", [1.0] * 19, 0.5)
        self.assertNotIn("verdict_ms.p50", report.metrics)

    def test_refused_per_layer_percentile_is_marked(self):
        report = run.Report(trace=True)
        report.add_percentile("serve.miss_ms.p75", [1.0] * 30, 0.75)
        self.assertIn("serve.miss_ms.p75", report.refused)


class DeclarationTests(unittest.TestCase):
    def test_benchmark_json_declares_the_printed_metrics(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
