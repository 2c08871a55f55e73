#!/usr/bin/env python3
"""Self-tests of the benchmark: the statistics helpers, the metric-name
grammar, span self time, BENCHMARK.json's shape, and a tiny-input smoke
run of every workload through run.py (builds the harness first).

    python3 perfbench/selftest.py            # everything
    python3 perfbench/selftest.py --no-smoke # helpers only, no build
"""

import json
import os
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import run  # noqa: E402


def span(id_, parent, name, start, end):
    return {"id": id_, "parent": parent, "thread": 0, "name": name,
            "start_ns": start, "end_ns": end}


class StatsHelpers(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        self.assertEqual(metrics.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(metrics.median(values), 4.0)

    def test_spread_is_iqr_over_median(self):
        values = [10.0] * 5 + [12.0] * 5
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(metrics.spread(values), (q3 - q1) / q2)
        self.assertEqual(metrics.spread([3.0, 3.0, 3.0]), 0.0)

    def test_percentile_interpolates(self):
        values = list(range(1, 101))  # 1..100
        self.assertAlmostEqual(metrics.percentile(values, 50), 50.5)
        self.assertAlmostEqual(metrics.percentile(values, 99), 99.01)
        self.assertEqual(metrics.percentile([7.0], 90), 7.0)

    def test_supported_percentile_needs_ten_beyond(self):
        self.assertIsNone(metrics.supported_percentile(19))
        self.assertEqual(metrics.supported_percentile(20), 50.0)
        self.assertEqual(metrics.supported_percentile(39), 50.0)
        self.assertEqual(metrics.supported_percentile(40), 75.0)
        self.assertEqual(metrics.supported_percentile(100), 90.0)
        self.assertEqual(metrics.supported_percentile(999), 95.0)
        self.assertEqual(metrics.supported_percentile(1000), 99.0)
        self.assertEqual(metrics.supported_percentile(10000), 99.9)

    def test_end_to_end_falls_back_and_says_so(self):
        raw = {"op_ms": [1.0] * 30 + [2.0] * 10, "tail_percentile": 99.0,
               "setup_s": [3.0, 1.0, 2.0], "work_items": 100.0,
               "window_s": 4.0, "peak_rss_mb": 10.0}
        m, printed, tail, notes = metrics.end_to_end(raw)
        self.assertEqual(tail, 75.0)
        self.assertEqual(printed, {"op_ms_p50": 1.0, "op_ms_tail": 1.25})
        self.assertEqual(len(notes), 1)
        self.assertEqual(m["setup_s"], 2.0)
        self.assertEqual(m["work_per_s"], 25.0)


class NameGrammar(unittest.TestCase):
    def test_grammar(self):
        for good in ("setup_s", "lbm.arch_eff", "a-b.c_d9", "9x"):
            self.assertTrue(metrics.valid_name(good), good)
        for bad in ("", "a b", "a/b", "p50%", "x:y"):
            self.assertFalse(metrics.valid_name(bad), bad)

    def test_every_declared_name_is_valid_and_unique(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in bench[key]] + [w["name"] for w in bench["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(metrics.valid_name(name), name)
            self.assertLessEqual(len(name), 64)
        self.assertEqual(sorted(w["name"] for w in bench["workloads"]),
                         sorted(run.WORKLOADS))
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in bench["end_to_end"]))


class SpanSelfTime(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [span(0, -1, "setup", 0, 100),
                 span(1, 0, "geom:a", 10, 30),
                 span(2, 0, "hal:b", 50, 90),
                 span(3, 2, "lbm:c", 60, 70)]
        selfs = metrics.self_times(spans)
        self.assertEqual(selfs[0], 100 - 20 - 40)
        self.assertEqual(selfs[1], 20)
        self.assertEqual(selfs[2], 40 - 10)
        self.assertEqual(selfs[3], 10)

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [span(0, -1, "p", 0, 100),
                 span(1, 0, "x:a", 10, 50),
                 span(2, 0, "x:b", 40, 60),
                 span(3, 0, "x:c", 90, 120)]
        self.assertEqual(metrics.self_times(spans)[0], 100 - 50 - 10)

    def test_composition_sums_self_time_by_layer(self):
        spans = [span(0, -1, "window", 0, 100),
                 span(1, 0, "hal:step", 0, 60),
                 span(2, 1, "lbm:kernel", 0, 40),
                 span(3, 0, "io:ckpt", 60, 100)]
        comp = {k: v for k, v, _ in metrics.composition(spans)}
        self.assertAlmostEqual(comp["hal"], 20e-9)
        self.assertAlmostEqual(comp["lbm"], 40e-9)
        self.assertAlmostEqual(comp["io"], 40e-9)


class Smoke(unittest.TestCase):
    """Every workload on tiny inputs, traced and untraced, in seconds."""

    def run_workload(self, workload, trace):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "7", "--seconds", "0.5", "--trace",
             str(trace), "--smoke"],
            capture_output=True, text=True, timeout=600)
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        want = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
        self.assertEqual(sorted(result["metrics"]), sorted(want))
        return result

    def test_workloads(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.run_workload(workload, trace)


if __name__ == "__main__":
    if "--no-smoke" in sys.argv:
        sys.argv.remove("--no-smoke")
        del Smoke
    unittest.main()
