#!/usr/bin/env python3
"""Tests of the benchmark's own logic (no build needed):

    python3 perfbench/test_run.py
"""

import hashlib
import importlib.util
import json
import os
import random
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "perfbench_run", os.path.join(HERE, "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


class TailPercentileTest(unittest.TestCase):
    def test_p99_when_enough_samples(self):
        value, pct, n, beyond = run.tail_percentile(range(1, 2001))
        self.assertEqual((value, pct, n, beyond), (1980, 99.0, 2000, 20))

    def test_lowers_percentile_to_keep_ten_beyond(self):
        value, pct, n, beyond = run.tail_percentile(range(1, 501))
        self.assertEqual((value, n, beyond), (490, 500, 10))
        self.assertAlmostEqual(pct, 98.0)

    def test_exactly_ten_beyond_at_boundary(self):
        # 1000 samples: p99 is rank 990, leaving exactly ten beyond it.
        value, pct, _, beyond = run.tail_percentile(range(1000))
        self.assertEqual((value, pct, beyond), (989, 99.0, 10))

    def test_reports_wanted_percentile_when_rank_rounds_up(self):
        # ceil(0.99 * 3840) = 3802: still the p99 value, 38 beyond it.
        value, pct, _, beyond = run.tail_percentile(range(3840))
        self.assertEqual((value, pct, beyond), (3801, 99.0, 38))

    def test_order_of_samples_does_not_matter(self):
        xs = list(range(300))
        random.Random(3).shuffle(xs)
        self.assertEqual(run.tail_percentile(xs)[0], 289)

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            run.tail_percentile(range(10))


class SelfTimeTest(unittest.TestCase):
    def test_nested_children(self):
        spans = {1: ("step", 0, 0, 100), 2: ("alc", 1, 10, 40),
                 3: ("update", 1, 50, 60), 4: ("oracle", 3, 52, 55)}
        selfs = run.self_times(spans)
        self.assertEqual(selfs, {1: 60, 2: 30, 3: 7, 4: 3})

    def test_overlapping_children_count_once(self):
        # Two children from different threads overlap in [20, 30).
        spans = {1: ("step", 0, 0, 50), 2: ("oracle", 1, 10, 30),
                 3: ("oracle", 1, 20, 45)}
        self.assertEqual(run.self_times(spans)[1], 15)

    def test_never_negative(self):
        rng = random.Random(7)
        for _ in range(200):
            spans = {1: ("cell", 0, 0, 1000)}
            for sid in range(2, 40):
                parent = rng.randrange(1, sid)
                p0, p1 = spans[parent][2], spans[parent][3]
                # Children may start before or end after their parent
                # (clock reads on other threads); coverage is clipped.
                t0 = rng.randrange(p0 - 5, p1 + 1)
                t1 = rng.randrange(t0, p1 + 20)
                spans[sid] = ("x", parent, t0, t1)
            for sid, value in run.self_times(spans).items():
                self.assertGreaterEqual(value, 0)
                self.assertLessEqual(value, spans[sid][3] - spans[sid][2])


class MetricNameTest(unittest.TestCase):
    def test_benchmark_json_names(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            bench = json.load(f)
        names = [w["name"] for w in bench["workloads"]]
        for group in ("end_to_end", "per_layer"):
            names += [m["name"] for m in bench[group]]
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
            self.assertTrue(run.NAME_RE.match(name), name)
        self.assertEqual(len(names), len(set(names)))

    def test_rejects_bad_names(self):
        for name in ("", "a b", "wall/s", "-x", "x" * 65):
            self.assertFalse(run.NAME_RE.match(name), name)


class CompareSetsTest(unittest.TestCase):
    STEADY = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]

    def test_same_sets_agree(self):
        rows, shift, ok = run.compare_sets(self.STEADY, self.STEADY, 0.1)
        self.assertEqual(shift, 0)
        self.assertTrue(ok)
        self.assertLess(rows[0][3], 0.1)

    def test_large_rise_fails(self):
        higher = [1.4 * x for x in self.STEADY]
        _, shift, ok = run.compare_sets(self.STEADY, higher, 0.1)
        self.assertAlmostEqual(shift, 0.4)
        self.assertFalse(ok)

    def test_large_drop_fails(self):
        lower = [0.6 * x for x in self.STEADY]
        _, shift, ok = run.compare_sets(self.STEADY, lower, 0.1)
        self.assertAlmostEqual(shift, -0.4)
        self.assertFalse(ok)

    def test_wide_spread_fails_on_any_metric(self):
        wide = [0.5, 1.5, 0.6, 1.4, 1.0, 1.0, 0.7, 1.3, 1.0, 1.0]
        rows, _, ok = run.compare_sets(self.STEADY, wide, 0.25)
        self.assertGreater(rows[1][3], 0.25)
        self.assertFalse(ok)


class DigestTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.path = os.path.join(self.dir.name, "aggregate.json")
        with open(self.path, "w") as f:
            f.write('{"geomean_speedup": 6.12}\n')
        with open(self.path, "rb") as f:
            self.digest = hashlib.sha256(f.read()).hexdigest()

    def tearDown(self):
        self.dir.cleanup()

    def test_matching_reference_passes(self):
        ref = {"campaign-dt": {"atax": self.digest}}
        self.assertTrue(run.verify_digest(ref, "campaign-dt", ["atax"],
                                          self.path))

    def test_perturbed_reference_fails(self):
        flipped = ("0" if self.digest[0] != "0" else "1") + self.digest[1:]
        ref = {"campaign-dt": {"atax": flipped}}
        self.assertFalse(run.verify_digest(ref, "campaign-dt", ["atax"],
                                           self.path))

    def test_perturbed_output_fails(self):
        ref = {"campaign-dt": {"atax": self.digest}}
        with open(self.path, "a") as f:
            f.write(" ")
        self.assertFalse(run.verify_digest(ref, "campaign-dt", ["atax"],
                                           self.path))

    def test_missing_reference_fails(self):
        self.assertFalse(run.verify_digest({}, "campaign-dt", ["atax"],
                                           self.path))

    def test_kept_reference_covers_every_draw(self):
        ref = run.load_reference()
        for kernel in run.DT_KERNELS:
            self.assertIn(kernel, ref["campaign-dt"])
        for kernel in run.GP_KERNELS:
            self.assertIn(kernel, ref["campaign-gp"])


if __name__ == "__main__":
    unittest.main()
