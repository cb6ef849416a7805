"""Tests of the benchmark's own arithmetic and input generation.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import os
import tempfile
import unittest

import gen
import reduce


class OrderStatistics(unittest.TestCase):
    def test_low_order_takes_the_lower_rank(self):
        xs = [10, 1, 9, 2, 8, 3, 7, 4, 6, 5]
        # floor(q (n-1)) on sorted 1..10: q=0 and 0.1 -> index 0 (the
        # fastest), q=0.25 -> 2, q=0.5 -> 4, q=1 -> 9.
        self.assertEqual(reduce.low_order(xs, 0.0), 1)
        self.assertEqual(reduce.low_order(xs, 0.1), 1)
        self.assertEqual(reduce.low_order(xs, 0.25), 3)
        self.assertEqual(reduce.low_order(xs, 0.5), 5)
        self.assertEqual(reduce.low_order(xs, 1.0), 10)

    def test_gated_is_the_lower_ninetieth_percentile(self):
        self.assertEqual(reduce.GATED_Q, 0.9)
        # floor(0.9 (n - 1)) of the sorted samples: 1..10 -> index 8.
        self.assertEqual(reduce.gated([10, 1, 9, 2, 8, 3, 7, 4, 6, 5]), 9)
        # Few samples: 3 -> index 1 (the middle), 2 -> index 0.
        self.assertEqual(reduce.gated([4.0, 1.0, 3.0]), 3.0)
        self.assertEqual(reduce.gated([4.0, 1.0]), 1.0)

    def test_interleaved_estimator(self):
        groups = [[3.0, 2.0, 7.0], [10.0, 11.0], [4.0, 9.0, 4.5]]
        # Fastest per group: 2, 10, 4 -> median 4.
        self.assertEqual(reduce.interleaved(groups, q=0.0), 4.0)
        # Lower median per group: 3, 10, 4.5 -> median 4.5.
        self.assertEqual(reduce.interleaved(groups, q=0.5), 4.5)
        # Gated, index floor(0.9 (n - 1)): 1 of 3 and 0 of 2 -> 3, 10, 4.5.
        self.assertEqual(reduce.interleaved(groups), 4.5)
        self.assertEqual(reduce.interleaved([[1.0] * 9 + [5.0, 6.0], [2.0]]), 3.5)
        # Even group count: fastest 1, 2, 6, 8 -> median (2 + 6) / 2.
        self.assertEqual(
            reduce.interleaved([[1.0], [2.0, 3.0], [6.0], [8.0, 9.0]], q=0.0), 4.0)

    def test_a_fast_spell_moves_the_gated_estimate_little(self):
        typical = [2.0, 2.1, 2.05, 1.95, 2.02, 2.08, 1.98]
        spell = typical + [1.5, 1.55]
        self.assertLess(abs(reduce.gated(spell) - reduce.gated(typical)), 0.01)

    def test_requests_per_s_is_a_block_over_its_gated_summed_round_trips(self):
        # Blocks of 60 requests summing 100, 140 (a re-warm) and 120 ms:
        # index floor(0.9 * 2) = 1 of the sorted sums is 120 ms, so
        # 60 / 0.12 s = 500 per second.
        self.assertAlmostEqual(reduce.requests_per_s(60, [100.0, 140.0, 120.0]), 500.0)

    def test_ok_frac_is_the_lowest_kind(self):
        # 2 of 320 solves failed; 4000 requests and 5 checks all passed.
        kinds = {"solve": [320, 2], "request": [4000, 0], "check": [5, 0]}
        self.assertAlmostEqual(reduce.ok_frac(kinds), 318 / 320)
        self.assertEqual(reduce.totals({"kinds": kinds}), (4325, 2))
        self.assertEqual(reduce.ok_frac({"check": [5, 0]}), 1.0)

    def test_tracing_overhead_pairs_each_series_with_its_untraced_steps(self):
        series = {
            "solve.0.min_mu": [11.0, 12.0, 13.0], "solve.0.min_mu#u": [10.0, 10.0],
            "solve.1.min_mu": [22.0], "solve.1.min_mu#u": [20.0, 21.0, 30.0],
            "solve.2.min_mu": [5.0],  # never untraced: left out
            "sweep": [1.0], "sweep#u": [2.0],  # another prefix: left out
        }
        # Lower medians 12 / 10 = 1.2 and 22 / 21; their median, minus 1.
        self.assertAlmostEqual(reduce.tracing_overhead(series, "solve.", 0.5),
                               (1.2 + 22 / 21) / 2 - 1)
        # Fastest: 11 / 10 and 22 / 20.
        self.assertAlmostEqual(reduce.tracing_overhead(series, "solve.", 0.0), 0.1)
        self.assertAlmostEqual(reduce.tracing_overhead(series, "sweep"), -0.5)

    def test_percentile_is_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(reduce.percentile(xs, 50), 50)
        self.assertEqual(reduce.percentile(xs, 99), 99)
        self.assertEqual(reduce.percentile([7.0], 99), 7.0)

    def test_empty_series_is_an_error(self):
        with self.assertRaises(ValueError):
            reduce.gated([])
        with self.assertRaises(ValueError):
            reduce.interleaved([])


class SelfTime(unittest.TestCase):
    def test_leaf_keeps_its_duration(self):
        self.assertEqual(reduce.self_times([("a", 0, 10, -1, 0)]), [10])

    def test_nested_children_are_subtracted(self):
        spans = [
            ("solve", 0, 100, -1, 0),
            ("eval", 10, 30, 0, 0),
            ("eval", 50, 60, 0, 0),
            ("inner", 12, 20, 1, 0),
        ]
        # solve: 100 - 20 - 10; eval 1: 20 - 8; eval 2: 10; inner: 8.
        self.assertEqual(reduce.self_times(spans), [70, 12, 10, 8])

    def test_overlapping_children_count_once(self):
        spans = [("p", 0, 100, -1, 0), ("c", 10, 40, 0, 0), ("c", 30, 50, 0, 0),
                 ("c", 45, 48, 0, 0)]
        # Children cover [10, 50] = 40 once.
        self.assertEqual(reduce.self_times(spans)[0], 60)

    def test_children_are_clipped_to_the_parent(self):
        spans = [("p", 10, 20, -1, 0), ("c", 5, 15, 0, 0), ("c", 18, 30, 0, 0)]
        # Covered inside the parent: [10, 15] and [18, 20] = 7.
        self.assertEqual(reduce.self_times(spans)[0], 3)

    def test_self_times_sum_to_the_root(self):
        spans = [("r", 0, 50, -1, 0), ("a", 5, 25, 0, 0), ("b", 10, 20, 1, 0),
                 ("c", 30, 40, 0, 0)]
        self.assertEqual(sum(reduce.self_times(spans)), 50)


class ResultLine(unittest.TestCase):
    def test_every_metric_named_with_unit_and_finite(self):
        line = reduce.result_line(True, 10, 0, {"a_ms": (1.25, "ms"), "b": (3, "count")})
        r = json.loads(line)
        self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(r["metrics"]["a_ms"], {"value": 1.25, "unit": "ms"})
        self.assertEqual(r["metrics"]["b"], {"value": 3, "unit": "count"})

    def test_values_keep_all_digits(self):
        x = 0.1234567890123456
        r = json.loads(reduce.result_line(True, 1, 0, {"x": (x, "s")}))
        self.assertEqual(r["metrics"]["x"]["value"], x)

    def test_non_finite_or_unnamed_is_refused(self):
        for bad in [{"x": (math.nan, "ms")}, {"x": (math.inf, "ms")}, {"x": (1.0, "")},
                    {"": (1.0, "ms")}, {"x": (None, "ms")}]:
            with self.assertRaises(ValueError):
                reduce.result_line(True, 1, 0, bad)

    def test_attempted_must_be_positive(self):
        with self.assertRaises(ValueError):
            reduce.result_line(True, 0, 0, {})

    def test_metric_tables_cover_the_benchmark_file(self):
        path = os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         reduce.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         reduce.PER_LAYER)


class Inputs(unittest.TestCase):
    def test_same_seed_gives_byte_identical_inputs(self):
        for workload in ["size", "serve"]:
            self.assertEqual(gen.inputs(workload, 5), gen.inputs(workload, 5))
        self.assertNotEqual(gen.inputs("size", 5), gen.inputs("size", 6))

    def test_cached_files_are_named_by_content(self):
        with tempfile.TemporaryDirectory() as d:
            a = gen.materialize("size", 3, d)
            b = gen.materialize("size", 3, d)
            self.assertEqual(a, b)
            for name, path in a.items():
                with open(path) as f:
                    text = f.read()
                self.assertTrue(os.path.basename(path).startswith(gen.fingerprint(text)[:32]))
            self.assertEqual(len(os.listdir(d)), 3)

    def test_circuit_zero_is_the_paper_apex2(self):
        self.assertEqual(gen.size_seeds(9).split()[0], "43")
        self.assertEqual(len(gen.size_seeds(9).split()), 12)

    def test_bench_text_is_a_dag_with_the_requested_size(self):
        text = gen.bench_text(500, 10, gen._rng("t", 1))
        defined = set()
        gates = 0
        for line in text.splitlines():
            if line.startswith("INPUT("):
                defined.add(line[6:-1])
            elif " = " in line:
                name, rhs = line.split(" = ")
                args = rhs[rhs.index("(") + 1:-1].split(", ")
                self.assertTrue(all(a in defined for a in args), line)
                self.assertEqual(len(set(args)), len(args), line)
                defined.add(name)
                gates += 1
        self.assertEqual(gates, 500)

    def test_schedule_mix_is_fixed_per_block(self):
        header, *lines = gen.serve_schedule(4, n=600).splitlines()
        self.assertTrue(header.endswith(f" block {len(gen.BLOCK)}"))
        self.assertEqual(len(gen.BLOCK), 60)
        self.assertEqual(gen.SERVE_REQUESTS % len(gen.BLOCK), 0)
        kinds = [l.split(" ", 2)[0] for l in lines]
        self.assertEqual(len(lines), 600)
        self.assertEqual(kinds.count("whatif"), 450)
        self.assertEqual(kinds.count("analyze"), 90)
        self.assertEqual(kinds.count("gradient"), 60)
        for l in lines:
            kind, circuit, request = l.split(" ", 2)
            r = json.loads(request)
            self.assertEqual((r["op"], r["circuit"]), (kind, circuit))


if __name__ == "__main__":
    unittest.main()
