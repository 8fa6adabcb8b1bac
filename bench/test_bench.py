"""Self-tests of the benchmark's own code.

Run from the repository root:  python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import json
import re
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from sturmspec import cli  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def span(layer, start, end, parent, outer=None):
    outer_start, outer_end = outer or (start, end)
    return [layer, start, end, parent, outer_start, outer_end]


class SelfTime(unittest.TestCase):
    def test_nested_tree(self):
        spans = [
            span("cli", 0.0, 10.0, -1),
            span("spectrum", 1.0, 4.0, 0, outer=(0.9, 4.1)),  # bookkeeping counts for no layer
            span("transfer", 5.0, 9.0, 0),
            span("sturmian", 6.0, 7.0, 2),
            span("words", 9.5, 11.0, 0),  # runs past its parent: only [9.5, 10] is covered
        ]
        got = tracer.self_times(spans)
        for value, want in zip(got, [10.0 - 3.2 - 4.0 - 0.5, 3.0, 3.0, 1.0, 1.5]):
            self.assertAlmostEqual(value, want)

    def test_tracer_sums_to_the_root(self):
        t = tracer.Tracer()

        def leaf():
            return "abc"

        def middle():
            return t.call("words", "leaf", leaf, None, (), {}) * 2

        t.call("cli", "main", middle, None, (), {})
        spans = list(t.spans)
        t.end_op()
        total = spans[0][2] - spans[0][1]
        self_sum = t.totals["cli.self_s"] + t.totals["words.self_s"]
        self.assertLessEqual(self_sum, total + 1e-12)
        self.assertEqual(t.totals["words.symbols"], 3)
        self.assertEqual(t.totals["words.calls"], 1)

    def test_install_wraps_cross_module_bindings_only(self):
        from sturmspec import spectrum

        original = spectrum.sturmian_band_spectrum
        patches = tracer.install(tracer.Tracer(), run._layer_modules())
        try:
            self.assertIsNot(cli.sturmian_band_spectrum, original)
            self.assertIs(cli.sturmian_band_spectrum.__wrapped__, original)
            self.assertIs(spectrum.sturmian_band_spectrum, original)
        finally:
            tracer.uninstall(patches)
        self.assertIs(cli.sturmian_band_spectrum, original)


class MetricNames(unittest.TestCase):
    def setUp(self):
        self.bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_names_are_well_formed(self):
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in self.bench[key]]
        names += [w["name"] for w in self.bench["workloads"]]
        names += list(run.E2E_UNITS) + list(run.LAYER_UNITS)
        for name in names:
            self.assertRegex(name, NAME)
            self.assertTrue(name[0].isalnum() and len(name) <= 64, name)

    def test_declared_metrics_are_the_emitted_ones(self):
        declared = {m["name"]: m["unit"] for m in self.bench["end_to_end"]}
        self.assertEqual(declared, run.E2E_UNITS)
        declared = {m["name"]: m["unit"] for m in self.bench["per_layer"]}
        self.assertEqual(declared, run.LAYER_UNITS)
        self.assertLessEqual({w["name"] for w in self.bench["workloads"]}, set(workloads.WORKLOADS))


class Outcomes(unittest.TestCase):
    def test_exit_3_is_counted_and_the_pass_goes_on(self):
        touching = workloads.Op(
            ("spectrum", "--alpha-period", ":1", "--lambda", "0", "--levels", "3"), "spectrum"
        )
        fine = workloads.Op(
            ("spectrum", "--alpha-period", ":1", "--lambda", "1", "--levels", "3"), "spectrum"
        )
        results, reference = run.run_pass(cli.main, [touching, fine])
        self.assertEqual(len(reference), 3)
        self.assertEqual([r[1] for r in results], ["refused", "ok"])
        self.assertTrue(results[0][2].startswith("exit 3"))
        raw = {
            "passes": [{"traced": False, "wall": 1.0, "reference_s": [0.01, 0.01],
                        "work": 3}],
            "outcomes": {"refused": 1, "ok": 1},
            "ok_tags": [],
            "maxrss_kb": 1024,
        }
        metrics, extra = run.end_to_end("spectra", raw, setup_s=0.1)
        self.assertEqual(metrics["ok_frac"], 0.5)
        self.assertEqual(extra[("failed_frac", "ratio")], 0.5)

    def test_bad_argv_and_bad_output_are_wrong(self):
        bad = workloads.Op(("spectrum", "--no-such-flag"), "spectrum")
        self.assertEqual(run.run_op(cli.main, bad)[1], "wrong")
        report = {"rows": [{"level": 2, "q": 2, "band_count": 2,
                            "bands": [[-1.0, 0.5], [0.4, 1.0]]}]}
        self.assertIn("disjoint", workloads.check_spectrum(("--levels", "2"), report))

    def test_same_seed_same_ops(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(workloads.make_ops(name, 7), workloads.make_ops(name, 7))
        self.assertNotEqual(workloads.make_ops("orbits", 7), workloads.make_ops("orbits", 8))

    def test_traced_run_metrics(self):
        raw = {
            "passes": [{"traced": False, "wall": 1.0}, {"traced": True, "wall": 1.5},
                       {"traced": False, "wall": 2.0}, {"traced": True, "wall": 2.25}],
            "layer_totals": {"cli.self_s": 1.0, "spectrum.self_s": 2.0,
                             "tracer.bookkeeping_s": 0.2},
            "level_s": {},
        }
        metrics, extra, sane = run.per_layer(raw)
        self.assertTrue(sane)
        self.assertAlmostEqual(metrics["trace_overhead_s"], 0.1)
        self.assertAlmostEqual(extra[("traced_minus_untraced_s", "s")], 0.375)
        self.assertEqual(set(metrics), set(run.LAYER_UNITS))

    def test_wall_ref_s_divides_out_the_machine_speed(self):
        # The second pass ran on a machine twice as slow: same reference time.
        passes = [{"wall": 1.0, "reference_s": [0.01, 0.03]},
                  {"wall": 2.0, "reference_s": [0.04, 0.04]},
                  {"wall": 9.0, "reference_s": [0.01, 0.01]}]
        self.assertAlmostEqual(run.wall_ref(passes), 50 * run.REFERENCE_S)

    def test_frontier_stops_at_the_first_gap(self):
        self.assertEqual(run.frontier(["lam3.n1", "lam3.n2", "lam3.n4"], 3), 2)


if __name__ == "__main__":
    unittest.main()
