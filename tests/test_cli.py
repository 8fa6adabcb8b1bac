import contextlib
import io
import json
import random
import re
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmspec import (
    convergents,
    gordon_certificate,
    periodic_coefficients,
    standard_words,
    window_from_word,
)
from sturmspec import cli, spectrum
from sturmspec.cli import CSV_HEADERS, build_parser, emit_report, main, run_experiment
from sturmspec.errors import InvalidInputError
from sturmspec.words import SUBSTITUTION_TABLE


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def run_report(argv):
    parser = build_parser()
    return run_experiment(parser.parse_args(argv))


def parse_refusal(argv, capsys):
    """(exit code, stdout, stderr) of an argv that argparse refuses."""
    with pytest.raises(SystemExit) as refused:
        main(argv)
    out, err = capsys.readouterr()
    return refused.value.code, out, err


def run_captured(argv):
    """(exit code, stdout, stderr) of ``main(argv)``, refused by argparse or not."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as refused:
            code = refused.code
    return code, out.getvalue(), err.getvalue()


def run_both_parses(argv):
    """``run_captured(argv)``, checked against the same run with ``main``
    sent through ``build_parser().parse_args``: ``main`` parses an argv that
    starts with a subcommand name with that subcommand's parser alone, and
    must give the same exit code, stdout apart from the wall time, and
    stderr as the two-level parse."""
    run = run_captured(argv)
    with mock.patch.object(cli, "_parse_args", lambda argv: build_parser().parse_args(argv)):
        forced = run_captured(argv)
    assert forced[0::2] == run[0::2]
    assert _without_wall_time(forced[1]) == _without_wall_time(run[1])
    return run


class TestWordTask:
    def test_fibonacci_model(self, capsys):
        code, out, _ = run_cli(
            ["word", "--model", "fibonacci", "--length", "8", "--format", "csv"], capsys
        )
        assert code == 0
        assert out == "word\n10110101\n"

    def test_cf_route_matches_model(self, capsys):
        code, out, _ = run_cli(
            ["word", "--alpha-period", ":1", "--length", "8", "--format", "csv"], capsys
        )
        assert code == 0
        assert out.splitlines()[1] == "10110101"

    def test_custom_substitution(self, capsys):
        code, out, _ = run_cli(
            ["word", "--subst", "a:ab,b:ba", "--length", "8", "--format", "csv"], capsys
        )
        assert code == 0
        assert out.splitlines()[1] == "abbabaab"

    def test_tower_limit(self, monkeypatch, capsys):
        # golden q_27 = 317811 is the deepest level within MAX_TOWER_LENGTH
        code, out, _ = run_cli(["word", "--alpha-period", ":1", "--tower", "27"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["q"][-1] == 317811 == len(report["tower"][-1])

        def spelled_out(*args, **kwargs):
            raise AssertionError("tower spelled before the refusal")

        monkeypatch.setattr(cli, "standard_words", spelled_out)
        for argv in (["word", "--alpha-period", ":1", "--tower", "28"],
                     ["gordon", "--alpha-period", ":1", "--level", "28"]):
            code, out, err = run_cli(argv, capsys)
            assert code == 2 and out == ""
            assert "tower limit" in err

    def test_unknown_model(self, capsys):
        code, out, err = parse_refusal(["word", "--model", "nope", "--length", "4"], capsys)
        assert code == 2 and out == ""
        assert "invalid choice: 'nope'" in err
        assert all(name in err for name in SUBSTITUTION_TABLE)


class TestSpectrumTask:
    def test_csv_header_and_rows(self, capsys):
        code, out, _ = run_cli(
            [
                "spectrum",
                "--alpha-period",
                ":1",
                "--lambda",
                "1",
                "--levels",
                "1..6",
                "--format",
                "csv",
            ],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "level,q,band_count,measure,measure_intersect_prev"
        assert len(lines) == 7
        first = lines[1].split(",")
        assert first[0] == "1" and first[2] == "1"
        assert first[4] == ""  # no previous level for the first row

    def test_band_count_column_is_q(self):
        report = run_report(
            ["spectrum", "--alpha-period", ":1", "--levels", "1..6"]
        )
        for row in report["rows"]:
            assert row["band_count"] == row["q"]

    def test_touching_bands_exit_three(self, capsys):
        # coupling 0 relabels the free chain with period 2: bands touch
        code, _, err = run_cli(
            ["spectrum", "--alpha-period", ":1", "--lambda", "0", "--levels", "2"],
            capsys,
        )
        assert code == 3
        assert "bands" in err

    @pytest.mark.parametrize("info", [1, -2])
    def test_lapack_failure_exits_three(self, monkeypatch, capsys, info):
        monkeypatch.setattr(spectrum, "_load_dsterf", lambda: lambda n, d, e: info)
        code, out, err = run_cli(["spectrum", "--alpha-period", ":1", "--levels", "5"], capsys)
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert re.fullmatch(
            rf"error: level 5, q=8: LAPACK dsterf returned info = {info} on \d+ nodes in 4 chains\n",
            err,
        )

    def test_non_finite_coupling_exits_two(self, capsys):
        for coupling in ("nan", "inf"):
            code, out, err = run_cli(
                ["spectrum", "--alpha-period", ":1", "--lambda", coupling, "--levels", "2"],
                capsys,
            )
            assert code == 2
            assert out == ""
            assert "coupling" in err

    def test_bad_level_range_exits_two(self, capsys):
        code, _, err = run_cli(
            ["spectrum", "--alpha-period", ":1", "--levels", "1..x"], capsys
        )
        assert code == 2
        assert "1..x" in err


class TestLyapunovTask:
    def test_free_rows(self, capsys):
        code, out, _ = run_cli(
            [
                "lyapunov",
                "--potential",
                "free",
                "--energies",
                "0:3:4",
                "--steps",
                "2000",
                "--format",
                "csv",
            ],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "energy,gamma_plus,gamma_minus"
        assert len(lines) == 5

    def test_circle_potential_has_backward_exponent(self):
        report = run_report(
            [
                "lyapunov",
                "--potential",
                "circle",
                "--alpha-period",
                ":1",
                "--beta",
                "1/4",
                "--energies",
                "0.0,3.0",
                "--steps",
                "1000",
            ]
        )
        for row in report["rows"]:
            assert row["gamma_minus"] is not None

    def test_bad_energy_spec(self, capsys):
        code, _, err = run_cli(
            ["lyapunov", "--potential", "free", "--energies", "0:1", "--steps", "1000"],
            capsys,
        )
        assert code == 2


def reference_gordon_certificates(report, coupling, seed_count, rng_seed):
    """The certificates of a golden-mean ``gordon`` report, rebuilt with one
    certificate call per energy."""
    level, q_n = report["level"], report["q_n"]
    c_bound = report["derived_constant"]["value"]
    s_n = standard_words(convergents(periodic_coefficients([], [1], 40)), level).word(level)
    window = window_from_word(s_n + s_n, coupling)
    rng = random.Random(rng_seed)
    seeds = []
    while len(seeds) < seed_count:
        x, y = rng.uniform(-1, 1), rng.uniform(-1, 1)
        norm = (x * x + y * y) ** 0.5
        if norm > 1e-3:
            seeds.append((x / norm, y / norm))
    certificates = []
    for row in report["certificates"]:
        energy = row["energy"]
        cert = gordon_certificate(window, q_n, c_bound, [energy], seeds)
        entry = {
            "energy": energy,
            "square_ok": cert.square_ok,
            "abs_trace": float(cert.abs_trace[0]),
            "verdict": cert.verdict,
        }
        if cert.verdict:
            entry.update(
                {"min_ratio": float(cert.min_ratio[0]), "lower_bound": cert.lower_bound,
                 "nondecay_ok": bool(cert.nondecay_ok[0])}
            )
        certificates.append(entry)
    return certificates


class StubRandom(random.Random):
    """``random.Random(seed)`` whose stream starts with the values ``head``."""

    def __init__(self, seed, head):
        self.head = list(head)
        super().__init__(seed)

    def random(self):
        return self.head.pop(0) if self.head else super().random()


# rng.uniform(-1, 1) is -1 + 2 r: r = 0.5 gives 0, so (0.5, 0.5) is the
# zero pair and (0.5002, 0.4999) one of norm about 4.5e-4
SHORT_PAIRS = (0.5, 0.5, 0.5002, 0.4999)


class TestSeedDraw:
    @pytest.mark.parametrize(
        "head, kept",
        [(SHORT_PAIRS, 0), ((0.9, 0.2) + SHORT_PAIRS[:2] + (0.1, 0.7) + SHORT_PAIRS[2:], 2)],
        ids=["short-pairs-first", "short-pairs-between"],
    )
    def test_short_pairs_passed_over_in_stream_order(self, head, kept):
        seeds = cli._draw_seeds(StubRandom(7, head), 6)
        assert seeds.shape == (6, 2)
        # the pairs of the head that are kept, then the seeded stream
        for seed, (r1, r2) in zip(seeds[:kept].tolist(), [(0.9, 0.2), (0.1, 0.7)]):
            x, y = -1 + 2 * r1, -1 + 2 * r2
            norm = (x * x + y * y) ** 0.5
            assert seed == [x / norm, y / norm]
        assert seeds[kept:].tolist() == cli._draw_seeds(random.Random(7), 6 - kept).tolist()

    def test_rejection_matches_per_seed_loop(self, monkeypatch):
        # the task and reference_gordon_certificates both draw from a stream
        # whose first two pairs are too short
        monkeypatch.setattr(random, "Random", lambda seed: StubRandom(seed, SHORT_PAIRS))
        report = run_report(["gordon", "--alpha-period", ":1", "--level", "4",
                             "--energies", "from-spectrum:8", "--seeds", "10", "--rng-seed", "3"])
        assert any(row["verdict"] for row in report["certificates"])
        expected = reference_gordon_certificates(report, 1.0, 10, 3)
        assert json.dumps(report["certificates"]) == json.dumps(expected)


class TestGordonTask:
    @pytest.mark.parametrize(
        "coupling, level, energies, seed_count, rng_seed",
        [
            (1.0, 4, "from-spectrum:8", 100, 0),
            (1.0, 6, "from-spectrum:9", 30, 777),
            # 7 lies outside the spectrum; only 2.2 earns a verdict
            (3.0, 5, "-1,0.5,1.3,2.2,7", 50, 0),
            (1.0, 4, "100", 5, 0),
            # the [1, 21] product is finite at 1e10, the [1, 42] one is not
            (1.0, 7, "1e10", 3, 0),
            # q = 1: the one-site product keeps float entries
            (1.0, 0, "from-spectrum:8", 3, 0),
        ],
        ids=["readme", "level-6", "explicit-energies", "no-verdict", "huge-energy", "level-0"],
    )
    def test_one_pass_matches_per_energy_loop(
        self, coupling, level, energies, seed_count, rng_seed
    ):
        report = run_report(
            ["gordon", "--alpha-period", ":1", "--lambda", str(coupling), "--level", str(level),
             f"--energies={energies}", "--seeds", str(seed_count), "--rng-seed", str(rng_seed)]
        )
        expected = reference_gordon_certificates(report, coupling, seed_count, rng_seed)
        assert json.dumps(report["certificates"]) == json.dumps(expected)

    def test_bundle_schema(self):
        report = run_report(
            [
                "gordon",
                "--alpha-period",
                ":1",
                "--level",
                "4",
                "--energies",
                "from-spectrum:8",
                "--seeds",
                "10",
            ]
        )
        assert {"config", "certificates", "derived_constant"} <= set(report)
        assert report["derived_constant"]["value"] > report["derived_constant"]["sampled_sup"]
        for cert in report["certificates"]:
            assert cert["square_ok"]
            assert cert["verdict"]
            assert cert["nondecay_ok"]

    def test_json_only(self, capsys):
        code, out, err = parse_refusal(
            ["gordon", "--alpha-period", ":1", "--level", "3", "--seeds", "2",
             "--format", "csv"],
            capsys,
        )
        assert code == 2 and out == ""
        assert "unrecognized arguments: --format csv" in err
        report = run_report(["gordon", "--alpha-period", ":1", "--level", "3", "--seeds", "2"])
        assert report["config"]["format"] == "json"

    def test_long_period_refused_before_the_square(self, monkeypatch, capsys):
        # the proxy level 26 (q = 196418) is refused by the trace scan before
        # the 2 q-site square window is built
        def spelled_out(*args, **kwargs):
            raise AssertionError("square window built before the refusal")

        monkeypatch.setattr(cli, "window_from_word", spelled_out)
        code, out, err = run_cli(
            ["gordon", "--alpha-period", ":1", "--level", "26", "--energies", "0", "--seeds", "1"],
            capsys,
        )
        assert code == 3 and out == ""
        assert "q=196418" in err


class TestHullAndAppendix:
    def test_hull_check(self):
        report = run_report(
            [
                "hull-check",
                "--alpha-period",
                ":1",
                "--cf-depth",
                "30",
                "--beta",
                "1/4",
                "--L",
                "6",
                "--grid",
                "4000",
                "--prefix",
                "10000",
            ]
        )
        assert report["contained"]
        assert set(report) >= {"factors_v0", "factors_grid", "missing", "extra"}

    def test_appendix_suite(self):
        report = run_report(
            [
                "appendix",
                "--alpha-period",
                ":1",
                "--cf-depth",
                "30",
                "--beta",
                "1/4",
                "--prefix",
                "4000",
                "--L",
                "8",
            ]
        )
        assert report["ok"]
        assert report["endpoint_values"]["omega0_at_0"] == 1.0
        assert report["endpoint_values"]["omega_1mb_at_0"] == 0.0

    def test_beta_required(self, capsys):
        code, _, err = run_cli(["hull-check", "--alpha-period", ":1", "--L", "4"], capsys)
        assert code == 2
        assert "beta" in err

    @pytest.mark.parametrize("option", ["--L=--", "--beta=--", "--lambda=--"])
    def test_double_dash_value_exits_two(self, option, capsys):
        task = "appendix" if option == "--lambda=--" else "hull-check"
        code, out, err = parse_refusal(
            [task, "--alpha-period", ":1", "--beta=1/4", "--L=4", option], capsys
        )
        assert code == 2 and out == ""
        assert err.splitlines()[-1].endswith("error: an option value cannot be '--'")

    def test_beta_out_of_range(self, capsys):
        code, _, err = run_cli(
            ["hull-check", "--alpha-period", ":1", "--beta", "1.5", "--L", "4"], capsys
        )
        assert code == 2
        assert "beta" in err


class TestBoundaryAmbiguityExit:
    def test_exact_hit_exits_four(self, capsys, golden_cf):
        # place the orbit exactly on the cut at n = 7
        alpha = golden_cf.value()
        beta = (1 - 7 * alpha) % 1
        code, _, err = run_cli(
            [
                "lyapunov",
                "--potential",
                "circle",
                "--alpha-cf",
                "1x40",
                "--beta",
                f"{beta.numerator}/{beta.denominator}",
                "--energies",
                "0.0",
                "--steps",
                "1000",
            ],
            capsys,
        )
        assert code == 4
        assert "boundary" in err or "guard" in err


FREE_LYAPUNOV = ["lyapunov", "--potential", "free", "--steps", "1000"]


class TestRefusedRuns:
    @pytest.mark.parametrize(
        "argv, exit_code, needle",
        [
            (FREE_LYAPUNOV + ["--energies=a:b:3"], 2, "a:b:3"),
            (FREE_LYAPUNOV + ["--energies=nan"], 2, "finite"),
            (FREE_LYAPUNOV + ["--energies=inf"], 2, "finite"),
            (FREE_LYAPUNOV + ["--energies=-inf"], 2, "finite"),
            (FREE_LYAPUNOV + ["--energies=,"], 2, "no energies"),
            (FREE_LYAPUNOV + ["--energies=1e308"], 3, "1e+308"),
            (["lyapunov", "--alpha-period", ":1", "--energies", "0", "--steps", "10"],
             2, "steps"),
            (["appendix", "--alpha-period", ":1", "--beta", "1/4", "--theta-samples", "0"],
             2, "theta-samples"),
            (["gordon", "--alpha-period", ":1", "--level", "3",
              "--energies", "from-spectrum:x"], 2, "proxy level"),
            (["appendix", "--alpha-period", ":1", "--beta", "1/4", "--range-n", "0"],
             2, "range-n"),
            (["appendix", "--alpha-period", ":1", "--beta", "1/4", "--lambda", "nan"],
             2, "coupling"),
            (["appendix", "--alpha-period", ":1", "--beta", "1/4", "--lambda", "inf"],
             2, "coupling"),
            (["lyapunov", "--potential", "circle", "--alpha-period", ":1", "--beta", "1/4",
              "--energies", "0", "--lambda", "nan"], 2, "coupling"),
            (["word", "--subst", "a:ab,b:a", "--seed", "z", "--length", "5"], 2, "--seed"),
            (["word", "--subst", "a:ab,b:a", "--seed", "ab", "--length", "5"], 2, "--seed"),
            (["gordon", "--alpha-period", ":1", "--level", "3", "--energies", "100",
              "--seeds", "0"], 2, "--seeds"),
            (["spectrum", "--alpha-period", ":1", "--levels", "3", "--out", "/nonexistent/x"],
             2, "/nonexistent/x"),
            (["spectrum", "--alpha-period", ":1", "--levels", "0..41"], 2, "0..41"),
            (["spectrum", "--alpha-period", ":1", "--levels=-1..3"], 2, "-1..3"),
            (["spectrum", "--alpha-period", ":1", "--levels", "3.."], 2, "3.."),
            (["spectrum", "--alpha-period", ":1", "--levels", "25"], 3, "q=121393"),
            (["hull-check", "--alpha-period", ":1", "--beta", "1e-4301", "--L", "4",
              "--prefix", "100"], 2, "exponent"),
            (["appendix", "--alpha-period", ":1", "--beta", "1/4", "--precision", "1E+4301"],
             2, "exponent"),
            (["appendix", "--alpha-period", ":1", "--beta", "1/4", "--precision", "1e1_0000"],
             2, "exponent"),
            (["word", "--model", "fibonacci", "--length", "8", "--seed", "b"], 2, "--seed"),
            (["word", "--alpha-period", ":1", "--length", "8", "--seed", "a"], 2, "--seed"),
            (["word", "--alpha-period", ":1", "--tower", "3", "--length", "8"], 2, "--length"),
            (["lyapunov", "--potential", "sturmian", "--alpha-period", ":1", "--beta", "zz",
              "--energies", "0", "--steps", "1000"], 2, "--beta"),
            (FREE_LYAPUNOV + ["--energies", "0", "--precision", "1/100"], 2, "--precision"),
            # refused before the energies are read
            (["lyapunov", "--alpha-period", ":1", "--precision", "zz", "--energies", "zz"],
             2, "--precision"),
            # the rotation options with a mode that reads no rotation number,
            # refused before the malformed value or the energies are read
            (["word", "--subst", "a:ab,b:a", "--length", "8", "--alpha-cf", "zz"],
             2, "--alpha-cf"),
            (["word", "--model", "fibonacci", "--length", "8", "--alpha-period", ":1"],
             2, "--alpha-period"),
            (FREE_LYAPUNOV + ["--alpha-cf", "0,-3", "--energies", "0"], 2, "--alpha-cf"),
            (FREE_LYAPUNOV + ["--alpha-period", ":1", "--energies", "zz"], 2, "--alpha-period"),
            # --cf-depth and --lambda where they are not read, refused before
            # the energies are read
            (FREE_LYAPUNOV + ["--lambda", "7", "--energies", "0.5"], 2, "--lambda"),
            (FREE_LYAPUNOV + ["--lambda", "1.0", "--energies", "zz"], 2, "--lambda"),
            (FREE_LYAPUNOV + ["--cf-depth", "40", "--energies", "zz"], 2, "--cf-depth"),
            (["word", "--model", "fibonacci", "--length", "8", "--cf-depth", "5"], 2, "--cf-depth"),
            (["word", "--subst", "a:ab,b:a", "--length", "8", "--cf-depth", "40"], 2, "--cf-depth"),
            # --cf-depth unrolls --alpha-period only; refused with --alpha-cf on
            # every subcommand
            (["spectrum", "--alpha-cf", "1,1,1,1,1,1", "--cf-depth", "3", "--levels", "4"],
             2, "--cf-depth"),
            (["word", "--alpha-cf", "1,2,1x30", "--cf-depth", "40", "--length", "8"],
             2, "--cf-depth does not apply to --alpha-cf"),
            (["word", "--alpha-cf", "1,2,1x30", "--cf-depth", "40", "--tower", "1"],
             2, "--cf-depth does not apply to --alpha-cf"),
            (["lyapunov", "--alpha-cf", "1,2,1x30", "--cf-depth", "40", "--energies", "0",
              "--steps", "1000"], 2, "--cf-depth does not apply to --alpha-cf"),
            (["lyapunov", "--potential", "circle", "--alpha-cf", "1,2,1x30", "--cf-depth", "40",
              "--beta", "1/4", "--energies", "0", "--steps", "1000"],
             2, "--cf-depth does not apply to --alpha-cf"),
            (["gordon", "--alpha-cf", "1,2,1x30", "--cf-depth", "40", "--level", "1",
              "--energies", "0", "--seeds", "1"], 2, "--cf-depth does not apply to --alpha-cf"),
            (["hull-check", "--alpha-cf", "1,2,1x30", "--cf-depth", "40", "--beta", "1/4",
              "--L", "2", "--prefix", "100"], 2, "--cf-depth does not apply to --alpha-cf"),
            (["appendix", "--alpha-cf", "1,2,1x30", "--cf-depth", "40", "--beta", "1/4"],
             2, "--cf-depth does not apply to --alpha-cf"),
            # a reversed range is refused, not skipped
            (["spectrum", "--alpha-period", ":1", "--levels", "9..3,2"], 2, "'9..3'"),
            (["spectrum", "--alpha-period", ":1", "--levels", "9..3"], 2, "reversed"),
            # a repeat count below 1, or a missing one, is refused, not dropped
            (["spectrum", "--alpha-cf", "1,1x-5,1,1", "--levels", "1..3"], 2, "'1x-5'"),
            (["spectrum", "--alpha-cf", "1,1x0,1", "--levels", "1"], 2, "'1x0'"),
            (["spectrum", "--alpha-cf", "x3", "--levels", "1"], 2, "'x3'"),
            (["spectrum", "--alpha-cf", "1,1x", "--levels", "1"], 2, "'1x'"),
            # the gordon proxy level K needs levels K and K + 1 of the tower
            (["gordon", "--alpha-period", ":1", "--level", "3",
              "--energies", "from-spectrum:-1"], 2, "--energies from-spectrum:-1"),
            (["gordon", "--alpha-period", ":1", "--level", "3",
              "--energies", "from-spectrum:-1"], 2, "CF depth 40"),
            (["gordon", "--alpha-period", ":1", "--cf-depth", "10", "--level", "3",
              "--energies", "from-spectrum:10"], 2, "--energies from-spectrum:10"),
            (["gordon", "--alpha-period", ":1", "--cf-depth", "10", "--level", "3",
              "--energies", "from-spectrum:10"], 2, "CF depth 10"),
            # a coupling that is not finite is refused where V = coupling x
            # symbol is worked out, before numpy sees it
            (["lyapunov", "--potential", "sturmian", "--alpha-period", ":1", "--lambda", "nan",
              "--energies", "0", "--steps", "1000"], 2, "coupling"),
            (["lyapunov", "--potential", "sturmian", "--alpha-period", ":1", "--lambda", "inf",
              "--energies", "0", "--steps", "1000"], 2, "coupling"),
            # the specific message, not a bare "bad energy spec"
            (FREE_LYAPUNOV + ["--energies", "0:1:0"], 2, "count"),
            (FREE_LYAPUNOV + ["--energies", "0:1"], 2, "a:b:n"),
            # a tower word longer than MAX_TOWER_LENGTH is refused before it
            # is spelled: golden q_28 = 514229, q_39 = 102334155
            (["gordon", "--alpha-period", ":1", "--level", "28"],
             2, "--level 28: q_28 = 514229 exceeds the tower limit of 500000"),
            (["gordon", "--alpha-period", ":1", "--level", "39"], 2, "q_39 = 102334155"),
            (["gordon", "--alpha-period", ":1", "--level", "28", "--energies", "0"],
             2, "--level 28"),
            (["word", "--alpha-period", ":1", "--tower", "28"],
             2, "--tower 28: q_28 = 514229 exceeds the tower limit of 500000"),
            (["word", "--alpha-period", ":1", "--tower", "40"], 2, "q_40 = 165580141"),
        ],
    )
    def test_single_error_line_and_exit_code(self, argv, exit_code, needle, capsys):
        # a numpy RuntimeWarning, which a console run prints to stderr, is
        # recorded here instead
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            code, out, err = run_cli(argv, capsys)
        assert not [w for w in caught if w.category is RuntimeWarning]
        assert code == exit_code
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert needle in lines[0]
        run_both_parses(argv)


# A valid argv per subcommand, as option -> value
VALID_OPTIONS = {
    "word": {"--alpha-period": ":1", "--length": "8"},
    "spectrum": {"--alpha-period": ":1", "--levels": "3"},
    "lyapunov": {"--alpha-period": ":1", "--energies": "0", "--steps": "1000"},
    "gordon": {"--alpha-period": ":1", "--level": "3", "--energies": "0", "--seeds": "2"},
    "hull-check": {"--alpha-period": ":1", "--beta": "1/4", "--L": "4", "--prefix": "100"},
    "appendix": {"--alpha-period": ":1", "--beta": "1/4", "--range-n": "50",
                 "--theta-samples": "2", "--L": "3", "--prefix": "100"},
}
# (subcommand, option, malformed value, fragment of the error line, options
# set, or dropped with None, so that the option is read) for each subcommand
# option that no other test feeds a malformed value
MALFORMED_OPTIONS = [
    ("word", "--alpha-cf", "1,a", "'a'", {"--alpha-period": None}),
    ("word", "--alpha-period", "1:", "periodic part", {}),
    ("word", "--cf-depth", "0", "depth", {}),
    ("word", "--out", "/nonexistent/x", "/nonexistent/x", {}),
    ("word", "--format", "xml", "--format", {}),
    ("word", "--subst", "a:,b:a", "empty", {"--alpha-period": None}),
    ("word", "--tower", "-1", "tower level", {"--length": None}),
    ("word", "--length", "-5", "length", {}),
    ("spectrum", "--alpha-period", "1:", "periodic part", {}),
    ("spectrum", "--cf-depth", "0", "depth", {}),
    ("spectrum", "--format", "xml", "--format", {}),
    ("lyapunov", "--alpha-cf", "1,a", "'a'", {"--alpha-period": None}),
    ("lyapunov", "--alpha-period", "1:", "periodic part", {}),
    ("lyapunov", "--cf-depth", "0", "depth", {}),
    ("lyapunov", "--out", "/nonexistent/x", "/nonexistent/x", {}),
    ("lyapunov", "--beta", "1/0", "beta", {"--potential": "circle"}),
    ("lyapunov", "--precision", "-1", "guard", {"--potential": "circle", "--beta": "1/4"}),
    ("lyapunov", "--format", "xml", "--format", {}),
    ("lyapunov", "--potential", "bogus", "--potential", {}),
    ("gordon", "--alpha-cf", "1,a", "'a'", {"--alpha-period": None}),
    ("gordon", "--alpha-period", "1:", "periodic part", {}),
    ("gordon", "--cf-depth", "0", "depth", {}),
    ("gordon", "--out", "/nonexistent/x", "/nonexistent/x", {}),
    ("gordon", "--lambda", "nan", "coupling", {}),
    ("gordon", "--level", "-1", "level", {}),
    ("gordon", "--rng-seed", "x", "--rng-seed", {}),
    ("hull-check", "--alpha-cf", "1,a", "'a'", {"--alpha-period": None}),
    ("hull-check", "--alpha-period", "1:", "periodic part", {}),
    ("hull-check", "--cf-depth", "0", "depth", {}),
    ("hull-check", "--out", "/nonexistent/x", "/nonexistent/x", {}),
    ("hull-check", "--precision", "-1", "guard", {}),
    ("hull-check", "--grid", "0", "grid", {}),
    ("hull-check", "--prefix", "0", "prefix", {}),
    ("appendix", "--alpha-cf", "1,a", "'a'", {"--alpha-period": None}),
    ("appendix", "--alpha-period", "1:", "periodic part", {}),
    ("appendix", "--cf-depth", "0", "depth", {}),
    ("appendix", "--out", "/nonexistent/x", "/nonexistent/x", {}),
    ("appendix", "--beta", "1/0", "beta", {}),
    ("appendix", "--rng-seed", "x", "--rng-seed", {}),
    ("appendix", "--L", "0", "factor length", {}),
    ("appendix", "--grid", "0", "grid", {}),
    ("appendix", "--prefix", "0", "prefix", {}),
]


@pytest.mark.parametrize(
    "task, flag, value, needle, changes",
    MALFORMED_OPTIONS,
    ids=[f"{task}{flag}" for task, flag, *_ in MALFORMED_OPTIONS],
)
def test_malformed_option_value_exits_two(task, flag, value, needle, changes):
    options = {**VALID_OPTIONS[task], **changes, flag: value}
    argv = [task] + [f"{k}={v}" for k, v in options.items() if v is not None]
    code, out, err = run_captured(argv)
    assert code == 2 and out == ""
    assert "Traceback" not in err
    (line,) = [line for line in err.splitlines() if "error:" in line]
    assert needle in line


GOLDEN_LEVEL_1 = ["spectrum", "--alpha-period", ":1", "--levels", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        [], ["-h"], ["bogus"], ["--help", "spectrum"], ["spectrum"], ["spectrum", "-h"],
        GOLDEN_LEVEL_1 + ["extra"],
        GOLDEN_LEVEL_1 + ["extra", "-x", "--y=1"],
        GOLDEN_LEVEL_1 + ["--bogus", "3"],
        ["spectrum", "--alpha-period", ":1", "--lev", "3"],
        GOLDEN_LEVEL_1 + ["--", "3"],
        ["spectrum", "--", "--alpha-period", ":1", "--levels", "1"],
        ["spectrum", "--alpha-period", ":1", "--levels", "--"],
        ["spectrum", "--alpha-period", ":1", "--levels=--"],
        ["word", "--alpha-cf", "1,2,1x10", "--alpha-period", ":1", "--length", "8"],
    ],
)
def test_subcommand_parse_matches_top_level_parse(argv):
    run_both_parses(argv)


def test_argv_none_reads_sys_argv(monkeypatch):
    # the console script calls main() with no argv
    for argv in (GOLDEN_LEVEL_1, GOLDEN_LEVEL_1 + ["extra"], []):
        monkeypatch.setattr("sys.argv", ["sturmspec"] + argv)
        run, listed = run_captured(None), run_captured(argv)
        assert run[0::2] == listed[0::2]
        assert _without_wall_time(run[1]) == _without_wall_time(listed[1])


def test_cf_spec_parsed_once_per_process(monkeypatch, capsys):
    built = []

    def counted(coeffs):
        built.append(coeffs)
        return convergents(coeffs)

    monkeypatch.setattr(cli, "convergents", counted)
    cli._cf_table.cache_clear()
    argv = ["spectrum", "--alpha-period", ":1", "--cf-depth", "25", "--levels", "3"]
    assert [run_cli(argv, capsys)[0] for _ in range(2)] == [0, 0]
    assert len(built) == 1
    # lru_cache stores no exception: a refused spec is refused on every call
    argv = ["spectrum", "--alpha-cf", "1,1x0", "--levels", "1"]
    for _ in range(2):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == "" and "'1x0'" in err
    cli._cf_table.cache_clear()


def test_level_range_refused_before_expansion(capsys):
    # a range past the CF depth is refused from its endpoints, without
    # building the 3 million levels it spells
    tracemalloc.start()
    try:
        code = main(["spectrum", "--alpha-period", ":1", "--levels", "41..3000000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "41..3000000" in capsys.readouterr().err
    assert peak < 2**20


def test_fraction_exponent_bound():
    from sturmspec.cli import MAX_DECIMAL_EXPONENT, _parse_fraction

    assert _parse_fraction(f"1e-{MAX_DECIMAL_EXPONENT}", "beta").denominator == (
        10**MAX_DECIMAL_EXPONENT
    )
    assert _parse_fraction("25e-0002", "beta") == Fraction(1, 4)
    # each of these stays cheap where the bound is missing, and fails instead
    for text in (f"1e-{MAX_DECIMAL_EXPONENT + 1}", "1e-99999", "1e1_0000", "1e" + "9" * 5000):
        with pytest.raises(InvalidInputError, match="exponent"):
            _parse_fraction(text, "beta")


def int_text(lo, hi):
    # hypothesis favours integers near lo; mirrored, it favours hi
    return st.integers(lo, hi).map(lambda k: str(lo + hi - k))


SMALL_FRACTION_TEXT = st.one_of(
    st.integers(2, 70).flatmap(lambda q: st.integers(1, q - 1).map(lambda p: f"{p}/{q}")),
    st.integers(1, 999).map(lambda k: f"0.{k:03d}"),
    st.builds(lambda m, e: f"{m}e-{e}", st.integers(1, 9), st.integers(1, 8)),
)
FLOAT_TEXT = st.floats(allow_nan=False, allow_infinity=False).map(repr)
# in-range values per option, with sizes small enough for a fast run
CIRCLE_OPTIONS = {
    "--beta": SMALL_FRACTION_TEXT,
    "--precision": int_text(1, 10**9).map(lambda d: f"1/{d}") | SMALL_FRACTION_TEXT,
    "--cf-depth": int_text(1, 60),
    "--L": int_text(1, 30),
    "--grid": int_text(1, 10**9),
    "--prefix": int_text(1, 3000),
}
APPENDIX_OPTIONS = {
    "--lambda": FLOAT_TEXT,
    "--range-n": int_text(1, 3000),
    "--theta-samples": int_text(1, 50),
}
# malformed or out-of-range values, any of which may go to any option
EDGE_TEXT = st.sampled_from(
    ["", " ", "x", "--", "1/0", "0x10", "1e", "nan", "inf", "1e400", "0", "-0", "-1",
     "-3/2", "1", "3/2", "1.5", "70", "2e9"]
)


def draw_argv(draw, task, options, max_left_out, edge_text=EDGE_TEXT, kept=()):
    """A golden-mean argv for ``task``: in-range option values, up to
    ``max_left_out`` options other than ``kept`` left out and up to two
    malformed."""
    values = {flag: draw(strategy) for flag, strategy in options.items()}
    optional = sorted(set(options) - set(kept))
    for flag in draw(st.sets(st.sampled_from(optional), max_size=max_left_out)):
        values[flag] = None  # left out: the default, or a missing required option
    for flag in draw(st.sets(st.sampled_from(sorted(options)), max_size=2)):
        values[flag] = draw(edge_text)
    # "=" keeps "-1" a value, not a flag
    return [task, "--alpha-period", ":1"] + [
        f"{flag}={value}" for flag, value in values.items() if value is not None
    ]


@st.composite
def circle_argv(draw):
    task = draw(st.sampled_from(["appendix", "hull-check"]))
    options = dict(CIRCLE_OPTIONS, **(APPENDIX_OPTIONS if task == "appendix" else {}))
    return draw_argv(draw, task, options, 3)


LEVEL_TEXT = st.one_of(
    int_text(0, 12),
    st.builds(lambda a, b: f"{a}..{b}", st.integers(0, 12), st.integers(0, 12)),
    st.lists(int_text(0, 12), min_size=1, max_size=3).map(",".join),
)
SPECTRUM_OPTIONS = {
    "--levels": LEVEL_TEXT,
    "--lambda": FLOAT_TEXT,
    "--cf-depth": int_text(1, 60),
}


@st.composite
def spectrum_argv(draw):
    edge_text = EDGE_TEXT | st.sampled_from(["0..41", "1..100000", "3..", "25"])
    return draw_argv(draw, "spectrum", SPECTRUM_OPTIONS, 1, edge_text)


FORMAT_TEXT = st.sampled_from(["json", "csv"])
# hypothesis favours 0 and extreme floats; most draws take a typical coupling
COUPLING_TEXT = st.floats(0.25, 8).map(repr) | FLOAT_TEXT
WORD_OPTIONS = {
    "--length": int_text(1, 5000),
    "--seed": st.sampled_from(["a", "b", "c"]),
    "--cf-depth": int_text(1, 60),
    "--format": FORMAT_TEXT,
}
# word's three exclusive modes; no mode spells the CF coding
WORD_MODES = {
    "--tower": int_text(0, 9),
    "--model": st.sampled_from(sorted(SUBSTITUTION_TABLE)),
    "--subst": st.sampled_from(["a:ab,b:a", "a:ab,b:ba", "a:abc,b:ac,c:b", "a:ab,b:b", "a:b,b:a"]),
}


@st.composite
def word_argv(draw):
    modes = draw(st.sets(st.sampled_from(sorted(WORD_MODES)), max_size=2))
    options = dict(WORD_OPTIONS, **{flag: WORD_MODES[flag] for flag in modes})
    return draw_argv(draw, "word", options, 2)


ENERGY_TEXT = st.one_of(
    st.lists(st.floats(-6, 6) | st.floats(allow_nan=False, allow_infinity=False),
             min_size=1, max_size=4).map(lambda es: ",".join(map(repr, es))),
    st.builds(lambda lo, hi, n: f"{lo!r}:{hi!r}:{n}",
              st.floats(-6, 6), st.floats(-6, 6), st.integers(1, 20)),
)
LYAPUNOV_OPTIONS = {
    "--potential": st.sampled_from(["sturmian", "circle", "free"]),
    "--energies": ENERGY_TEXT,
    "--steps": int_text(1000, 5000),
    "--lambda": COUPLING_TEXT,
    "--beta": SMALL_FRACTION_TEXT,
    "--precision": CIRCLE_OPTIONS["--precision"],
    "--cf-depth": int_text(1, 60),
    "--format": FORMAT_TEXT,
}


@st.composite
def lyapunov_argv(draw):
    # left out, --steps would default to 100000
    return draw_argv(draw, "lyapunov", LYAPUNOV_OPTIONS, 2, kept=["--steps"])


GORDON_OPTIONS = {
    "--level": int_text(0, 9),
    "--energies": int_text(0, 9).map(lambda k: f"from-spectrum:{k}") | ENERGY_TEXT,
    "--seeds": int_text(1, 20),
    "--rng-seed": int_text(0, 2**31),
    "--lambda": COUPLING_TEXT,
    "--cf-depth": int_text(1, 60),
}


@st.composite
def gordon_argv(draw):
    # left out, --seeds would default to 100
    return draw_argv(draw, "gordon", GORDON_OPTIONS, 2, kept=["--seeds"])


def _assert_exit_contract(argv):
    """One report and exit 0, or one error line and a documented code; and
    the same run as through the two-level parse."""
    code, out, err = run_both_parses(argv)
    assert code in (0, 2, 3, 4)
    if code == 0 and "--format=csv" in argv:
        assert out.splitlines()[0] == ",".join(CSV_HEADERS[argv[0]])
    elif code == 0:
        assert json.loads(out)["task"] == argv[0]
    else:
        assert out == ""
        assert "Traceback" not in err
        assert sum("error:" in line for line in err.splitlines()) == 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=circle_argv())
def test_circle_task_argv_fuzz(argv):
    _assert_exit_contract(argv)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=spectrum_argv())
def test_spectrum_task_argv_fuzz(argv):
    _assert_exit_contract(argv)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=word_argv())
def test_word_task_argv_fuzz(argv):
    _assert_exit_contract(argv)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=lyapunov_argv())
def test_lyapunov_task_argv_fuzz(argv):
    _assert_exit_contract(argv)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=gordon_argv())
def test_gordon_task_argv_fuzz(argv):
    _assert_exit_contract(argv)


BASE_ARGV = {
    "word": ["word", "--alpha-period", ":1", "--length", "8"],
    "spectrum": ["spectrum", "--alpha-period", ":1", "--levels", "3"],
    "gordon": ["gordon", "--alpha-period", ":1", "--level", "3", "--seeds", "2"],
    "hull-check": ["hull-check", "--alpha-period", ":1", "--beta", "1/4", "--L", "4"],
    "appendix": ["appendix", "--alpha-period", ":1", "--beta", "1/4"],
}
UNREAD_OPTIONS = [
    ("word", "--lambda", "3"), ("word", "--beta", "1/3"), ("word", "--precision", "1/7"),
    ("spectrum", "--beta", "1/3"), ("spectrum", "--precision", "1/7"),
    ("gordon", "--beta", "1/3"), ("gordon", "--precision", "1/7"), ("gordon", "--format", "json"),
    ("hull-check", "--lambda", "3"), ("hull-check", "--format", "json"),
    ("appendix", "--format", "json"),
]
EXCLUSIVE_MODES = [
    ["word", "--model", "fibonacci", "--subst", "a:ab,b:a", "--length", "8"],
    ["word", "--model", "fibonacci", "--tower", "3"],
    ["word", "--alpha-period", ":1", "--subst", "a:ab,b:a", "--tower", "3"],
]


@pytest.mark.parametrize(
    "argv, needle",
    [(BASE_ARGV[task] + [flag, value], f"unrecognized arguments: {flag} {value}")
     for task, flag, value in UNREAD_OPTIONS]
    + [(argv, "not allowed with argument") for argv in EXCLUSIVE_MODES],
    ids=[f"{task}{flag}" for task, flag, _ in UNREAD_OPTIONS]
    + ["model-subst", "model-tower", "subst-tower"],
)
def test_unread_option_refused_at_parse_time(argv, needle, monkeypatch, capsys):
    def task_ran(args):
        raise AssertionError(f"task {args.task} ran")

    monkeypatch.setattr(cli, "run_experiment", task_ran)
    code, out, err = parse_refusal(argv, capsys)
    assert code == 2 and out == ""
    assert needle in err


@pytest.mark.parametrize(
    "argv",
    [BASE_ARGV[task] + ["--alpha-cf", "1,2,1x10"] for task in sorted(BASE_ARGV)]
    + [["lyapunov", "--alpha-period", ":1", "--energies", "0", "--alpha-cf", "1,2,1x10"],
       ["word", "--alpha-cf", "1,2,1x10", "--alpha-period", ":1", "--length", "8"]],
    ids=sorted(BASE_ARGV) + ["lyapunov", "word-cf-first"],
)
def test_alpha_cf_and_alpha_period_are_exclusive(argv, monkeypatch, capsys):
    # each spells a rotation number, so one of them would go unread
    def task_ran(args):
        raise AssertionError(f"task {args.task} ran")

    monkeypatch.setattr(cli, "run_experiment", task_ran)
    code, out, err = parse_refusal(argv, capsys)
    assert code == 2 and out == ""
    assert "not allowed with argument" in err


def _without_wall_time(text):
    return re.sub(r'"wall_time_s": [^,\n]*', "", text)


@pytest.mark.parametrize("task", sorted(BASE_ARGV))
def test_json_layout_one_field_per_line(task, tmp_path, capsys):
    argv = BASE_ARGV[task]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    report = run_report(argv)
    lines = out.split("\n")
    assert lines[0] == "{" and lines[-2:] == ["}", ""]
    fields = lines[1:-2]
    assert len(fields) == len(report)
    for i, (line, key) in enumerate(zip(fields, report)):
        assert line.startswith(f"  {json.dumps(key)}: ")
        assert line.endswith(",") == (i < len(fields) - 1)
        assert list(json.loads("{" + line.rstrip(",") + "}")) == [key]
    parsed = json.loads(out)
    parsed.pop("wall_time_s"), report.pop("wall_time_s")
    assert parsed == json.loads(json.dumps(report))  # tuples read back as lists
    path = tmp_path / "report.json"
    assert run_cli(argv + ["--out", str(path)], capsys) == (0, "", "")
    assert _without_wall_time(path.read_text()) == _without_wall_time(out)


class TestReportPlumbing:
    def test_json_round_trip(self):
        report = run_report(["word", "--model", "fibonacci", "--length", "5"])
        assert json.loads(emit_report(report, "json")) == report

    def test_deterministic_modulo_walltime(self):
        argv = ["spectrum", "--alpha-period", ":1", "--levels", "1..3"]
        a, b = run_report(argv), run_report(argv)
        a.pop("wall_time_s"), b.pop("wall_time_s")
        assert a == b

    def test_one_parser_serves_consecutive_runs(self, capsys):
        assert build_parser() is build_parser()
        with pytest.raises(SystemExit) as refused:
            main(["gordon", "--alpha-period", ":1", "--level"])
        assert refused.value.code == 2
        capsys.readouterr()
        for argv in (
            ["spectrum", "--alpha-period", ":1", "--levels", "1..3"],
            ["gordon", "--alpha-period", ":1", "--level", "3", "--seeds", "5"],
        ):
            code, out, _ = run_cli(argv, capsys)
            assert code == 0
            fresh = run_experiment(cli._parsers.__wrapped__()[0].parse_args(argv))
            report = json.loads(out)
            report.pop("wall_time_s"), fresh.pop("wall_time_s")
            assert report == json.loads(emit_report(fresh, "json"))

    def test_config_echo_present(self):
        report = run_report(["word", "--model", "fibonacci", "--length", "5"])
        assert report["config"]["model"] == "fibonacci"
        assert report["config"]["length"] == 5
        assert report["schema_version"] == 1
        assert "version" in report

    @pytest.mark.parametrize(
        "argv, defaults",
        [
            (["word", "--model", "fibonacci", "--length", "5"], {"cf_depth": 40}),
            (FREE_LYAPUNOV + ["--energies", "0"], {"cf_depth": 40, "coupling": 1.0}),
            (["spectrum", "--alpha-period", ":1", "--levels", "2"],
             {"cf_depth": 40, "coupling": 1.0}),
        ],
    )
    def test_config_echo_carries_the_defaults(self, argv, defaults):
        # --cf-depth and --lambda parse to None when not given; the echo
        # still shows the values they stand for
        config = run_report(argv)["config"]
        assert {k: config[k] for k in ("cf_depth", "coupling") if k in config} == defaults

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["word", "--model", "fibonacci", "--length", "5", "--out", str(path)],
            capsys,
        )
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["word"] == "10110"
