import math
import random
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmspec import (
    PotentialWindow,
    Word,
    c_alpha_prefix,
    constant_window,
    convergents,
    gordon_certificate,
    periodic_window,
    stability_measure_bound,
    standard_words,
    sturmian_band_spectrum,
    trace_bound_scan,
    transfer_product,
    window_coverage_check,
    window_from_word,
)
from sturmspec.errors import InvalidInputError, WindowError
from sturmspec.spectrum import band_samples, intersect_intervals
from trajectories import iterate_solution


def reference_nondecay(window, n, energy, seeds):
    """(min_ratio, max_identity_residual) from one trajectory per seed."""
    tr = transfer_product(window, energy, 1, n).trace()
    min_ratio, max_residual = math.inf, 0.0
    for seed in seeds:
        u = iterate_solution(window, energy, seed, n_max=2 * n).u
        u0 = math.hypot(u[1], u[0])
        ratio = max(math.hypot(u[n + 1], u[n]), math.hypot(u[2 * n + 1], u[2 * n])) / u0
        min_ratio = min(min_ratio, ratio)
        residual = max(
            abs(u[2 * n + 1] - tr * u[n + 1] + u[1]), abs(u[2 * n] - tr * u[n] + u[0])
        )
        max_residual = max(max_residual, residual / max(u0, 1.0))
    return min_ratio, max_residual


def block_reference_residual(window, n, energy, seeds):
    """max_identity_residual with U(n) = M U(0) and U(2n) = M2 U(0) per seed,
    M and M2 the products over [1, n] and [1, 2n] at a float energy."""
    m1 = transfer_product(window, energy, 1, n)
    m2 = transfer_product(window, energy, 1, 2 * n)
    tr = m1.trace()

    def apply(state, u0, u1):
        a, b, c, d = (x * np.exp(state.log_scale) for x in state.m)
        return a * u1 + b * u0, c * u1 + d * u0

    max_residual = 0.0
    for u0, u1 in seeds:
        un1, un = apply(m1, u0, u1)
        u2n1, u2n = apply(m2, u0, u1)
        residual = max(abs(u2n1 - tr * un1 + u1), abs(u2n - tr * un + u0))
        max_residual = max(max_residual, residual / max(math.hypot(u1, u0), 1.0))
    return max_residual


@pytest.fixture(scope="module")
def proxy_energies(fib_spectra):
    bands = intersect_intervals(fib_spectra[8].bands, fib_spectra[9].bands)
    return band_samples(bands, per_band=1)


@pytest.fixture(scope="module")
def trace_constant(golden_cf):
    return trace_bound_scan(golden_cf, 1.0, 8).derived_constant()


@pytest.fixture(scope="module")
def s4_square_window(golden_cf):
    s4 = standard_words(golden_cf, 4).word(4)
    return window_from_word(s4 + s4, 1.0)


def assert_not_certified(cert, i):
    assert not cert.certified[i]
    assert math.isnan(cert.min_ratio[i]) and math.isnan(cert.max_identity_residual[i])
    assert not cert.nondecay_ok[i]


class TestGordonMembership:
    """The square test and the trace bound of ``gordon_certificate``."""

    def test_periodic_zero_one_by_hand(self):
        # block "01" at E = 0: A(1) A(0) = [[-1, 1], [0, -1]], trace -2
        window = periodic_window(Word.from_text("01"), 1.0, 1, 4)
        cert = gordon_certificate(window, 2, 2.0, [0.0], [(0.0, 1.0)])
        assert cert.square_ok
        assert cert.abs_trace[0] == pytest.approx(2.0, abs=1e-12)
        assert cert.certified[0]
        assert cert.verdict

    def test_non_square_window(self):
        window = window_from_word(Word.from_text("0110"), 1.0)
        cert = gordon_certificate(window, 2, 10.0, [0.0], [(0.0, 1.0)])
        assert not cert.square_ok
        assert not cert.verdict

    def test_trace_violation_flagged(self):
        window = periodic_window(Word.from_text("01"), 1.0, 1, 4)
        cert = gordon_certificate(window, 2, 1.0, [0.0], [(0.0, 1.0)])  # |tr| = 2 > 1
        assert cert.square_ok and not cert.verdict

    def test_s4_square_at_proxy_energies(
        self, s4_square_window, proxy_energies, trace_constant
    ):
        cert = gordon_certificate(
            s4_square_window, 5, trace_constant, proxy_energies, [(0.0, 1.0)]
        )
        assert cert.square_ok
        assert cert.verdict

    def test_window_too_small(self):
        window = window_from_word(Word.from_text("0101"), 1.0)
        with pytest.raises(WindowError):
            gordon_certificate(window, 3, 2.0, [0.0], [(0.0, 1.0)])

    @pytest.mark.parametrize(
        "n, energies, seeds, needle",
        [
            (0, [0.0], [(0.0, 1.0)], "period"),
            (2, [], [(0.0, 1.0)], "energies"),
            (2, [0.0], [], "seed"),
            (2, [0.0], np.empty((0, 2)), "seed"),
        ],
        ids=["period", "no-energies", "no-seeds", "no-seeds-array"],
    )
    def test_bad_input_refused(self, n, energies, seeds, needle):
        window = periodic_window(Word.from_text("01"), 1.0, 1, 4)
        with pytest.raises(InvalidInputError, match=needle):
            gordon_certificate(window, n, 2.0, energies, seeds)


class TestNondecay:
    def test_free_potential_norm_preserved(self):
        window = constant_window(0.0, 1, 20)
        cert = gordon_certificate(window, 4, 2.0, [0.0], [(0.0, 1.0)])
        assert cert.min_ratio[0] == pytest.approx(1.0, abs=1e-12)
        assert cert.nondecay_ok[0]

    def test_random_seeds_on_s4_square(
        self, s4_square_window, proxy_energies, trace_constant
    ):
        rng = random.Random(19)
        seeds = []
        for _ in range(100):
            angle = rng.uniform(0, 2 * math.pi)
            seeds.append((math.cos(angle), math.sin(angle)))
        cert = gordon_certificate(s4_square_window, 5, trace_constant, proxy_energies[:10], seeds)
        assert cert.certified.all()
        assert cert.nondecay_ok.all()
        assert np.all(cert.max_identity_residual < 1e-9)

    def test_most_contracted_direction(
        self, s4_square_window, proxy_energies, trace_constant
    ):
        # seed along the smallest singular direction of the block matrix:
        # the bound is seed-uniform, so even this one cannot dip below it
        for energy in proxy_energies[:5]:
            state = transfer_product(s4_square_window, energy, 1, 5)
            m = np.array(state.m).reshape(2, 2) * math.exp(state.log_scale)
            _, _, vt = np.linalg.svd(m)
            worst = vt[-1]  # right singular vector of the smallest value
            # U(0) = (u(1), u(0)) = worst means seed = (u(0), u(1))
            cert = gordon_certificate(
                s4_square_window, 5, trace_constant, [energy], [(worst[1], worst[0])]
            )
            assert cert.nondecay_ok[0]

    def test_all_seeds_at_once_match_per_seed_loop(
        self, s4_square_window, proxy_energies, trace_constant
    ):
        rng = random.Random(29)
        seeds = []
        for _ in range(50):
            angle, radius = rng.uniform(0, 2 * math.pi), rng.uniform(0.1, 10)
            seeds.append((radius * math.cos(angle), radius * math.sin(angle)))
        for energy in proxy_energies[:10]:
            cert = gordon_certificate(s4_square_window, 5, trace_constant, [energy], seeds)
            min_ratio, _ = reference_nondecay(s4_square_window, 5, energy, seeds)
            max_residual = block_reference_residual(s4_square_window, 5, energy, seeds)
            assert cert.min_ratio[0] == pytest.approx(min_ratio, rel=1e-12, abs=0)
            assert cert.max_identity_residual[0] == pytest.approx(max_residual, rel=1e-12, abs=0)
            assert cert.seeds_tested == 50

    def test_energy_array_matches_float_calls(
        self, s4_square_window, proxy_energies, trace_constant
    ):
        # one call over 12 energies against one call per energy
        rng = random.Random(31)
        seeds = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(40)]
        energies = np.array(proxy_energies[:12])
        batch = gordon_certificate(s4_square_window, 5, trace_constant, energies, seeds)
        assert batch.min_ratio.shape == batch.max_identity_residual.shape == (12,)
        assert batch.seeds_tested == 40
        for i, energy in enumerate(energies.tolist()):
            single = gordon_certificate(s4_square_window, 5, trace_constant, [energy], seeds)
            assert batch.energy[i] == single.energy[0]
            assert batch.abs_trace[i] == single.abs_trace[0]
            assert batch.min_ratio[i] == single.min_ratio[0]
            assert batch.max_identity_residual[i] == single.max_identity_residual[0]
            assert batch.nondecay_ok[i] == single.nondecay_ok[0]
            assert batch.lower_bound == single.lower_bound
            min_ratio, _ = reference_nondecay(s4_square_window, 5, energy, seeds)
            assert batch.min_ratio[i] == pytest.approx(min_ratio, rel=1e-12, abs=0)
            max_residual = block_reference_residual(s4_square_window, 5, energy, seeds)
            assert batch.max_identity_residual[i] == pytest.approx(max_residual, rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "scale",
        [2.0**600, 2.0**-600, 1e300, 1e-300, 3.7e-310],
        ids=["2^600", "2^-600", "1e300", "1e-300", "subnormal"],
    )
    def test_seed_scale_leaves_the_ratios(
        self, s4_square_window, proxy_energies, trace_constant, scale
    ):
        # each seed is scaled by a power of two before the squared norms are
        # taken: seeds near the float limits, a subnormal one included, give
        # the ratios of unit seeds without an overflow or underflow warning
        rng = random.Random(37)
        angles = [rng.uniform(0, 2 * math.pi) for _ in range(30)]
        seeds = [(math.cos(a), math.sin(a)) for a in angles]
        energies = proxy_energies[:12]
        unit = gordon_certificate(s4_square_window, 5, trace_constant, energies, seeds)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = gordon_certificate(
                s4_square_window, 5, trace_constant, energies,
                [(scale * u0, scale * u1) for u0, u1 in seeds],
            )
        assert unit.certified.all()
        np.testing.assert_allclose(scaled.min_ratio, unit.min_ratio, rtol=1e-12, atol=0)
        assert scaled.nondecay_ok.tolist() == unit.nondecay_ok.tolist()

    def test_one_site_period(self):
        # n = 1 keeps float entries in the one-site product
        window = constant_window(1.0, 1, 2)
        energies = [0.5, 1.0, 2.5, 9.0]
        seeds = [(0.0, 1.0), (1.0, 0.0), (0.6, -0.8), (-2.0, 0.5), (0.3, 0.3)]
        cert = gordon_certificate(window, 1, 2.0, energies, seeds)
        assert cert.certified.tolist() == [True, True, True, False]
        for i, energy in enumerate(energies[:3]):
            min_ratio, _ = reference_nondecay(window, 1, energy, seeds)
            assert cert.min_ratio[i] == pytest.approx(min_ratio, rel=1e-12, abs=0)
            assert cert.nondecay_ok[i]
        assert_not_certified(cert, 3)

    def test_overflowing_uncertified_energy_stays_silent(self, golden_cf, fib_spectra):
        # at E = 1e5 the [1, 89] product passes e^709; U(n) is taken at the
        # certified band midpoint only, so numpy has no overflow to warn about
        q = golden_cf.q[10]
        s10 = standard_words(golden_cf, 10).word(10)
        window = window_from_word(s10 + s10, 1.0)
        lo, hi = fib_spectra[10].bands[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = gordon_certificate(window, q, 10.0, [1e5, (lo + hi) / 2], [(0.6, -0.8)])
        assert q == 89 and cert.certified.tolist() == [False, True]
        assert_not_certified(cert, 0)
        assert cert.nondecay_ok[1]

    # E - V = 1e200 and 2e-200 at E = 0: the block has trace 0, and some
    # seeds' U(n) and U(2n) pass the 1e154 where their squares overflow
    HUGE_BLOCK = [-1e200, -2e-200, -1e200, -2e-200]

    def test_overflowing_seed_leaves_the_minimum(self):
        # (0.6, 0.8)'s squares overflow; (1, 0) keeps ratio 1 and the minimum
        window = PotentialWindow(lo=1, hi=4, values=self.HUGE_BLOCK)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = gordon_certificate(window, 2, 1.0, [0.0], [(0.6, 0.8), (1.0, 0.0)])
        assert cert.certified.tolist() == [True]
        assert cert.min_ratio.tolist() == [1.0]
        assert cert.nondecay_ok.tolist() == [True]

    def test_every_seed_overflowing_takes_hypot_norms(self):
        window = PotentialWindow(lo=1, hi=4, values=self.HUGE_BLOCK)
        seeds = [(0.6, 0.8)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = gordon_certificate(window, 2, 1.0, [0.0], seeds)

        def norm(k):
            # ||U(k)|| for the seed (u(0), u(1)) = (0.6, 0.8)
            state = transfer_product(window, 0.0, 1, k)
            a, b, c, d = (x * np.exp(state.log_scale) for x in state.m)
            return np.hypot(a * 0.8 + b * 0.6, c * 0.8 + d * 0.6)

        expected = max(norm(2), norm(4)) / np.hypot(0.6, 0.8)
        assert 1e199 < expected < 1e201
        assert cert.min_ratio.tolist() == [expected]
        assert cert.min_ratio[0] == pytest.approx(
            reference_nondecay(window, 2, 0.0, seeds)[0], rel=1e-12, abs=0
        )
        assert cert.nondecay_ok.tolist() == [True]

    def test_memory_does_not_grow_with_the_window(self, golden_cf, proxy_energies):
        s12 = standard_words(golden_cf, 12).word(12)
        window = window_from_word(s12 + s12, 1.0)
        rng = random.Random(32)
        seeds = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(40)]
        energies = np.array(proxy_energies[:50])
        c_bound = float(np.max(abs(transfer_product(window, energies, 1, 233).trace())))
        tracemalloc.start()
        try:
            cert = gordon_certificate(window, 233, c_bound, energies, seeds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cert.certified.all()
        # 16 (energies, seeds) float arrays; a solution trajectory over the
        # 2n = 466 sites would hold 468 of them
        assert peak <= 16 * 50 * 40 * 8 + 64 * 1024

    def test_own_trace_as_bound_certifies(self, s4_square_window, proxy_energies):
        # the trace bound is inclusive: each energy's own |tr| certifies it,
        # and the ratios do not depend on the bound
        energies = proxy_energies[:6]
        seeds = [(0.0, 1.0), (1.0, 2.0)]
        batch = gordon_certificate(s4_square_window, 5, np.inf, energies, seeds)
        for i, energy in enumerate(energies):
            own = float(batch.abs_trace[i])
            single = gordon_certificate(s4_square_window, 5, own, [energy], seeds)
            assert single.verdict
            assert single.lower_bound == 1.0 / (own + 1.0)
            assert single.min_ratio[0] == batch.min_ratio[i]
            assert single.nondecay_ok[0]

    def test_fields_are_arrays_and_verdict_is_bool(self, s4_square_window, trace_constant):
        cert = gordon_certificate(s4_square_window, 5, trace_constant, [0.3, 0.5], [(0.0, 1.0)])
        for value in (cert.energy, cert.abs_trace, cert.certified, cert.min_ratio,
                      cert.max_identity_residual, cert.nondecay_ok):
            assert value.shape == (2,)
        for value in (cert.c_bound, cert.lower_bound):
            assert type(value) is float
        assert type(cert.verdict) is bool and type(cert.square_ok) is bool
        assert cert.lower_bound == 1.0 / (trace_constant + 1.0)

    def test_energy_over_bound_named(self):
        # block "01": tr = E^2 - E - 2, so |tr| = 0, 4, 10 at E = 2, 3, 4
        window = periodic_window(Word.from_text("01"), 1.0, 1, 4)
        cert = gordon_certificate(window, 2, 3.0, [2.0, 3.0, 4.0], [(0.0, 1.0)])
        assert cert.abs_trace.tolist() == pytest.approx([0.0, 4.0, 10.0], abs=1e-12)
        assert cert.certified.tolist() == [True, False, False]
        assert cert.nondecay_ok[0] and not cert.verdict
        for i in (1, 2):
            assert_not_certified(cert, i)

    def test_requires_square(self):
        window = window_from_word(Word.from_text("0110"), 1.0)
        cert = gordon_certificate(window, 2, 10.0, [0.0, 1.0], [(0.0, 1.0)])
        for i in (0, 1):
            assert_not_certified(cert, i)

    def test_requires_trace_bound(self):
        window = periodic_window(Word.from_text("01"), 1.0, 1, 4)
        cert = gordon_certificate(window, 2, 1.5, [0.0], [(0.0, 1.0)])
        assert_not_certified(cert, 0)

    def test_zero_seed_refused(self):
        window = periodic_window(Word.from_text("01"), 1.0, 1, 4)
        with pytest.raises(InvalidInputError, match="zero seed"):
            gordon_certificate(window, 2, 2.0, [0.0], [(1.0, 0.0), (0.0, 0.0)])


def exact_min_squared_ratio(values, energy, seeds, n):
    """min over the seeds of max(||U(n)||^2, ||U(2n)||^2) / ||U(0)||^2, and
    tr M(E, 1, n), exactly from the float energy, sites and seeds."""
    steps = [Fraction(energy) - Fraction(v) for v in values[: 2 * n]]
    # floats are dyadic, so the largest denominator is a multiple of all:
    # the site matrices are [[x, -scale], [scale, 0]] / scale with integer x
    scale = max(f.denominator for f in steps)
    a, b, c, d = 1, 0, 0, 1
    blocks = []
    for k, step in enumerate(steps, start=1):
        x = step.numerator * (scale // step.denominator)
        a, b, c, d = x * a - scale * c, x * b - scale * d, scale * a, scale * b
        if k in (n, 2 * n):
            blocks.append((a, b, c, d))
    (a, b, c, d), (e, f, g, h) = blocks  # times scale**n and scale**(2n)
    lift = scale ** (2 * n)
    worst = None
    for seed in seeds:
        u0, u1 = (Fraction(u) for u in seed)
        seed_scale = max(u0.denominator, u1.denominator)
        w0, w1 = (u.numerator * (seed_scale // u.denominator) for u in (u0, u1))
        top = max(
            ((a * w1 + b * w0) ** 2 + (c * w1 + d * w0) ** 2) * lift,
            (e * w1 + f * w0) ** 2 + (g * w1 + h * w0) ** 2,
        )
        ratio = Fraction(top, w0 * w0 + w1 * w1)
        worst = ratio if worst is None else min(worst, ratio)
    return worst / lift**2, Fraction(a + d, scale**n)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    coeffs=st.lists(st.integers(1, 5), min_size=10, max_size=10),
    coupling=st.floats(0.01, 5.0),
    angles=st.lists(st.floats(0.0, 2 * math.pi), min_size=10, max_size=10),
)
def test_nondecay_accuracy_over_random_continued_fractions(coeffs, coupling, angles):
    # q_10 >= 89, so the square has a period between 15 and 89; lambda stays
    # >= 0.01 because as it goes to 0 the gaps close to rounding and the band
    # spectrum refuses
    cf = convergents(coeffs)
    level = max(n for n in range(cf.depth + 1) if cf.q[n] <= 89)
    n = cf.q[level]
    s_n = standard_words(cf, level).word(level)
    window = window_from_word(s_n + s_n, coupling)
    bands = sturmian_band_spectrum(cf, coupling, level).bands
    energies = band_samples(bands[:: max(1, len(bands) // 8)][:8], 1)
    seeds = [(math.cos(a), math.sin(a)) for a in angles]
    values = window.slice_values(1, 2 * n)
    for energy in energies:
        # the energy's own |tr| as the bound: the floor is 1/(|tr| + 1)
        own = float(abs(transfer_product(window, np.array([[energy]]), 1, n).trace()[0, 0]))
        cert = gordon_certificate(window, n, own, [energy], seeds)
        assert cert.certified[0]
        squared, tr = exact_min_squared_ratio(values, energy, seeds, n)
        assert cert.min_ratio[0] == pytest.approx(math.sqrt(squared), rel=1e-6, abs=0)
        floor = 1 / (abs(tr) + 1) - Fraction(1e-9)
        assert cert.nondecay_ok[0] == (squared >= floor * floor)


class TestCubeToSquare:
    def test_every_cube_occurrence_gives_squares(self, golden_cf):
        prefix = c_alpha_prefix(golden_cf, 10**4)
        for level in (3, 4, 5):
            q = golden_cf.q[level]
            cube = standard_words(golden_cf, level).word(level) * 3
            for position in prefix.occurrences(cube)[:50]:
                chunk = prefix.symbols[position : position + 3 * q]
                # squares of period q begin at position and at position + q
                assert chunk[:q] == chunk[q : 2 * q] == chunk[2 * q :]


class TestMeasureBound:
    def test_golden_level_four(self, golden_cf):
        report = stability_measure_bound(golden_cf, 4, 10**5)
        assert report.window_ok
        assert report.bound_ok
        assert float(report.product) >= 1 / 7 - 2 * report.q_n / 10**5

    def test_products_bounded_below(self, golden_cf):
        for level in (3, 4, 5, 6, 7):
            report = stability_measure_bound(golden_cf, level, 2 * 10**5)
            assert float(report.product) >= 0.1

    def test_golden_level_one_shortfall(self, golden_cf):
        # "111" never occurs in the golden coding: honest zero with a flag
        report = stability_measure_bound(golden_cf, 1, 10**4)
        assert report.shortfall
        assert report.cube_count == 0
        assert report.product == 0
        assert not report.window_ok
        assert report.bound_ok is None

    def test_prefix_too_short(self, golden_cf):
        with pytest.raises(WindowError):
            stability_measure_bound(golden_cf, 5, 100)

    def test_carries_its_window_check(self, golden_cf):
        report = stability_measure_bound(golden_cf, 4, 10**5)
        assert report.coverage == window_coverage_check(golden_cf, 4, 10**5)
        assert report.window_ok == report.coverage.all_windows_contain_start
        assert report.cube_count == report.coverage.cube_occurrences

    def test_density_is_exact_fraction(self, golden_cf):
        report = stability_measure_bound(golden_cf, 3, 10**4)
        assert report.cube_density.denominator == 10**4 - 3 * golden_cf.q[3] + 1

    def test_certificate_soundness(self, golden_cf, fib_spectra, trace_constant):
        # wherever the trace test certifies (n, C, E), the non-decay ratio holds
        rng = random.Random(7)
        s5 = standard_words(golden_cf, 5).word(5)
        window = window_from_word(s5 + s5, 1.0)
        bands = intersect_intervals(fib_spectra[8].bands, fib_spectra[9].bands)
        seeds = [(math.cos(a), math.sin(a)) for a in (rng.uniform(0, 7) for _ in range(20))]
        cert = gordon_certificate(window, 8, trace_constant, band_samples(bands, 1)[:10], seeds)
        assert cert.certified.any()
        assert np.all(cert.min_ratio[cert.certified] >= cert.lower_bound - 1e-9)
        assert np.array_equal(cert.nondecay_ok, cert.certified)
