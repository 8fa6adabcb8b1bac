import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmspec import (
    Word,
    band_samples,
    c_alpha_prefix,
    constant_window,
    convergents,
    lyapunov_estimate,
    standard_words,
    sturmian_traces,
    trace_bound_scan,
    transfer_product,
    window_from_word,
)
from sturmspec.errors import DepthError, InvalidInputError, WindowError
from sturmspec.spectrum import TRACE_SAMPLES_PER_BAND
from sturmspec.transfer import multiply
from trajectories import iterate_solution


def matrices_close(state_a, state_b, tol=1e-8):
    (a1, log_a), (a2, log_b) = state_a.normalized(), state_b.normalized()
    entry_gap = max(abs(x - y) for x, y in zip(a1, a2))
    log_gap = abs(log_a - log_b) / max(1.0, abs(log_a))
    return entry_gap <= tol and log_gap <= tol


class TestTransferProduct:
    def test_single_site_by_hand(self):
        window = window_from_word(Word.from_text("1"), 1.0)
        state = transfer_product(window, 0.0, 1, 1)
        assert state.m == (-1.0, -1.0, 1.0, 0.0)
        assert state.trace() == -1.0

    def test_two_site_by_hand(self):
        window = window_from_word(Word.from_text("10"), 1.0)
        state = transfer_product(window, 0.0, 1, 2)
        # A(0) A(1) = [[-1, 0], [-1, -1]]
        assert state.trace() == pytest.approx(-2.0, abs=1e-12)
        a, b, c, d = state.m
        scale = math.exp(state.log_scale)
        assert (a * scale, b * scale, c * scale, d * scale) == pytest.approx(
            (-1.0, 0.0, -1.0, -1.0), abs=1e-12
        )

    def test_determinant_random_words_in_band(self):
        # the float det only resolves while the product stays bounded, i.e.
        # at energies inside the word's own periodic spectrum
        from sturmspec import band_spectrum, periodic_window

        from sturmspec.errors import ResolutionError

        rng = random.Random(9)
        checked = 0
        for _ in range(10):
            word = Word(bytes(rng.randrange(2) for _ in range(10)), 2)
            try:
                spec = band_spectrum(word, 1.0)
            except ResolutionError:
                continue  # word has (near-)touching bands; nothing to sample
            for lo, hi in spec.bands[:: len(spec.bands) // 3]:
                window = periodic_window(word, 1.0, 1, 10**3)
                state = transfer_product(window, 0.5 * (lo + hi), 1, 10**3)
                assert abs(state.det_residual()) < 1e-10
                checked += 1
        assert checked >= 20

    def test_determinant_bounded_long_products(self, golden_cf, fib_spectra):
        # in-band periodic product: elliptic, so the check survives 10^5 steps
        from sturmspec import periodic_window

        window = periodic_window(Word.from_text("10"), 1.0, 1, 10**5)
        midband = 0.5 * (1.0 + (1.0 + math.sqrt(17)) / 2.0)
        state = transfer_product(window, midband, 1, 10**5)
        assert abs(state.det_residual()) < 1e-10

    def test_range_error(self):
        window = window_from_word(Word.from_text("10"), 1.0)
        with pytest.raises(WindowError):
            transfer_product(window, 0.0, 1, 3)

    def test_empty_range_refused(self):
        window = window_from_word(Word.from_text("10"), 1.0)
        with pytest.raises(InvalidInputError):
            transfer_product(window, 0.0, 2, 1)

    def test_cocycle_split_law(self, golden_cf):
        word = c_alpha_prefix(golden_cf, 2000)
        window = window_from_word(word, 1.0)
        rng = random.Random(31)
        for _ in range(100):
            total = rng.randint(2, 2000)
            cut = rng.randint(1, total - 1)
            energy = rng.uniform(-3, 3)
            direct = transfer_product(window, energy, 1, total)
            combined = multiply(
                transfer_product(window, energy, cut + 1, total),
                transfer_product(window, energy, 1, cut),
            )
            assert matrices_close(direct, combined, 1e-8)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    symbols=st.lists(st.integers(0, 1), min_size=2, max_size=2000),
    cut_draw=st.floats(0.0, 1.0),
    energies=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8),
)
def test_kernel_split_law_and_float_agreement_over_random_words(symbols, cut_draw, energies):
    # criterion 11 tolerances, elementwise over an array of energies
    total = len(symbols)
    cut = min(1 + int(cut_draw * (total - 1)), total - 1)
    window = window_from_word(Word(bytes(symbols), 2), 1.0)
    e = np.asarray(energies)
    direct = transfer_product(window, e, 1, total)
    combined = multiply(
        transfer_product(window, e, cut + 1, total), transfer_product(window, e, 1, cut)
    )
    (m1, log1), (m2, log2) = direct.normalized(), combined.normalized()
    assert max(np.max(abs(x - y)) for x, y in zip(m1, m2)) <= 1e-8
    assert np.all(abs(log1 - log2) <= 1e-8 * np.maximum(1.0, abs(log1)))
    for i, energy in enumerate(energies):
        m3, log3 = transfer_product(window, energy, 1, total).normalized()
        assert max(abs(x[i] - y) for x, y in zip(m1, m3)) <= 1e-8
        assert abs(log1[i] - log3) <= 1e-8 * max(1.0, abs(log1[i]))


class TestSturmianTransfer:
    def test_trace_scan_sups_are_bit_identical(self, golden_cf):
        # the scan's one array pass gives the per-energy trace map's sups bit
        # for bit, and the site loop's over the spelled-out s_k to rounding
        # where the site loop is accurate
        report = trace_bound_scan(golden_cf, 1.0, 9, proxy_level=7)
        energies = band_samples(report.proxy_bands, TRACE_SAMPLES_PER_BAND)
        per_energy = [sturmian_traces(golden_cf, 1.0, e, 9) for e in energies.tolist()]
        assert report.sup_per_level == tuple(
            max(abs(traces[k + 1]) for traces in per_energy) for k in range(10)
        )
        tower = standard_words(golden_cf, 9)
        for k, sup in enumerate(report.sup_per_level):
            window = window_from_word(tower.word(k), 1.0)
            site_loop = transfer_product(window, energies, 1, len(window)).trace()
            assert sup == pytest.approx(np.max(abs(site_loop)), rel=1e-10)

    def test_level_two_matches_word_ten(self, golden_cf):
        assert sturmian_traces(golden_cf, 1.0, 0.0, 2)[-1] == pytest.approx(-2.0, abs=1e-12)

    def test_level_zero_trace_is_energy(self, golden_cf):
        for energy in (-1.5, 0.0, 2.25):
            assert sturmian_traces(golden_cf, 1.0, energy, 0)[-1] == energy

    def test_level_minus_one(self, golden_cf):
        assert sturmian_traces(golden_cf, 1.0, 2.0, -1) == [1.0]


class TestTraceMap:
    def test_first_traces_by_hand(self, golden_cf):
        # t_{-1} = E - lambda, t_0 = E, and for the golden mean s_1 = "1"
        # and s_2 = "10": t_2 = (E - lambda) E - 2
        assert sturmian_traces(golden_cf, 1.5, 2.0, 2) == [0.5, 2.0, 0.5, -1.0]
        assert sturmian_traces(golden_cf, 1.5, 2.0, -1) == [0.5]

    def test_level_checks(self, golden_cf):
        with pytest.raises(InvalidInputError):
            sturmian_traces(golden_cf, 1.0, 0.0, -2)
        with pytest.raises(DepthError):
            sturmian_traces(golden_cf, 1.0, 0.0, 41)

    def test_overflow_in_a_gap_is_silent(self, golden_cf):
        # far outside the spectrum the traces grow superexponentially; the
        # overflow raises no RuntimeWarning (pytest turns one into an error)
        traces = sturmian_traces(golden_cf, 10.0, np.array([0.5, 30.0]), 40)
        assert not np.any(np.isfinite(traces[-1]))


def _exact_trace(symbols, coupling, energy):
    """tr M(E) over a word, as an exact rational product site by site."""
    a, b, c, d = 1, 0, 0, 1
    for symbol in symbols:
        x = energy - coupling * symbol
        a, b, c, d = x * a - c, x * b - d, a, b
    return a + d


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    coeffs=st.lists(st.integers(1, 5), min_size=1, max_size=12),
    # dyadic couplings and energies convert to floats exactly
    coupling=st.integers(7, 640).map(lambda k: Fraction(k, 64)),
    position=st.integers(0, 256).map(lambda k: Fraction(k, 256)),
)
def test_trace_map_matches_exact_products_over_random_continued_fractions(
    coeffs, coupling, position
):
    cf = convergents(coeffs)
    top = max(n for n in range(cf.depth + 1) if cf.q[n] <= 300)
    energy = -3 + position * (coupling + 6)  # covers [-2, 2 + lambda] and beyond
    traces = sturmian_traces(cf, float(coupling), float(energy), top)
    tower = standard_words(cf, top)
    for level in range(-1, top + 1):
        exact = _exact_trace(tower.word(level).symbols, coupling, energy)
        trace = traces[level + 1]
        if abs(exact) > sys.float_info.max:
            assert not math.isfinite(trace)
        else:
            assert abs(Fraction(trace) - exact) <= 1e-10 * max(1, abs(exact))


class TestSolutions:
    def test_free_center_period_four(self):
        window = constant_window(0.0, 1, 20)
        traj = iterate_solution(window, 0.0, (0.0, 1.0))
        assert traj.u[:8] == (0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0)

    def test_free_band_edge_constant(self):
        window = constant_window(0.0, 1, 50)
        traj = iterate_solution(window, 2.0, (1.0, 1.0))
        assert all(u == 1.0 for u in traj.u)

    def test_difference_equation_holds(self, golden_cf):
        window = window_from_word(c_alpha_prefix(golden_cf, 500), 1.0)
        traj = iterate_solution(window, 0.5, (0.3, -1.1))
        for n in range(1, 500):
            res = traj.u[n + 1] + traj.u[n - 1] + window.value(n) * traj.u[n] - 0.5 * traj.u[n]
            assert abs(res) <= 1e-9 * max(1.0, abs(traj.u[n]), abs(traj.u[n + 1]))

    def test_matches_transfer_matrix(self, golden_cf, fib_spectra):
        lo, hi = fib_spectra[8].bands[17]
        energy = 0.5 * (lo + hi)
        window = window_from_word(c_alpha_prefix(golden_cf, 10**4), 1.0)
        traj = iterate_solution(window, energy, (0.25, 0.8))
        for n in (10, 100, 1000):
            state = transfer_product(window, energy, 1, n)
            scale = math.exp(state.log_scale)
            a, b, c, d = (x * scale for x in state.m)
            u_next = a * traj.u[1] + b * traj.u[0]
            u_here = c * traj.u[1] + d * traj.u[0]
            assert u_next == pytest.approx(traj.u[n + 1], rel=1e-6, abs=1e-9)
            assert u_here == pytest.approx(traj.u[n], rel=1e-6, abs=1e-9)

    def test_zero_seed_rejected(self):
        with pytest.raises(InvalidInputError):
            iterate_solution(constant_window(0.0, 1, 5), 0.0, (0.0, 0.0))

    def test_array_seeds_match_float_runs(self, golden_cf):
        window = window_from_word(c_alpha_prefix(golden_cf, 300), 1.0)
        rng = random.Random(5)
        seeds = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(7)] + [(0.0, 1.0)]
        u0, u1 = np.array(seeds).T
        batch = iterate_solution(window, 0.7, (u0, u1), n_max=250)
        assert batch.top == 251
        for i, seed in enumerate(seeds):
            single = iterate_solution(window, 0.7, seed, n_max=250)
            assert [u[i] for u in batch.u] == list(single.u)
            for k in (0, 89, 250):
                assert batch.vector_norm(k)[i] == single.vector_norm(k)

    def test_zero_seed_anywhere_in_array_rejected(self):
        u0, u1 = np.array([1.0, 0.0, 0.5]), np.array([0.0, 0.0, 2.0])
        with pytest.raises(InvalidInputError):
            iterate_solution(constant_window(0.0, 1, 5), 0.0, (u0, u1))


class TestLyapunov:
    def test_free_center(self):
        window = constant_window(0.0, -(10**4), 10**4)
        est = lyapunov_estimate(window, 0.0, 10**4)
        assert abs(est.gamma_plus) <= 1e-2
        assert abs(est.gamma_minus) <= 1e-2
        assert abs(est.gamma_plus - est.gamma_minus) <= 1e-12

    def test_free_hyperbolic_matches_eigenvalue(self):
        window = constant_window(0.0, -(10**5), 10**5)
        est = lyapunov_estimate(window, 3.0, 10**5)
        expected = math.log((3 + math.sqrt(5)) / 2)
        assert est.gamma_plus == pytest.approx(expected, abs=1e-2)
        assert est.gamma_minus == pytest.approx(expected, abs=1e-2)

    def test_nonnegative(self):
        window = constant_window(0.0, 1, 2000)
        for energy in (-1.0, 0.3, 1.9):
            est = lyapunov_estimate(window, energy, 2000)
            assert est.gamma_plus >= -1e-6

    def test_forward_only_window(self, golden_cf):
        window = window_from_word(c_alpha_prefix(golden_cf, 2000), 1.0)
        est = lyapunov_estimate(window, 0.0, 2000)
        assert est.gamma_plus is not None
        assert est.gamma_minus is None

    def test_step_floor(self):
        with pytest.raises(InvalidInputError):
            lyapunov_estimate(constant_window(0.0, 1, 2000), 0.0, 500)

    def test_uncovered_window(self):
        with pytest.raises(WindowError):
            lyapunov_estimate(constant_window(0.0, 5, 2000), 0.0, 1999)


class TestLongProducts:
    def test_det_drift_bounded_million_steps(self):
        window = constant_window(0.0, 1, 10**6)
        for energy in (0.0, 0.5, 1.9):
            state = transfer_product(window, energy, 1, 10**6)
            assert abs(state.det_residual()) < 1e-10

    def test_stabilization_under_doubling(self, golden_cf):
        window = window_from_word(c_alpha_prefix(golden_cf, 2 * 10**4), 1.0)
        energies = np.array([0.0, 1.0, 2.5])
        g1 = lyapunov_estimate(window, energies, 10**4).gamma_plus
        g2 = lyapunov_estimate(window, energies, 2 * 10**4).gamma_plus
        assert np.all(abs(g2 - g1) < 3 / math.sqrt(10**4))
