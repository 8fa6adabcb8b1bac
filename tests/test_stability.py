import math
import random

import numpy as np
import pytest

from sturmspec import (
    Word,
    c_alpha_prefix,
    constant_window,
    detect_square_prefix,
    gordon_membership,
    iterate_solution,
    nondecay_verify,
    periodic_window,
    stability_measure_bound,
    standard_words,
    trace_bound_scan,
    transfer_product,
    window_from_word,
)
from sturmspec.errors import CertificateError, WindowError
from sturmspec.spectrum import band_samples, intersect_intervals


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
    return window_from_word(s4 + s4, 1.0, provenance="square s_4^2")


class TestGordonMembership:
    def test_periodic_zero_one_by_hand(self):
        # block "01" at E = 0: A(1) A(0) = [[-1, 1], [0, -1]], trace -2
        window = periodic_window(Word.from_text("01"), 1.0, 1, 4)
        cert = gordon_membership(window, 2, 2.0, [0.0])
        assert cert.square_ok
        assert cert.trace_samples[0][1] == pytest.approx(2.0, abs=1e-12)
        assert cert.verdict

    def test_non_square_window(self):
        window = window_from_word(Word.from_text("0110"), 1.0)
        cert = gordon_membership(window, 2, 10.0, [0.0])
        assert not cert.square_ok
        assert not cert.verdict

    def test_trace_violation_flagged(self):
        window = periodic_window(Word.from_text("01"), 1.0, 1, 4)
        cert = gordon_membership(window, 2, 1.0, [0.0])  # |tr| = 2 > 1
        assert cert.square_ok and not cert.verdict

    def test_s4_square_at_proxy_energies(
        self, s4_square_window, proxy_energies, trace_constant
    ):
        cert = gordon_membership(s4_square_window, 5, trace_constant, proxy_energies)
        assert cert.square_ok
        assert cert.verdict

    def test_window_too_small(self):
        window = window_from_word(Word.from_text("0101"), 1.0)
        with pytest.raises(WindowError):
            gordon_membership(window, 3, 2.0, [0.0])


class TestNondecay:
    def test_free_potential_norm_preserved(self):
        window = constant_window(0.0, 1, 20)
        report = nondecay_verify(window, 4, 0.0, [(0.0, 1.0)], c_bound=2.0)
        assert report.min_ratio == pytest.approx(1.0, abs=1e-12)
        assert report.ok

    def test_random_seeds_on_s4_square(
        self, s4_square_window, proxy_energies, trace_constant
    ):
        rng = random.Random(19)
        seeds = []
        for _ in range(100):
            angle = rng.uniform(0, 2 * math.pi)
            seeds.append((math.cos(angle), math.sin(angle)))
        for energy in proxy_energies[:10]:
            report = nondecay_verify(
                s4_square_window, 5, energy, seeds, c_bound=trace_constant
            )
            assert report.ok
            assert report.max_identity_residual < 1e-9

    def test_most_contracted_direction(
        self, s4_square_window, proxy_energies, trace_constant
    ):
        # seed along the smallest singular direction of the block matrix:
        # the bound is seed-uniform, so even this one cannot dip below it
        import numpy as np

        from sturmspec import transfer_product

        for energy in proxy_energies[:5]:
            state = transfer_product(s4_square_window, energy, 1, 5)
            m = np.array(state.m).reshape(2, 2) * math.exp(state.log_scale)
            _, _, vt = np.linalg.svd(m)
            worst = vt[-1]  # right singular vector of the smallest value
            # U(0) = (u(1), u(0)) = worst means seed = (u(0), u(1))
            report = nondecay_verify(
                s4_square_window,
                5,
                energy,
                [(worst[1], worst[0])],
                c_bound=trace_constant,
            )
            assert report.ok

    def test_all_seeds_at_once_match_per_seed_loop(
        self, s4_square_window, proxy_energies, trace_constant
    ):
        rng = random.Random(29)
        seeds = []
        for _ in range(50):
            angle, radius = rng.uniform(0, 2 * math.pi), rng.uniform(0.1, 10)
            seeds.append((radius * math.cos(angle), radius * math.sin(angle)))
        for energy in proxy_energies[:10]:
            report = nondecay_verify(s4_square_window, 5, energy, seeds, c_bound=trace_constant)
            min_ratio, max_residual = reference_nondecay(s4_square_window, 5, energy, seeds)
            assert report.min_ratio == pytest.approx(min_ratio, rel=1e-12)
            assert report.max_identity_residual == pytest.approx(max_residual, rel=1e-12)
            assert report.seeds_tested == 50

    def test_energy_array_matches_float_calls(
        self, s4_square_window, proxy_energies, trace_constant
    ):
        rng = random.Random(31)
        seeds = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(40)]
        energies = np.array(proxy_energies[:12])
        batch = nondecay_verify(s4_square_window, 5, energies, seeds, c_bound=trace_constant)
        assert batch.min_ratio.shape == batch.max_identity_residual.shape == (12,)
        assert batch.seeds_tested == 40
        for i, energy in enumerate(energies.tolist()):
            single = nondecay_verify(s4_square_window, 5, energy, seeds, c_bound=trace_constant)
            assert batch.energy[i] == single.energy
            assert batch.min_ratio[i] == single.min_ratio
            assert batch.max_identity_residual[i] == single.max_identity_residual
            assert batch.ok[i] == single.ok
            assert batch.lower_bound == single.lower_bound
            min_ratio, max_residual = reference_nondecay(s4_square_window, 5, energy, seeds)
            assert batch.min_ratio[i] == pytest.approx(min_ratio, rel=1e-12, abs=0)
            assert batch.max_identity_residual[i] == pytest.approx(max_residual, rel=1e-12, abs=0)

    def test_energy_blocks_match_one_pass_and_bound_the_trajectory(
        self, s4_square_window, proxy_energies, trace_constant, monkeypatch
    ):
        import sturmspec.stability as stability

        rng = random.Random(32)
        seeds = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(40)]
        energies = np.array(proxy_energies[:11])
        one_pass = nondecay_verify(s4_square_window, 5, energies, seeds, c_bound=trace_constant)
        sizes = []

        def recording_iterate(*args, **kwargs):
            traj = iterate_solution(*args, **kwargs)
            sizes.append(sum(np.size(row) for row in traj.u[2:]))
            return traj

        # 40 seeds x 12 rows x 3 energies: the 11 energies go in 4 blocks
        monkeypatch.setattr(stability, "TRAJECTORY_ENTRIES", 40 * 12 * 3)
        monkeypatch.setattr(stability, "iterate_solution", recording_iterate)
        blocked = nondecay_verify(s4_square_window, 5, energies, seeds, c_bound=trace_constant)
        assert len(sizes) == 4 and max(sizes) <= 40 * 12 * 3
        assert blocked.min_ratio.tolist() == one_pass.min_ratio.tolist()
        assert blocked.max_identity_residual.tolist() == one_pass.max_identity_residual.tolist()
        assert blocked.ok.tolist() == one_pass.ok.tolist()

    def test_energy_array_without_bound_uses_each_trace(self, s4_square_window, proxy_energies):
        energies = np.array(proxy_energies[:6])
        batch = nondecay_verify(s4_square_window, 5, energies, [(0.0, 1.0), (1.0, 2.0)])
        for i, energy in enumerate(energies.tolist()):
            single = nondecay_verify(s4_square_window, 5, energy, [(0.0, 1.0), (1.0, 2.0)])
            assert batch.c_bound[i] == single.c_bound
            assert batch.min_ratio[i] == single.min_ratio
            assert batch.ok[i] == single.ok

    def test_float_energy_gives_float_fields(self, s4_square_window, trace_constant):
        report = nondecay_verify(s4_square_window, 5, 0.3, [(0.0, 1.0)], c_bound=trace_constant)
        for value in (report.energy, report.c_bound, report.lower_bound, report.min_ratio,
                      report.max_identity_residual):
            assert type(value) is float
        assert type(report.ok) is bool

    def test_energy_over_bound_named(self):
        # block "01": tr = E^2 - E - 2, so |tr| = 2 at E = 0 and 0 at E = 2
        window = periodic_window(Word.from_text("01"), 1.0, 1, 4)
        with pytest.raises(CertificateError, match=r"E = 3\.0 "):
            nondecay_verify(window, 2, np.array([2.0, 3.0, 4.0]), [(0.0, 1.0)], c_bound=3.0)

    def test_requires_square(self):
        window = window_from_word(Word.from_text("0110"), 1.0)
        with pytest.raises(CertificateError):
            nondecay_verify(window, 2, 0.0, [(0.0, 1.0)])

    def test_requires_trace_bound(self):
        window = periodic_window(Word.from_text("01"), 1.0, 1, 4)
        with pytest.raises(CertificateError):
            nondecay_verify(window, 2, 0.0, [(0.0, 1.0)], c_bound=1.5)


class TestCubeToSquare:
    def test_every_cube_occurrence_gives_squares(self, golden_cf):
        prefix = c_alpha_prefix(golden_cf, 10**4)
        for level in (3, 4, 5):
            q = golden_cf.q[level]
            cube = standard_words(golden_cf, level).word(level) * 3
            for position in prefix.occurrences(cube)[:50]:
                chunk = prefix[position : position + 3 * q]
                assert detect_square_prefix(chunk, q)
                assert detect_square_prefix(prefix[position + q : position + 3 * q], q)


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

    def test_density_is_exact_fraction(self, golden_cf):
        report = stability_measure_bound(golden_cf, 3, 10**4)
        assert report.cube_density.denominator == 10**4 - 3 * golden_cf.q[3] + 1

    def test_certificate_soundness(self, golden_cf, fib_spectra, trace_constant):
        # wherever membership certifies (n, C, E), the non-decay ratio holds
        rng = random.Random(7)
        s5 = standard_words(golden_cf, 5).word(5)
        window = window_from_word(s5 + s5, 1.0)
        bands = intersect_intervals(fib_spectra[8].bands, fib_spectra[9].bands)
        seeds = [(math.cos(a), math.sin(a)) for a in (rng.uniform(0, 7) for _ in range(20))]
        for energy in band_samples(bands, 1)[:10]:
            cert = gordon_membership(window, 8, trace_constant, [energy])
            if cert.verdict:
                report = nondecay_verify(window, 8, energy, seeds, c_bound=trace_constant)
                assert report.min_ratio >= report.lower_bound - 1e-9
