"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import math
import random
import time
from fractions import Fraction

from sturmspec import (
    AT_ONE_MINUS_BETA,
    AT_ZERO,
    CircleParams,
    Word,
    boundary_limit_window,
    c_alpha_prefix,
    circle_potential_window,
    constant_window,
    convergents,
    discontinuity_indices,
    gordon_certificate,
    hull_factor_comparison,
    measure_and_intersect,
    periodic_coefficients,
    periodic_window,
    stability_measure_bound,
    standard_words,
    sturmian_band_spectrum,
    trace_bound_scan,
    transfer_product,
    verify_conjugation_identity,
    window_from_word,
    zero_lyapunov_check,
)
from sturmspec.spectrum import band_samples, intersect_intervals
from sturmspec.transfer import multiply


def announce(number, name, ok):
    print(f"ACCEPTANCE {number:2d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_01_standard_word_exactness(golden_cf):
    start = time.perf_counter()
    tower = standard_words(golden_cf, 20)
    ok = (
        tower.word(3).to_text() == "101"
        and tower.word(4).to_text() == "10110"
        and tower.word(5).to_text() == "10110101"
        and all(len(tower.word(n)) == golden_cf.q[n] for n in range(0, 21))
    )
    ok = ok and (time.perf_counter() - start) < 1.0
    announce(1, "standard-word exactness", ok)


def test_criterion_02_conjugation_identity_suite():
    start = time.perf_counter()
    rng = random.Random(2024)
    failures = 0
    for _ in range(50):
        cf = convergents([rng.randint(1, 4) for _ in range(10)])
        for n in range(2, 9):
            if not verify_conjugation_identity(cf, n).equal:
                failures += 1
    ok = failures == 0 and (time.perf_counter() - start) < 5.0
    announce(2, "conjugation identity, 50 random CFs", ok)


def test_criterion_03_circle_bridge():
    start = time.perf_counter()
    cf = convergents(periodic_coefficients([], [1], 30))
    params = CircleParams(alpha=cf.value(), beta=cf.value(), coupling=1.0)
    window = circle_potential_window(params, Fraction(0), 1, 10**4)
    circle_text = "".join("1" if v else "0" for v in window.values)
    ok = circle_text == c_alpha_prefix(cf, 10**4).to_text()
    ok = ok and (time.perf_counter() - start) < 10.0
    announce(3, "circle coding equals limit word on 1..10^4", ok)


def test_criterion_04_band_integrity(golden_cf, fib_spectra):
    ok = all(fib_spectra[n].band_count == golden_cf.q[n] for n in range(1, 11))
    from sturmspec import band_spectrum

    single = band_spectrum(Word.from_text("1"), 1.0)
    ok = ok and abs(single.bands[0][0] + 1.0) < 1e-8
    ok = ok and abs(single.bands[0][1] - 3.0) < 1e-8
    ok = ok and abs(single.measure - 4.0) < 1e-8
    pair = band_spectrum(Word.from_text("10"), 1.0)
    ok = ok and abs(pair.measure - (math.sqrt(17.0) - 1.0)) < 1e-6
    announce(4, "band counts q_n and hand-checked measures", ok)


def test_criterion_05_shrinking_intersection_measures(golden_cf):
    start = time.perf_counter()
    specs = {n: sturmian_band_spectrum(golden_cf, 1.0, n) for n in range(1, 12)}
    measures = {
        n: measure_and_intersect(specs[n], specs[n + 1]).measure_intersection
        for n in range(1, 11)
    }
    ok = all(measures[n + 1] <= measures[n] + 1e-8 for n in range(1, 10))
    ok = ok and measures[10] < 0.5 * measures[2]
    ok = ok and (time.perf_counter() - start) < 120.0
    announce(5, "intersection measures shrink", ok)


def test_criterion_06_trace_boundedness(golden_cf):
    ok = True
    for coupling in (1.0, 2.0):
        sup8 = trace_bound_scan(golden_cf, coupling, 8, proxy_level=8).overall_sup
        sup9 = trace_bound_scan(golden_cf, coupling, 8, proxy_level=9).overall_sup
        ok = ok and sup9 < 1.5 * sup8
    announce(6, "trace sup stable as the proxy deepens", ok)


def test_criterion_07_zero_exponent_on_spectrum(golden_cf):
    start = time.perf_counter()
    report = zero_lyapunov_check(golden_cf, 1.0, 8, 10**5)
    ok = report.max_gamma_in_spectrum <= 0.02
    ok = ok and report.min_gamma_gap_controls >= 0.05
    ok = ok and abs(report.free_gamma) <= 0.01
    ok = ok and (time.perf_counter() - start) < 120.0
    announce(7, "exponent vanishes on spectrum, positive in gaps", ok)


def test_criterion_08_gordon_inequality(golden_cf, fib_spectra):
    scan = trace_bound_scan(golden_cf, 1.0, 8)
    c_bound = scan.derived_constant()
    s4 = standard_words(golden_cf, 4).word(4)
    window = window_from_word(s4 + s4, 1.0)
    midpoints = band_samples(
        intersect_intervals(fib_spectra[8].bands, fib_spectra[9].bands), 1
    )
    energies = midpoints[:: max(1, len(midpoints) // 10)][:10]
    rng = random.Random(8)
    seeds = [
        (math.cos(a), math.sin(a))
        for a in (rng.uniform(0, 2 * math.pi) for _ in range(100))
    ]
    cert = gordon_certificate(window, 5, c_bound, energies, seeds)
    ok = len(energies) == 10 and cert.verdict
    ok = ok and all(ratio >= 1.0 / (c_bound + 1.0) - 1e-9 for ratio in cert.min_ratio)
    announce(8, "two-block non-decay bound, 100 seeds x 10 energies", ok)


def test_criterion_09_window_property_and_measure_bound(golden_cf):
    start = time.perf_counter()
    prefix_length = 10**6
    ok = True
    for n in range(3, 8):
        q_n = golden_cf.q[n]
        bound = stability_measure_bound(golden_cf, n, prefix_length)
        # an occurrence of s_n^3 begins in every sliding 7 q_n window; full
        # copies cannot fit in them once starts run 4.24 q_n apart (n >= 5)
        ok = ok and bound.coverage.window_length == 7 * q_n
        ok = ok and bound.coverage.all_windows_contain_start
        # q_n * d(s_n^3), counted exactly over the prefix, clears 1/7 - slack
        ok = ok and bound.bound_ok is True
        ok = ok and bound.lower_bound == Fraction(1, 7) - Fraction(2 * q_n, prefix_length)
    ok = ok and (time.perf_counter() - start) < 60.0
    announce(9, "window property and q_n * density >= 1/7 - slack", ok)


def test_criterion_10_appendix_suite():
    cf = convergents(periodic_coefficients([], [1], 30))
    ok = True
    for coupling in (1.0, 2.0):
        params = CircleParams(alpha=cf.value(), beta=Fraction(1, 4), coupling=coupling)
        ok = ok and boundary_limit_window(params, AT_ZERO, 0, 0).value(0) == coupling
        ok = ok and boundary_limit_window(params, AT_ONE_MINUS_BETA, 0, 0).value(0) == 0.0

    params = CircleParams(alpha=cf.value(), beta=Fraction(1, 4), coupling=1.0)
    rng = random.Random(10)
    for _ in range(20):
        theta = Fraction(rng.randrange(0, 10**6), 10**6)
        ok = ok and len(discontinuity_indices(params, theta, 1000)) <= 2

    for which, theta in ((AT_ZERO, Fraction(0)), (AT_ONE_MINUS_BETA, Fraction(3, 4))):
        hits = set(discontinuity_indices(params, theta, 1000))
        plain = circle_potential_window(params, theta, 1, 1000)
        limit = boundary_limit_window(params, which, 1, 1000)
        ok = ok and all(
            plain.value(n) == limit.value(n) for n in range(1, 1001) if n not in hits
        )

    sturmian = CircleParams(alpha=cf.value(), beta=cf.value(), coupling=1.0)
    hull = hull_factor_comparison(sturmian, 10, 40000, 10**4)
    ok = ok and len(hull.factors_grid) == 11 and hull.contained
    announce(10, "boundary limits, discontinuities, hull factors", ok)


def test_criterion_11_unimodularity_and_cocycle(golden_cf):
    steps = 10**6
    ok = True
    free = constant_window(0.0, 1, steps)
    for energy in (0.0, 0.5, 1.9):
        ok = ok and abs(transfer_product(free, energy, 1, steps).det_residual()) < 1e-10
    two_band = periodic_window(Word.from_text("10"), 1.0, 1, steps)
    midband = 0.5 * (1.0 + (1.0 + math.sqrt(17.0)) / 2.0)
    ok = ok and abs(transfer_product(two_band, midband, 1, steps).det_residual()) < 1e-10

    word = c_alpha_prefix(golden_cf, 2000)
    window = window_from_word(word, 1.0)
    rng = random.Random(11)
    for _ in range(100):
        total = rng.randint(2, 2000)
        cut = rng.randint(1, total - 1)
        energy = rng.uniform(-3.0, 3.0)
        direct = transfer_product(window, energy, 1, total)
        split = multiply(
            transfer_product(window, energy, cut + 1, total),
            transfer_product(window, energy, 1, cut),
        )
        (m1, log1), (m2, log2) = direct.normalized(), split.normalized()
        ok = ok and max(abs(x - y) for x, y in zip(m1, m2)) <= 1e-8
        ok = ok and abs(log1 - log2) <= 1e-8 * max(1.0, abs(log1))
    announce(11, "unimodularity and cocycle split law", ok)
