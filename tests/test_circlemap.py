import random
import time
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sturmspec import (
    AT_ONE_MINUS_BETA,
    AT_ZERO,
    CircleParams,
    BoundaryAmbiguityError,
    boundary_limit_window,
    c_alpha_prefix,
    circle_potential_window,
    convergents,
    discontinuity_indices,
    hull_factor_comparison,
    periodic_coefficients,
)
from sturmspec.circlemap import _orbit_bits, _require_precision
from sturmspec.errors import InvalidInputError, SturmSpecError
from sturmspec.words import Word


@pytest.fixture(scope="module")
def golden30():
    return convergents(periodic_coefficients([], [1], 30)).value()


@pytest.fixture(scope="module")
def sturmian_params(golden30):
    return CircleParams(alpha=golden30, beta=golden30, coupling=1.0)


@pytest.fixture(scope="module")
def quarter_params(golden30):
    return CircleParams(alpha=golden30, beta=Fraction(1, 4), coupling=1.0)


def bits(window):
    return "".join("1" if v else "0" for v in window.values)


def reference_grid_scan(params, L, grid_size, prefix_length):
    """(factors_grid, skipped_thetas) of ``hull_factor_comparison`` from one
    orbit per grid angle, the scan the arc sweep replaced."""
    reference_orbit_bits(params, Fraction(0), 1, prefix_length)
    f2, skipped = set(), 0
    for k in range(grid_size):
        try:
            f2.add(bytes(reference_orbit_bits(params, Fraction(k, grid_size), 1, L)))
        except BoundaryAmbiguityError:
            skipped += 1
    for theta in (Fraction(0), 1 - params.beta):
        bits = reference_orbit_bits(
            params, theta, -2 * L, 3 * L, flipped=True, mark_ambiguous=True
        )
        for i in range(len(bits) - L + 1):
            if None not in bits[i : i + L]:
                f2.add(bytes(bits[i : i + L]))
    return tuple(sorted(Word(w, 2).to_text() for w in f2)), skipped


def reference_orbit_bits(params, theta, lo, hi, flipped=False, mark_ambiguous=False):
    """``_orbit_bits`` with the guard tested by big-integer products and the
    orbit advanced by ``%``, the form the integer thresholds replaced."""
    theta = Fraction(theta)
    if lo > hi:
        raise InvalidInputError("lo > hi")
    _require_precision(params, max(abs(lo), abs(hi)))
    denom = lcm(params.alpha.denominator, theta.denominator, params.beta.denominator)
    step = params.alpha.numerator * (denom // params.alpha.denominator)
    cut = denom - params.beta.numerator * (denom // params.beta.denominator)
    g_num, g_den = params.guard.numerator, params.guard.denominator
    x = (step * lo + theta.numerator * (denom // theta.denominator)) % denom
    bits = []
    for n in range(lo, hi + 1):
        near = (
            x == 0
            or x == cut
            or min(x, denom - x) * g_den <= g_num * denom
            or abs(x - cut) * g_den <= g_num * denom
        )
        if near and n != 0:
            if not mark_ambiguous:
                raise BoundaryAmbiguityError("boundary", index=n)
            bits.append(None)
        elif flipped:
            bits.append(1 if (x > cut or x == 0) else 0)
        else:
            bits.append(1 if x >= cut else 0)
        x = (x + step) % denom
    return bits


def reference_discontinuity_indices(params, theta, range_n):
    """``discontinuity_indices`` by walking every orbit point over the common
    denominator, the walk the congruence mod q replaced."""
    theta = Fraction(theta)
    if range_n < 0:
        raise InvalidInputError("range_n must be >= 0")
    _require_precision(params, range_n)
    denom = lcm(params.alpha.denominator, theta.denominator, params.beta.denominator)
    step = params.alpha.numerator * (denom // params.alpha.denominator)
    cut = denom - params.beta.numerator * (denom // params.beta.denominator)
    x = (-step * range_n + theta.numerator * (denom // theta.denominator)) % denom
    hits = []
    for n in range(-range_n, range_n + 1):
        if x == 0 or x == cut:
            hits.append(n)
        x = (x + step) % denom
    return hits


def first_disagreement(params, theta1, theta2, horizon):
    """Smallest n >= 1 with v_theta1(n) != v_theta2(n), or None within
    ``horizon``, from the two codings in chunks of 4096 sites.  Distinct
    angles must eventually disagree; equal angles trivially never do."""
    theta1, theta2 = Fraction(theta1), Fraction(theta2)
    if horizon < 1:
        raise InvalidInputError("horizon must be >= 1")
    if theta1 == theta2:
        return None
    chunk = 4096
    n = 1
    while n <= horizon:
        top = min(n + chunk - 1, horizon)
        b1 = _orbit_bits(params, theta1, n, top)
        b2 = _orbit_bits(params, theta2, n, top)
        differ = np.flatnonzero(b1 != b2)
        if differ.size:
            return n + int(differ[0])
        n = top + 1
    return None


def outcome(fn, *args, **kwargs):
    """The result, or the error's type (with the index of a boundary hit).

    An orbit coding comes back in the list form of ``reference_orbit_bits``:
    a uint8 array as a list of ints, and the (bits, flags) pair of
    ``mark_ambiguous`` as a list with None at every flagged point.
    """
    try:
        result = fn(*args, **kwargs)
    except BoundaryAmbiguityError as err:
        return BoundaryAmbiguityError, err.index
    except SturmSpecError as err:
        return type(err)
    if isinstance(result, np.ndarray):
        assert result.dtype == np.uint8
        return result.tolist()
    if isinstance(result, tuple) and isinstance(result[0], np.ndarray):
        bits, near = result
        assert bits.dtype == np.uint8 and near.dtype == bool and near.shape == bits.shape
        return [None if flag else b for b, flag in zip(bits.tolist(), near.tolist())]
    return result


def arc_sweep(params, L, grid_size, prefix_length):
    rep = hull_factor_comparison(params, L, grid_size, prefix_length)
    return rep.factors_grid, rep.skipped_thetas


class TestCircleWindow:
    def test_first_values_by_hand(self, sturmian_params):
        # frac(alpha n) against [1-alpha, 1): 0.618, 0.236, 0.854, 0.472
        w = circle_potential_window(sturmian_params, Fraction(0), 1, 4)
        assert bits(w) == "1011"

    def test_zero_index_is_zero(self, sturmian_params):
        w = circle_potential_window(sturmian_params, Fraction(0), 0, 0)
        assert w.value(0) == 0.0

    def test_sturmian_bridge(self, sturmian_params, golden_cf):
        w = circle_potential_window(sturmian_params, Fraction(0), 1, 2000)
        assert bits(w) == c_alpha_prefix(golden_cf, 2000).to_text()

    def test_equivariance(self, quarter_params):
        rng = random.Random(23)
        alpha = quarter_params.alpha
        for _ in range(10):
            theta = Fraction(rng.randrange(1, 997), 997)
            shifted = (theta + alpha) % 1
            a = circle_potential_window(quarter_params, theta, 6, 25)
            b = circle_potential_window(quarter_params, shifted, 5, 24)
            assert a.values.tolist() == b.values.tolist()

    def test_coupling_scales_values(self, golden30):
        params = CircleParams(alpha=golden30, beta=golden30, coupling=2.5)
        w = circle_potential_window(params, Fraction(0), 1, 10)
        assert set(w.values) <= {0.0, 2.5}

    def test_precision_guard(self):
        params = CircleParams(alpha=Fraction(5, 8), beta=Fraction(1, 4))
        with pytest.raises(InvalidInputError):
            circle_potential_window(params, Fraction(0), 1, 100)

    def test_exact_hit_aborts_with_index(self, golden30):
        # pick theta so the orbit lands exactly on 1 - beta at n = 7
        beta = Fraction(1, 4)
        theta = (1 - beta - 7 * golden30) % 1
        params = CircleParams(alpha=golden30, beta=beta)
        with pytest.raises(BoundaryAmbiguityError) as err:
            circle_potential_window(params, theta, 1, 20)
        assert err.value.index == 7

    def test_beta_validation(self, golden30):
        with pytest.raises(InvalidInputError):
            CircleParams(alpha=golden30, beta=Fraction(3, 2))


class TestBoundaryLimits:
    def test_endpoint_values(self, quarter_params):
        w0 = boundary_limit_window(quarter_params, AT_ZERO, 0, 0)
        assert w0.value(0) == 1.0
        wb = boundary_limit_window(quarter_params, AT_ONE_MINUS_BETA, 0, 0)
        assert wb.value(0) == 0.0

    def test_coupling_applies(self, golden30):
        params = CircleParams(alpha=golden30, beta=Fraction(1, 4), coupling=3.0)
        assert boundary_limit_window(params, AT_ZERO, 0, 0).value(0) == 3.0

    def test_agrees_with_plain_window_off_hits(self, quarter_params):
        plain = circle_potential_window(quarter_params, Fraction(0), 1, 50)
        limit = boundary_limit_window(quarter_params, AT_ZERO, 1, 50)
        hits = set(discontinuity_indices(quarter_params, Fraction(0), 50))
        for n in range(1, 51):
            if n not in hits:
                assert plain.value(n) == limit.value(n)

    def test_unknown_side(self, quarter_params):
        with pytest.raises(InvalidInputError):
            boundary_limit_window(quarter_params, "at_one", 0, 1)


class TestDiscontinuities:
    def test_theta_zero(self, quarter_params):
        hits = discontinuity_indices(quarter_params, Fraction(0), 200)
        assert 0 in hits
        assert len(hits) <= 2

    def test_theta_at_cut(self, quarter_params):
        hits = discontinuity_indices(
            quarter_params, 1 - quarter_params.beta, 200
        )
        assert 0 in hits

    def test_hits_on_both_boundaries_come_sorted(self, sturmian_params):
        # beta = alpha: n = 0 lands on 0 and n = -1 on 1 - alpha = 1 - beta
        assert discontinuity_indices(sturmian_params, Fraction(0), 10) == [-1, 0]

    def test_generic_theta_empty(self, quarter_params):
        assert discontinuity_indices(quarter_params, Fraction(13, 9973), 500) == []

    def test_count_bound_random(self, quarter_params):
        rng = random.Random(41)
        for _ in range(20):
            theta = Fraction(rng.randrange(0, 10**6), 10**6)
            assert len(discontinuity_indices(quarter_params, theta, 1000)) <= 2


class TestFirstDisagreement:
    def test_equal_angles(self, sturmian_params):
        assert first_disagreement(sturmian_params, Fraction(1, 3), Fraction(1, 3), 10**4) is None

    def test_far_angles(self, sturmian_params):
        n = first_disagreement(sturmian_params, Fraction(0), Fraction(1, 2), 10**4)
        assert n is not None and n <= 10

    def test_close_angles(self, sturmian_params):
        n = first_disagreement(sturmian_params, Fraction(0), Fraction(1, 1000), 10**5)
        assert n is not None
        # verify it really is the first one
        a = circle_potential_window(sturmian_params, Fraction(0), 1, n)
        b = circle_potential_window(sturmian_params, Fraction(1, 1000), 1, n)
        assert a.values[:-1].tolist() == b.values[:-1].tolist()
        assert a.values[-1] != b.values[-1]


# beta with a 26-digit denominator: about 1/4, and tiny
WIDE_BETA = Fraction(10**25 // 4 + 1, 10**25)
TINY_BETA = Fraction(1, 10**25)


def python_int_case(golden30, beta, angle, lo, hi, guard=None):
    """(params, theta, lo, hi) of an orbit whose points need more than int64:
    denom * (count + 1) >= 2**63 for the common denominator of the kernel."""
    params = CircleParams(alpha=golden30, beta=beta, guard=guard)
    theta = angle(params) % 1
    denom = lcm(golden30.denominator, theta.denominator, beta.denominator)
    assert denom * (hi - lo + 2) >= 2**63
    return params, theta, lo, hi


PYTHON_INT_CASES = {
    "tiny-beta-at-0": (TINY_BETA, lambda p: Fraction(0), -500, 500),
    "tiny-beta-at-cut": (TINY_BETA, lambda p: 1 - p.beta, -300, 300),
    "tiny-beta-hit-at-7": (TINY_BETA, lambda p: 1 - p.beta - 7 * p.alpha, 1, 50),
    "wide-beta": (WIDE_BETA, lambda p: Fraction(1, 3), -2000, 2000),
    "wide-beta-hit-at-1234": (WIDE_BETA, lambda p: 1 - p.beta - 1234 * p.alpha, 1, 3000),
    "on-the-guard-at-5": (WIDE_BETA, lambda p: p.guard - 5 * p.alpha, -20, 20),
    "just-past-the-guard": (WIDE_BETA, lambda p: p.guard - 5 * p.alpha + Fraction(1, 10**30),
                            -20, 20),
    # int64 would hold the denominator, but not 10 000 steps of it
    "long-orbit": (Fraction(1, 4), lambda p: Fraction(123456789, 10**9), 1, 10000),
}


class TestPythonIntOrbits:
    @pytest.mark.parametrize("mode", ["plain", "flipped", "mark_ambiguous"])
    @pytest.mark.parametrize("case", PYTHON_INT_CASES.values(), ids=PYTHON_INT_CASES.keys())
    def test_matches_reference(self, golden30, case, mode):
        params, theta, lo, hi = python_int_case(golden30, *case)
        flags = {"flipped": mode == "flipped", "mark_ambiguous": mode == "mark_ambiguous"}
        expected = outcome(reference_orbit_bits, params, theta, lo, hi, **flags)
        assert outcome(_orbit_bits, params, theta, lo, hi, **flags) == expected

    def test_hits_past_zero_raise_at_their_index(self, golden30):
        # the cases above do reach a boundary where they are built to
        for key, index in [("tiny-beta-hit-at-7", 7), ("wide-beta-hit-at-1234", 1234),
                           ("on-the-guard-at-5", 5)]:
            params, theta, lo, hi = python_int_case(golden30, *PYTHON_INT_CASES[key])
            assert outcome(_orbit_bits, params, theta, lo, hi) == (BoundaryAmbiguityError, index)

    def test_first_disagreement(self, golden30):
        # one chunk of first_disagreement, so one orbit of the reference
        params, theta, _, _ = python_int_case(golden30, WIDE_BETA, lambda p: Fraction(1, 997),
                                              1, 4000)
        b0 = reference_orbit_bits(params, Fraction(0), 1, 4000)
        b1 = reference_orbit_bits(params, theta, 1, 4000)
        expected = next(n for n, (u, v) in enumerate(zip(b0, b1), start=1) if u != v)
        assert first_disagreement(params, Fraction(0), theta, 4000) == expected


class TestHullComparison:
    def test_sturmian_eleven_factors(self, sturmian_params):
        rep = hull_factor_comparison(sturmian_params, 10, 4000, 2000)
        assert len(rep.factors_grid) == 11
        assert rep.contained
        assert rep.missing == ()

    def test_length_one_sees_both_values(self, quarter_params):
        rep = hull_factor_comparison(quarter_params, 1, 64, 64)
        assert set(rep.factors_grid) == {"0", "1"}

    def test_beta_quarter_agreement(self, quarter_params):
        rep = hull_factor_comparison(quarter_params, 6, 10**4, 10**4)
        assert rep.contained
        assert rep.skipped_thetas <= 2

    @pytest.mark.parametrize(
        "guard, L, grid_size, skipped",
        # angle 0 is on every grid and its orbit is the prefix's, so a run
        # that gets past the prefix keeps it: at most grid_size - 1 angles
        # are skipped
        [(Fraction(1, 1000), 6, 3000, 72), (Fraction(1, 10), 3, 10, 9)],
        ids=["some-skipped", "all-but-zero-skipped"],
    )
    def test_arc_sweep_matches_per_angle_scan(self, golden30, guard, L, grid_size, skipped):
        params = CircleParams(alpha=golden30, beta=Fraction(1, 4), guard=guard)
        expected = reference_grid_scan(params, L, grid_size, L)
        assert expected[1] == skipped
        assert arc_sweep(params, L, grid_size, L) == expected

    def test_cost_does_not_depend_on_grid(self, quarter_params):
        start = time.perf_counter()
        rep = hull_factor_comparison(quarter_params, 6, 10**9, 10**4)
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0
        coarse = hull_factor_comparison(quarter_params, 6, 10**4, 10**4)
        assert rep.factors_grid == coarse.factors_grid
        assert rep.contained
        assert 0 < rep.skipped_thetas < 10**5


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    coeffs=st.lists(st.integers(1, 5), min_size=3, max_size=25),
    beta=st.integers(2, 60).flatmap(
        lambda q: st.integers(1, q - 1).map(lambda p: Fraction(p, q))
    ),
    guard=st.integers(2, 10**6).map(lambda d: Fraction(1, d)),
    L=st.integers(1, 12),
    grid_size=st.integers(1, 5000),
)
def test_arc_sweep_over_random_continued_fractions(coeffs, beta, guard, L, grid_size):
    # too shallow a continued fraction fails the precision check in both scans
    params = CircleParams.from_cf(convergents(coeffs), beta, guard=guard)
    expected = outcome(reference_grid_scan, params, L, grid_size, L)
    assert outcome(arc_sweep, params, L, grid_size, L) == expected


def guard_edge_angle(params, lo, length, edge):
    """An angle whose orbit point at one index of [lo, lo + length] lies at
    exactly the guard distance from 0 or 1-beta, or one unit of a finer
    denominator inside or outside it."""
    boundary, side, offset, nudge = edge
    point = (1 - params.beta if boundary else 0) + side * params.guard
    unit = Fraction(1, 10 * lcm(params.alpha.denominator, params.beta.denominator,
                                params.guard.denominator))
    n = lo + min(offset, length)
    return (point - n * params.alpha + nudge * unit) % 1


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    # depth drawn first: short lists would mostly fail the precision check
    coeffs=st.integers(3, 25).flatmap(
        lambda depth: st.lists(st.integers(1, 5), min_size=depth, max_size=depth)
    ),
    beta=st.integers(2, 60).flatmap(
        lambda q: st.integers(1, q - 1).map(lambda p: Fraction(p, q))
    ),
    theta=st.one_of(
        st.sampled_from(["0", "1-beta"]),
        st.integers(1, 10**6).flatmap(
            lambda s: st.integers(0, s - 1).map(lambda r: Fraction(r, s))
        ),
        st.tuples(st.booleans(), st.sampled_from([-1, 1]), st.integers(0, 500),
                  st.sampled_from([-1, 0, 1])),
    ),
    guard=st.integers(2, 10**6).map(lambda d: Fraction(1, d)),
    lo=st.integers(-300, 150),
    length=st.integers(0, 500),
    mode=st.sampled_from(["plain", "flipped", "mark_ambiguous"]),
)
def test_orbit_guard_thresholds_over_random_continued_fractions(
    coeffs, beta, theta, guard, lo, length, mode
):
    params = CircleParams.from_cf(convergents(coeffs), beta, guard=guard)
    if isinstance(theta, tuple):
        theta = guard_edge_angle(params, lo, length, theta)
    else:
        theta = {"0": Fraction(0), "1-beta": 1 - beta}.get(theta, theta)
    flags = {
        "flipped": mode == "flipped",
        "mark_ambiguous": mode == "mark_ambiguous",
    }
    expected = outcome(reference_orbit_bits, params, theta, lo, lo + length, **flags)
    assert outcome(_orbit_bits, params, theta, lo, lo + length, **flags) == expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    coeffs=st.integers(3, 25).flatmap(
        lambda depth: st.lists(st.integers(1, 5), min_size=depth, max_size=depth)
    ),
    beta=st.integers(2, 60).flatmap(
        lambda q: st.integers(1, q - 1).map(lambda p: Fraction(p, q))
    ),
    span=st.integers(0, 3000),
    theta=st.one_of(
        # (on 1-beta rather than 0, index, whole turns added)
        st.tuples(st.booleans(), st.integers(0, 6000), st.integers(-2, 2)),
        st.integers(1, 10**6).flatmap(
            lambda s: st.integers(0, s - 1).map(lambda r: Fraction(r, s))
        ),
        st.tuples(st.integers(-3 * 10**6, 3 * 10**6), st.integers(1, 10**6)).map(
            lambda t: Fraction(*t)
        ),
    ),
)
def test_discontinuity_congruence_matches_orbit_walk(coeffs, beta, span, theta):
    params = CircleParams.from_cf(convergents(coeffs), beta)
    range_n = span % (min(params.max_reliable_index(), 3000) + 1)
    if isinstance(theta, tuple):
        on_cut, index, turns = theta
        n = index % (2 * range_n + 1) - range_n
        theta = ((1 - beta if on_cut else 0) - n * params.alpha) % 1 + turns
    expected = outcome(reference_discontinuity_indices, params, theta, range_n)
    assert outcome(discontinuity_indices, params, theta, range_n) == expected


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    coeffs=st.lists(st.integers(1, 5), min_size=8, max_size=25),
    length=st.integers(1, 5000),
)
def test_circle_coding_at_zero_is_c_alpha_over_random_continued_fractions(coeffs, length):
    # beta = alpha and theta = 0: the rotation coding is the characteristic
    # word c_alpha, for every prefix the approximant resolves
    cf = convergents(coeffs)
    params = CircleParams.from_cf(cf, cf.value())
    length = min(length, params.max_reliable_index())
    assume(length >= 1)
    window = circle_potential_window(params, Fraction(0), 1, length)
    assert bits(window) == c_alpha_prefix(cf, length).to_text()
