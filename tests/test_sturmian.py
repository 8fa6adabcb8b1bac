import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sturmspec import (
    c_alpha_prefix,
    convergents,
    parse_cf_spec,
    periodic_coefficients,
    standard_words,
    verify_conjugation_identity,
    window_coverage_check,
)
from sturmspec.errors import DepthError, InvalidInputError, WindowError


class TestConvergents:
    def test_golden(self):
        cf = convergents([1, 1, 1, 1, 1])
        assert list(cf.q) == [1, 1, 2, 3, 5, 8]
        assert cf.convergent(5) == Fraction(5, 8)

    def test_single(self):
        cf = convergents([2])
        assert cf.convergent(1) == Fraction(1, 2)

    def test_one_two(self):
        cf = convergents([1, 2])
        assert cf.p[2] == 2 and cf.q[2] == 3

    def test_neighbor_identity_random(self):
        rng = random.Random(5)
        for _ in range(30):
            coeffs = [rng.randint(1, 6) for _ in range(rng.randint(1, 12))]
            cf = convergents(coeffs)
            for n in range(cf.depth):
                lhs = abs(cf.convergent(n) - cf.convergent(n + 1))
                assert lhs == Fraction(1, cf.q[n] * cf.q[n + 1])

    def test_rejects_zero(self):
        with pytest.raises(InvalidInputError):
            convergents([1, 0, 2])


class TestCfSpec:
    def test_repeat_syntax(self):
        assert parse_cf_spec("1,1,1x40") == [1, 1] + [1] * 40

    def test_plain(self):
        assert parse_cf_spec("2,3,1") == [2, 3, 1]

    def test_bad_token(self):
        with pytest.raises(InvalidInputError):
            parse_cf_spec("1,zap")

    def test_periodic_unroll(self):
        assert periodic_coefficients([2], [1, 3], 6) == [2, 1, 3, 1, 3, 1]


class TestStandardWords:
    def test_golden_tower(self, golden_cf):
        t = standard_words(golden_cf, 5)
        assert t.word(3).to_text() == "101"
        assert t.word(4).to_text() == "10110"
        assert t.word(5).to_text() == "10110101"

    def test_a1_is_one(self):
        cf = convergents([1, 3, 2])
        assert standard_words(cf, 1).word(1).to_text() == "1"

    def test_a1_is_two(self):
        cf = convergents([2, 1])
        assert standard_words(cf, 1).word(1).to_text() == "01"

    def test_lengths_match_q(self, golden_cf):
        t = standard_words(golden_cf, 20)
        for n in range(0, 21):
            assert len(t.word(n)) == golden_cf.q[n]

    def test_prefix_property(self, golden_cf):
        t = standard_words(golden_cf, 10)
        for n in range(2, 10):
            assert t.word(n + 1).symbols.startswith(t.word(n).symbols)

    def test_level_too_deep(self):
        with pytest.raises(DepthError):
            standard_words(convergents([1, 1]), 3)


class TestLimitWord:
    def test_golden_prefix(self, golden_cf):
        assert c_alpha_prefix(golden_cf, 8).to_text() == "10110101"

    def test_first_symbol(self, golden_cf):
        assert c_alpha_prefix(golden_cf, 1).to_text() == "1"

    def test_prefix_of_prefix(self, golden_cf):
        short = c_alpha_prefix(golden_cf, 100)
        assert c_alpha_prefix(golden_cf, 200).symbols.startswith(short.symbols)

    def test_depth_error(self):
        with pytest.raises(DepthError):
            c_alpha_prefix(convergents([1, 1, 1]), 100)

    def test_one_density_near_convergent(self, golden_cf):
        # the density of 1s tracks the convergent to within 2/q_N
        for n in (8, 12, 16):
            q = golden_cf.q[n]
            prefix = c_alpha_prefix(golden_cf, q)
            dens = Fraction(prefix.symbols.count(1), q)
            assert abs(dens - golden_cf.convergent(n)) <= Fraction(2, q)


class TestConjugationIdentity:
    def test_golden_n2_by_hand(self, golden_cf):
        check = verify_conjugation_identity(golden_cf, 2)
        assert check.equal
        assert check.left.to_text() == "10101"
        assert check.right.to_text() == "10101"

    def test_golden_range(self, golden_cf):
        for n in range(3, 11):
            assert verify_conjugation_identity(golden_cf, n).equal

    def test_random_cfs(self):
        rng = random.Random(17)
        for _ in range(25):
            depth = 10
            cf = convergents([rng.randint(1, 4) for _ in range(depth)])
            for n in range(2, depth):
                assert verify_conjugation_identity(cf, n).equal

    def test_needs_n_at_least_two(self, golden_cf):
        with pytest.raises(InvalidInputError):
            verify_conjugation_identity(golden_cf, 1)


def brute_force_coverage(cf, n, prefix_length):
    """Independent oracle: literally slide every window."""
    prefix = c_alpha_prefix(cf, prefix_length).symbols
    window = (6 if cf.coefficient(n + 1) >= 2 else 7) * cf.q[n]
    cube = (standard_words(cf, n).word(n) * 3).symbols
    full = True
    start_seen = True
    for j in range(prefix_length - window + 1):
        chunk = prefix[j : j + window]
        if cube not in chunk:
            full = False
        pos = prefix.find(cube, j)
        if pos == -1 or pos > j + window - 1:
            start_seen = False
    return full, start_seen


class TestWindowCoverage:
    def test_golden_level3_full(self, golden_cf):
        rep = window_coverage_check(golden_cf, 3, 10**4)
        assert rep.window_length == 21
        assert rep.all_windows_contain_cube
        assert rep.all_windows_contain_start
        full, start = brute_force_coverage(golden_cf, 3, 3000)
        assert full and start

    def test_golden_level5_start_only(self, golden_cf):
        # occurrence starts are ~4.24 q_n apart; a full copy does not fit in
        # every 7 q_n window, but one always begins there
        rep = window_coverage_check(golden_cf, 5, 10**5)
        assert rep.all_windows_contain_start
        assert not rep.all_windows_contain_cube
        assert rep.minimal_full_window == 57  # q_8 + 3 q_5 - 1
        full, start = brute_force_coverage(golden_cf, 5, 4000)
        assert start and not full

    def test_six_q_window_when_next_coeff_large(self):
        cf = convergents(periodic_coefficients([], [1, 2], 20))
        rep = window_coverage_check(cf, 3, 10**4)
        assert rep.window_length == 6 * cf.q[3]
        assert rep.all_windows_contain_cube
        full, start = brute_force_coverage(cf, 3, 2500)
        assert full and start

    def test_worst_offset_marks_longest_wait(self, golden_cf):
        rep = window_coverage_check(golden_cf, 4, 10**4)
        prefix = c_alpha_prefix(golden_cf, 10**4).symbols
        cube = (standard_words(golden_cf, 4).word(4) * 3).symbols
        wait = prefix.find(cube, rep.worst_offset) - rep.worst_offset
        assert wait == rep.max_start_gap - 1

    def test_prefix_too_short(self, golden_cf):
        with pytest.raises(WindowError):
            window_coverage_check(golden_cf, 5, 50)


@st.composite
def coverage_cases(draw):
    """Coefficients 1..5, a level n with q_n <= 300, and a prefix length in
    8 q_n .. 8 q_n + 500, with the CF deep enough to spell the prefix."""
    coeffs = draw(st.lists(st.integers(1, 5), min_size=2, max_size=7))
    cf = convergents(coeffs)
    n = draw(st.integers(1, len(coeffs) - 1))
    while cf.q[n] > 300:
        n -= 1
    prefix_length = 8 * cf.q[n] + draw(st.integers(0, 500))
    while cf.q[cf.depth] < prefix_length:
        coeffs.append(draw(st.integers(1, 5)))
        cf = convergents(coeffs)
    return coeffs, n, prefix_length


def scanned_coverage(cf, n, prefix_length):
    """Every coverage report field, from a scan over every window start."""
    prefix = c_alpha_prefix(cf, prefix_length).symbols
    q_n = cf.q[n]
    window = (6 if cf.coefficient(n + 1) >= 2 else 7) * q_n
    cube = (standard_words(cf, n).word(n) * 3).symbols
    occ = [j for j in range(prefix_length) if prefix.startswith(cube, j)]
    starts = range(prefix_length - window + 1)
    worst_wait = worst = -1
    for j in starts:
        found = prefix.find(cube, j)
        wait = prefix_length if found == -1 else found - j
        if wait > worst_wait:
            worst_wait, worst = wait, j
    return dict(
        level=n,
        q_n=q_n,
        window_length=window,
        prefix_length=prefix_length,
        cube_occurrences=len(occ),
        max_start_gap=max((b - a for a, b in zip(occ, occ[1:])), default=0)
        if occ
        else prefix_length,
        all_windows_contain_start=all(any(j <= i < j + window for i in occ) for j in starts),
        all_windows_contain_cube=all(cube in prefix[j : j + window] for j in starts),
        minimal_full_window=worst_wait + len(cube),
        worst_offset=worst,
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=coverage_cases())
@example(case=([1, 1, 1, 2, 1, 5, 4, 1, 3], 4, 64))  # s_4^3 never occurs
@example(case=([5, 1, 1, 1, 3, 4], 3, 264))  # windows past the last s_3^3
def test_window_coverage_matches_window_scan(case):
    coeffs, n, prefix_length = case
    cf = convergents(coeffs)
    report = dataclasses.asdict(window_coverage_check(cf, n, prefix_length))
    expected = scanned_coverage(cf, n, prefix_length)
    assert report == expected
    assert [type(v) for v in report.values()] == [type(v) for v in expected.values()]
