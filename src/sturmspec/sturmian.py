"""Continued fractions and the standard-word tower.

The rotation number alpha is always specified by its continued-fraction
coefficients, never by a decimal: word generation is then exact integer
arithmetic, and the rational convergents p_n/q_n double as controlled
stand-ins for alpha wherever a rational is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import DepthError, InvalidInputError, WindowError
from .words import Word


@dataclass(frozen=True)
class ContinuedFraction:
    """Coefficients a_1..a_N with the convergent tables p_0..p_N, q_0..q_N.

    p_0 = 0, p_1 = 1, p_n = a_n p_{n-1} + p_{n-2};
    q_0 = 1, q_1 = a_1, q_n = a_n q_{n-1} + q_{n-2}.
    """

    coefficients: tuple[int, ...]
    p: tuple[int, ...]
    q: tuple[int, ...]

    @property
    def depth(self):
        return len(self.coefficients)

    def coefficient(self, n):
        """a_n for 1 <= n <= depth."""
        if not 1 <= n <= self.depth:
            raise DepthError(f"coefficient index {n} outside 1..{self.depth}")
        return self.coefficients[n - 1]

    def convergent(self, n):
        if not 0 <= n <= self.depth:
            raise DepthError(f"convergent index {n} outside 0..{self.depth}")
        return Fraction(self.p[n], self.q[n])

    def value(self):
        """Deepest convergent p_N/q_N."""
        return self.convergent(self.depth)


def convergents(coefficients):
    """Build the full convergent table from CF coefficients a_1..a_N."""
    coeffs = tuple(int(a) for a in coefficients)
    if not coeffs:
        raise InvalidInputError("continued fraction needs at least one coefficient")
    if any(a < 1 for a in coeffs):
        raise InvalidInputError("continued-fraction coefficients must be >= 1")
    p = [0, 1]
    q = [1, coeffs[0]]
    for a in coeffs[1:]:
        p.append(a * p[-1] + p[-2])
        q.append(a * q[-1] + q[-2])
    # Neighboring convergents are unimodular; this pins the recursion exactly.
    for n in range(len(coeffs)):
        if abs(p[n] * q[n + 1] - p[n + 1] * q[n]) != 1:
            raise InvalidInputError("convergent recursion lost unimodularity")
    return ContinuedFraction(coeffs, tuple(p), tuple(q))


def periodic_coefficients(preperiod, period, depth):
    """Unroll an eventually periodic CF (quadratic irrational) to ``depth``."""
    pre = list(preperiod)
    per = list(period)
    if not per:
        raise InvalidInputError("periodic part must be non-empty")
    if depth < 1:
        raise InvalidInputError("depth must be >= 1")
    out = list(pre)
    while len(out) < depth:
        out.extend(per)
    return out[:depth]


def parse_cf_spec(text):
    """Parse CLI coefficient syntax ``"1,2,1x40"`` (x = repeat count)."""
    coeffs = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        base, x, count = token.partition("x")
        try:
            value, repeat = int(base), int(count) if x else 1
        except ValueError:
            raise InvalidInputError(f"bad coefficient token {token!r}")
        if repeat < 1:
            raise InvalidInputError(f"repeat count below 1 in coefficient token {token!r}")
        coeffs.extend([value] * repeat)
    if not coeffs:
        raise InvalidInputError(f"no coefficients in {text!r}")
    return coeffs


@dataclass(frozen=True)
class StandardWordTower:
    """Words s_{-1} = 1, s_0 = 0, s_1 = s_0^{a_1 - 1} s_{-1},
    s_n = s_{n-1}^{a_n} s_{n-2}, all over {0, 1}; |s_n| = q_n for n >= 0."""

    cf: ContinuedFraction
    words: tuple[Word, ...]  # index n + 1 holds s_n

    @property
    def top_level(self):
        return len(self.words) - 2

    def word(self, n):
        """s_n for -1 <= n <= top level."""
        if not -1 <= n <= self.top_level:
            raise DepthError(f"tower level {n} outside -1..{self.top_level}")
        return self.words[n + 1]


def _standard_bytes(cf, level):
    """s_{-1}..s_level as ``bytes`` (index n + 1 holds s_n), with the
    length and prefix checks of the tower."""
    if level < 0:
        raise InvalidInputError("tower level must be >= 0")
    if level > cf.depth:
        raise DepthError(
            f"tower level {level} needs {level} coefficients, have {cf.depth}"
        )
    words = [b"\x01", b"\x00"]  # s_{-1}, s_0
    if level >= 1:
        words.append(words[1] * (cf.coefficient(1) - 1) + words[0])
    for n in range(2, level + 1):
        words.append(words[-1] * cf.coefficient(n) + words[-2])
    for n in range(0, level + 1):
        if len(words[n + 1]) != cf.q[n]:
            raise InvalidInputError(f"|s_{n}| != q_{n}; tower construction broken")
    for n in range(2, level + 1):
        if not words[n + 1].startswith(words[n]):
            raise InvalidInputError(f"s_{n - 1} is not a prefix of s_{n}")
    return words


def standard_words(cf, level):
    """Build the tower up to s_level (level <= number of CF coefficients)."""
    words = tuple(Word(symbols, 2) for symbols in _standard_bytes(cf, level))
    return StandardWordTower(cf=cf, words=words)


def c_alpha_prefix(cf, length):
    """Length-``length`` prefix of the one-sided limit word of the tower.

    For n >= 1 every s_n is a prefix of s_{n+1}, so any deep enough tower
    word supplies the prefix.
    """
    if length < 1:
        raise InvalidInputError("prefix length must be >= 1")
    for n in range(1, cf.depth + 1):
        if cf.q[n] >= length:
            tower = standard_words(cf, n)
            return tower.word(n)[:length]
    raise DepthError(
        f"prefix of length {length} needs q_N >= {length}, have q_{cf.depth} = {cf.q[cf.depth]}"
    )


class ConjugationCheck(NamedTuple):
    equal: bool
    left: Word
    right: Word


def verify_conjugation_identity(cf, n):
    """Check s_n s_{n+1} = s_{n+1} s_{n-1}^{a_n - 1} s_{n-2} s_{n-1} by
    explicit construction of both sides (n >= 2)."""
    if n < 2:
        raise InvalidInputError("identity is stated for n >= 2")
    if n + 1 > cf.depth:
        raise DepthError(f"need tower to level {n + 1}, have depth {cf.depth}")
    t = standard_words(cf, n + 1)
    left = t.word(n) + t.word(n + 1)
    right = t.word(n + 1) + t.word(n - 1) * (cf.coefficient(n) - 1) + t.word(n - 2) + t.word(n - 1)
    return ConjugationCheck(equal=left == right, left=left, right=right)


@dataclass(frozen=True)
class WindowCoverageReport:
    """Result of sliding a fixed-length window over a prefix, asking whether
    every window meets the cube s_n s_n s_n.

    Two containment notions are reported.  ``all_windows_contain_start``
    (an occurrence of the cube *begins* in every window) is what the
    one-occurrence-per-window density bound needs.  The stricter
    ``all_windows_contain_cube`` (a full copy fits inside every window)
    can genuinely fail at the same window length: occurrence starts can be
    up to ~4.24 q_n apart in the golden-mean word, which full containment
    in a 7 q_n window does not absorb.  ``minimal_full_window`` is the
    smallest length for which full containment would hold on this prefix.
    """

    level: int
    q_n: int
    window_length: int
    prefix_length: int
    cube_occurrences: int
    max_start_gap: int
    all_windows_contain_start: bool
    all_windows_contain_cube: bool
    minimal_full_window: int
    worst_offset: int  # window start with the longest wait for a cube


def window_coverage_check(cf, n, prefix_length):
    """Slide a window of length 7 q_n (6 q_n when a_{n+1} >= 2) over the
    limit word's prefix and report how the windows meet s_n^3.

    The level n is a caller-visible knob; a failed check is reported, not
    raised, since shallow levels can legitimately fail.
    """
    if n < 1:
        raise InvalidInputError("level must be >= 1")
    if n + 1 > cf.depth:
        raise DepthError(f"window factor a_{n + 1} needs CF depth {n + 1}")
    q_n = cf.q[n]
    if prefix_length < 8 * q_n:
        raise WindowError(f"prefix must be >= 8 q_n = {8 * q_n}")
    window = (6 if cf.coefficient(n + 1) >= 2 else 7) * q_n
    prefix = c_alpha_prefix(cf, prefix_length)
    cube = standard_words(cf, n).word(n) * 3
    occ = np.array(prefix.occurrences(cube), dtype=np.int64)
    # wait(j) = distance from window start j to the next occurrence start
    # (prefix_length when none follows); over the window starts it peaks at
    # j = 0 and just past each occurrence.
    starts = np.concatenate(([0], occ + 1))
    waits = np.append(occ - starts[:-1], prefix_length)
    kept = np.count_nonzero(starts <= prefix_length - window)  # starts ascend
    worst = int(np.argmax(waits[:kept]))  # the first longest wait
    worst_wait = int(waits[worst])
    return WindowCoverageReport(
        level=n,
        q_n=q_n,
        window_length=window,
        prefix_length=prefix_length,
        cube_occurrences=len(occ),
        max_start_gap=int(np.diff(occ).max(initial=0)) if len(occ) else prefix_length,
        all_windows_contain_start=worst_wait <= window - 1,
        all_windows_contain_cube=worst_wait <= window - len(cube),
        minimal_full_window=worst_wait + len(cube),
        worst_offset=int(starts[worst]),
    )
