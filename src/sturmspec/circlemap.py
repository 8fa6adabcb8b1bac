"""Circle-rotation potentials evaluated in exact rational arithmetic.

The rotation number enters as a rational approximant p_N/q_N of controlled
denominator, so membership of an orbit point in the half-open interval
[1-beta, 1) is exactly decidable.  Floating point is never allowed near the
interval boundary: points that land on or suspiciously close to a boundary
abort with the offending index instead of guessing.

The hull scan sweeps the arcs between the 2L breakpoints -n alpha and
(1-beta) - n alpha (mod 1), n = 1..L, where a length-L coding changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, isfinite, lcm

from .errors import BoundaryAmbiguityError, InvalidInputError
from .potentials import PotentialWindow
from .words import Word, factor_set

AT_ZERO = "at_0"
AT_ONE_MINUS_BETA = "at_1minusbeta"

# An approximant of denominator q only resolves orbits reliably while the
# accumulated drift n * |alpha - p/q| < n/q^2 stays well below 1/q.
PRECISION_MARGIN = 100


@dataclass(frozen=True)
class CircleParams:
    """Rotation by ``alpha`` (exact rational stand-in), indicator interval
    [1-beta, 1), coupling multiplying the indicator, and the boundary guard
    ``guard``: orbit points within ``guard`` of {0, 1-beta} abort."""

    alpha: Fraction
    beta: Fraction
    coupling: float = 1.0
    guard: Fraction | None = None

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise InvalidInputError("alpha must lie in (0, 1)")
        if not 0 < self.beta < 1:
            raise InvalidInputError("beta must lie in (0, 1)")
        if self.guard is None:
            object.__setattr__(self, "guard", Fraction(1, 10 * self.alpha.denominator))
        if self.guard <= 0:
            raise InvalidInputError("guard must be positive")
        if not isfinite(self.coupling):
            raise InvalidInputError(f"coupling must be finite, got {self.coupling!r}")

    @classmethod
    def from_cf(cls, cf, beta, coupling=1.0, guard=None):
        """Use the deepest convergent of ``cf`` as the rational alpha."""
        return cls(alpha=cf.value(), beta=Fraction(beta), coupling=coupling, guard=guard)

    def max_reliable_index(self):
        return self.alpha.denominator // PRECISION_MARGIN

    def boundaries(self):
        """The indicator boundaries by name: ``at_0`` is 0 and
        ``at_1minusbeta`` is 1-beta."""
        return {AT_ZERO: Fraction(0), AT_ONE_MINUS_BETA: 1 - self.beta}


def _require_precision(params, max_abs_index):
    # n = 0 never involves alpha, so it is always reliable.
    if max_abs_index > 0 and max_abs_index > params.max_reliable_index():
        raise InvalidInputError(
            f"alpha denominator {params.alpha.denominator} too small for index "
            f"{max_abs_index}; need > {PRECISION_MARGIN} * index"
        )


def _orbit_bits(params, theta, lo, hi, flipped=False, mark_ambiguous=False):
    """Indicator values of the orbit alpha*n + theta over n in [lo, hi].

    Plain mode uses the half-open interval [1-beta, 1); ``flipped`` uses the
    left-limit convention (1-beta, 1] with 0 counted as 1.  Points on or
    within ``guard`` of a boundary raise, except at n = 0 where the point is
    exact by construction; with ``mark_ambiguous`` they yield None instead.
    """
    theta = Fraction(theta)
    if lo > hi:
        raise InvalidInputError("lo > hi")
    _require_precision(params, max(abs(lo), abs(hi)))
    denom = lcm(params.alpha.denominator, theta.denominator, params.beta.denominator)
    step = params.alpha.numerator * (denom // params.alpha.denominator)
    cut = denom - params.beta.numerator * (denom // params.beta.denominator)  # 1-beta
    # The guard as an integer threshold over the common denominator: for an
    # integer m >= 0, m * g_den <= g_num * denom exactly when m <= t.  So x
    # is within the guard of 0 when x <= t or denom - x <= t, and of 1-beta
    # when |x - cut| <= t; exact hits lie inside both, since t >= 0.
    t = params.guard.numerator * denom // params.guard.denominator
    near_top, cut_lo, cut_hi = denom - t, cut - t, cut + t
    x = (step * lo + theta.numerator * (denom // theta.denominator)) % denom
    step %= denom
    bits = []
    for n in range(lo, hi + 1):
        if (x <= t or x >= near_top or cut_lo <= x <= cut_hi) and n != 0:
            if not mark_ambiguous:
                raise BoundaryAmbiguityError(
                    f"orbit point at index {n} is on or within the guard of an "
                    f"indicator boundary",
                    index=n,
                )
            bits.append(None)
        elif flipped:
            bits.append(1 if (x > cut or x == 0) else 0)
        else:
            bits.append(1 if x >= cut else 0)
        x += step
        if x >= denom:
            x -= denom
    return bits


def circle_potential_window(params, theta, lo, hi):
    """V(n) = coupling * [alpha n + theta mod 1 in [1-beta, 1)] on [lo, hi]."""
    bits = _orbit_bits(params, theta, lo, hi)
    return PotentialWindow(
        lo=lo,
        hi=hi,
        values=tuple(params.coupling * b for b in bits),
        provenance=f"circle theta={Fraction(theta)}",
    )


def boundary_limit_window(params, which, lo, hi):
    """Window of a boundary-limit sequence: the left limit of the coding as
    theta approaches 0 (``at_0``) or 1-beta (``at_1minusbeta``).

    The left limit flips the endpoint inclusion, so the value at n = 0 is
    coupling for ``at_0`` and 0 for ``at_1minusbeta``.
    """
    theta = params.boundaries().get(which)
    if theta is None:
        raise InvalidInputError(f"unknown boundary {which!r}")
    bits = _orbit_bits(params, theta, lo, hi, flipped=True)
    return PotentialWindow(
        lo=lo,
        hi=hi,
        values=tuple(params.coupling * b for b in bits),
        provenance=f"boundary-limit {which}",
    )


def discontinuity_indices(params, theta, range_n):
    """All n in [-range_n, range_n] whose orbit point hits 0 or 1-beta
    exactly (under the rational approximant p/q).

    n p/q + theta = c (mod 1) is the congruence n p = q (c - theta) (mod q).
    It is solvable only when q (c - theta) is an integer, and then its
    solutions are n0 + k q with n0 = q (c - theta) p^-1 mod q.
    """
    theta = Fraction(theta)
    if range_n < 0:
        raise InvalidInputError("range_n must be >= 0")
    _require_precision(params, range_n)
    p, q = params.alpha.numerator, params.alpha.denominator
    hits = []
    for c in params.boundaries().values():
        shift = q * (c - theta)
        if shift.denominator == 1:
            n0 = shift.numerator * pow(p, -1, q) % q
            # the least n = n0 (mod q) with n >= -range_n
            hits.extend(range(n0 - (n0 + range_n) // q * q, range_n + 1, q))
    return sorted(hits)


def first_disagreement(params, theta1, theta2, horizon):
    """Smallest n >= 1 with v_theta1(n) != v_theta2(n), or None within
    ``horizon``.  Distinct angles must eventually disagree; equal angles
    trivially never do."""
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
        for off, (u, v) in enumerate(zip(b1, b2)):
            if u != v:
                return n + off
        n = top + 1
    return None


@dataclass(frozen=True)
class HullComparisonReport:
    """Factor comparison between the orbit-closure prefix and a grid scan of
    coding angles plus the two boundary-limit sequences.

    Finite scale only: a pass certifies "no counterexample at (L, grid,
    prefix)", not the infinite-sequence statement.
    """

    factor_length: int
    prefix_length: int
    grid_size: int
    factors_v0: tuple[str, ...]
    factors_grid: tuple[str, ...]
    missing: tuple[str, ...]  # prefix factors the grid scan never produced
    extra: tuple[str, ...]  # grid factors absent from the prefix
    skipped_thetas: int
    contained: bool


def hull_factor_comparison(params, factor_length, theta_grid_size, prefix_length):
    """Compare F1 = length-L factors of the theta=0 coding prefix against
    F2 = the length-L initial windows over a uniform theta grid, together
    with windows of both boundary-limit sequences.

    Grid angles within the guard of a breakpoint (module docstring) are
    skipped and counted; the other grid angles of an arc between adjacent
    breakpoints share the arc's word, so the exact scan costs O(L^2) at any
    grid size.  The guard on 1-beta in ``_orbit_bits`` is the linear
    |x - (1-beta)|, which skips the same angles as the circular distance:
    where the two differ, the short way round passes through 0, and the
    point is within the guard of 0.
    """
    L = factor_length
    if L < 1:
        raise InvalidInputError("factor length must be >= 1")
    if prefix_length < L:
        raise InvalidInputError("prefix shorter than the factor length")
    if theta_grid_size < 1:
        raise InvalidInputError("grid size must be >= 1")
    # This also checks the precision of every orbit index up to L.
    prefix_bits = _orbit_bits(params, Fraction(0), 1, prefix_length)
    prefix_word = Word(bytes(prefix_bits), 2)
    f1 = {w.symbols for w in factor_set(prefix_word, L)}

    G, g = theta_grid_size, params.guard
    boundaries = params.boundaries().values()
    cuts = sorted({(b - n * params.alpha) % 1 for n in range(1, L + 1) for b in boundaries})
    f2 = set()
    kept = 0
    for lo, hi in zip(cuts, cuts[1:] + [cuts[0] + 1]):
        # the integers k with lo + g < k/G < hi - g; the last arc wraps past 1
        k_lo = floor((lo + g) * G) + 1
        count = ceil((hi - g) * G) - k_lo
        if count > 0:
            kept += count
            f2.add(bytes(_orbit_bits(params, Fraction(k_lo % G, G), 1, L)))
    for theta in boundaries:
        bits = _orbit_bits(params, theta, -2 * L, 3 * L, flipped=True, mark_ambiguous=True)
        for i in range(len(bits) - L + 1):
            chunk = bits[i : i + L]
            if None not in chunk:
                f2.add(bytes(chunk))

    def fmt(items):
        return tuple(sorted(Word(s, 2).to_text() for s in items))

    missing = f1 - f2
    return HullComparisonReport(
        factor_length=L,
        prefix_length=prefix_length,
        grid_size=theta_grid_size,
        factors_v0=fmt(f1),
        factors_grid=fmt(f2),
        missing=fmt(missing),
        extra=fmt(f2 - f1),
        skipped_thetas=theta_grid_size - kept,
        contained=not missing,
    )
