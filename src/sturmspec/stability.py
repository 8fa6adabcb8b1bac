"""Two-block (square) stability certificates and the measure lower bound.

A potential window whose first 2n sites form a square with a bounded block
trace pins every solution from below: by Cayley-Hamilton, any solution
satisfies U(2n) - tr(M) U(n) + U(0) = 0, so
||U(0)|| <= (|tr| + 1) max(||U(n)||, ||U(2n)||) and no solution can decay.
``gordon_certificate`` checks this in one pass for one window: the square
test, the block trace at each sampled energy, and at the energies it
certifies the norm ratio over sampled seeds.  Certificates here are finite
evidence for single windows and sampled energies; no claim about the full
hull or every spectral energy is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidInputError, WindowError
from .sturmian import WindowCoverageReport, window_coverage_check
from .transfer import transfer_product


@dataclass(frozen=True)
class GordonCertificate:
    """Two-block certificate for a window at period n over sampled energies.

    An energy is ``certified`` when the first 2n sites form a square and
    |tr M(E, 1, n)| <= c_bound there.  At a certified energy every seed must
    keep r = max(||U(n)||, ||U(2n)||) / ||U(0)|| above ``lower_bound`` =
    1/(c_bound + 1): ``min_ratio`` is the worst r over the seeds and
    ``max_identity_residual`` the worst float residual of the two-block
    identity.  These fields and ``nondecay_ok`` are 1-d arrays aligned with
    ``energy``; the non-decay fields are NaN (``nondecay_ok`` False) wherever
    the energy is not certified.  ``verdict`` is one bool: the square holds
    and every energy is certified.
    """

    n: int
    c_bound: float
    lower_bound: float
    square_ok: bool
    energy: np.ndarray
    abs_trace: np.ndarray
    certified: np.ndarray
    min_ratio: np.ndarray
    max_identity_residual: np.ndarray
    nondecay_ok: np.ndarray
    seeds_tested: int
    verdict: bool


def _apply(state, u0, u1, rows=slice(None)):
    """U(k) = (u(k+1), u(k)) from the seed (u(0), u(1)) and the product over
    [1, k] on an (m, 1) energy column, at the rows ``rows`` selects: two
    (rows, seeds) arrays.  The rows are taken before the entries are scaled
    by exp(log_scale); a product over one site leaves some entries floats,
    which broadcast as they are."""
    a, b, c, d, log_scale = (x[rows] if np.ndim(x) else x for x in (*state.m, state.log_scale))
    scale = np.exp(log_scale)
    a, b, c, d = a * scale, b * scale, c * scale, d * scale
    return a * u1 + b * u0, c * u1 + d * u0


def gordon_certificate(window, n, c_bound, energies, seeds):
    """Square test, block trace and non-decay check at period ``n`` in one pass.

    The product over [1, n] at all energies gives the traces and U(n); the
    product over [1, 2n] is taken at the certified energies only, so an
    uncertified energy never needs the longer product to stay finite.

    Each seed is scaled by the exact power of two 2**-e that puts its norm
    in [0.5, 1), so no seed's size can overflow or underflow the squared
    norms.  The squared norms of U(n) and U(2n) are compared directly,
    divided by the seed's, and one square root per energy is taken after
    the minimum over the seeds.  Scaling by a power of two is exact while no
    scaled component falls below the normal range, so the identity residual,
    scaled back by 2**e, has the bits it would have without the scaling.
    The squares overflow only where ||U(n)|| or ||U(2n)|| passes about
    1e154 times the seed's norm; such a seed's square reads inf, which the
    minimum over the seeds passes over, and an energy where every seed's
    square overflowed takes its ratio from ``hypot`` norms instead.
    ``seeds`` is a (k, 2) array-like of pairs (u(0), u(1))."""
    if n < 1:
        raise InvalidInputError("period must be >= 1")
    if not window.covers(1, 2 * n):
        raise WindowError(f"window must cover [1, {2 * n}]")
    c_bound = float(c_bound)
    energy = np.asarray(energies, dtype=float)
    if energy.ndim != 1 or energy.size == 0:
        raise InvalidInputError("need a non-empty list of sample energies")
    seeds = np.asarray(seeds, dtype=float)
    if seeds.size == 0:
        raise InvalidInputError("need at least one seed")
    u0, u1 = seeds.T
    if np.any((u0 == 0) & (u1 == 0)):
        raise InvalidInputError("degenerate zero seed")
    square_ok = np.array_equal(window.slice_values(1, n), window.slice_values(n + 1, 2 * n))
    block = transfer_product(window, energy[:, None], 1, n)
    tr = block.trace()
    abs_trace = abs(tr).reshape(-1)
    certified = square_ok & (abs_trace <= c_bound)
    lower_bound = 1.0 / (c_bound + 1.0)
    min_ratio = np.full(energy.shape, np.nan)
    max_residual = np.full(energy.shape, np.nan)
    if certified.any():
        norm0 = np.hypot(u1, u0)
        e = np.frexp(norm0)[1]
        v0, v1 = np.ldexp(u0, -e), np.ldexp(u1, -e)
        un1, un = _apply(block, v0, v1, certified)
        block2 = transfer_product(window, energy[certified, None], 1, 2 * n)
        u2n1, u2n = _apply(block2, v0, v1)
        tr = tr[certified]
        with np.errstate(over="ignore"):
            squares = np.maximum(un1 * un1 + un * un, u2n1 * u2n1 + u2n * u2n)
            squares /= v0 * v0 + v1 * v1
        ratio = np.sqrt(squares.min(axis=-1))
        # an energy whose every seed's square overflowed: its norms by hypot
        over = np.isinf(ratio)
        if over.any():
            norms = np.maximum(np.hypot(un1[over], un[over]), np.hypot(u2n1[over], u2n[over]))
            ratio[over] = (norms / np.hypot(v0, v1)).min(axis=-1)
        min_ratio[certified] = ratio
        # two-block identity residual, component-wise
        residuals = np.maximum(abs(u2n1 - tr * un1 + v1), abs(u2n - tr * un + v0))
        residuals = np.ldexp(residuals, e) / np.maximum(norm0, 1.0)
        max_residual[certified] = residuals.max(axis=-1)
    return GordonCertificate(
        n=n,
        c_bound=c_bound,
        lower_bound=lower_bound,
        square_ok=square_ok,
        energy=energy,
        abs_trace=abs_trace,
        certified=certified,
        min_ratio=min_ratio,
        max_identity_residual=max_residual,
        nondecay_ok=min_ratio >= lower_bound - 1e-9,
        seeds_tested=len(seeds),
        verdict=bool(certified.all()),
    )


@dataclass(frozen=True)
class MeasureBoundReport:
    """Occurrence density of the cube s_n^3 and the induced measure bound.

    product = q_n * density estimates the mass of the period-q_n square
    cylinder sets; when the window check passes it must clear
    1/7 - 2 q_n / prefix.
    """

    level: int
    q_n: int
    prefix_length: int
    cube_count: int
    cube_density: Fraction
    product: Fraction
    window_ok: bool
    lower_bound: Fraction
    bound_ok: bool | None  # None when the window check failed
    shortfall: bool  # cube never occurs in the prefix
    coverage: WindowCoverageReport  # the window check the bound rests on


def stability_measure_bound(cf, level, prefix_length):
    """Estimate q_n * d(s_n^3) by exact counting in the limit-word prefix.

    The density is exact over the prefix; the window property, when it
    holds, forces the product above 1/7 minus a boundary term.
    """
    if level < 1:
        raise InvalidInputError("level must be >= 1")
    if level + 1 > cf.depth:
        raise InvalidInputError(f"need CF depth {level + 1}, have {cf.depth}")
    q_n = cf.q[level]
    q_next = cf.q[level + 1]
    if prefix_length < 10 * q_next:
        raise WindowError(f"prefix must be >= 10 q_(n+1) = {10 * q_next}")
    # One occurrence *starting* per window is all the counting argument
    # needs: disjoint windows each contribute a start, so the density
    # clears 1/window up to a boundary term.
    coverage = window_coverage_check(cf, level, prefix_length)
    window_ok = coverage.all_windows_contain_start
    count = coverage.cube_occurrences
    # overlapping occurrences of s_n^3 over the prefix's 3 q_n-site windows
    density = Fraction(count, prefix_length - 3 * q_n + 1)
    product = q_n * density
    lower = Fraction(1, 7) - Fraction(2 * q_n, prefix_length)
    return MeasureBoundReport(
        level=level,
        q_n=q_n,
        prefix_length=prefix_length,
        cube_count=count,
        cube_density=density,
        product=product,
        window_ok=window_ok,
        lower_bound=lower,
        bound_ok=(product >= lower) if window_ok else None,
        shortfall=count == 0,
        coverage=coverage,
    )
