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

from .errors import InvalidInputError, NumericError, WindowError
from .sturmian import WindowCoverageReport, window_coverage_check
from .transfer import transfer_product


@dataclass(frozen=True)
class GordonCertificate:
    """Two-block certificate for a window at period n over sampled energies.

    An energy is ``certified`` when the first 2n sites form a square and
    |tr M(E, 1, n)| <= c_bound there.  At a certified energy every seed must
    keep r = max(||U(n)||, ||U(2n)||) / ||U(0)|| above ``lower_bound`` =
    1/(c_bound + 1): ``min_ratio`` is the worst r over the seeds.  It and
    ``nondecay_ok`` are 1-d arrays aligned with ``energy``; they are NaN
    (``nondecay_ok`` False) wherever the energy is not certified.
    ``verdict`` is one bool: the square holds and every energy is certified.
    """

    lower_bound: float
    square_ok: bool
    energy: np.ndarray
    abs_trace: np.ndarray
    certified: np.ndarray
    min_ratio: np.ndarray
    nondecay_ok: np.ndarray
    verdict: bool


def gordon_certificate(window, n, c_bound, energies, seeds):
    """Square test, block trace and non-decay check at period ``n`` in one pass.

    The product M over [1, n] at all energies gives the traces.  A certified
    energy sits on the square, where M(1, 2n) = M^2, so M's rows there give
    U(n) = M U(0) and U(2n) = M U(n) with no second pass over the sites; if
    either is not finite, ``NumericError`` names the energy.

    Each seed is divided by its norm, so no seed's size can overflow or
    underflow the squared norms; a seed whose norm is zero or not a finite
    float is refused.  The squared norms of U(n) and U(2n) are compared
    directly, and one square root per energy is taken after the minimum over
    the seeds.  The squares overflow only where ||U(n)|| or ||U(2n)|| passes
    about 1e154 times the seed's norm; such a seed's square reads inf, which
    the minimum over the seeds passes over, and an energy where every seed's
    square overflowed takes its ratio from ``hypot`` norms instead.
    ``seeds`` is a (k, 2) array-like of pairs (u(0), u(1))."""
    if n < 1:
        raise InvalidInputError("period must be >= 1")
    c_bound = float(c_bound)
    energy = np.asarray(energies, dtype=float)
    if energy.ndim != 1 or energy.size == 0:
        raise InvalidInputError("need a non-empty list of sample energies")
    seeds = np.asarray(seeds, dtype=float)
    if seeds.size == 0:
        raise InvalidInputError("need at least one seed")
    u0, u1 = seeds.T
    with np.errstate(over="ignore"):
        norm0 = np.hypot(u1, u0)
    refused = np.flatnonzero(~((norm0 > 0) & (norm0 < np.inf)))  # NaN fails both
    if refused.size:
        i = refused[0]
        kind = "degenerate zero seed" if norm0[i] == 0 else "seed without a finite norm"
        raise InvalidInputError(f"{kind} (u(0), u(1)) = ({u0[i].item()!r}, {u1[i].item()!r})")
    # slice_values refuses a window that does not cover [1, 2n]
    square_ok = np.array_equal(window.slice_values(1, n), window.slice_values(n + 1, 2 * n))
    block = transfer_product(window, energy[:, None], 1, n)
    abs_trace = abs(block.trace()).reshape(-1)
    certified = square_ok & (abs_trace <= c_bound)
    lower_bound = 1.0 / (c_bound + 1.0)
    min_ratio = np.full(energy.shape, np.nan)
    if certified.any():
        v0, v1 = u0 / norm0, u1 / norm0
        m = np.stack(np.broadcast_arrays(*block.m, block.log_scale))[:, certified]
        with np.errstate(over="ignore", invalid="ignore"):
            a, b, c, d = m[:4] * np.exp(m[4])
            # on the square M(1, 2n) = M(1, n)^2: U(n) = M U(0), U(2n) = M U(n)
            un1, un = a * v1 + b * v0, c * v1 + d * v0
            u2n1, u2n = a * un1 + b * un, c * un1 + d * un
            bad = energy[certified][~np.isfinite([un1, un, u2n1, u2n]).all(axis=(0, 2))]
            if bad.size:
                raise NumericError(f"U(n) or U(2n) is not finite at E = {bad[0].item()!r}")
            squares = np.maximum(un1 * un1 + un * un, u2n1 * u2n1 + u2n * u2n)
        ratio = np.sqrt(squares.min(axis=-1))
        # an energy whose every seed's square overflowed: its norms by hypot
        over = np.isinf(ratio)
        if over.any():
            norms = np.maximum(np.hypot(un1[over], un[over]), np.hypot(u2n1[over], u2n[over]))
            ratio[over] = norms.min(axis=-1)
        min_ratio[certified] = ratio
    return GordonCertificate(
        lower_bound=lower_bound,
        square_ok=square_ok,
        energy=energy,
        abs_trace=abs_trace,
        certified=certified,
        min_ratio=min_ratio,
        nondecay_ok=min_ratio >= lower_bound - 1e-9,
        verdict=bool(certified.all()),
    )


@dataclass(frozen=True)
class MeasureBoundReport:
    """Occurrence density of the cube s_n^3 and the induced measure bound.

    product = q_n * density estimates the mass of the period-q_n square
    cylinder sets; when the window check passes it must clear
    1/7 - 2 q_n / prefix.
    """

    cube_density: Fraction
    product: Fraction
    lower_bound: Fraction
    bound_ok: bool | None  # None when the window check failed
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
    # overlapping occurrences of s_n^3 over the prefix's 3 q_n-site windows
    density = Fraction(coverage.cube_occurrences, prefix_length - 3 * q_n + 1)
    product = q_n * density
    lower = Fraction(1, 7) - Fraction(2 * q_n, prefix_length)
    return MeasureBoundReport(
        cube_density=density,
        product=product,
        lower_bound=lower,
        bound_ok=(product >= lower) if coverage.all_windows_contain_start else None,
        coverage=coverage,
    )
