"""Two-block (square) stability certificates and the measure lower bound.

A potential window whose first 2n sites form a square with a bounded block
trace pins every solution from below: by Cayley-Hamilton, any solution
satisfies U(2n) - tr(M) U(n) + U(0) = 0, so
||U(0)|| <= (|tr| + 1) max(||U(n)||, ||U(2n)||) and no solution can decay.
Certificates here are finite evidence for single windows and sampled
energies; no claim about the full hull or every spectral energy is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CertificateError, InvalidInputError, WindowError
from .sturmian import c_alpha_prefix, standard_words, window_coverage_check
from .transfer import transfer_product
from .words import Word, detect_square_prefix, frequency


def _window_word(window, k, n):
    """Word over the distinct values of the window slice [k, n]."""
    vals = window.slice_values(k, n)
    levels = sorted(set(vals))
    if len(levels) > 255:
        raise InvalidInputError("too many distinct potential values")
    index = {v: i for i, v in enumerate(levels)}
    return Word(bytes(index[v] for v in vals), max(len(levels), 1))


@dataclass(frozen=True)
class GordonCertificate:
    """Square test plus sampled trace bound for a window at period n.

    verdict = square_ok and every sampled |trace| <= c_used.
    """

    n: int
    c_used: float
    square_ok: bool
    trace_samples: tuple[tuple[float, float], ...]  # (E, |tr M(E, 1, n)|)
    verdict: bool
    provenance: str


def gordon_membership(window, n, c_bound, energy_samples):
    """Certify the two-block condition at period ``n``: the first 2n sites
    repeat, and |tr M(E, 1, n)| <= c_bound at each sampled energy."""
    if n < 1:
        raise InvalidInputError("period must be >= 1")
    if not window.covers(1, 2 * n):
        raise WindowError(f"window must cover [1, {2 * n}]")
    energies = np.asarray(energy_samples, dtype=float)
    if energies.size == 0:
        raise InvalidInputError("need at least one sample energy")
    square_ok = detect_square_prefix(_window_word(window, 1, 2 * n), n)
    traces = abs(transfer_product(window, energies, 1, n).trace())
    return GordonCertificate(
        n=n,
        c_used=float(c_bound),
        square_ok=square_ok,
        trace_samples=tuple(zip(energies.tolist(), traces.tolist())),
        verdict=square_ok and bool(np.all(traces <= c_bound)),
        provenance=window.provenance,
    )


@dataclass(frozen=True)
class NondecayReport:
    """Solution-norm lower bound over a certified square window.

    For every seed, r = max(||U(n)||, ||U(2n)||) / ||U(0)|| must stay above
    1/(c_bound + 1); ``min_ratio`` is the worst case over the seeds and
    ``max_identity_residual`` the worst float residual of the two-block
    identity, with U(n) and U(2n) taken from the transfer products over
    [1, n] and [1, 2n].  For a float energy every field is a float; for an
    array ``energy``, ``min_ratio``, ``max_identity_residual`` (and the
    bounds when taken from the traces) are aligned with it, ``ok`` too.
    """

    n: int
    energy: float
    c_bound: float
    lower_bound: float
    min_ratio: float
    seeds_tested: int
    max_identity_residual: float

    @property
    def ok(self):
        return self.min_ratio >= self.lower_bound - 1e-9


def _apply(state, u0, u1):
    """U(k) = (u(k+1), u(k)) from the seed (u(0), u(1)) and the product over
    [1, k]; an energy column of shape (m, 1) gives (m, seeds) arrays."""
    a, b, c, d = (x * np.exp(state.log_scale) for x in state.m)
    return a * u1 + b * u0, c * u1 + d * u0


def nondecay_verify(window, n, energy, seeds, c_bound=None):
    """Check the non-decay inequality for all seeds at once on a square window.

    ``energy`` is a float or a 1-d array; U(n) and U(2n) are the transfer
    products over [1, n] and [1, 2n] applied to the seeds.  Requires the
    square condition at period n and, when ``c_bound`` is given,
    |tr| <= c_bound at every energy (otherwise the measured trace itself is
    used as the bound)."""
    if n < 1:
        raise InvalidInputError("period must be >= 1")
    if not window.covers(1, 2 * n):
        raise WindowError(f"window must cover [1, {2 * n}]")
    if not seeds:
        raise InvalidInputError("need at least one seed")
    u0, u1 = np.asarray(seeds, dtype=float).T
    if np.any((u0 == 0) & (u1 == 0)):
        raise InvalidInputError("degenerate zero seed")
    if not detect_square_prefix(_window_word(window, 1, 2 * n), n):
        raise CertificateError("window is not a square at this period")
    energies = np.asarray(energy, dtype=float)
    # an (m, 1) column broadcasts the energies against the seeds; a float
    # energy keeps the cocycle kernel's Python-float site loop
    column = float(energies) if energies.ndim == 0 else energies.reshape(-1, 1)
    block = transfer_product(window, column, 1, n)
    tr = block.trace()
    abs_tr = np.reshape(abs(tr), energies.shape)
    if c_bound is None:
        c_bound = abs_tr
    over = abs_tr > c_bound
    if np.any(over):
        raise CertificateError(
            f"|trace| = {abs_tr[over][0]:.6g} at E = {float(energies[over][0])!r} "
            f"exceeds certified bound {c_bound:.6g}"
        )
    un1, un = _apply(block, u0, u1)
    u2n1, u2n = _apply(transfer_product(window, column, 1, 2 * n), u0, u1)
    norm0 = np.hypot(u1, u0)
    ratios = np.maximum(np.hypot(un1, un), np.hypot(u2n1, u2n)) / norm0
    # two-block identity residual, component-wise
    residuals = np.maximum(abs(u2n1 - tr * un1 + u1), abs(u2n - tr * un + u0))
    residuals /= np.maximum(norm0, 1.0)
    fields = {
        "energy": energies,
        "c_bound": c_bound,
        "lower_bound": 1.0 / (c_bound + 1.0),
        "min_ratio": ratios.min(axis=-1).reshape(energies.shape),
        "max_identity_residual": residuals.max(axis=-1).reshape(energies.shape),
    }
    if np.ndim(energy) == 0:
        fields = {k: float(v) for k, v in fields.items()}
    return NondecayReport(n=n, seeds_tested=len(seeds), **fields)


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

    def to_dict(self):
        return {
            "level": self.level,
            "q_n": self.q_n,
            "prefix_length": self.prefix_length,
            "cube_count": self.cube_count,
            "cube_density": str(self.cube_density),
            "product": float(self.product),
            "window_ok": self.window_ok,
            "lower_bound": float(self.lower_bound),
            "bound_ok": self.bound_ok,
            "shortfall": self.shortfall,
        }


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
    prefix = c_alpha_prefix(cf, prefix_length)
    cube = standard_words(cf, level).word(level) * 3
    freq = frequency(prefix, cube)
    # One occurrence *starting* per window is all the counting argument
    # needs: disjoint windows each contribute a start, so the density
    # clears 1/window up to a boundary term.
    coverage = window_coverage_check(cf, level, prefix_length)
    window_ok = coverage.all_windows_contain_start
    product = q_n * freq.density
    lower = Fraction(1, 7) - Fraction(2 * q_n, prefix_length)
    return MeasureBoundReport(
        level=level,
        q_n=q_n,
        prefix_length=prefix_length,
        cube_count=freq.occurrence_count,
        cube_density=freq.density,
        product=product,
        window_ok=window_ok,
        lower_bound=lower,
        bound_ok=(product >= lower) if window_ok else None,
        shortfall=freq.occurrence_count == 0,
    )
