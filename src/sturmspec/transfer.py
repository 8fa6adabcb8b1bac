"""Transfer-matrix cocycle: products, traces, Lyapunov exponents.

A product over sites k..n multiplies the single-site matrices

    A(j) = [[E - V(j), -1], [1, 0]]

with the index-n factor leftmost.  Entries are periodically rescaled and the
scale accumulated as a log, so products over 10^6 sites never overflow even
at Lyapunov exponents around 2.

Every cocycle function takes the energy as a Python float or as a 1-d numpy
array; an array gives the products at all its energies in one pass over the
sites, and every ``TransferState`` method then works elementwise.  The site
loop rescales by the entry sum |a| + |b| + |c| + |d| rather than by the
matrix norm: the builtin ``abs`` and ``+`` serve a float and an array alike,
so a float energy keeps Python-float mantissas (``np.maximum`` would turn
them into numpy scalars and double the cost per site), and only ``log_scale``
goes through ``np.log``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DepthError, InvalidInputError, NumericError, WindowError

RESCALE_EVERY = 32


@dataclass(frozen=True)
class TransferState:
    """2x2 matrix (row-major a, b, c, d) with an accumulated log scale.

    The represented matrix is m * exp(log_scale); its determinant is 1, so
    det(m) * exp(2 log_scale) = 1 up to float drift.  Entries and scale are
    floats, or arrays aligned with the energies of the product.
    """

    m: tuple
    log_scale: float = 0.0

    def trace(self):
        """tr of the represented matrix; inf if the scale overflows."""
        a, _, _, d = self.m
        with np.errstate(over="ignore"):
            return (a + d) * np.exp(self.log_scale)

    def log_norm(self):
        """log of the max-abs-row-sum norm of the represented matrix."""
        a, b, c, d = self.m
        return np.log(np.maximum(abs(a) + abs(b), abs(c) + abs(d))) + self.log_scale

    def det_residual(self):
        """det(m) * exp(2 log_scale) - 1.

        Meaningful while log_scale stays small (bounded products); for
        strongly growing products the float det is cancellation noise.
        """
        a, b, c, d = self.m
        with np.errstate(over="ignore"):
            return (a * d - b * c) * np.exp(2.0 * self.log_scale) - 1.0

    def normalized(self):
        """(unit-row-sum-norm matrix, total log norm) for scale-free
        comparisons of large products."""
        a, b, c, d = self.m
        s = np.maximum(abs(a) + abs(b), abs(c) + abs(d))
        return (a / s, b / s, c / s, d / s), np.log(s) + self.log_scale


def multiply(left, right):
    """State product: (left * right) represents M_left M_right."""
    a1, b1, c1, d1 = left.m
    a2, b2, c2, d2 = right.m
    a = a1 * a2 + b1 * c2
    b = a1 * b2 + b1 * d2
    c = c1 * a2 + d1 * c2
    d = c1 * b2 + d1 * d2
    s = np.maximum(abs(a) + abs(b), abs(c) + abs(d))
    if not np.all((s > 0.0) & np.isfinite(s)):
        raise NumericError("transfer product degenerated despite rescaling")
    return TransferState(
        m=(a / s, b / s, c / s, d / s),
        log_scale=left.log_scale + right.log_scale + np.log(s),
    )


def _product_over_values(values, energy):
    """Left-to-right accumulation of A over values V(k)..V(n): the one site
    loop of the cocycle, for a float energy or an array of energies."""
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    log_scale = 0.0
    count = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for v in values:
            x = energy - v
            a, b, c, d = x * a - c, x * b - d, a, b
            count += 1
            if count % RESCALE_EVERY == 0:
                s = abs(a) + abs(b) + abs(c) + abs(d)
                a, b, c, d = a / s, b / s, c / s, d / s
                log_scale += np.log(s)
    finite = (
        np.isfinite(a) & np.isfinite(b) & np.isfinite(c) & np.isfinite(d)
        & np.isfinite(log_scale)
    )
    if not np.all(finite):
        first = np.asarray(energy)[~finite][0]
        raise NumericError(
            f"transfer product over {count} sites is not finite at E = {float(first)!r}"
        )
    return TransferState(m=(a, b, c, d), log_scale=log_scale)


def transfer_product(window, energy, k, n):
    """M(E, window, k, n): the cocycle over sites k..n inclusive."""
    if k > n:
        raise InvalidInputError("k > n")
    if not window.covers(k, n):
        raise WindowError(f"window [{window.lo}, {window.hi}] does not cover [{k}, {n}]")
    # Python floats, so that a float energy keeps Python-float arithmetic
    return _product_over_values(window.slice_values(k, n).tolist(), energy)


def sturmian_traces(cf, coupling, energy, level):
    """Traces [t_{-1}, t_0, ..., t_level], t_n = tr M(s_n), from the scalar
    trace map (Kohmoto-Kadanoff-Tang, PRL 50, 1983, for the golden mean;
    Bellissard-Iochum-Scoppola-Testard, CMP 125, 1989, for every Sturmian
    word).

    Let w_n = tr M(s_{n-2}) M(s_{n-1}), a = a_n (a_1 - 1 at n = 1), and S_j
    the Chebyshev polynomials S_{-2} = -1, S_{-1} = 0, S_0 = 1,
    S_{j+1}(t) = t S_j(t) - S_{j-1}(t).  Cayley-Hamilton gives
    M^a = S_{a-1}(tr M) M - S_{a-2}(tr M) for det M = 1, so with the
    arguments t_{n-1}

        t_n = S_{a-1} w_n - S_{a-2} t_{n-2},
        w_{n+1} = S_a w_n - S_{a-1} t_{n-2},

    from t_{-1} = E - coupling, t_0 = E and w_1 = (E - coupling) E - 2.
    The recursion carries scalars only, each bounded where the traces are,
    so the bounded traces on the spectrum are not lost to cancellation
    between the large entries of the products M(s_n).  At gap energies the
    traces grow superexponentially and overflow, to inf or (inf - inf) NaN.
    """
    if level < -1:
        raise InvalidInputError("level must be >= -1")
    if level > cf.depth:
        raise DepthError(f"level {level} exceeds CF depth {cf.depth}")
    with np.errstate(over="ignore", invalid="ignore"):
        traces = [energy - coupling * 1.0, energy * 1.0]  # "1", "0"
        w = traces[0] * traces[1] - 2.0
        for n in range(1, level + 1):
            a = cf.coefficient(n) - (n == 1)
            t, t_back = traces[-1], traces[-2]
            s_low, s_high = -1.0, 0.0  # S_{j-2}, S_{j-1} at j = 0
            for _ in range(a):
                s_low, s_high = s_high, t * s_high - s_low
            # now s_low = S_{a-2}, s_high = S_{a-1}
            traces.append(s_high * w - s_low * t_back)
            w = (t * s_high - s_low) * w - s_high * t_back
    return traces[: level + 2]


@dataclass(frozen=True)
class LyapunovEstimate:
    """Finite-step slope estimates of (1/n) log ||M||.

    Forward and backward existence-and-agreement has no finite-scale
    certificate, so the two estimates are reported side by side, each None
    where the window does not cover its side.
    """

    energy: float  # or an array of energies, with gammas aligned to it
    steps: int
    gamma_plus: float | None
    gamma_minus: float | None


def lyapunov_estimate(window, energy, steps):
    """Estimate gamma+ over sites [1, steps] and gamma- over [-steps, -1],
    whichever sides the window covers (at least one required)."""
    if steps < 1000:
        raise InvalidInputError("need steps >= 1000 for a meaningful slope")
    forward = window.covers(1, steps)
    backward = window.covers(-steps, -1)
    if not forward and not backward:
        raise WindowError("window covers neither [1, steps] nor [-steps, -1]")
    gamma_plus = gamma_minus = None
    if forward:
        gamma_plus = transfer_product(window, energy, 1, steps).log_norm() / steps
    if backward:
        gamma_minus = transfer_product(window, energy, -steps, -1).log_norm() / steps
    return LyapunovEstimate(
        energy=energy, steps=steps, gamma_plus=gamma_plus, gamma_minus=gamma_minus
    )
