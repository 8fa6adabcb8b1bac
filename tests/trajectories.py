"""Solutions of the eigenvalue equation by the plain three-term recursion.

The tests use these trajectories, one per seed, as the reference for the
transfer-matrix products and the non-decay certificate.
"""

from dataclasses import dataclass

import numpy as np

from sturmspec.errors import InvalidInputError, WindowError


@dataclass(frozen=True)
class SolutionTrajectory:
    """Solution of u(n+1) + u(n-1) + V(n) u(n) = E u(n), seeded by
    (u(0), u(1)) and iterated forward over the window.  The seed and each
    u(k) are floats, or 1-d arrays with one entry per seed; an energy column
    of shape (m, 1) makes every later u(k) an (m, seeds) array.  Every row
    u(0..top) is kept."""

    energy: float
    seed: tuple
    u: tuple  # u[k] = u(k), k = 0..top

    @property
    def top(self):
        return len(self.u) - 1

    def vector_norm(self, k):
        """Euclidean norm of U(k) = (u(k+1), u(k))."""
        if not 0 <= k < self.top:
            raise WindowError(f"U({k}) needs u up to {k + 1}, have {self.top}")
        return np.hypot(self.u[k + 1], self.u[k])


def iterate_solution(window, energy, seed, n_max=None):
    """Iterate u(n+1) = (E - V(n)) u(n) - u(n-1) for n = 1..n_max."""
    u0, u1 = seed
    if np.any((u0 == 0) & (u1 == 0)):
        raise InvalidInputError("degenerate zero seed")
    top = window.hi if n_max is None else n_max
    if window.lo > 1 or top > window.hi:
        raise WindowError(f"window [{window.lo}, {window.hi}] does not cover [1, {top}]")
    prev, cur = u0 * 1.0, u1 * 1.0
    u = [prev, cur]
    for v in window.slice_values(1, top):
        prev, cur = cur, (energy - v) * cur - prev
        u.append(cur)
    return SolutionTrajectory(energy=energy, seed=(u[0], u[1]), u=tuple(u))
