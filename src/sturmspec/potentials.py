"""Finite windows of two-sided potentials V(n), indexed lo..hi, each one
read-only float64 array; ``window_from_word`` is the one place where
V(n) = coupling * symbol is worked out from a word."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, WindowError


@dataclass(frozen=True)
class PotentialWindow:
    """Real potential values on the integer range [lo, hi].  ``values`` is a
    read-only float64 copy of the array, tuple or list given, so it shares
    no writeable buffer with the caller."""

    lo: int
    hi: int
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if values.shape != (self.hi - self.lo + 1,):
            raise InvalidInputError("window length does not match index range")

    def __len__(self):
        return len(self.values)

    def covers(self, k, n):
        return self.lo <= k and n <= self.hi

    def value(self, n):
        if not self.lo <= n <= self.hi:
            raise WindowError(f"index {n} outside window [{self.lo}, {self.hi}]")
        return float(self.values[n - self.lo])

    def slice_values(self, k, n):
        """Values V(k), ..., V(n) as a read-only view."""
        if k > n:
            raise InvalidInputError("empty slice: k > n")
        if not self.covers(k, n):
            raise WindowError(f"[{k}, {n}] outside window [{self.lo}, {self.hi}]")
        return self.values[k - self.lo : n - self.lo + 1]


def window_from_word(word, coupling):
    """V(n) = coupling * symbol, with the word at indices 1..|word|; a
    coupling that is not finite is refused."""
    if not math.isfinite(coupling):
        raise InvalidInputError(f"coupling must be finite, got {coupling!r}")
    values = np.frombuffer(word.symbols, np.uint8) * float(coupling)
    return PotentialWindow(lo=1, hi=len(values), values=values)


def constant_window(value, lo, hi):
    if lo > hi:
        raise InvalidInputError("lo > hi")
    values = np.full(hi - lo + 1, float(value))
    return PotentialWindow(lo=lo, hi=hi, values=values)


def periodic_window(word, coupling, lo, hi):
    """Two-sided periodic extension with period |word|; the word occupies
    indices 1..|word| and repeats in both directions."""
    if lo > hi:
        raise InvalidInputError("lo > hi")
    q = len(word)
    if q == 0:
        raise InvalidInputError("empty period word")
    values = window_from_word(word, coupling).values[np.arange(lo - 1, hi) % q]
    return PotentialWindow(lo=lo, hi=hi, values=values)
