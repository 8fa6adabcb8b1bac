"""Finite windows of two-sided potentials V(n), indexed lo..hi."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInputError, WindowError


@dataclass(frozen=True)
class PotentialWindow:
    """Real potential values on the integer range [lo, hi], with a
    provenance tag recording how the slice was produced."""

    lo: int
    hi: int
    values: tuple[float, ...]
    provenance: str = "values"

    def __post_init__(self):
        if len(self.values) != self.hi - self.lo + 1:
            raise InvalidInputError("window length does not match index range")

    def __len__(self):
        return len(self.values)

    def covers(self, k, n):
        return self.lo <= k and n <= self.hi

    def value(self, n):
        if not self.lo <= n <= self.hi:
            raise WindowError(f"index {n} outside window [{self.lo}, {self.hi}]")
        return self.values[n - self.lo]

    def slice_values(self, k, n):
        """Values V(k), ..., V(n) as a list."""
        if k > n:
            raise InvalidInputError("empty slice: k > n")
        if not self.covers(k, n):
            raise WindowError(f"[{k}, {n}] outside window [{self.lo}, {self.hi}]")
        return list(self.values[k - self.lo : n - self.lo + 1])


def window_from_word(word, coupling, lo=1, provenance="word"):
    """V(n) = coupling * symbol, aligned so the word starts at index ``lo``."""
    vals = tuple(coupling * s for s in word.symbols)
    return PotentialWindow(lo=lo, hi=lo + len(vals) - 1, values=vals, provenance=provenance)


def constant_window(value, lo, hi, provenance="constant"):
    if lo > hi:
        raise InvalidInputError("lo > hi")
    return PotentialWindow(lo=lo, hi=hi, values=(float(value),) * (hi - lo + 1), provenance=provenance)


def periodic_window(word, coupling, lo, hi, provenance="periodic word"):
    """Two-sided periodic extension with period |word|; the word occupies
    indices 1..|word| and repeats in both directions."""
    if lo > hi:
        raise InvalidInputError("lo > hi")
    q = len(word)
    if q == 0:
        raise InvalidInputError("empty period word")
    vals = tuple(coupling * word.symbols[(n - 1) % q] for n in range(lo, hi + 1))
    return PotentialWindow(lo=lo, hi=hi, values=vals, provenance=provenance)
