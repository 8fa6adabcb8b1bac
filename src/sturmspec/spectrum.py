"""Band spectra of periodic approximants and their Lebesgue measures.

The spectrum of the period-q potential spelled by a word is
{E : |tr M(E)| <= 2} with M(E) the transfer matrix over one period: exactly
q disjoint closed bands.  By Floquet theory tr M(E) = +2 exactly at the
eigenvalues of the q x q periodic Hamiltonian (diagonal V, nearest-neighbour
entries 1, corner entries +1) and tr M(E) = -2 exactly at those of the
antiperiodic one (corner entries -1).  The 2q eigenvalues, sorted together
and taken in pairs, are the band edges.  A gap narrower than the closed-gap
tolerance, which sits at the eigensolver's error scale, cannot be told from
touching bands and is refused.

A period word whose reversal is one of its rotations has a mirror,
V(m - j) = V(j) (mod q); every standard word does, being a product of two
palindromes (Hof-Knill-Simon, CMP 174, 1995).  Folding the q-cycle along the
mirror gives a path of about q/2 nodes, so each of the two Hamiltonians
splits into two Jacobi (symmetric tridiagonal) chains on that path which
differ only in the signs at their two ends.  Each chain is two vectors, and
LAPACK's tridiagonal QL solver ``dsterf`` takes the eigenvalues of a
Hamiltonian's two chains in one O(q^2) time, O(q) memory call, which runs
without the GIL: from PARALLEL_NODES nodes up, the antiperiodic call runs on
a pooled worker thread while the calling thread makes the periodic one.
Where numpy does not export that routine, ``eigvalsh`` on each dense chain
gives the same bits in O(q^3) time and O(q^2) memory.
For q <= 2 or a word without a mirror there is no fold, and each corner is
its full q x q matrix.  Periods above MAX_PERIOD are refused.

The almost sure spectrum itself has no finite description; throughout, the
intersection of two consecutive approximant spectra serves as its proxy and
the level is always reported alongside results.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericError, ResolutionError
from .potentials import constant_window, window_from_word
from .sturmian import _standard_bytes, c_alpha_prefix
from .transfer import lyapunov_estimate, sturmian_traces
from .words import Word

# Gaps at most this many eps * ||H|| wide count as closed, with
# ||H|| <= 2 + max|V|.  64 is a working scale for the QL solver's rounding,
# not a proven bound: past q of about 100, random mirrored words have shown
# eigenvalue errors up to 109 eps * (2 + max|V|).  An exact Sturm count on
# the folded chains is the planned check (ROADMAP item 8).
CLOSED_GAP_EPS = 64

# Longest period whose band edges are computed.  On a 2-vCPU Xeon, golden
# level 18 (q = 4181) takes about 0.23 s as a fresh CLI process with a 33 MB
# peak on the dsterf path, and about 2.3-2.9 s with a 97 MB peak on the dense
# fallback; a full q x q matrix at the limit would take 200 MB.
MAX_PERIOD = 5000

# Folded chains of at least this many nodes take the antiperiodic pair on the
# pooled worker thread while the calling thread solves the periodic pair;
# shorter ones solve all four in one call, since waking the worker costs
# more than the overlap saves there.  Golden level 12 (q = 233) is the first
# with 117-node chains.
PARALLEL_NODES = 100

# Relative margin of the certificate trace bound over the sampled sup.  The
# sup over finitely many proxy energies can undershoot the sup over the
# spectrum; a trace that float rounding overstates could make it overshoot,
# which is why the traces come from the scalar trace map.
TRACE_BOUND_HEADROOM = 0.1

# Gap-midpoint controls of ``zero_lyapunov_check``, in the widest gaps only:
# narrow gaps hug the limiting spectrum, where a finite-step slope is small
# and proves nothing about positivity.
GAP_CONTROLS = 4


def _mirror_axis(symbols):
    """The m with symbols[(m - j) % q] == symbols[j] for every j, or None.

    A period word has a mirror exactly when its reversal is one of its
    rotations, reversed(w) = (w + w)[k : k + q]; then m = k + q - 1 (mod q).
    """
    q = len(symbols)
    k = (symbols + symbols).find(symbols[::-1])
    return None if k < 0 else (k + q - 1) % q


def _full_eigenvalues(values, corner):
    """Eigenvalues of the q x q Hamiltonian with the wrap bond (q-1, 0)
    weighted by ``corner``.  Every bond is accumulated, so for q = 2 the
    wrap bond adds to the hopping entry and for q = 1 it lands twice on the
    diagonal (V_0 + 2 corner)."""
    q = len(values)
    h = np.diag(values)
    site = np.arange(q)
    hop = np.ones(q)
    hop[-1] = corner
    np.add.at(h, (site, (site + 1) % q), hop)
    np.add.at(h, ((site + 1) % q, site), hop)
    return np.linalg.eigvalsh(h)


@functools.cache
def _load_dsterf():
    """LAPACKE ``dsterf`` from the OpenBLAS that numpy's wheels bundle, as an
    ILP64 ctypes function (n, d, e) -> info, or None where that exact symbol
    is not exported.  Looked up on first use, so importing costs nothing."""
    import ctypes

    from numpy.linalg import _umath_linalg

    try:
        dsterf = ctypes.CDLL(_umath_linalg.__file__).scipy_LAPACKE_dsterf64_
    except (AttributeError, OSError):
        return None
    dsterf.restype = ctypes.c_int64
    dsterf.argtypes = (ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p)
    return dsterf


def _chain_eigenvalues(chains):
    """Ascending eigenvalues of the Jacobi chains ``chains`` together, each
    a pair (diagonal, hops) of n values on the diagonal and n - 1 off it.

    LAPACK ``dsterf`` (Pal-Walker-Kahan QL) takes them in one O(n^2) time,
    O(n) memory call on the chains stacked with a zero hop between
    neighbours: it splits the matrix at each zero hop, solves each block
    exactly as it would alone, and sorts all the eigenvalues at the end.
    ``eigvalsh`` on each dense chain, the fallback where numpy does not
    export ``dsterf``, gives the same bits: its Householder reduction leaves
    a tridiagonal matrix as it is, and then it calls ``dsterf`` too (below
    |V| of about 1e146, past which it rescales the matrix first).  It never
    builds the stacked dense matrix, which would take 4 times the memory of
    the chains' own dense matrices together.  Either way only a +0 and a -0 eigenvalue, which compare
    equal, can come out in another order than the per-chain results sorted.
    """
    for diagonal, hops in chains:
        if len(hops) != len(diagonal) - 1:
            raise InvalidInputError(
                f"a {len(diagonal)}-node chain needs {len(diagonal) - 1} hops, got {len(hops)}"
            )
    dsterf = _load_dsterf()
    if dsterf is None:
        parts = []
        for diagonal, hops in chains:
            n = len(diagonal)
            chain = np.diag(diagonal)
            chain.flat[1 :: n + 1] = hops
            chain.flat[n :: n + 1] = hops
            parts.append(np.linalg.eigvalsh(chain))
        return np.sort(np.concatenate(parts))
    # dsterf overwrites d with the eigenvalues and e with scratch; e carries
    # one zero after each chain, the last one past the n - 1 that are read
    d = np.concatenate([diagonal for diagonal, _ in chains], dtype=np.float64)
    e = np.concatenate([part for _, hops in chains for part in (hops, [0.0])], dtype=np.float64)
    info = dsterf(len(d), d.ctypes.data, e.ctypes.data)
    if info:
        raise NumericError(
            f"LAPACK dsterf returned info = {info} on {len(d)} nodes in {len(chains)} chains"
        )
    return d


# The pooled worker thread of each process, or None where one CPU is usable.
# Keyed on the process id: a fork child inherits the parent's executor but
# not its thread, and would wait on it forever.
_WORKERS = {}


def _edge_worker():
    """The one pooled worker thread of this process, or None where only one
    CPU is usable.  ``concurrent.futures`` is imported on first use."""
    pid = os.getpid()
    if pid not in _WORKERS:
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity call on macOS and Windows
            cpus = os.cpu_count() or 1
        worker = None
        if cpus > 1:
            from concurrent.futures import ThreadPoolExecutor

            worker = ThreadPoolExecutor(1, thread_name_prefix="sturmspec-edges")
        # a racing first call may have stored its own executor, whose thread
        # starts only on a first submit; the one stored first is kept
        _WORKERS.setdefault(pid, worker)
    return _WORKERS[pid]


def _edge_eigenvalues(symbols, values):
    """The 2q eigenvalues, sorted, of the periodic and antiperiodic
    Hamiltonians of one period (module docstring): tr M(E) = +2 at the
    first, -2 at the second.

    With the mirror m of the word, the reflection j -> m - j of the q-cycle
    fixes two axis points, m/2 and m/2 + q/2 (mod q): an integer one is a
    fixed site, a half-integer one a fixed bond (j, j + 1) with j + 1 = m - j.
    Folding the cycle along the axis gives a path from one axis point to the
    other whose nodes are the orbits {j, m - j}, so on the even and odd
    functions under the reflection each Hamiltonian is a Jacobi chain: V
    along the path on the diagonal, 1 off it, except sqrt 2 between a fixed
    site and the pair next to it.  The four blocks differ only in the sign
    of each end: at a fixed site + keeps the site and - drops it; at a fixed
    bond the end pair's diagonal gets +1 or -1.  The periodic corner is the
    two blocks with equal signs; the antiperiodic twist, gauged onto the
    second axis point, flips that end's sign, so its blocks have opposite
    signs.  For q <= 2 or a word without a mirror no fold exists and each
    corner is the full q x q matrix.

    The four chains take one ``_chain_eigenvalues`` call.  From
    PARALLEL_NODES nodes up, with a worker thread to spare, the
    antiperiodic pair takes its own call on that thread while the periodic
    pair takes one here, and the two ascending results are sorted together.
    """
    q = len(values)
    m = _mirror_axis(symbols) if q > 2 else None
    if m is None:
        return np.sort(np.concatenate([_full_eigenvalues(values, c) for c in (1.0, -1.0)]))
    # the walk from the first axis point (just past it, at a fixed bond) to
    # the second: n >= 2 nodes for q >= 3
    first, last = (m + 1) // 2, (m + q) // 2
    n = last - first + 1
    diagonal = values[np.arange(first, last + 1) % q]
    site_ends = (m % 2 == 0, (m + q) % 2 == 0)
    hops = np.ones(n - 1)
    if site_ends[0]:
        hops[0] = math.sqrt(2.0)
    if site_ends[1]:
        hops[-1] = math.sqrt(2.0)

    def chain(head, tail):
        ends = diagonal.copy()
        lo, hi = 0, n
        if site_ends[0]:
            lo = int(head < 0)
        else:
            ends[0] += head
        if site_ends[1]:
            hi = n - int(tail < 0)
        else:
            ends[-1] += tail
        return ends[lo:hi], hops[lo : hi - 1]

    periodic = [chain(1.0, 1.0), chain(-1.0, -1.0)]
    antiperiodic = [chain(1.0, -1.0), chain(-1.0, 1.0)]
    worker = _edge_worker() if n >= PARALLEL_NODES else None
    if worker is None:
        return _chain_eigenvalues(periodic + antiperiodic)
    pending = worker.submit(_chain_eigenvalues, antiperiodic)
    try:
        periodic_edges = _chain_eigenvalues(periodic)
    except NumericError:
        pending.exception()  # waits for the worker; the periodic error is the one raised
        raise
    return np.sort(np.concatenate([periodic_edges, pending.result()]))


@dataclass(frozen=True)
class BandSpectrum:
    """Sorted disjoint closed energy bands of a periodic approximant."""

    bands: tuple[tuple[float, float], ...]
    period: int
    coupling: float
    level: int | None = None

    @property
    def band_count(self):
        return len(self.bands)

    @property
    def measure(self):
        return sum(hi - lo for lo, hi in self.bands)

    def gaps(self):
        """Open intervals between consecutive bands."""
        return [
            (self.bands[i][1], self.bands[i + 1][0])
            for i in range(len(self.bands) - 1)
        ]


def _refuse_long_period(q, where):
    if q > MAX_PERIOD:
        raise ResolutionError(
            f"{where}: period exceeds the band-edge solver's limit of {MAX_PERIOD}"
        )


def band_spectrum(word, coupling, level=None):
    """Bands {E : |tr M(E)| <= 2} of the word taken as a periodic potential.

    Edges are the periodic and antiperiodic eigenvalues (module docstring).
    A gap within the closed-gap tolerance raises ResolutionError rather than
    merging or dropping bands.
    """
    q = len(word)
    if q < 1:
        raise InvalidInputError("empty period word")
    where = f"level {level}, q={q}" if level is not None else f"q={q}"
    _refuse_long_period(q, where)
    values = window_from_word(word, coupling).values
    try:
        edges = _edge_eigenvalues(word.symbols, values)
    except NumericError as err:
        raise NumericError(f"{where}: {err}") from None
    lo, hi = edges[0::2], edges[1::2]
    tol = CLOSED_GAP_EPS * np.finfo(float).eps * (2.0 + float(np.max(np.abs(values))))
    gaps = lo[1:] - hi[:-1]
    if gaps.size and gaps.min() <= tol:
        raise ResolutionError(
            f"{where}: bands touch within the closed-gap tolerance: "
            f"smallest gap {gaps.min():.3g} <= {tol:.3g}"
        )
    return BandSpectrum(
        bands=tuple(zip(lo.tolist(), hi.tolist())), period=q, coupling=coupling, level=level
    )


def intersect_intervals(a, b):
    """Intersection of two sorted disjoint closed interval lists."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo <= hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def union_intervals(a, b):
    """Union of two sorted disjoint closed interval lists, merged."""
    merged = sorted(list(a) + list(b))
    out = []
    for lo, hi in merged:
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def interval_measure(intervals):
    return sum(hi - lo for lo, hi in intervals)


def intersection_measure(a, b):
    """Lebesgue measure of the intersection of two band spectra computed at
    the same coupling."""
    if a.coupling != b.coupling:
        raise InvalidInputError("band spectra computed at different couplings")
    return interval_measure(intersect_intervals(a.bands, b.bands))


def band_samples(intervals, per_band=3):
    """Evenly spaced interior sample energies, per_band per interval, as one
    1-d array in interval order (per_band=3 gives the quartile points and the
    midpoint): lo + (hi - lo) * i / (per_band + 1) for i = 1..per_band."""
    if per_band < 1:
        raise InvalidInputError(f"per_band must be >= 1, got {per_band}")
    bounds = np.fromiter(itertools.chain.from_iterable(intervals), float).reshape(-1, 2)
    lo, hi = bounds[:, :1], bounds[:, 1:]
    return (lo + (hi - lo) * np.arange(1, per_band + 1) / (per_band + 1)).reshape(-1)


def sturmian_band_spectrum(cf, coupling, level):
    """Band spectrum of the level-``level`` standard word."""
    if 0 <= level <= cf.depth:  # refused before the tower spells the word out
        _refuse_long_period(cf.q[level], f"level {level}, q={cf.q[level]}")
    word = Word(_standard_bytes(cf, level)[-1], 2)
    return band_spectrum(word, coupling, level=level)


@dataclass(frozen=True)
class TraceBoundReport:
    """Empirical windows into the uniform trace bound: sup over sampled
    proxy energies of |tr M(s_k)| per level k.

    The true uniform constant is not computable here; only the sampled sup
    and its stabilization across proxy depths are measured.
    """

    level_max: int
    proxy_level: int
    coupling: float
    proxy_bands: tuple[tuple[float, float], ...]  # sigma_proxy meets sigma_proxy+1
    sample_energies: tuple[float, ...]
    sup_per_level: tuple[float, ...]  # index k = 0..level_max
    overall_sup: float

    def derived_constant(self):
        """Trace-bound constant for certificates: sampled sup plus headroom."""
        return self.overall_sup * (1.0 + TRACE_BOUND_HEADROOM)


def trace_bound_scan(cf, coupling, level_max, samples_per_band=3, proxy_level=None):
    """Sample |tr M(s_k)| for k <= level_max over proxy spectrum energies.

    Proxy energies are interior samples of the bands of the intersection of
    the approximant spectra at ``proxy_level`` and ``proxy_level + 1``; the
    traces come from the scalar trace map (``sturmian_traces``).
    """
    if coupling == 0:
        raise InvalidInputError("trace bound needs a non-zero coupling")
    if level_max < 0:
        raise InvalidInputError("level_max must be >= 0")
    if samples_per_band < 1:
        raise InvalidInputError(f"samples_per_band must be >= 1, got {samples_per_band}")
    proxy = level_max if proxy_level is None else proxy_level
    spec_a = sturmian_band_spectrum(cf, coupling, proxy)
    spec_b = sturmian_band_spectrum(cf, coupling, proxy + 1)
    proxy_bands = intersect_intervals(spec_a.bands, spec_b.bands)
    energies = band_samples(proxy_bands, samples_per_band)
    if not energies.size:
        raise ResolutionError("proxy spectrum intersection is empty")
    traces = sturmian_traces(cf, coupling, energies, level_max)
    # a NaN trace comes from an overflow (inf - inf) and counts as unbounded;
    # the max over a level propagates it
    sups = abs(np.stack(traces[1:])).max(axis=1)
    sups[np.isnan(sups)] = np.inf
    sups = tuple(sups.tolist())
    return TraceBoundReport(
        level_max=level_max,
        proxy_level=proxy,
        coupling=coupling,
        proxy_bands=tuple(proxy_bands),
        sample_energies=tuple(energies.tolist()),
        sup_per_level=sups,
        overall_sup=max(sups),
    )


@dataclass(frozen=True)
class ZeroLyapunovReport:
    """Lyapunov slopes on and off the proxy spectrum.

    On-spectrum estimates should hug zero; the controls sit at midpoints of
    the widest gaps of the union of the two approximant spectra, where the
    exponent is genuinely positive.
    """

    level: int
    steps: int
    coupling: float
    in_spectrum: tuple[tuple[float, float], ...]  # (E, gamma+)
    max_gamma_in_spectrum: float
    gap_controls: tuple[tuple[float, float, float], ...]  # (E, gap width, gamma+)
    min_gamma_controls: float
    free_gamma: float


def zero_lyapunov_check(cf, coupling, level, steps):
    """Estimate gamma+ at proxy-spectrum band midpoints and at the midpoints
    of the ``GAP_CONTROLS`` widest gaps, over the length-``steps`` prefix
    potential."""
    spec_a = sturmian_band_spectrum(cf, coupling, level)
    spec_b = sturmian_band_spectrum(cf, coupling, level + 1)
    proxy_bands = intersect_intervals(spec_a.bands, spec_b.bands)
    if not proxy_bands:
        raise ResolutionError("proxy spectrum intersection is empty")
    in_energies = band_samples(proxy_bands, per_band=1).tolist()

    union = union_intervals(spec_a.bands, spec_b.bands)
    gaps = [
        (union[i][1], union[i + 1][0]) for i in range(len(union) - 1)
    ]
    gaps.sort(key=lambda g: g[1] - g[0], reverse=True)
    gaps = sorted(gaps[:GAP_CONTROLS])
    gap_energies = [0.5 * (lo + hi) for lo, hi in gaps]
    gap_widths = [hi - lo for lo, hi in gaps]

    window = window_from_word(c_alpha_prefix(cf, steps), coupling)
    gammas = lyapunov_estimate(window, np.asarray(in_energies + gap_energies), steps).gamma_plus
    n_in = len(in_energies)
    in_part = tuple(zip(in_energies, gammas[:n_in].tolist()))
    gap_part = tuple(
        (e, w, g) for e, w, g in zip(gap_energies, gap_widths, gammas[n_in:].tolist())
    )
    free_gamma = float(lyapunov_estimate(constant_window(0.0, 1, steps), 0.0, steps).gamma_plus)
    return ZeroLyapunovReport(
        level=level,
        steps=steps,
        coupling=coupling,
        in_spectrum=in_part,
        max_gamma_in_spectrum=max(g for _, g in in_part),
        gap_controls=gap_part,
        min_gamma_controls=min((g for _, _, g in gap_part), default=float("nan")),
        free_gamma=free_gamma,
    )
