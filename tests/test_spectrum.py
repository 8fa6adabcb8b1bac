import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from sturmspec import (
    Word,
    band_samples,
    band_spectrum,
    convergents,
    intersect_intervals,
    intersection_measure,
    interval_measure,
    lyapunov_estimate,
    periodic_window,
    standard_words,
    sturmian_band_spectrum,
    trace_bound_scan,
    union_intervals,
    window_from_word,
    zero_lyapunov_check,
)
from sturmspec import spectrum
from sturmspec.errors import InvalidInputError, NumericError, ResolutionError
from sturmspec.spectrum import TRACE_SAMPLES_PER_BAND, _edge_eigenvalues, _mirror_axis
from sturmspec.transfer import _product_over_values, sturmian_traces


def _site_loop_trace(values, energy):
    """tr M(E) over one period, multiplied out site by site."""
    return _product_over_values(values, energy).trace()


class TestBandSpectrum:
    def test_single_site_coupled(self):
        spec = band_spectrum(Word.from_text("1"), 1.0)
        assert spec.band_count == 1
        (lo, hi) = spec.bands[0]
        assert lo == pytest.approx(-1.0, abs=1e-10)
        assert hi == pytest.approx(3.0, abs=1e-10)
        assert spec.measure == pytest.approx(4.0, abs=1e-8)

    def test_word_ten_by_hand(self):
        # tr = E^2 - E - 2; |tr| = 2 at (1 -+ sqrt(17))/2, 0, 1
        spec = band_spectrum(Word.from_text("10"), 1.0)
        s17 = math.sqrt(17.0)
        assert spec.band_count == 2
        assert spec.bands[0][0] == pytest.approx((1 - s17) / 2, abs=1e-9)
        assert spec.bands[0][1] == pytest.approx(0.0, abs=1e-9)
        assert spec.bands[1][0] == pytest.approx(1.0, abs=1e-9)
        assert spec.bands[1][1] == pytest.approx((1 + s17) / 2, abs=1e-9)
        assert spec.measure == pytest.approx(s17 - 1, abs=1e-6)

    def test_free_word(self):
        spec = band_spectrum(Word.from_text("0"), 5.0)
        assert spec.bands[0][0] == pytest.approx(-2.0, abs=1e-10)
        assert spec.bands[0][1] == pytest.approx(2.0, abs=1e-10)

    def test_band_count_matches_period(self, golden_cf, fib_spectra):
        for level, spec in fib_spectra.items():
            assert spec.band_count == spec.period == golden_cf.q[level]

    def test_bands_inside_coupling_box(self, fib_spectra):
        for spec in fib_spectra.values():
            for lo, hi in spec.bands:
                assert -2 - abs(spec.coupling) <= lo <= hi <= 2 + abs(spec.coupling)

    def test_edges_hit_trace_two(self, golden_cf, fib_spectra):
        values = window_from_word(standard_words(golden_cf, 8).word(8), 1.0).values
        for lo, hi in fib_spectra[8].bands:
            assert abs(abs(_site_loop_trace(values, lo)) - 2.0) < 1e-8
            assert abs(abs(_site_loop_trace(values, hi)) - 2.0) < 1e-8

    def test_edges_separate_band_from_gap_at_strong_coupling(self, golden_cf):
        # At a steep edge |tr| - 2 is about |tr'| * eps * ||H|| even when the
        # edge is exact (1e-3 here), so a fixed bound on it says nothing.
        # Instead |tr| - 2 must change sign across edge -+ delta, with delta
        # 1% of the narrower of the adjacent band and gap.
        level, coupling = 14, 10.0
        spec = sturmian_band_spectrum(golden_cf, coupling, level)
        values = window_from_word(standard_words(golden_cf, level).word(level), coupling).values
        bands = spec.bands
        assert spec.band_count == golden_cf.q[level] == 610
        for i, (lo, hi) in enumerate(bands):
            width = hi - lo
            gap_below = lo - bands[i - 1][1] if i > 0 else width
            gap_above = bands[i + 1][0] - hi if i + 1 < len(bands) else width
            for edge, gap, outward in ((lo, gap_below, -1.0), (hi, gap_above, 1.0)):
                delta = 0.01 * min(width, gap)
                assert abs(_site_loop_trace(values, edge + outward * delta)) > 2.0
                assert abs(_site_loop_trace(values, edge - outward * delta)) < 2.0

    def test_touching_bands_raise(self):
        # "00" is the free chain labeled with period 2: its two bands meet at
        # E = 0 and can never be isolated
        with pytest.raises(ResolutionError):
            band_spectrum(Word.from_text("00"), 1.0)

    def test_empty_word_rejected(self):
        with pytest.raises(InvalidInputError):
            band_spectrum(Word(b"", 2), 1.0)

    def test_period_beyond_dense_limit_refused(self):
        # refused before any q x q matrix is allocated
        with pytest.raises(ResolutionError, match="5001"):
            band_spectrum(Word(bytes(5001), 2), 1.0)

    @pytest.mark.parametrize("coupling", [math.nan, math.inf, -math.inf])
    def test_non_finite_coupling_rejected(self, coupling):
        with pytest.raises(InvalidInputError):
            band_spectrum(Word.from_text("10"), coupling)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    coeffs=st.lists(st.integers(1, 5), min_size=1, max_size=8),
    coupling=st.floats(0.1, 5.0),
)
def test_band_structure_over_random_continued_fractions(coeffs, coupling):
    # the deepest level whose period keeps the site-loop checks cheap
    cf = convergents(coeffs)
    level = max(n for n in range(cf.depth + 1) if cf.q[n] <= 300)
    spec = sturmian_band_spectrum(cf, coupling, level)
    values = window_from_word(standard_words(cf, level).word(level), coupling).values
    assert spec.band_count == cf.q[level]
    for lo, hi in spec.bands:
        assert lo < hi
        assert abs(_site_loop_trace(values, 0.5 * (lo + hi))) <= 2.0
    for (_, lo), (hi, _) in zip(spec.bands, spec.bands[1:]):
        assert lo < hi
        assert abs(_site_loop_trace(values, 0.5 * (lo + hi))) > 2.0


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    coeffs=st.lists(st.integers(1, 5), min_size=2, max_size=12),
    coupling=st.floats(0.0, 10.0, exclude_min=True),
)
def test_nesting_over_random_continued_fractions(coeffs, coupling):
    # sigma_{k+1} lies in sigma_k union sigma_{k-1} for k >= 1 (Suto 1987),
    # up to the eigensolver's error, a few eps * ||H||
    cf = convergents(coeffs)
    top = max(n for n in range(cf.depth + 1) if cf.q[n] <= 300)
    try:
        bands = [sturmian_band_spectrum(cf, coupling, k).bands for k in range(top + 1)]
    except ResolutionError:
        # gaps of order the coupling close to rounding and are refused
        assert coupling < 1e-6
        reject()
    tol = 4 * np.finfo(float).eps * (2.0 + coupling)
    for k in range(1, top):
        union = union_intervals(bands[k], bands[k - 1])
        for lo, hi in bands[k + 1]:
            assert any(u_lo - tol <= lo and hi <= u_hi + tol for u_lo, u_hi in union)


def _dense_edge_eigenvalues(values):
    """Reference: eigenvalues of the full q x q periodic (corner +1) and
    antiperiodic (corner -1) Hamiltonians, sorted together."""
    out = []
    for corner in (1.0, -1.0):
        h = np.diag(values)
        i = np.arange(len(values) - 1)
        h[i, i + 1] = h[i + 1, i] = 1.0
        # for q = 2 the corner adds to the hopping entries, for q = 1 it
        # lands twice on the diagonal
        h[0, -1] += corner
        h[-1, 0] += corner
        out.append(np.linalg.eigvalsh(h))
    return np.sort(np.concatenate(out))


@st.composite
def period_words(draw, max_q=60, mirrored=None):
    """(symbols, values, mirrored): a word of length at most ``max_q`` over
    2-3 letters, with one random potential value per letter.  Half of them,
    or all with ``mirrored=True``, are products of two palindromes, rotated,
    which always have a mirror."""
    letters = draw(st.integers(2, 3))
    q = draw(st.integers(1, max_q))

    def spell(n):
        return draw(st.lists(st.integers(0, letters - 1), min_size=n, max_size=n))

    if mirrored is None:
        mirrored = draw(st.booleans())
    if mirrored:
        cut = draw(st.integers(0, q))
        halves = spell((cut + 1) // 2), spell((q - cut + 1) // 2)
        symbols = [
            *halves[0], *halves[0][: cut // 2][::-1],
            *halves[1], *halves[1][: (q - cut) // 2][::-1],
        ]
        shift = draw(st.integers(0, q - 1))
        symbols = symbols[shift:] + symbols[:shift]
    else:
        symbols = spell(q)
    level = draw(st.lists(st.floats(-10.0, 10.0), min_size=letters, max_size=letters))
    return bytes(symbols), np.array([level[s] for s in symbols]), mirrored


@settings(max_examples=400, deadline=None, derandomize=True)
@given(word=period_words())
# no fold: q = 1, q = 2 and a word without a mirror
@example(word=(b"\x01", np.array([2.5]), True))
@example(word=(b"\x01\x00", np.array([3.0, -1.0]), True))
@example(word=(b"\x00\x00\x01\x00\x01\x01", np.array([0.5, 0.5, -4.0, 0.5, -4.0, -4.0]), False))
# each fold shape, named by what sits on the axis points m/2 and m/2 + q/2
# (test_mirror_axis_by_hand): site-site, bond-bond, site-bond, bond-site
@example(word=(bytes([0, 1, 2, 0, 2, 1]), np.array([1.0, -2.0, 7.0, 1.0, 7.0, -2.0]), True))
@example(word=(bytes([0, 0, 1, 1]), np.array([3.0, 3.0, -1.0, -1.0]), True))
@example(word=(bytes([0, 1, 1]), np.array([-6.0, 2.0, 2.0]), True))
@example(word=(bytes([0, 0, 1, 2, 1]), np.array([5.0, 5.0, 0.0, -5.0, 0.0]), True))
def test_mirror_split_matches_dense_reference(word):
    symbols, values, mirrored = word
    if mirrored:
        assert _mirror_axis(symbols) is not None
    tol = 64 * np.finfo(float).eps * (2.0 + np.max(np.abs(values)))
    split = _edge_eigenvalues(symbols, values)
    assert split.shape == (2 * len(values),)
    assert np.max(np.abs(split - _dense_edge_eigenvalues(values))) <= tol


needs_dsterf = pytest.mark.skipif(
    spectrum._load_dsterf() is None,
    reason="this numpy exports no scipy_LAPACKE_dsterf64_; only the eigvalsh fallback runs",
)


def _on_fallback(fn, *args):
    """``fn(*args)`` with the dense-chain ``eigvalsh`` fallback forced."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectrum, "_load_dsterf", lambda: None)
        return fn(*args)


def _standard_word(coefficient, level, coupling):
    """(symbols, values) of the level-``level`` standard word of [c, c, ...]."""
    cf = convergents([coefficient] * 20)
    symbols = standard_words(cf, level).word(level).symbols
    return symbols, np.frombuffer(symbols, np.uint8) * coupling


@st.composite
def deep_standard_words(draw):
    """Golden (:1) and silver (:2) standard words with q <= 4200."""
    coefficient = draw(st.sampled_from([1, 2]))
    cf = convergents([coefficient] * 20)
    level = draw(st.integers(0, max(n for n in range(cf.depth + 1) if cf.q[n] <= 4200)))
    return _standard_word(coefficient, level, draw(st.sampled_from([0.3, 1.0, 5.0, 10.0])))


@needs_dsterf
@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    word=st.one_of(
        period_words(max_q=400, mirrored=True).map(lambda w: w[:2]),
        deep_standard_words(),
    )
)
# the deepest chains: golden q = 4181 and silver q = 2378
@example(word=_standard_word(1, 18, 1.0))
@example(word=_standard_word(2, 9, 10.0))
def test_dsterf_matches_the_eigvalsh_fallback_bit_for_bit(word):
    symbols, values = word
    fast = _edge_eigenvalues(symbols, values)
    assert fast.tobytes() == _on_fallback(_edge_eigenvalues, symbols, values).tobytes()


@pytest.mark.parametrize(
    "diagonal, hops, exact",
    [
        ([2.5], [], [2.5]),
        ([-7.0], [], [-7.0]),
        ([0.0, 0.0], [1.0], [-1.0, 1.0]),
        ([1.0, 3.0], [math.sqrt(2.0)], [2.0 - math.sqrt(3.0), 2.0 + math.sqrt(3.0)]),
    ],
)
def test_one_and_two_node_chains(diagonal, hops, exact):
    chains = [(np.array(diagonal), np.array(hops))]
    tol = 16 * np.finfo(float).eps  # a few eps ||H||, with ||H|| < 4
    fast = spectrum._chain_eigenvalues(chains)
    assert fast == pytest.approx(exact, rel=0, abs=tol)
    assert fast.tobytes() == _on_fallback(spectrum._chain_eigenvalues, chains).tobytes()


@pytest.mark.parametrize("info", [1, -2])
def test_lapack_failure_names_the_chain_and_info(monkeypatch, golden_cf, info):
    sizes = []

    def failing_dsterf(n, d, e):
        sizes.append(n)
        return info

    monkeypatch.setattr(spectrum, "_load_dsterf", lambda: failing_dsterf)
    chains = [(np.zeros(3), np.ones(2)), (np.zeros(2), np.ones(1))]
    with pytest.raises(NumericError) as failed:
        spectrum._chain_eigenvalues(chains)
    assert str(failed.value) == f"LAPACK dsterf returned info = {info} on 5 nodes in 2 chains"
    # golden level 5 (q = 8) folds into four short chains, all in one call
    with pytest.raises(NumericError) as failed:
        sturmian_band_spectrum(golden_cf, 1.0, 5)
    assert not isinstance(failed.value, ResolutionError)
    assert str(failed.value) == (
        f"level 5, q=8: LAPACK dsterf returned info = {info} on {sizes[-1]} nodes in 4 chains"
    )


def test_mismatched_hops_refused():
    with pytest.raises(InvalidInputError, match="a 3-node chain needs 2 hops, got 3"):
        spectrum._chain_eigenvalues([(np.zeros(2), np.ones(1)), (np.zeros(3), np.ones(3))])


@st.composite
def jacobi_chains(draw):
    """One to five chains of 1-40 nodes, with any diagonal and nonzero hops."""
    chains = []
    for n in draw(st.lists(st.integers(1, 40), min_size=1, max_size=5)):
        diagonal = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
        hops = draw(st.lists(st.floats(0.1, 2.0), min_size=n - 1, max_size=n - 1))
        chains.append((np.array(diagonal), np.array(hops)))
    return chains


@pytest.mark.parametrize("fallback", [False, True], ids=["dsterf", "eigvalsh"])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(chains=jacobi_chains())
def test_stacked_chains_match_the_sorted_per_chain_calls(fallback, chains):
    # dsterf splits the stack at each zero hop and solves each block as it
    # would alone; the fallback solves each dense chain on its own
    def solve(chains):
        if fallback:
            return _on_fallback(spectrum._chain_eigenvalues, chains)
        return spectrum._chain_eigenvalues(chains)

    per_chain = np.sort(np.concatenate([solve([chain]) for chain in chains]))
    assert solve(chains).tobytes() == per_chain.tobytes()


def _edges(symbols, values, threaded):
    """The band edges with the antiperiodic pair forced onto its own
    thread, or forced inline."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectrum, "PARALLEL_NODES", 1 if threaded else 10**9)
        patch.setattr(spectrum, "_usable_cpus", lambda: 2 if threaded else 1)
        return _edge_eigenvalues(symbols, values)


@pytest.mark.parametrize("coupling", [0.3, 1.0, 5.0, 10.0])
@pytest.mark.parametrize("coefficient", [1, 2])
def test_threaded_and_inline_edges_are_byte_equal(coefficient, coupling):
    # golden (:1) and silver (:2) standard words up to q = 4181
    cf = convergents([coefficient] * 20)
    top = max(n for n in range(cf.depth + 1) if cf.q[n] <= 4181)
    tower = standard_words(cf, top)
    for level in range(top + 1):
        symbols = tower.word(level).symbols
        values = np.frombuffer(symbols, np.uint8) * coupling
        inline = _edges(symbols, values, threaded=False)
        assert _edges(symbols, values, threaded=True).tobytes() == inline.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(word=period_words(max_q=600, mirrored=True))
def test_threaded_and_inline_edges_are_byte_equal_on_mirrored_words(word):
    symbols, values, _ = word
    inline = _edges(symbols, values, threaded=False)
    assert _edges(symbols, values, threaded=True).tobytes() == inline.tobytes()


def test_lapack_failure_on_the_worker_path(monkeypatch):
    # both pairs fail; the error raised is the periodic pair's, once the
    # edge thread is joined
    monkeypatch.setattr(spectrum, "_load_dsterf", lambda: lambda n, d, e: 1)
    symbols, values = _standard_word(1, 13, 1.0)
    with pytest.raises(NumericError, match=r"info = 1 on \d+ nodes in 2 chains$"):
        _edges(symbols, values, threaded=True)


def test_concurrent_callers_get_the_same_bytes(monkeypatch, golden_cf):
    # four threads, more than the cores, each start edge threads of their
    # own, switching every microsecond
    from concurrent.futures import ThreadPoolExecutor

    def edges(level):
        return np.array(sturmian_band_spectrum(golden_cf, 1.0, level).bands).tobytes()

    monkeypatch.setattr(spectrum, "_usable_cpus", lambda: 2)
    serial = {level: edges(level) for level in (15, 16)}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as callers:
            results = list(callers.map(edges, [15, 16] * 8, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert results == [serial[15], serial[16]] * 8


def test_edge_thread_error_reaches_the_caller(monkeypatch, capfd, golden_cf):
    # the antiperiodic pair alone fails: its error is raised here, and the
    # edge thread, having caught it, leaves threading.excepthook nothing
    solve = spectrum._chain_eigenvalues
    hooked = []

    def fail_off_the_main_thread(chains):
        if threading.current_thread() is not threading.main_thread():
            raise NumericError("antiperiodic pair failed")
        return solve(chains)

    monkeypatch.setattr(spectrum, "_chain_eigenvalues", fail_off_the_main_thread)
    monkeypatch.setattr(spectrum, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    with pytest.raises(NumericError) as failed:
        sturmian_band_spectrum(golden_cf, 1.0, 13)
    assert str(failed.value) == "level 13, q=377: antiperiodic pair failed"
    assert hooked == []
    assert capfd.readouterr().err == ""


def test_no_edge_thread_outlives_its_call(monkeypatch, golden_cf):
    solve = spectrum._chain_eigenvalues
    names = []

    def record_thread(chains):
        names.append(threading.current_thread().name)
        return solve(chains)

    monkeypatch.setattr(spectrum, "_chain_eigenvalues", record_thread)
    monkeypatch.setattr(spectrum, "_usable_cpus", lambda: 2)
    before = threading.active_count()
    sturmian_band_spectrum(golden_cf, 1.0, 13)
    assert "sturmspec-edges" in names
    assert threading.active_count() == before


# A fresh interpreter computes a threaded spectrum, then forks.  With no
# thread left behind, Python 3.12 and later have no multi-threaded fork to
# warn about, and no executor machinery has been imported.  Python 3.12
# counts the threads in the kernel's list, which a joined thread can take a
# few microseconds more to leave, so the fork waits (at most 5 s) for one.
_FORK_AFTER_THREADED_EDGES = """
import json, os, sys, threading, time, warnings
from sturmspec import convergents, periodic_coefficients, spectrum, sturmian_band_spectrum
spectrum._usable_cpus = lambda: 2
sturmian_band_spectrum(convergents(periodic_coefficients([], [1], 40)), 1.0, 13)
deadline = time.monotonic() + 5.0
while len(os.listdir("/proc/self/task")) > 1 and time.monotonic() < deadline:
    time.sleep(0.001)
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    pid = os.fork()
    if pid == 0:
        os._exit(0)
os.waitpid(pid, 0)
print(json.dumps({
    "warnings": [str(w.message) for w in caught],
    "threads": threading.active_count(),
    "os_threads": len(os.listdir("/proc/self/task")),
    "modules": sorted({"concurrent.futures", "logging"} & set(sys.modules)),
}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="fork, Linux only")
def test_fork_after_threaded_edges_warns_nothing():
    import sturmspec

    path = [os.path.dirname(os.path.dirname(sturmspec.__file__)), os.environ.get("PYTHONPATH")]
    # OpenBLAS starts a thread pool of its own when numpy loads; one thread
    # leaves it none, so the count is sturmspec's threads alone
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), OPENBLAS_NUM_THREADS="1")
    run = subprocess.run(
        [sys.executable, "-c", _FORK_AFTER_THREADED_EDGES],
        env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    seen = json.loads(run.stdout)
    assert [w for w in seen["warnings"] if "multi-threaded" in w] == []
    assert seen["threads"] == seen["os_threads"] == 1
    assert seen["modules"] == []


def test_mirror_axis_by_hand():
    assert _mirror_axis(b"\x00") == 0
    assert _mirror_axis(b"\x01\x00") == 0  # V(-j) = V(j): "10" is its own mirror
    assert _mirror_axis(b"\x00\x01\x00\x01\x01") == 2
    assert _mirror_axis(b"\x00\x00\x01\x00\x01\x01") is None
    # the fold shapes: m even puts a fixed site on m/2, m + q even one on
    # m/2 + q/2; an odd one puts a fixed bond there
    assert _mirror_axis(bytes([0, 1, 2, 0, 2, 1])) == 0  # site-site
    assert _mirror_axis(bytes([0, 0, 1, 1])) == 1  # bond-bond
    assert _mirror_axis(bytes([0, 1, 1])) == 0  # site-bond
    assert _mirror_axis(bytes([0, 0, 1, 2, 1])) == 1  # bond-site


@pytest.mark.parametrize("coupling", [0.3, 1.0, 3.0, 5.0, 10.0])
@pytest.mark.parametrize("coefficient", [1, 2])
def test_fold_matches_dense_reference_on_deep_standard_words(coefficient, coupling):
    # golden (:1) and silver (:2) standard words up to q ~ 400, where the
    # spectrum clusters into many narrow bands
    cf = convergents([coefficient] * 20)
    top = max(n for n in range(cf.depth + 1) if cf.q[n] <= 420)
    tower = standard_words(cf, top)
    for level in range(top + 1):
        symbols = tower.word(level).symbols
        values = np.frombuffer(symbols, np.uint8) * coupling
        tol = 64 * np.finfo(float).eps * (2.0 + np.max(np.abs(values)))
        fold = _edge_eigenvalues(symbols, values)
        assert np.max(np.abs(fold - _dense_edge_eigenvalues(values))) <= tol


@settings(max_examples=60, deadline=None, derandomize=True)
@given(coeffs=st.lists(st.integers(1, 6), min_size=1, max_size=12))
def test_standard_words_have_a_mirror(coeffs):
    # s_n is a product of two palindromes, so its period is mirror-symmetric
    cf = convergents(coeffs)
    top = max(n for n in range(cf.depth + 1) if cf.q[n] <= 5000)
    tower = standard_words(cf, top)
    for level in range(top + 1):
        symbols = tower.word(level).symbols
        m = _mirror_axis(symbols)
        assert m is not None
        sites = np.frombuffer(symbols, dtype=np.uint8)
        assert np.array_equal(sites[(m - np.arange(len(sites))) % len(sites)], sites)


class TestIntervalArithmetic:
    def test_intersection_by_hand(self):
        spec_a = band_spectrum(Word.from_text("1"), 1.0)
        spec_b = band_spectrum(Word.from_text("10"), 1.0)
        measure = intersection_measure(spec_a, spec_b)
        # [-1, 3] meets [(1-s)/2, 0] u [1, (1+s)/2] in [-1, 0] u [1, (1+s)/2]
        s17 = math.sqrt(17.0)
        expected = 1.0 + (1 + s17) / 2 - 1.0
        assert measure == pytest.approx(expected, abs=1e-8)
        assert measure < min(spec_a.measure, spec_b.measure)

    def test_self_intersection(self, fib_spectra):
        spec = fib_spectra[5]
        assert tuple(intersect_intervals(spec.bands, spec.bands)) == spec.bands
        assert intersection_measure(spec, spec) == pytest.approx(spec.measure, abs=1e-12)

    def test_coupling_mismatch(self):
        a = band_spectrum(Word.from_text("1"), 1.0)
        b = band_spectrum(Word.from_text("1"), 2.0)
        with pytest.raises(InvalidInputError):
            intersection_measure(a, b)

    def test_union_merges(self):
        u = union_intervals([(0.0, 1.0), (2.0, 3.0)], [(0.5, 2.5)])
        assert u == [(0.0, 3.0)]

    def test_disjoint_union_and_measure(self):
        u = union_intervals([(0.0, 1.0)], [(2.0, 2.5)])
        assert interval_measure(u) == pytest.approx(1.5)

    def test_intersect_touching_point(self):
        out = intersect_intervals([(0.0, 1.0)], [(1.0, 2.0)])
        assert out == [(1.0, 1.0)]
        assert interval_measure(out) == 0.0


class TestMonotoneProxy:
    def test_intersection_measures_non_increasing(self, fib_spectra):
        prev = None
        for n in range(1, 11):
            measure = intersection_measure(fib_spectra[n], fib_spectra[n + 1])
            if prev is not None:
                assert measure <= prev + 1e-8
            prev = measure

    def test_lambda_two_trend(self, golden_cf):
        specs = {n: sturmian_band_spectrum(golden_cf, 2.0, n) for n in range(1, 8)}
        prev = None
        for n in range(1, 7):
            measure = intersection_measure(specs[n], specs[n + 1])
            if prev is not None:
                assert measure <= prev + 1e-8
            prev = measure


class TestTraceBounds:
    def test_level_zero_traces_are_plain_energies(self, golden_cf):
        report = trace_bound_scan(golden_cf, 1.0, 4)
        # tr M(s_0)(E) = E, and proxy energies live inside the coupling box
        assert report.sup_per_level[0] <= 2 + 1.0

    def test_deep_levels_do_not_blow_up(self, golden_cf):
        report = trace_bound_scan(golden_cf, 1.0, 8)
        early = max(report.sup_per_level[1:5])
        late = max(report.sup_per_level[5:9])
        assert late < 1.5 * early

    def test_proxy_stability(self, golden_cf):
        r8 = trace_bound_scan(golden_cf, 1.0, 8, proxy_level=8)
        r9 = trace_bound_scan(golden_cf, 1.0, 8, proxy_level=9)
        assert abs(r9.overall_sup - r8.overall_sup) <= 0.2 * r8.overall_sup

    def test_sups_match_per_level_loop(self, golden_cf):
        # at lambda = 10 the proxy-2 samples lie off the deep spectra: their
        # traces overflow to inf at level 17 and to NaN (inf - inf) past it,
        # and a NaN level counts as unbounded
        report = trace_bound_scan(golden_cf, 10.0, 20, proxy_level=2)
        energies = band_samples(report.proxy_bands, TRACE_SAMPLES_PER_BAND)
        traces = sturmian_traces(golden_cf, 10.0, energies, 20)
        assert any(np.isnan(t).any() for t in traces)
        reference = tuple(
            float(np.max(np.where(np.isnan(t), np.inf, abs(t)))) for t in traces[1:]
        )
        assert np.array(report.sup_per_level).tobytes() == np.array(reference).tobytes()
        assert report.overall_sup == math.inf

    def test_matches_direct_trace_evaluation(self, golden_cf):
        report = trace_bound_scan(golden_cf, 1.0, 5)
        k = 5
        values = window_from_word(standard_words(golden_cf, k).word(k), 1.0).values.tolist()
        energies = band_samples(report.proxy_bands, TRACE_SAMPLES_PER_BAND).tolist()
        direct = max(abs(_site_loop_trace(values, e)) for e in energies)
        assert report.sup_per_level[k] == pytest.approx(direct, rel=1e-12)

    def test_strong_coupling_sup_stable_as_the_proxy_deepens(self, golden_cf):
        # at lambda = 10 float matrix products over the deep s_k lose their
        # traces to cancellation; the trace map keeps the sampled sup at
        # t_0 = E = 11.142 for proxies 14 to 17.
        # Proxy 17 needs the level 18 spectrum (q = 4181): about 0.3 s on the
        # dsterf path, a few seconds more on the dense eigvalsh fallback
        sups = [
            trace_bound_scan(golden_cf, 10.0, proxy, proxy_level=proxy).overall_sup
            for proxy in (14, 15, 16, 17)
        ]
        for sup in sups[1:]:
            assert sup == pytest.approx(sups[0], rel=0.01)

    def test_zero_coupling_rejected(self, golden_cf):
        with pytest.raises(InvalidInputError):
            trace_bound_scan(golden_cf, 0.0, 4)


def test_empty_proxy_refused(golden_cf):
    # at lambda = 5 the golden sigma_0 = [-2, 2] and sigma_1 = [3, 7] do not meet
    empty = "^proxy spectrum intersection is empty$"
    with pytest.raises(ResolutionError, match=empty):
        trace_bound_scan(golden_cf, 5.0, 0)
    with pytest.raises(ResolutionError, match=empty):
        zero_lyapunov_check(golden_cf, 5.0, 0, 1000)


def test_numeric_proxy_refusal_names_the_proxy_levels(golden_cf):
    # at lambda = 1e-12 the level-8 bands touch within the closed-gap tolerance
    with pytest.raises(ResolutionError, match=r"^proxy spectrum \(levels 8 and 9\): level 8,"):
        zero_lyapunov_check(golden_cf, 1e-12, 8, 1000)


class TestZeroLyapunov:
    def test_separation_at_modest_scale(self, golden_cf):
        report = zero_lyapunov_check(golden_cf, 1.0, 5, 5000)
        assert report.max_gamma_in_spectrum < report.min_gamma_controls
        assert report.free_gamma == pytest.approx(0.0, abs=1e-12)

    def test_word_ten_gap_control(self):
        # the central gap of the two-band word "10": gamma at E = 0.5 is
        # (1/2) arccosh(|E^2 - E - 2| / 2) = 0.2493 for the periodic chain
        window = periodic_window(Word.from_text("10"), 1.0, 1, 10**5)
        gamma = lyapunov_estimate(window, np.array([0.5]), 10**5).gamma_plus[0]
        assert gamma >= 0.1
        assert gamma == pytest.approx(0.5 * math.acosh(2.25 / 2), abs=1e-3)

    @pytest.mark.parametrize("per_band", [1, 2, 3, 4])
    def test_samples_match_per_band_formula(self, fib_spectra, per_band):
        bands = fib_spectra[6].bands
        reference = [
            lo + (hi - lo) * i / (per_band + 1) for lo, hi in bands for i in range(1, per_band + 1)
        ]
        samples = band_samples(bands, per_band)
        assert samples.shape == (len(bands) * per_band,)
        assert samples.tobytes() == np.array(reference).tobytes()

    def test_no_intervals_give_no_samples(self):
        assert band_samples([], 2).shape == (0,)

    def test_zero_samples_refused(self):
        with pytest.raises(InvalidInputError, match="per_band"):
            band_samples([(0.0, 1.0)], per_band=0)

    def test_samples_cover_bands(self, fib_spectra):
        pts = band_samples(fib_spectra[3].bands, per_band=3)
        assert len(pts) == 9
        for (lo, hi), i in zip(fib_spectra[3].bands, range(0, 9, 3)):
            assert lo < pts[i] < pts[i + 1] < pts[i + 2] < hi
