"""Layer spans recorded from outside the program.

The layers are the modules of ``sturmspec``.  ``install`` replaces, in every
other sturmspec module, each module-level binding of a layer's public
function with a wrapper that records a span, and wraps the public methods of
the layer's public classes so that calls coming from another module record a
span.  Calls inside one module are never wrapped.  The function names come
from the module namespaces at run time, so a function a later change deletes
simply stops appearing.

A span's self time is its duration minus the part of it that its child spans
cover.  Work counters are taken at the same boundaries.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "words", "sturmian", "circlemap", "potentials", "transfer",
          "spectrum", "stability")


def self_times(spans):
    """Self time of each span in ``spans``: [layer, start, end, parent,
    outer_start, outer_end] with parent -1 for a root.  [start, end] is the
    wrapped call; the outer interval adds the tracer's own bookkeeping, which
    counts for no layer."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[4], span[5]))
    out = []
    for i, (_, start, end, _, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[i]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(max(0.0, end - start - covered))
    return out


def _symbols(x):
    """Symbols in a word-like result: a Word, a text, a tower of Words, or a
    collection of Words."""
    if isinstance(x, str):
        return len(x)
    if isinstance(getattr(x, "symbols", None), bytes):
        return len(x.symbols)
    if isinstance(getattr(x, "words", None), tuple):
        return _symbols(x.words)
    if isinstance(x, (set, frozenset, list, tuple)) and x and all(
        isinstance(getattr(w, "symbols", None), bytes) for w in x
    ):
        return sum(len(w.symbols) for w in x)
    return 0


def _sites(x):
    """Sites in a potential-window result: a window or a copied value list."""
    values = getattr(x, "values", x)
    return len(values) if isinstance(values, (tuple, list)) else 0


def _q(cf, level):
    return cf.q[level] if level >= 0 else 1


# Work a call stands for, computed from its arguments, keyed by layer and
# function name.  circlemap counts orbit bits; transfer counts site x energy
# steps (for the tower recursion, the q_level sites the product covers).
ARG_WORK = {
    ("circlemap", "circle_potential_window"): lambda a: a["hi"] - a["lo"] + 1,
    ("circlemap", "boundary_limit_window"): lambda a: a["hi"] - a["lo"] + 1,
    ("circlemap", "discontinuity_indices"): lambda a: 2 * a["range_n"] + 1,
    ("circlemap", "hull_factor_comparison"): lambda a: (
        a["prefix_length"] + a["theta_grid_size"] * a["factor_length"]
        + 2 * (5 * a["factor_length"] + 1)
    ),
    ("transfer", "forward_lyapunov_batch"): lambda a: len(a["values"]) * len(a["energies"]),
    ("transfer", "transfer_product"): lambda a: a["n"] - a["k"] + 1,
    ("transfer", "sturmian_transfer"): lambda a: _q(a["cf"], a["level"]),
    ("transfer", "iterate_solution"): lambda a: (
        a["n_max"] if a["n_max"] is not None else a["window"].hi
    ),
    ("stability", "nondecay_verify"): lambda a: len(a["seeds"]),
}


class Tracer:
    """Spans of the current op plus per-layer totals over all ops."""

    def __init__(self):
        self.spans = []  # see self_times
        self.stack = []
        self.totals = defaultdict(float)  # "<layer>.<counter>" -> sum

    def call(self, layer, name, fn, sig, args, kwargs):
        outer_start = time.perf_counter()
        parent = self.stack[-1] if self.stack else -1
        span = [layer, 0.0, 0.0, parent, outer_start, 0.0]
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        raised = True
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            raised = False
            return result
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
            self._count(layer, name, sig, args, kwargs, None if raised else result, raised)
            span[5] = time.perf_counter()

    def _count(self, layer, name, sig, args, kwargs, result, raised):
        t = self.totals
        t[layer + ".calls"] += 1
        if raised:
            t[layer + ".failures"] += 1
            return
        work = ARG_WORK.get((layer, name))
        if work is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            t[layer + ".work"] += work(bound.arguments)
        if layer in ("words", "sturmian"):
            t[layer + ".symbols"] += _symbols(result)
        elif layer == "potentials":
            t["potentials.sites"] += _sites(result)
        elif layer == "spectrum" and hasattr(result, "band_count"):
            t["spectrum.bands"] += result.band_count
        elif layer == "circlemap" and hasattr(result, "skipped_thetas"):
            t["circlemap.skipped"] += result.skipped_thetas
            t["circlemap.grid"] += result.grid_size
        elif layer == "stability" and hasattr(result, "verdict"):
            t["stability.verdicts"] += bool(result.verdict)
            t["stability.certificates"] += 1

    def end_op(self):
        """Fold the op's spans into the totals; returns the op's inclusive
        spectrum time (top-level spectrum spans only)."""
        spectrum_s = 0.0
        for span, own in zip(self.spans, self_times(self.spans)):
            layer, start, end, parent, outer_start, outer_end = span
            self.totals[layer + ".self_s"] += own
            self.totals["tracer.bookkeeping_s"] += (outer_end - outer_start) - (end - start)
            if layer == "spectrum" and (parent < 0 or self.spans[parent][0] != "spectrum"):
                spectrum_s += end - start
        self.spans.clear()
        return spectrum_s

    def wrap_function(self, layer, name, fn):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            return self.call(layer, name, fn, sig, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_method(self, layer, name, fn, home):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_globals is home:
                return fn(*args, **kwargs)
            return self.call(layer, name, fn, sig, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper


def install(tracer, modules):
    """Wrap every cross-module call into a layer; ``modules`` maps layer name
    to module.  Returns the patches for ``uninstall``."""
    patches = []
    wrappers = {}  # id(function) -> wrapper
    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrappers[id(obj)] = tracer.wrap_function(layer, name, obj)
            elif inspect.isclass(obj):
                for attr, fn in list(vars(obj).items()):
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        w = tracer.wrap_method(layer, f"{name}.{attr}", fn, vars(mod))
                        patches.append((obj, attr, fn))
                        setattr(obj, attr, w)
    for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "sturmspec"]:
        for name, obj in list(vars(mod).items()):
            w = wrappers.get(id(obj))
            if w is not None and obj.__module__ != mod.__name__:
                patches.append((mod, name, obj))
                setattr(mod, name, w)
    return patches


def uninstall(patches):
    for owner, name, original in reversed(patches):
        setattr(owner, name, original)
