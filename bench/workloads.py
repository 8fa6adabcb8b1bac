"""Workloads of the sturmspec benchmark: CLI argv lists and output checks.

An op is one ``sturmspec.cli.main(argv)`` call.  Couplings, continued
fractions and levels are fixed; the seed draws only a sub-step offset of the
Lyapunov energy grids and the ``--rng-seed`` of ``gordon``/``appendix``, so
every seed costs about the same.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass

GOLDEN = ("--alpha-period", ":1")

# (coupling, deepest level) of the spectra ladder.  Each ladder goes one level
# past the deepest level the grid solver resolved at the seed commit (lambda=3
# n=11 and lambda=5 n=8, 9 exit 3), so solver failures show in the frontier
# and the failure share instead of being sized away.  lambda=1 stops at 13
# because level 14 alone takes about 25 s.
SPECTRA_LADDER = ((1, 13), (3, 11), (5, 9))


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: str  # key into CHECKS
    tag: str = ""  # stable label for per-op metrics, e.g. "lam3.n11"

    @property
    def label(self):
        return " ".join(self.argv)


def _grid(rng, lo, hi, n):
    """``--energies`` linspace lo:hi:n shifted by a random sub-step offset."""
    off = rng.uniform(0.0, (hi - lo) / (n - 1))
    return f"--energies={lo + off!r}:{hi + off!r}:{n}"


def spectra_ops(rng):
    ops = []
    for lam, top in SPECTRA_LADDER:
        for n in range(1, top + 1):
            argv = ("spectrum", *GOLDEN, "--lambda", str(lam), "--levels", str(n))
            ops.append(Op(argv, "spectrum", f"lam{lam}.n{n}"))
    return ops


def orbits_ops(rng):
    sturm = ("lyapunov", "--potential", "sturmian", *GOLDEN, "--lambda", "1")
    return [
        Op((*sturm, _grid(rng, -2.0, 3.0, 51), "--steps", "1000000"), "lyapunov"),
        Op((*sturm, _grid(rng, -2.0, 3.0, 501), "--steps", "100000", "--format", "csv"),
           "lyapunov"),
        Op(
            ("lyapunov", "--potential", "circle", *GOLDEN, "--cf-depth", "40",
             "--beta", "1/4", _grid(rng, -2.0, 3.0, 51), "--steps", "100000"),
            "lyapunov",
        ),
        Op(("word", *GOLDEN, "--length", "1000000"), "word"),
        Op(("word", "--model", "thue-morse", "--length", "1000000"), "word"),
    ]


def certificates_ops(rng):
    circle = (*GOLDEN, "--cf-depth", "30", "--beta", "1/4")
    return [
        Op(("gordon", *GOLDEN, "--level", "4", "--energies", "from-spectrum:8",
            "--seeds", "100", "--rng-seed", str(rng.randrange(2**31))), "gordon"),
        Op(("gordon", *GOLDEN, "--level", "6", "--energies", "from-spectrum:9",
            "--seeds", "100", "--rng-seed", str(rng.randrange(2**31))), "gordon"),
        Op(("hull-check", *circle, "--L", "6", "--grid", "24000", "--prefix", "10000"),
           "hull-check"),
        Op(("appendix", *circle, "--rng-seed", str(rng.randrange(2**31))), "appendix"),
    ]


# BENCHMARK.json declares spectra and certificates.  orbits runs with
# ``--workload orbits`` or ``all``: with a third declared workload the runs
# must last about 40 s, where spectra fits only 2-3 passes and its wall_ref_s
# spreads twice as wide as at 60 s (see baseline.json).
WORKLOADS = {
    "spectra": spectra_ops,
    "orbits": orbits_ops,
    "certificates": certificates_ops,
}


def make_ops(workload, seed):
    """The op list of a workload; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def _opt(argv, flag):
    for i, tok in enumerate(argv):
        if tok == flag:
            return argv[i + 1]
        if tok.startswith(flag + "="):
            return tok.split("=", 1)[1]
    return None


def check_spectrum(argv, report):
    (row,) = report["rows"]
    if row["level"] != int(_opt(argv, "--levels")):
        return "wrong level"
    if row["band_count"] != row["q"] or len(row["bands"]) != row["q"]:
        return f"band_count {row['band_count']} != q {row['q']}"
    prev_hi = -math.inf
    for lo, hi in row["bands"]:
        if not prev_hi < lo < hi:
            return f"bands not sorted, disjoint, lo < hi at [{lo}, {hi}]"
        prev_hi = hi
    return None


def check_lyapunov(argv, report):
    rows = report["rows"]
    if len(rows) != int(_opt(argv, "--energies").rsplit(":", 1)[1]):
        return f"{len(rows)} rows"
    circle = _opt(argv, "--potential") == "circle"
    for row in rows:
        gp, gm = row["gamma_plus"], row["gamma_minus"]
        if not (math.isfinite(row["energy"]) and math.isfinite(gp) and gp >= -1e-3):
            return f"bad gamma_plus {gp} at E={row['energy']}"
        if circle != (gm is not None) or (circle and not math.isfinite(gm)):
            return f"bad gamma_minus {gm} at E={row['energy']}"
    return None


# Fixed-point prefixes: golden coding (fibonacci) and Thue-Morse a -> ab, b -> ba.
WORD_PREFIX = {None: "10110101", "thue-morse": "abbabaab"}


def check_word(argv, report):
    word = report["word"]
    if len(word) != int(_opt(argv, "--length")):
        return f"length {len(word)}"
    if not word.startswith(WORD_PREFIX[_opt(argv, "--model")]):
        return f"prefix {word[:8]!r}"
    return None


def check_gordon(argv, report):
    certs = report["certificates"]
    if not certs:
        return "no certificates"
    bad = [c["energy"] for c in certs if c["verdict"] and not c.get("nondecay_ok")]
    return f"verdict without nondecay_ok at E={bad[0]}" if bad else None


def check_hull(argv, report):
    return None if report["contained"] is True else "contained is not true"


def check_appendix(argv, report):
    return None if report["ok"] is True else "ok is not true"


CHECKS = {
    "spectrum": check_spectrum,
    "lyapunov": check_lyapunov,
    "word": check_word,
    "gordon": check_gordon,
    "hull-check": check_hull,
    "appendix": check_appendix,
}


def _read_csv(stdout):
    """A CSV report (only lyapunov ops use CSV) as JSON-shaped rows."""
    rows = csv.DictReader(io.StringIO(stdout))
    return {"rows": [{k: float(v) if v else None for k, v in row.items()} for row in rows]}


def check_output(op, stdout):
    """(reason, work): reason is None when the report passes the op's check;
    work is what the op computed (see ``op_work``)."""
    try:
        csv_out = _opt(op.argv, "--format") == "csv"
        report = _read_csv(stdout) if csv_out else json.loads(stdout)
        reason = CHECKS[op.check](op.argv, report)
        return reason, (0 if reason else op_work(op, report))
    except (ValueError, KeyError, TypeError) as err:
        return f"unreadable report: {type(err).__name__}: {err}", 0


def op_work(op, report):
    """Bands for a spectrum op (q_n), site x energy steps for a lyapunov op
    (the circle potential also runs the backward pass), else 0."""
    if op.check == "spectrum":
        return report["rows"][0]["q"]
    if op.check == "lyapunov":
        sides = 2 if _opt(op.argv, "--potential") == "circle" else 1
        return int(_opt(op.argv, "--steps")) * len(report["rows"]) * sides
    return 0
