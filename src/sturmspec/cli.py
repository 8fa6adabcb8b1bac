"""Experiment runner: reproducible reports over the library operations.

Subcommands: word, spectrum, lyapunov, gordon, hull-check, appendix.
Exit codes: 0 success, 2 invalid input, 3 numeric, resolution or memory
failure, 4 boundary ambiguity.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import random
import re
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .circlemap import (
    CircleParams,
    appendix_checks,
    circle_potential_window,
    hull_factor_comparison,
)
from .errors import DepthError, InvalidInputError, NumericError, SturmSpecError
from .potentials import constant_window, window_from_word
from .spectrum import (
    TRACE_BOUND_HEADROOM,
    band_samples,
    intersection_measure,
    sturmian_band_spectrum,
    trace_bound_scan,
)
from .stability import gordon_certificate
from .sturmian import (
    c_alpha_prefix,
    convergents,
    parse_cf_spec,
    periodic_coefficients,
    standard_words,
)
from .transfer import lyapunov_estimate
from .words import SUBSTITUTION_TABLE, fixed_point_prefix, parse_substitution

# Canonical substitution tables are written over letters; some models have a
# conventional binary display (fibonacci's fixed point is the golden coding).
MODEL_OUTPUT_LETTERS = {"fibonacci": "10"}

CSV_HEADERS = {
    "word": ["word"],
    "spectrum": ["level", "q", "band_count", "measure", "measure_intersect_prev"],
    "lyapunov": ["energy", "gamma_plus", "gamma_minus"],
}


# Defaults of --cf-depth and --lambda.  The parser leaves both None, so a mode
# that does not read one can refuse it when given; where the value is read,
# the default is stored on the parsed args, so the config echo shows it.
DEFAULTS = {"cf_depth": 40, "coupling": 1.0}

# Options whose flag is not their destination name spelled with dashes
FLAGS = {"coupling": "--lambda"}


def _value(args, name):
    """The option ``name``, its default stored on ``args`` when not given;
    a ``_refuse_unread`` of the same name must come first."""
    if getattr(args, name) is None:
        setattr(args, name, DEFAULTS[name])
    return getattr(args, name)


# Largest decimal exponent a fraction option takes: Fraction("1e-N") builds
# 10**N, whose cost grows faster than N, and every later step of exact orbit
# arithmetic carries its N digits.  A spelled-out decimal reaches no further:
# Python refuses integer strings longer than 4300 digits by default.
MAX_DECIMAL_EXPONENT = 4300


# Longest tower word s_n that ``gordon --level`` and ``word --tower`` spell.
# The gordon square s_n s_n then has at most 1e6 sites, the length of the
# longest window the lyapunov op of the benchmark walks; golden level 27
# (q = 317 811) is the deepest that passes.
MAX_TOWER_LENGTH = 500_000


def _refuse_long_tower(cf, option, level):
    """Exit 2 when q_level exceeds MAX_TOWER_LENGTH, before any tower word
    is spelled; levels outside 0..depth are refused where the tower is built."""
    if 0 <= level <= cf.depth and cf.q[level] > MAX_TOWER_LENGTH:
        raise InvalidInputError(
            f"{option} {level}: q_{level} = {cf.q[level]} exceeds the tower limit "
            f"of {MAX_TOWER_LENGTH} symbols"
        )


def _parse_fraction(text, name):
    exponent = re.search(r"e[-+]?([\d_]+)", text, re.IGNORECASE)
    digits = exponent.group(1).replace("_", "").lstrip("0") if exponent else ""
    if len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or int(digits or 0) > MAX_DECIMAL_EXPONENT:
        raise InvalidInputError(
            f"invalid {name}: {text!r} has a decimal exponent beyond {MAX_DECIMAL_EXPONENT}"
        )
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidInputError(f"invalid {name}: {text!r}")
    return value


@functools.lru_cache(maxsize=64)  # main() runs many times per process in batch use
def _cf_table(alpha_cf, alpha_period, cf_depth):
    """The convergent table of a rotation spec, parsed once per process.
    A ContinuedFraction is frozen with tuple fields, so callers share it; a
    refused spec raises again on every call, as no exception is cached."""
    if alpha_cf:
        coeffs = parse_cf_spec(alpha_cf)
    else:
        pre_text, _, per_text = alpha_period.partition(":")
        pre = parse_cf_spec(pre_text) if pre_text.strip() else []
        per = parse_cf_spec(per_text) if per_text.strip() else []
        coeffs = periodic_coefficients(pre, per, cf_depth)
    return convergents(coeffs)


def _resolve_cf(args):
    if args.alpha_cf:
        _refuse_unread(args, ("cf_depth",), "does not apply to --alpha-cf")
        return _cf_table(args.alpha_cf, None, None)
    if args.alpha_period:
        return _cf_table(None, args.alpha_period, _value(args, "cf_depth"))
    raise InvalidInputError("need --alpha-cf or --alpha-period")


def _circle_params(args, coupling=1.0):
    if args.beta is None:
        raise InvalidInputError("beta is required for circle-map tasks")
    cf = _resolve_cf(args)
    beta = _parse_fraction(args.beta, "beta")
    guard = _parse_fraction(args.precision, "precision") if args.precision else None
    return CircleParams.from_cf(cf, beta, coupling, guard)


def _parse_levels(text, depth):
    """Levels from a comma list of ``n`` and ``a..b`` tokens (a <= b), each
    endpoint in 0..depth; a range is checked before it is expanded."""
    levels = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        lo, dots, hi = token.partition("..")
        try:
            ends = (int(lo), int(hi)) if dots else (int(lo), int(lo))
        except ValueError:
            raise InvalidInputError(f"bad level token {token!r} in {text!r}")
        if ends[0] > ends[1]:
            raise InvalidInputError(f"reversed level range {token!r} in {text!r}")
        if not all(0 <= end <= depth for end in ends):
            raise DepthError(f"level token {token!r} outside 0..{depth} (the CF depth)")
        levels.extend(range(ends[0], ends[1] + 1))
    if not levels:
        raise InvalidInputError(f"no levels in {text!r}")
    return levels


def _parse_energies(text):
    """``a:b:n`` linspace or a comma list of finite energies."""
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise InvalidInputError(f"energy range must be a:b:n, got {text!r}")
    try:
        if len(parts) == 3:
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        else:
            energies = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise InvalidInputError(f"bad energy spec {text!r}") from None
    if len(parts) == 3:
        if n < 1:
            raise InvalidInputError(f"energy count must be >= 1, got {text!r}")
        step = (hi - lo) / (n - 1) if n > 1 else 0.0
        energies = [lo + i * step for i in range(n)]
    if not energies:
        raise InvalidInputError(f"no energies in {text!r}")
    if not all(math.isfinite(e) for e in energies):
        raise InvalidInputError(f"energies must be finite, got {text!r}")
    return energies


def _refuse_unread(args, names, where):
    """Exit 2 on any of the options ``names`` given where they are not read."""
    for name in names:
        if getattr(args, name) is not None:
            flag = FLAGS.get(name, "--" + name.replace("_", "-"))
            raise InvalidInputError(f"{flag} {where}")


def _task_word(args):
    if args.model or args.subst:
        _refuse_unread(
            args, ("alpha_cf", "alpha_period", "cf_depth"), "does not apply to --model or --subst"
        )
    if args.seed is not None and not args.subst:
        raise InvalidInputError("--seed applies to --subst only")
    if args.tower is not None and args.length is not None:
        raise InvalidInputError("--length does not apply to --tower")
    if args.tower is not None:
        cf = _resolve_cf(args)
        _refuse_long_tower(cf, "--tower", args.tower)
        if args.format == "csv":
            raise InvalidInputError("tower export reports JSON only")
        tower = standard_words(cf, args.tower)
        return {
            "tower": [tower.word(n).to_text() for n in range(-1, args.tower + 1)],
            "q": [int(q) for q in cf.q[: args.tower + 1]],
        }
    if args.length is None:
        raise InvalidInputError("word task needs --length (or --tower)")
    if args.model or args.subst:
        subst, letters = parse_substitution(SUBSTITUTION_TABLE.get(args.model, args.subst))
        if args.seed is not None and args.seed not in set(letters):
            raise InvalidInputError(
                f"--seed must be one letter of the substitution ({letters}), got {args.seed!r}"
            )
        seed = letters.index(args.seed) if args.seed else 0
        word = fixed_point_prefix(subst, seed, args.length)[: args.length]
        text = word.to_text(MODEL_OUTPUT_LETTERS.get(args.model, letters))
    else:
        cf = _resolve_cf(args)
        text = c_alpha_prefix(cf, args.length).to_text()
    return {"word": text, "length": args.length}


def _task_spectrum(args):
    cf = _resolve_cf(args)
    coupling = _value(args, "coupling")
    levels = _parse_levels(args.levels, cf.depth)
    rows = []
    prev = None
    for level in levels:
        spec = sturmian_band_spectrum(cf, coupling, level)
        inter = intersection_measure(prev, spec) if prev else None
        rows.append(
            {
                "level": level,
                "q": spec.period,
                "band_count": spec.band_count,
                "measure": spec.measure,
                "measure_intersect_prev": inter,
                "bands": spec.bands,
            }
        )
        prev = spec
    return {"rows": rows}


def _task_lyapunov(args):
    if args.potential != "circle":
        _refuse_unread(args, ("beta", "precision"), "applies to --potential circle only")
    if args.potential == "free":
        _refuse_unread(
            args,
            ("alpha_cf", "alpha_period", "cf_depth", "coupling"),
            "does not apply to --potential free",
        )
    energies = _parse_energies(args.energies)
    steps = args.steps
    if args.potential == "sturmian":
        coupling = _value(args, "coupling")
        window = window_from_word(c_alpha_prefix(_resolve_cf(args), steps), coupling)
    elif args.potential == "free":
        window = constant_window(0.0, 1, steps)
    else:  # circle
        params = _circle_params(args, _value(args, "coupling"))
        window = circle_potential_window(params, Fraction(0), -steps, steps)
    est = lyapunov_estimate(window, np.asarray(energies), steps)
    gamma_minus = [None] * len(energies) if est.gamma_minus is None else est.gamma_minus.tolist()
    rows = [
        {"energy": e, "gamma_plus": gp, "gamma_minus": gm}
        for e, gp, gm in zip(energies, est.gamma_plus.tolist(), gamma_minus)
    ]
    return {"rows": rows, "steps": steps, "potential": args.potential}


def _draw_seeds(rng, count):
    """``count`` unit seeds as a (count, 2) array, read from ``rng`` as
    pairs (x, y) uniform on [-1, 1]^2, each divided by its norm; a pair of
    norm at most 1e-3 is passed over, in stream order.  x is -1 + 2 r, the
    float ``rng.uniform(-1, 1)`` gives, and the norm is Python's ``** 0.5``,
    whose rounding ``np.sqrt`` does not always share."""
    seeds = np.empty((0, 2))
    while len(seeds) < count:
        draws = np.array([rng.random() for _ in range(2 * (count - len(seeds)))])
        pairs = (2.0 * draws - 1.0).reshape(-1, 2)
        x, y = pairs.T
        norm = np.array([s**0.5 for s in (x * x + y * y).tolist()])
        keep = norm > 1e-3
        seeds = np.concatenate([seeds, pairs[keep] / norm[keep, None]])
    return seeds


def _task_gordon(args):
    if args.seeds < 1:
        raise InvalidInputError(f"--seeds must be >= 1, got {args.seeds}")
    cf = _resolve_cf(args)
    coupling = _value(args, "coupling")
    level = args.level
    energies = None
    if args.energies.startswith("from-spectrum:"):
        proxy_text = args.energies.split(":", 1)[1]
        try:
            proxy = int(proxy_text)
        except ValueError:
            raise InvalidInputError(f"bad proxy level {proxy_text!r} in {args.energies!r}")
        refusal = f"--energies {args.energies}: K"
    else:
        energies = _parse_energies(args.energies)
        proxy = max(level, 8)
        refusal = f"the trace bound's proxy K = {proxy}, max(--level, 8),"
    # the proxy spectrum intersects levels K and K + 1
    if not 0 <= proxy <= cf.depth - 1:
        raise InvalidInputError(
            f"{refusal} must be in 0..{cf.depth - 1} for CF depth {cf.depth} (levels K and K + 1)"
        )
    _refuse_long_tower(cf, "--level", level)
    # the scan refuses a proxy period above MAX_PERIOD before the square is spelled out
    scan = trace_bound_scan(cf, coupling, level_max=proxy, proxy_level=proxy)
    s_n = standard_words(cf, level).word(level)
    q_n = cf.q[level]
    window = window_from_word(s_n + s_n, coupling)
    if energies is None:
        energies = band_samples(scan.proxy_bands, 1)
    c_bound = scan.derived_constant()
    constant = {
        "value": c_bound,
        "proxy_level": proxy,
        "sampled_sup": scan.overall_sup,
        "headroom": TRACE_BOUND_HEADROOM,
    }

    cert = gordon_certificate(
        window, q_n, c_bound, energies, _draw_seeds(random.Random(args.rng_seed), args.seeds)
    )
    # JSON has no Infinity: a trace that overflowed, never certified, is null
    abs_traces = [t if math.isfinite(t) else None for t in cert.abs_trace.tolist()]
    certificates = [
        {"energy": energy, "abs_trace": abs_trace, "verdict": True,
         "min_ratio": ratio, "nondecay_ok": nondecay_ok}
        if certified else
        {"energy": energy, "abs_trace": abs_trace, "verdict": False}
        for energy, abs_trace, certified, ratio, nondecay_ok in zip(
            cert.energy.tolist(), abs_traces, cert.certified.tolist(),
            cert.min_ratio.tolist(), cert.nondecay_ok.tolist(),
        )
    ]
    return {
        "q_n": q_n,
        "derived_constant": constant,
        "square_ok": cert.square_ok,
        "lower_bound": cert.lower_bound,
        "certificates": certificates,
    }


def _grid_size(args):
    return args.grid if args.grid is not None else 4000 * args.factor_length


def _task_hull_check(args):
    params = _circle_params(args)
    report = hull_factor_comparison(params, args.factor_length, _grid_size(args), args.prefix)
    return dict(vars(report))


def _task_appendix(args):
    params = _circle_params(args, _value(args, "coupling"))
    if args.theta_samples < 1:
        raise InvalidInputError("--theta-samples must be >= 1")
    if args.range_n < 1:
        raise InvalidInputError("--range-n must be >= 1")
    checks = appendix_checks(params, args.range_n, args.theta_samples, args.rng_seed)
    hull = hull_factor_comparison(params, args.factor_length, _grid_size(args), args.prefix)
    ok = (
        checks["endpoint_values"]["ok"]
        and checks["discontinuity_counts"]["ok"]
        and all(a["ok"] for a in checks["boundary_agreement"].values())
        and hull.contained
    )
    return {**checks, "hull_comparison": dict(vars(hull)), "ok": ok}


TASKS = {
    "word": _task_word,
    "spectrum": _task_spectrum,
    "lyapunov": _task_lyapunov,
    "gordon": _task_gordon,
    "hull-check": _task_hull_check,
    "appendix": _task_appendix,
}


def _config_echo(args):
    skip = {"task", "out"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


def run_experiment(args):
    """Dispatch a parsed config to its task; the report carries the task's
    own fields plus the config echo, library version, and wall time."""
    start = time.perf_counter()
    results = TASKS[args.task](args)
    report = {
        "schema_version": 1,
        "task": args.task,
        "config": _config_echo(args),
    }
    report.update(results)
    report["version"] = __version__
    report["wall_time_s"] = round(time.perf_counter() - start, 6)
    return report


def emit_report(report, fmt):
    """Serialize a report: full document as JSON, or the tabular projection
    as CSV with a fixed, documented header.

    The JSON document has one top-level field per line, each value on one
    line: ``json.dumps`` takes its C encoder only without ``indent``, and
    the pure-Python encoder that ``indent`` selects took up to a quarter of
    a spectrum run.
    """
    if fmt == "json":
        fields = ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in report.items()
        )
        return "{\n" + fields + "\n}\n"
    task = report["task"]
    header = CSV_HEADERS[task]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    if task == "word":
        writer.writerow([report["word"]])
    else:
        for row in report["rows"]:
            writer.writerow(["" if row[k] is None else row[k] for k in header])
    return buf.getvalue()


@functools.cache  # main() runs many times per process in batch use
def _parsers():
    """The top-level parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="sturmspec",
        description="Sturmian/substitution operator numerics: words, spectra, "
        "Lyapunov exponents, stability certificates.",
    )
    rotation = argparse.ArgumentParser(add_help=False)
    alpha = rotation.add_mutually_exclusive_group()
    alpha.add_argument("--alpha-cf", help="CF coefficients, e.g. 1,2,1x40 (x = repeat)")
    alpha.add_argument(
        "--alpha-period",
        help="eventually periodic CF as pre:period, e.g. ':1' for the golden mean",
    )
    rotation.add_argument("--cf-depth", type=int, help="periodic CF unroll depth (default 40)")
    rotation.add_argument("--out", help="output path (default stdout)")
    lam = argparse.ArgumentParser(add_help=False)
    lam.add_argument("--lambda", dest="coupling", type=float, help="coupling (default 1.0)")
    circle = argparse.ArgumentParser(add_help=False)
    circle.add_argument("--beta", help="indicator length as p/q")
    circle.add_argument("--precision", help="boundary guard as p/q")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=["json", "csv"], default="json")

    sub = parser.add_subparsers(dest="task", required=True)

    p = sub.add_parser("word", parents=[rotation, fmt], help="generate a word prefix")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--model", choices=sorted(SUBSTITUTION_TABLE), help="named substitution")
    mode.add_argument("--subst", help='custom substitution, e.g. "a:ab,b:a"')
    mode.add_argument("--tower", type=int, help="standard-word tower to this level (JSON)")
    p.add_argument("--seed", help="seed letter for --subst (default: first key)")
    p.add_argument("--length", type=int)

    p = sub.add_parser("spectrum", parents=[rotation, lam, fmt], help="approximant band spectra")
    p.add_argument("--levels", required=True, help='e.g. "1..10" or "2,4,8"')

    p = sub.add_parser("lyapunov", parents=[rotation, lam, circle, fmt], help="Lyapunov exponents")
    p.add_argument("--potential", choices=["sturmian", "circle", "free"], default="sturmian")
    p.add_argument("--energies", required=True, help='"a:b:n" linspace or comma list')
    p.add_argument("--steps", type=int, default=100000)

    # the tasks without --format report JSON only
    p = sub.add_parser("gordon", parents=[rotation, lam], help="two-block stability certificates")
    p.set_defaults(format="json")
    p.add_argument("--level", type=int, required=True, help="square word level n")
    p.add_argument(
        "--energies",
        default="from-spectrum:8",
        help='"from-spectrum:K" proxy midpoints, or explicit energies',
    )
    p.add_argument("--seeds", type=int, default=100)
    p.add_argument("--rng-seed", type=int, default=0)

    p = sub.add_parser("hull-check", parents=[rotation, circle], help="coding-vs-hull factors")
    p.set_defaults(format="json")
    p.add_argument("--L", dest="factor_length", type=int, required=True)
    p.add_argument("--grid", type=int, default=None, help="theta grid size (default 4000 L)")
    p.add_argument("--prefix", type=int, default=100000)

    p = sub.add_parser("appendix", parents=[rotation, lam, circle], help="torus-vs-hull checks")
    p.set_defaults(format="json")
    p.add_argument("--range-n", type=int, default=1000)
    p.add_argument("--theta-samples", type=int, default=20)
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--L", dest="factor_length", type=int, default=10)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--prefix", type=int, default=10000)
    return parser, sub.choices


def build_parser():
    """The top-level parser, built once per process."""
    return _parsers()[0]


def _parse_args(argv):
    """``build_parser().parse_args(argv)``, in one argparse pass when argv
    starts with a subcommand name: the top-level pass would only hand the
    rest of argv to that subcommand's parser.  Leftover tokens get the
    top-level refusal that parse_args gives."""
    parser, subparsers = _parsers()
    if not argv or argv[0] not in subparsers:
        return parser.parse_args(argv)
    args, extra = subparsers[argv[0]].parse_known_args(argv[1:], argparse.Namespace(task=argv[0]))
    if extra:
        parser.error("unrecognized arguments: " + " ".join(extra))
    return args


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    # refused before argparse, which reads the value "--" differently by version
    if any(re.fullmatch(r"--[^=]+=--", token) for token in argv):
        build_parser().error("an option value cannot be '--'")
    args = _parse_args(argv)
    try:
        report = run_experiment(args)
        text = emit_report(report, args.format)
        if args.out:
            try:
                with open(args.out, "w") as fh:
                    fh.write(text)
            except OSError as err:
                raise InvalidInputError(f"cannot write {args.out}: {err.strerror}")
        else:
            sys.stdout.write(text)
    except SturmSpecError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except MemoryError as err:
        print("error: out of memory" + (f": {err}" if str(err) else ""), file=sys.stderr)
        return NumericError.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
