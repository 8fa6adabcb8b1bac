#!/usr/bin/env python3
"""Benchmark of the sturmspec CLI: end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py [--workload spectra|orbits|certificates|all]
                         [--seed N] [--seconds S] [--trace 0|1]

``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json, the one place
the run length is set.  Each workload is a list of README-style CLI commands (see workloads.py),
called in-process through ``sturmspec.cli.main(argv)`` at the default
``--jobs 1``, one pass after another in a child process, until a further
pass would overrun ``--seconds``.  Every output is checked.

``wall_ref_s`` is the wall time of one pass over the workload's ops at a
fixed reference speed of the machine: per pass, the pass's wall time divided
by the mean time of a fixed reference kernel (reference.py) timed before the
first op and after each op, times the fixed ``REFERENCE_S``; the median over
the run's passes.  On a shared host the machine's speed drifts by a quarter
or more for minutes at a time, and whole passes drift with it; the kernel
drifts with them, so the quotient is much steadier, while a change to the
program still moves it in full.  The plain median pass time
(``wall_s``), its tail percentile and the kernel's time are printed beside
it.  ``setup_s`` is the median wall time of 8 fresh interpreters importing
the CLI and building its parser, 4 before and 4 after the workload.

``--trace 0`` prints the end-to-end metrics.  The per-layer metrics declared
in BENCHMARK.json come from a separate traced run of the same command with
``--trace 1``, which alternates untraced and traced passes (tracer.py).
Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.

An op that exits 3 (the documented refusal for a numeric or resolution
failure) is counted in ``ok_frac``/``failed_frac`` and the spectra frontier;
``failed`` counts ops whose result is wrong: a failed output check, any other
non-zero exit, or an exception out of ``main``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from reference import REFERENCE_S, time_reference
from tracer import LAYERS, Tracer, install, uninstall
from workloads import SPECTRA_LADDER, WORKLOADS, check_output, make_ops

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 4  # before and again after the workload child
RUN_LIMIT_S = 170  # a workload run must end within 180 s
SETUP_CODE = "import sturmspec.cli as cli; cli.build_parser()"

E2E_UNITS = {
    "wall_ref_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

LEVEL_TAGS = [op.tag for op in make_ops("spectra", 0)]

LAYER_UNITS = {
    "cli.self_s": "s",
    "words.self_s": "s",
    "words.symbols_out": "count",
    "sturmian.self_s": "s",
    "sturmian.symbols_built": "count",
    "circlemap.self_s": "s",
    "circlemap.calls": "count",
    "circlemap.orbit_bits": "count",
    "circlemap.bits_per_s": "1/s",
    "circlemap.skipped_frac": "ratio",
    "potentials.self_s": "s",
    "potentials.sites": "count",
    "transfer.self_s": "s",
    "transfer.calls": "count",
    "transfer.site_energy_steps": "count",
    "transfer.steps_per_s": "1/s",
    "spectrum.self_s": "s",
    "spectrum.calls": "count",
    "spectrum.bands": "count",
    "spectrum.bands_per_s": "1/s",
    "spectrum.failures": "count",
    **{f"spectrum.level_s.{tag}": "s" for tag in LEVEL_TAGS},
    "stability.self_s": "s",
    "stability.seed_checks": "count",
    "stability.verdict_frac": "ratio",
    "trace_overhead_s": "s",
}


def _ratio(num, den):
    return num / den if den else 0.0


def _layer_modules():
    return {layer: importlib.import_module(f"sturmspec.{layer}") for layer in LAYERS}


def run_op(main, op, tracer=None):
    """Run one op; returns (seconds, outcome, reason, work) with outcome
    "ok", "refused" (exit 3) or "wrong"."""
    out, err = io.StringIO(), io.StringIO()
    code, crash = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            argv = list(op.argv)
            code = tracer.call("cli", "main", main, None, (argv,), {}) if tracer else main(argv)
        except SystemExit as exc:  # argparse rejects an argv by exiting
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # noqa: BLE001 -- a crash is a wrong op, not a dead run
            crash = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    if crash is not None:
        return seconds, "wrong", f"exception {crash}", 0
    if code != 0:
        reason = f"exit {code}: {err.getvalue().strip()[:200]}"
        return seconds, "refused" if code == 3 else "wrong", reason, 0
    reason, work = check_output(op, out.getvalue())
    return seconds, ("wrong" if reason else "ok"), reason, work


def run_pass(main, ops, tracer=None):
    """One pass over ``ops``: per op, run_op's result plus the op's inclusive
    spectrum time when traced; and the reference kernel's time before the
    first op and after each op."""
    results, reference = [], [time_reference()]
    for op in ops:
        results.append((*run_op(main, op, tracer), tracer.end_op() if tracer else 0.0))
        reference.append(time_reference())
    return results, reference


def child(workload, seed, seconds, trace):
    """Run passes of a workload in this process; print raw results as JSON."""
    import numpy
    from sturmspec import cli

    ops = make_ops(workload, seed)
    modules = _layer_modules()
    modes = [False, True] if trace else [False]
    passes, outcomes, problems = [], Counter(), {}
    always_ok = [True] * len(ops)
    level_s = defaultdict(float)
    tracer = Tracer()
    start = time.perf_counter()
    while True:
        traced = modes[len(passes) % len(modes)]
        patches = install(tracer, modules) if traced else []
        try:
            results, reference = run_pass(cli.main, ops, tracer if traced else None)
        finally:
            uninstall(patches)
        for i, (op, (_, outcome, reason, _, spectrum_s)) in enumerate(zip(ops, results)):
            outcomes[outcome] += 1
            always_ok[i] &= outcome == "ok"
            if reason:
                problems.setdefault(op.label, f"{outcome}: {reason}")
            if traced and op.tag:
                level_s[op.tag] += spectrum_s
        passes.append({
            "traced": traced,
            "wall": sum(r[0] for r in results),
            "reference_s": reference,
            "work": sum(r[3] for r in results),
        })
        if len(passes) == 1:  # so the peak does not depend on how many passes fit
            maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        elapsed = time.perf_counter() - start
        if len(passes) >= len(modes) and elapsed + max(p["wall"] for p in passes) > seconds:
            break
    print(json.dumps({
        "passes": passes,
        "outcomes": outcomes,
        "problems": problems,
        "ok_tags": [op.tag for op, ok in zip(ops, always_ok) if ok and op.tag],
        "layer_totals": tracer.totals,
        "level_s": level_s,
        "maxrss_kb": maxrss_kb,
        "numpy": numpy.__version__,
    }))


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(deadline):
    """Wall times of a fresh interpreter importing the CLI and building its
    parser, after one untimed run that fills the bytecode caches."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=_env(), check=True,
                       timeout=max(1.0, deadline - time.monotonic()))
        if i:
            times.append(time.perf_counter() - start)
    return times


def tail_percentile(samples):
    """(label, value) of the highest percentile with at least ten samples
    beyond it, or None when there are too few samples."""
    n = len(samples)
    if n < 11:
        return None
    return f"p{100 * (n - 10) // n}", sorted(samples)[n - 11]


def frontier(ok_tags, lam):
    """Deepest n such that every spectra level <= n succeeded at this lambda."""
    deepest = 0
    while f"lam{lam}.n{deepest + 1}" in ok_tags:
        deepest += 1
    return deepest


def wall_ref(passes):
    """Median over ``passes`` of the pass's wall time in seconds at the
    reference speed (see the module docstring)."""
    return REFERENCE_S * statistics.median(
        p["wall"] / statistics.fmean(p["reference_s"]) for p in passes
    )


def end_to_end(workload, raw, setup_s):
    """(metrics declared in BENCHMARK.json, extra printed metrics) of an
    untraced run."""
    walls = [p["wall"] for p in raw["passes"]]
    wall = statistics.median(walls)
    out = raw["outcomes"]
    attempted = sum(out.values())
    metrics = {
        "wall_ref_s": wall_ref(raw["passes"]),
        "setup_s": setup_s,
        "peak_rss_mb": raw["maxrss_kb"] / 1024.0,
        "ok_frac": out.get("ok", 0) / attempted,
    }
    extra = {
        ("wall_s", "s"): wall,
        ("wall_s.samples", "count"): len(walls),
        ("reference_ms", "ms"): 1e3 * statistics.median(
            t for p in raw["passes"] for t in p["reference_s"]
        ),
        ("failed_frac", "ratio"): 1.0 - metrics["ok_frac"],
    }
    tail = tail_percentile(walls)
    if tail:
        extra[(f"wall_s.{tail[0]}", "s")] = tail[1]
    work = statistics.median(p["work"] for p in raw["passes"])
    if workload == "spectra":
        extra[("bands_per_s", "1/s")] = work / wall
        for lam, _ in SPECTRA_LADDER:
            extra[(f"frontier_lambda{lam}", "level")] = frontier(raw["ok_tags"], lam)
    elif workload == "orbits":
        extra[("site_energy_steps_per_s", "1/s")] = work / wall
    return metrics, extra


def per_layer(raw):
    """(declared metrics, extra metrics, sanity flag) of a traced run, per
    traced pass."""
    traced = [p["wall"] for p in raw["passes"] if p["traced"]]
    plain = [p["wall"] for p in raw["passes"] if not p["traced"]]
    n = len(traced)
    t = defaultdict(float, {k: v / n for k, v in raw["layer_totals"].items()})
    metrics = {
        "cli.self_s": t["cli.self_s"],
        "words.self_s": t["words.self_s"],
        "words.symbols_out": t["words.symbols"],
        "sturmian.self_s": t["sturmian.self_s"],
        "sturmian.symbols_built": t["sturmian.symbols"],
        "circlemap.self_s": t["circlemap.self_s"],
        "circlemap.calls": t["circlemap.calls"],
        "circlemap.orbit_bits": t["circlemap.work"],
        "circlemap.bits_per_s": _ratio(t["circlemap.work"], t["circlemap.self_s"]),
        "circlemap.skipped_frac": _ratio(t["circlemap.skipped"], t["circlemap.grid"]),
        "potentials.self_s": t["potentials.self_s"],
        "potentials.sites": t["potentials.sites"],
        "transfer.self_s": t["transfer.self_s"],
        "transfer.calls": t["transfer.calls"],
        "transfer.site_energy_steps": t["transfer.work"],
        "transfer.steps_per_s": _ratio(t["transfer.work"], t["transfer.self_s"]),
        "spectrum.self_s": t["spectrum.self_s"],
        "spectrum.calls": t["spectrum.calls"],
        "spectrum.bands": t["spectrum.bands"],
        "spectrum.bands_per_s": _ratio(t["spectrum.bands"], t["spectrum.self_s"]),
        "spectrum.failures": t["spectrum.failures"],
        **{f"spectrum.level_s.{tag}": raw["level_s"].get(tag, 0.0) / n for tag in LEVEL_TAGS},
        "stability.self_s": t["stability.self_s"],
        "stability.seed_checks": t["stability.work"],
        "stability.verdict_frac": _ratio(t["stability.verdicts"], t["stability.certificates"]),
        # The tracer's own time, measured around each wrapped call.  The wall
        # difference of traced and untraced passes is printed too, but on a
        # shared machine its noise is larger than the overhead.
        "trace_overhead_s": t["tracer.bookkeeping_s"],
    }
    self_sum = sum(t[f"{layer}.self_s"] for layer in LAYERS)
    traced_wall = statistics.fmean(traced)
    extra = {
        ("traced_wall_s", "s"): traced_wall,
        ("self_s_sum", "s"): self_sum,
        ("traced_minus_untraced_s", "s"): statistics.median(
            t_wall - u_wall for u_wall, t_wall in zip(plain, traced)
        ),
        ("traced_passes", "count"): n,
    }
    sane = self_sum <= traced_wall + 1e-9 and all(
        t[f"{layer}.self_s"] >= 0.0 for layer in LAYERS
    )
    return metrics, extra, sane


def _git_commit():
    """HEAD commit read from .git, without running git; "unknown" outside a
    git checkout."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_workload(workload, seed, seconds, trace, deadline):
    """Run one workload in a child process; returns (result, report)."""
    setup = [] if trace else measure_setup(deadline)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, env=_env(), stdout=subprocess.PIPE, check=True,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    out = raw["outcomes"]
    if trace:
        metrics, extra, sane = per_layer(raw)
        units = LAYER_UNITS
    else:
        # Repeats on both sides of the workload span the whole run rather
        # than one moment of the machine's speed.
        setup_s = statistics.median(setup + measure_setup(deadline))
        metrics, extra = end_to_end(workload, raw, setup_s)
        sane, units = True, E2E_UNITS
    result = {
        "correct": sane and out.get("wrong", 0) == 0,
        "attempted": sum(out.values()),
        "failed": out.get("wrong", 0),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    report = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": raw["numpy"],
        "passes": raw["passes"],
        "outcomes": out,
        "problems": raw["problems"],
        "extra": {name: {"value": v, "unit": u} for (name, u), v in extra.items()},
    }
    return result, report


def print_run(result, report):
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"passes {len(report['passes'])}  commit {report['commit'][:12]}  nproc {report['nproc']}  "
          f"cpu {report['cpu']!r}  python {report['python']}  numpy {report['numpy']}")
    for name, m in [*result["metrics"].items(), *report["extra"].items()]:
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}")
    for label, reason in report["problems"].items():
        print(f"  not ok: {label}\n          {reason}")
    print("report " + json.dumps(report))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "sturmspec" / "cli.py").is_file():
        print(f"error: no sturmspec sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(json.loads(BENCHMARK.read_text())["run_seconds"])
    if args.child:
        child(args.workload, args.seed, args.seconds, args.trace)
        return 0
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        try:
            result, report = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        except (subprocess.SubprocessError, OSError, ValueError, IndexError) as err:
            print(f"error: workload {name}: {type(err).__name__}: {err}", file=sys.stderr)
            return 1
        print_run(result, report)
        results[name] = result
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
