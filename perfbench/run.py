"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload coloring --seed 1 --seconds 20 --trace 0

Drives ``ipstar.cli.main`` in-process from the ``src`` tree of the checkout
this file sits in.  A run sets up (a fresh interpreter imports the program,
then the seeded inputs are generated) several times and reports the median,
runs one untimed warm-up round, then repeats whole rounds of the workload's
commands until ``--seconds`` have passed.  Every command's output is checked
by ``checks.py``; a command whose check fails counts as failed.

Times are calibrated.  The CPU this runs on switches between a fast and a
slow state several times a second and drifts over minutes, by up to a third,
whatever the program does.  So the run pins itself to one CPU and a sampler
thread times a fixed standard-library kernel every 50 ms on that CPU; each
measured interval is scaled by ``KERNEL_REF_S`` over the mean kernel time
sampled during it.  The result reads as seconds at a fixed CPU speed, close
to this 2-core box's typical speed.  Raw seconds are printed alongside.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics of the traced
ones (raw seconds), with the tracing overhead as traced minus untraced round
time; spans are written to ``.bench_out/<workload>/trace-seed<N>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import workloads
from tracing import LAYER_METRICS, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7
SAMPLE_EVERY_S = 0.05
KERNEL_REF_S = 0.00125  # the kernel's time at the reference CPU speed
NEAR_S = 0.25  # an interval shorter than this is calibrated by samples this close


def _kernel() -> None:
    s = Fraction(0)
    for i in range(1, 300):
        s += Fraction(1, i)


class Calibrator:
    """Samples the CPU's current speed with a fixed kernel, from a thread."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, kernel seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.is_set():
            t = time.perf_counter()
            _kernel()
            self.samples.append((t, time.perf_counter() - t))
            self._stop.wait(SAMPLE_EVERY_S)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def scale(self, t0: float, t1: float) -> float:
        """t1 - t0 in reference-speed seconds."""
        pad = max(0.0, NEAR_S - (t1 - t0)) / 2
        ks = [k for t, k in self.samples if t0 - pad <= t <= t1 + pad]
        if not ks:  # the sampler has not run yet: take the latest samples
            ks = [k for _t, k in self.samples[-5:]] or [KERNEL_REF_S]
        return (t1 - t0) * KERNEL_REF_S / statistics.fmean(ks)


def _import_program():
    """ipstar.cli from this checkout's src, or None when it is not there."""
    if not (SRC / "ipstar" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import ipstar.cli

    if Path(ipstar.cli.__file__).resolve().parent.parent != SRC:
        return None
    return ipstar.cli


def _setup_once(build, seed: int, base: Path, cal: Calibrator):
    """(raw, calibrated) seconds of one set-up, and the workload it built."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import ipstar.cli"],
        check=True, cwd=ROOT,
    )
    workload = build(seed, base)
    t1 = time.perf_counter()
    return t1 - t0, cal.scale(t0, t1), workload


def _run_op(main, op, cal):
    """(ran, raw seconds, calibrated seconds, problem) for one command."""
    argv = op.argv() if callable(op.argv) else op.argv
    if argv is None:
        return False, 0.0, 0.0, None
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    problem = None
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed operation, not a dead run
            rc, problem = 1, f"raised {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
    if problem is None:
        try:
            problem = op.check(rc, out.getvalue())
        except Exception as exc:  # unreadable output fails the check
            problem = f"check raised {type(exc).__name__}: {exc}"
    if problem:
        print(f"FAILED {op.label}: {problem}; stderr: {err.getvalue().strip()[:300]}", file=sys.stderr)
    return True, t1 - t0, cal.scale(t0, t1), problem


def _run_round(main, workload, cal):
    """({label: raw s}, {label: calibrated s}) for the commands that ran, and
    the number that failed."""
    workloads.clear(workload.out)
    raw, scaled, failed = {}, {}, 0
    for op in workload.ops:
        ran, dt, dt_cal, problem = _run_op(main, op, cal)
        if ran:
            raw[op.label], scaled[op.label] = dt, dt_cal
        failed += bool(problem)
    return raw, scaled, failed


def _median_sum(rounds, labels) -> float:
    """Sum over commands of each command's median time across rounds."""
    ran = [l for l in labels if any(l in r for r in rounds)]
    return sum(statistics.median(r[l] for r in rounds if l in r) for l in ran)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = _import_program()
    if cli is None:
        print(f"error: no ipstar sources under {SRC}", file=sys.stderr)
        return 2
    # one CPU for the program, its threads and the sampler, so the sampled
    # speed is the speed the program ran at
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with Calibrator() as cal:
        return _measure(cli, args, cal)


def _measure(cli, args, cal) -> int:
    base = OUT / args.workload
    build = workloads.BUILDERS[args.workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        raw, scaled, workload = _setup_once(build, args.seed, base, cal)
        setups.append((raw, scaled))

    _run_round(cli.main, workload, cal)  # warm-up: neither timed nor counted
    tracer = Tracer() if args.trace else None
    plain, plain_raw, traced = [], [], []
    attempted = failed = 0
    t_start = time.perf_counter()
    while True:
        raw, scaled, bad = _run_round(cli.main, workload, cal)
        plain.append(scaled)
        plain_raw.append(raw)
        attempted, failed = attempted + len(workload.ops), failed + bad
        if tracer is not None:
            tracer.install()
            try:
                _raw, scaled, bad = _run_round(cli.main, workload, cal)
            finally:
                tracer.uninstall()
            traced.append(scaled)
            attempted, failed = attempted + len(workload.ops), failed + bad
        if time.perf_counter() - t_start >= args.seconds:
            break

    labels = [op.label for op in workload.ops]
    kinds = {op.label: op.kind for op in workload.ops}
    wall = _median_sum(plain, labels)
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(s for _r, s in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    # printed only, not gated (see README)
    extra = {
        "wall_raw_s": (_median_sum(plain_raw, labels), "s"),
        "setup_raw_s": (statistics.median(r for r, _s in setups), "s"),
    }
    focus = {"coloring": ("check_s", "check"), "recurrence": ("classify_s", "classify")}
    if args.workload in focus:
        name, kind = focus[args.workload]
        extra[name] = (_median_sum(plain, [l for l in labels if kinds[l] == kind]), "s")
    else:
        searches = [r[l] for r in plain for l in labels if kinds[l] == "search" and l in r]
        extra["search_s.p50"] = (statistics.median(searches), "s")

    if tracer is not None:
        overhead = _median_sum(traced, labels) - wall
        layers = layer_metrics(tracer, len(traced), overhead)
        report = {n: (layers[n], unit) for n, unit in LAYER_METRICS}
        tracer.write(base / f"trace-seed{args.seed}.json")
    else:
        report = metrics

    print(f"workload {args.workload} seed {args.seed}: {len(plain)} timed rounds"
          + (f" + {len(traced)} traced" if traced else "")
          + f" of {len(labels)} commands, {attempted} attempted, {failed} failed")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<14} {value:12.6f} {unit}")
    if tracer is not None:
        for name, (value, unit) in report.items():
            print(f"  {name:<36} {value:16.6f} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in report.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
