"""One round of the benchmark's ``recurrence`` workload, judged by the
benchmark's own checks.

``perfbench/workloads.py`` builds the workload's inputs at a fixed seed and
attaches to each command the independent check of ``perfbench/checks.py``
that the benchmark applies.  Each command runs through ``cli.main``
in-process, as the benchmark runs it, and every check must pass, so an
output the benchmark would count as incorrect fails here first."""

import importlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from ipstar import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 11


def _workloads():
    """perfbench/workloads.py, imported as the benchmark imports it, with
    its sibling ``checks`` importable by name."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_one_recurrence_round_passes_the_benchmark_checks(tmp_path):
    workload = _workloads().recurrence(SEED, tmp_path)
    assert {op.kind for op in workload.ops} == {"recurrence", "classify", "probe", "density"}
    problems = {}
    for op in workload.ops:
        argv = op.argv() if callable(op.argv) else op.argv
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
        problem = op.check(rc, out.getvalue())
        if problem is not None:
            problems[op.label] = (problem, err.getvalue())
    assert not problems
