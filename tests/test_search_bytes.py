"""Same bytes: every command of the benchmark's three workloads against its
pinned digest, and searches at the lane widths and sizes the
``cover-search`` workload does not reach.

The digests in ``tests/search_bytes.json`` are written by
``tests/make_search_bytes.py``; each covers a command's exit code, standard
output, standard error and written files.  The pinned ``search`` texts below
are the standard output of the code that read the cover table in word order
(a gather over a per-(d, r) tuple of subset-tuple numbers)."""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from ipstar import cli
from make_search_bytes import PINS, digests

SRC = Path(__file__).resolve().parents[1] / "src"
PERM_211 = (
    "backend finite-perm\np 211\npoints " + " ".join(map(str, range(211)))
    + "\ngen (" + " ".join(map(str, range(211))) + ")\nset X " + " ".join(map(str, range(0, 211, 3))) + "\n"
)
GENS_10 = "gens=1,2,3,4,5,6,7,8,9,10"


def test_every_benchmark_command_leaves_the_pinned_bytes(tmp_path):
    pinned = json.loads(PINS.read_text())
    got = digests(tmp_path)
    assert {label.split("/")[0] for label in got} == {"coloring", "recurrence", "cover-search"}
    assert got.keys() == pinned.keys()
    moved = [label for label in got if got[label] != pinned[label]]
    assert not moved, "bytes moved: " + ", ".join(moved)


def _search(tmp_path, system: str, *args) -> tuple[int, str]:
    sysf = tmp_path / "system.txt"
    sysf.write_text(system)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(["search", f"system={sysf}", *args])
    return rc, out.getvalue()


def _lines(*lines) -> str:
    return "".join(line + "\n" for line in lines)


FOUND_101 = (
    "gamma: {1,4,5,7}", "u_gamma: 202", "exponents: 40804", "distance_sq: 0",
    "config: alpha=[{},{}] gamma={1,4,5,7}", "sufficient length: 101",
)

# name -> (system, search arguments, standard output); cover sizes of 2,000
# and 200,000 cells put the table in 2- and 4-byte lanes, and 2 * 10^10
# cells in a list that the scan renumbers
WIDE_CASES = {
    "rot101-2000-cells": (
        "backend rotation\nrho 1/101\n",
        ["x=0", "m=u^2", "epsilon=1/1000", "gens=20,30,82,20,67,50,95"],
        _lines("status: found", "words scanned: 16384", "proof bound: hj(4, 2000)", "cells: 2000", *FOUND_101),
    ),
    "rot1009-2000-cells-absent": (
        "backend rotation\nrho 1/1009\n",
        ["x=0", "m=u^2", "epsilon=1/1000", "gens=456,988,959,138,900,375,100"],
        _lines("status: absent", "words scanned: 16384", "proof bound: hj(4, 2000)", "cells: 2000"),
    ),
    "rot101-200000-cells": (
        "backend rotation\nrho 1/101\n",
        ["x=0", "m=u^2", "epsilon=1/100000", "gens=20,30,82,20,67,50,95"],
        _lines("status: found", "words scanned: 16384", "proof bound: hj(4, 200000)", "cells: 200000",
               *FOUND_101),
    ),
    "rot1009-200000-cells-absent": (
        "backend rotation\nrho 1/1009\n",
        ["x=1/3", "m=u^2", "epsilon=1/100000", "gens=456,988,959,138,900,375,100"],
        _lines("status: absent", "words scanned: 16384", "proof bound: hj(4, 200000)", "cells: 200000"),
    ),
    "rot101-2e10-cells": (
        "backend rotation\nrho 1/101\n",
        ["x=1/3", "m=u^2", "epsilon=1/10000000000", "gens=20,30,82,20,67,50"],
        _lines("status: found", "words scanned: 4096", "proof bound: hj(4, 20000000000)",
               "cells: 20000000000", "gamma: {1,2,3,4,6}", "u_gamma: 202", "exponents: 40804",
               "distance_sq: 0", "config: alpha=[{},{}] gamma={1,2,3,4,6}", "sufficient length: 101"),
    ),
}


@pytest.mark.parametrize("name", sorted(WIDE_CASES))
def test_a_search_over_wide_lanes_prints_the_pinned_lines(tmp_path, name):
    system, args, want = WIDE_CASES[name]
    assert _search(tmp_path, system, *args) == (0, want)


def test_the_absent_f211_search_prints_the_pinned_lines(tmp_path):
    # 2^20 words, 211 cells, no line: every moving set is scanned, most of
    # them base by base
    rc, out = _search(tmp_path, PERM_211, "x=X", "m=u^2", "epsilon=1/20", GENS_10)
    assert (rc, out) == (0, _lines("status: absent", "words scanned: 1048576", "proof bound: hj(4, 211)",
                                   "cells: 211"))


def test_the_largest_rotation_search_stays_under_60_mb(tmp_path):
    # the cap's 2^20 words.  A child's ru_maxrss also counts the memory of
    # the process it was started from (Linux records it at exec), so a small
    # launcher starts the search and reports its child's peak
    sysf = tmp_path / "rot1009.txt"
    sysf.write_text("backend rotation\nrho 1/1009\n")
    launch = ("import resource, subprocess, sys\nrun = subprocess.run(sys.argv[1:])\n"
              "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)\n"
              "sys.exit(run.returncode)")
    args = ["search", f"system={sysf}", "x=1/3", "m=u^2", "epsilon=1/20", GENS_10]
    run = subprocess.run([sys.executable, "-c", launch, sys.executable, "-m", "ipstar.cli", *args],
                         capture_output=True, text=True, env={"PYTHONPATH": str(SRC)})
    assert (run.returncode, run.stdout) == (0, _lines(
        "status: found", "words scanned: 1048576", "proof bound: hj(4, 40)", "cells: 40", "gamma: {1}",
        "u_gamma: 1", "exponents: 1", "distance_sq: 1/1018081", "config: alpha=[{},{}] gamma={1}",
        "sufficient length: 1009",
    ))
    peak_kb = int(run.stderr.split()[-1])  # ru_maxrss is in KiB on Linux
    assert peak_kb < 60 * 1024
