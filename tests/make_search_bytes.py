"""Pin the standard output of the benchmark's ``cover-search`` commands.

Builds the ``cover-search`` workload of ``perfbench/workloads.py`` at seeds
11-14, runs each of its ``search`` commands through ``ipstar.cli.main`` and
writes the sha256 of each command's standard output, keyed by seed and
label, to ``tests/search_bytes.json``.  ``tests/test_search_bytes.py``
compares the same digests against that file.  Re-pin only on purpose, from
the root of the repository:

    PYTHONPATH=src python tests/make_search_bytes.py
"""

import hashlib
import importlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from ipstar import cli

ROOT = Path(__file__).resolve().parents[1]
PINS = ROOT / "tests" / "search_bytes.json"
SEEDS = (11, 12, 13, 14)


def _workloads():
    """perfbench/workloads.py, imported as the benchmark imports it, with
    its sibling ``checks`` importable by name."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


def search_digests(base: Path) -> dict[str, str]:
    """"<seed>/<label>" -> sha256 of the command's standard output, for
    every command of the workload at every seed, its inputs written under
    base.  A command that exits non-zero is recorded as such."""
    build, out = _workloads().cover_search, {}
    for seed in SEEDS:
        for op in build(seed, base / str(seed)).ops:
            stdout = io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
                rc = cli.main(op.argv)
            digest = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
            out[f"{seed}/{op.label}"] = digest if rc == 0 else f"exit {rc}"
    return dict(sorted(out.items()))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        PINS.write_text(json.dumps(search_digests(Path(tmp)), indent=2) + "\n")
    print(f"wrote {PINS}")
