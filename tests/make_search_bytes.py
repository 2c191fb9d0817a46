"""Pin the bytes every benchmark command leaves.

Builds each workload of ``perfbench/workloads.py`` (``coloring``,
``recurrence`` and ``cover-search``) at seeds 11-14, runs one round of its
commands through ``ipstar.cli.main`` in the round's order, as the benchmark
runs them, and writes one sha256 per command, keyed by workload, seed and
label, to ``tests/search_bytes.json``.  A command's digest covers its exit
code, its standard output and standard error, and the name and bytes of
every file it wrote or removed.  The directory the inputs and outputs sit
in is masked, and so are the ``generated`` timestamp lines of reports.
``tests/test_search_bytes.py`` compares the same digests against that
file.  Re-pin only on purpose, from the root of the repository:

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
STAMPS = (b'"generated"', b"# generated:")  # the lines that carry a run's time


def _workloads():
    """perfbench/workloads.py, imported as the benchmark imports it, with
    its sibling ``checks`` importable by name."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


def _tree(root: Path) -> dict[str, tuple]:
    """relative name -> (inode, bytes) of every file under root.  The
    program writes a file through a new one that replaces it, so a rewrite
    with the same bytes still shows as a new inode."""
    return {
        p.relative_to(root).as_posix(): (p.stat().st_ino, p.read_bytes())
        for p in root.rglob("*")
        if p.is_file()
    }


def _masked(data: bytes, root: bytes) -> bytes:
    lines = data.replace(root, b"<root>").splitlines(keepends=True)
    return b"".join(b"<generated>\n" if ln.lstrip().startswith(STAMPS) else ln for ln in lines)


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # as the benchmark counts it
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue(), err.getvalue()


def digests(base: Path) -> dict[str, str]:
    """"<workload>/<seed>/<label>" -> sha256 of what the command left, for
    every command of every workload at every seed, its inputs and outputs
    written under base."""
    workloads, root, out = _workloads(), str(base).encode(), {}
    for name, build in sorted(workloads.BUILDERS.items()):
        for seed in SEEDS:
            work = base / name / str(seed)
            workload = build(seed, work)
            workloads.clear(workload.out)
            before = _tree(work)
            for op in workload.ops:
                argv = op.argv() if callable(op.argv) else op.argv
                h = hashlib.sha256()
                if argv is None:
                    h.update(b"not run\n")
                else:
                    rc, stdout, stderr = _run(argv)
                    h.update(b"exit %d\n" % rc)
                    for text in (stdout, stderr):
                        body = _masked(text.encode(), root)
                        h.update(b"%d\n" % len(body) + body)
                    after = _tree(work)
                    for path in sorted(before.keys() | after.keys()):
                        if path not in after:
                            h.update(b"removed " + path.encode() + b"\n")
                        elif before.get(path) != after[path]:
                            body = _masked(after[path][1], root)
                            h.update(b"wrote " + path.encode() + b" %d\n" % len(body) + body)
                    before = after
                out[f"{name}/{seed}/{op.label}"] = h.hexdigest()
    return dict(sorted(out.items()))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        PINS.write_text(json.dumps(digests(Path(tmp)), indent=2) + "\n")
    print(f"wrote {PINS}")
