"""Golden outputs of `classify` runs.

Each instance is a system file and a list of command lines run in order
through ``ipstar.cli.main`` in a fresh directory, with ``system=sys.txt``
and ``output=out``; ``{ckpt}`` stands for the checkpoint the previous step
wrote.  After each step the exit code, standard output and the sha256 of
every file under ``out`` are compared with the values pinned below; the
``generated`` line of ``classify.json`` is dropped before hashing.

The pins were captured from the code that scanned each level from the
root, and the one search that decides every level keeps the unbudgeted
ones, except that a windowed "fails" is exact: ``bern-deg3`` prints its r=1
line without "(window-limited)", and its ``classify.json`` says
``"window_limited": false`` there.  A budget now counts the nodes of the
one search, and a run that exceeds it stops at the first level the search
has not reached, so these pins differ: steps 1 and 2 of ``f7-split`` and
``f61-split`` and step 1 of ``f13-split`` (the "budget exceeded" line and
the checkpoint, and in ``f7-split`` the levels listed and the report).
The checkpoint names and hashes, and the config lines of the per-level
checkpoints below, changed again when the config hash began to cover the
system file's contents, and once more when classify's config lost its
``density_N`` key.  The ``bern-deg3`` report changed when its exceptional
density stopped at the canonical windows inside ``deg 3`` (n <= 3).
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from ipstar import cli


def _perm_system(p: int, B) -> str:
    pts, b = " ".join(map(str, range(p))), " ".join(map(str, B))
    return f"backend finite-perm\np {p}\npoints {pts}\ngen ({pts})\nset B {b}\n"


F7 = _perm_system(7, range(2))
F13 = _perm_system(13, range(4))
F61 = _perm_system(61, range(20))
BERN = "backend bernoulli\np 2\nprobs 1/2 1/2\nset B []:0 [0,1]:1\n"

SQUARE = ["phi=u^2", "epsilon=1/100", "window=full"]


def _classify(r_max, *extra):
    return ["classify", *SQUARE, f"r_max={r_max}", *extra]


def _resume(r_max, *extra):
    return ["classify", "--resume", "{ckpt}", *_classify(r_max, *extra)[1:]]


INSTANCES = {
    "f7": (F7, [_classify(4)]),
    "f13": (F13, [_classify(4)]),
    "f61": (F61, [_classify(8)]),
    # a windowed verdict: R misses t in the degree window, so r = 1 fails
    "bern-deg3": (BERN, [["classify", "phi=u", "epsilon=1/100", "window=deg 3", "r_max=3"]]),
    # budget splits, resumed with a budget and then without one
    "f7-split": (F7, [_classify(4, "budget=2"), _resume(4, "budget=5"), _resume(4)]),
    "f13-split": (F13, [_classify(4, "budget=50"), _resume(4)]),
    "f61-split": (
        F61,
        [_classify(8, "budget=2000"), _resume(8, "budget=2000"), _resume(8)],
    ),
}


def _digest(path: Path) -> str:
    lines = path.read_bytes().splitlines(keepends=True)
    kept = b"".join(ln for ln in lines if not ln.lstrip().startswith(b'"generated"'))
    return hashlib.sha256(kept).hexdigest()


def _main(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def play(system: str, steps):
    """Run the steps in the current directory; returns one record per step:
    (exit code, stdout, {file: sha256})."""
    Path("sys.txt").write_text(system)
    out = Path("out")
    records = []
    for argv in steps:
        ckpts = sorted(str(p) for p in out.glob("checkpoint-*.txt"))
        argv = [a.replace("{ckpt}", ckpts[0] if ckpts else "") for a in argv]
        rc, stdout = _main([*argv, "system=sys.txt", "output=out"])
        files = {p.name: _digest(p) for p in sorted(out.iterdir())} if out.exists() else {}
        records.append((rc, stdout, files))
    return records


# name -> [(exit code, stdout, {file: sha256}) per step]
GOLDEN = {
 'bern-deg3': [(0,
                'system: bernoulli p=2 probs=1/2,1/2\n'
                'phi: u\n'
                'mu(B) = 1/4\n'
                'threshold = 21/400\n'
                'R: 7 of 8 window elements\n'
                'r=1: fails witness=[0,1]\n'
                'r=2: holds (window-limited)\n'
                'r=3: holds (window-limited)\n'
                'wrote out/classify.json\n',
                {'classify.json': '78fe406265c9a747f2ff83d54be0499aaa9ab0d86002a8ed80801f8c89d8aef4'})],
 'f13': [(0,
          'system: finite-perm p=13 points=13 gens=1\n'
          'phi: u^2\n'
          'mu(B) = 4/13\n'
          'threshold = 1431/16900\n'
          'R: 5 of 13 window elements\n'
          'r=1: fails witness=2\n'
          'r=2: fails witness=2,2\n'
          'r=3: fails witness=2,2,2\n'
          'r=4: holds\n'
          'wrote out/classify.json\n',
          {'classify.json': '065f8c7ff87239c8addc4bddb397c3a1f43ebcd8f91b8f9cc5c91a9a3b1fa0ec'})],
 'f13-split': [(2,
                'system: finite-perm p=13 points=13 gens=1\n'
                'phi: u^2\n'
                'mu(B) = 4/13\n'
                'threshold = 1431/16900\n'
                'R: 5 of 13 window elements\n'
                'r=1: fails witness=2\n'
                'r=2: fails witness=2,2\n'
                'r=3: fails witness=2,2,2\n'
                'r=4: budget exceeded after 50 candidates\n'
                'wrote out/classify.json\n'
                'checkpoint -> out/checkpoint-487fe1013390.txt\n',
                {'checkpoint-487fe1013390.txt': '802e802451cf7d73908609cf1d7119c407d1bc3f966cde530359ca4f4d1a2bc6',
                 'classify.json': 'f1520e62c39d6ddfc085387b5504362f0c86d0cb355184db150daa751c1177cc'}),
               (0,
                'resumed at r=4\n'
                'system: finite-perm p=13 points=13 gens=1\n'
                'phi: u^2\n'
                'mu(B) = 4/13\n'
                'threshold = 1431/16900\n'
                'R: 5 of 13 window elements\n'
                'r=1: fails witness=2\n'
                'r=2: fails witness=2,2\n'
                'r=3: fails witness=2,2,2\n'
                'r=4: holds\n'
                'wrote out/classify.json\n',
                {'classify.json': '065f8c7ff87239c8addc4bddb397c3a1f43ebcd8f91b8f9cc5c91a9a3b1fa0ec'})],
 'f61': [(0,
          'system: finite-perm p=61 points=61 gens=1\n'
          'phi: u^2\n'
          'mu(B) = 20/61\n'
          'threshold = 36279/372100\n'
          'R: 33 of 61 window elements\n'
          'r=1: fails witness=4\n'
          'r=2: fails witness=4,5\n'
          'r=3: fails witness=5,5,5\n'
          'r=4: fails witness=5,5,5,5\n'
          'r=5: fails witness=5,5,5,5,5\n'
          'r=6: fails witness=5,5,5,5,5,5\n'
          'r=7: holds\n'
          'r=8: holds\n'
          'wrote out/classify.json\n',
          {'classify.json': '0291a0dc9f8ca7bc77bacc9f86f93ba498c1bb98816384b8f64c0878b1e579b6'})],
 'f61-split': [(2,
                'system: finite-perm p=61 points=61 gens=1\n'
                'phi: u^2\n'
                'mu(B) = 20/61\n'
                'threshold = 36279/372100\n'
                'R: 33 of 61 window elements\n'
                'r=1: fails witness=4\n'
                'r=2: fails witness=4,5\n'
                'r=3: fails witness=5,5,5\n'
                'r=4: fails witness=5,5,5,5\n'
                'r=5: fails witness=5,5,5,5,5\n'
                'r=6: fails witness=5,5,5,5,5,5\n'
                'r=7: budget exceeded after 2000 candidates\n'
                'wrote out/classify.json\n'
                'checkpoint -> out/checkpoint-2f52dd6e4bed.txt\n',
                {'checkpoint-2f52dd6e4bed.txt': 'cb526673b0065a1150d27ccdfcf9d0e6025a3c428e2c9506f0ac813903e80747',
                 'classify.json': 'd0ce1885922f0ed244c980bd8e22ea6b11797f953c9c9b30e9720fbbe16f927c'}),
               (2,
                'resumed at r=7\n'
                'system: finite-perm p=61 points=61 gens=1\n'
                'phi: u^2\n'
                'mu(B) = 20/61\n'
                'threshold = 36279/372100\n'
                'R: 33 of 61 window elements\n'
                'r=1: fails witness=4\n'
                'r=2: fails witness=4,5\n'
                'r=3: fails witness=5,5,5\n'
                'r=4: fails witness=5,5,5,5\n'
                'r=5: fails witness=5,5,5,5,5\n'
                'r=6: fails witness=5,5,5,5,5,5\n'
                'r=7: budget exceeded after 2000 candidates\n'
                'wrote out/classify.json\n'
                'checkpoint -> out/checkpoint-2f52dd6e4bed.txt\n',
                {'checkpoint-2f52dd6e4bed.txt': 'e65d4bcc839eed0c7ac830174b62736ef128ff0d2d3f7955dba930a084769f61',
                 'classify.json': 'd0ce1885922f0ed244c980bd8e22ea6b11797f953c9c9b30e9720fbbe16f927c'}),
               (0,
                'resumed at r=7\n'
                'system: finite-perm p=61 points=61 gens=1\n'
                'phi: u^2\n'
                'mu(B) = 20/61\n'
                'threshold = 36279/372100\n'
                'R: 33 of 61 window elements\n'
                'r=1: fails witness=4\n'
                'r=2: fails witness=4,5\n'
                'r=3: fails witness=5,5,5\n'
                'r=4: fails witness=5,5,5,5\n'
                'r=5: fails witness=5,5,5,5,5\n'
                'r=6: fails witness=5,5,5,5,5,5\n'
                'r=7: holds\n'
                'r=8: holds\n'
                'wrote out/classify.json\n',
                {'classify.json': '0291a0dc9f8ca7bc77bacc9f86f93ba498c1bb98816384b8f64c0878b1e579b6'})],
 'f7': [(0,
         'system: finite-perm p=7 points=7 gens=1\n'
         'phi: u^2\n'
         'mu(B) = 2/7\n'
         'threshold = 351/4900\n'
         'R: 3 of 7 window elements\n'
         'r=1: fails witness=2\n'
         'r=2: fails witness=2,2\n'
         'r=3: holds\n'
         'r=4: holds\n'
         'wrote out/classify.json\n',
         {'classify.json': '7501530778e299ba780f583b2790092d9ca156adb612e5445087f3b900ca4d43'})],
 'f7-split': [(2,
               'system: finite-perm p=7 points=7 gens=1\n'
               'phi: u^2\n'
               'mu(B) = 2/7\n'
               'threshold = 351/4900\n'
               'R: 3 of 7 window elements\n'
               'r=1: fails witness=2\n'
               'r=2: fails witness=2,2\n'
               'r=3: budget exceeded after 2 candidates\n'
               'wrote out/classify.json\n'
               'checkpoint -> out/checkpoint-9bcbc4d348f1.txt\n',
               {'checkpoint-9bcbc4d348f1.txt': '7c4675e0940d657d2605ee8a5e2e8b08dbb133b3f26951745d4f7df547df1b80',
                'classify.json': 'd47bf115019a0b9a853dcf58d75da8935f8b5f99d8c911e578f747cc0e73d4a1'}),
              (2,
               'resumed at r=3\n'
               'system: finite-perm p=7 points=7 gens=1\n'
               'phi: u^2\n'
               'mu(B) = 2/7\n'
               'threshold = 351/4900\n'
               'R: 3 of 7 window elements\n'
               'r=1: fails witness=2\n'
               'r=2: fails witness=2,2\n'
               'r=3: budget exceeded after 5 candidates\n'
               'wrote out/classify.json\n'
               'checkpoint -> out/checkpoint-9bcbc4d348f1.txt\n',
               {'checkpoint-9bcbc4d348f1.txt': '9eac177006d74f7beff707a79091abc31f9a762c56c90de471656c867ace1f04',
                'classify.json': 'd47bf115019a0b9a853dcf58d75da8935f8b5f99d8c911e578f747cc0e73d4a1'}),
              (0,
               'resumed at r=3\n'
               'system: finite-perm p=7 points=7 gens=1\n'
               'phi: u^2\n'
               'mu(B) = 2/7\n'
               'threshold = 351/4900\n'
               'R: 3 of 7 window elements\n'
               'r=1: fails witness=2\n'
               'r=2: fails witness=2,2\n'
               'r=3: holds\n'
               'r=4: holds\n'
               'wrote out/classify.json\n',
               {'classify.json': '7501530778e299ba780f583b2790092d9ca156adb612e5445087f3b900ca4d43'})]}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_golden_outputs(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert play(*INSTANCES[name]) == GOLDEN[name]


# checkpoints written by the per-level classify, which kept, for the level r
# its budget ran out on, the path where that level's own scan stopped
PER_LEVEL_CHECKPOINTS = {
    "f7-r2": ("f7", "config 9bcbc4d348f1\ncandidates 1\npath 0,0\nr 2\n"),
    "f7-r3": ("f7", "config 9bcbc4d348f1\ncandidates 2\npath 0,0,0\nr 3\n"),
    "f61-r3": ("f61", "config 2f52dd6e4bed\ncandidates 26\npath 0,1,24\nr 3\n"),
    "f61-r7": ("f61", "config 2f52dd6e4bed\ncandidates 1490\npath 2,2,8,16\nr 7\n"),
}


@pytest.mark.parametrize("name", sorted(PER_LEVEL_CHECKPOINTS))
def test_a_checkpoint_of_the_per_level_scans_resumes(name, tmp_path, monkeypatch):
    # level r's own scan is the one scan up to its first node below depth
    # r, so the one scan reaches the path, replays what came before it and
    # ends with the unbudgeted outputs
    monkeypatch.chdir(tmp_path)
    instance, fields = PER_LEVEL_CHECKPOINTS[name]
    Path("old.txt").write_text("checkpoint classify\n" + fields)
    system, [argv] = INSTANCES[instance]
    [(rc, stdout, files)] = play(system, [[argv[0], "--resume", "old.txt", *argv[1:]]])
    [(_, want_stdout, want_files)] = GOLDEN[instance]
    level = fields.rsplit("r ", 1)[1].strip()
    assert (rc, stdout, files) == (0, f"resumed at r={level}\n" + want_stdout, want_files)
    assert not Path("old.txt").exists()  # consumed
