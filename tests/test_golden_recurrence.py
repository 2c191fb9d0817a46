"""Golden outputs of the return-set commands: `recurrence` (csv and
report), `probe` and `density`.

Each instance is a system file and a list of command lines run through
``ipstar.cli.main`` in a fresh directory with ``system=sys.txt``; the
`recurrence` steps write to ``output=out``.  After each step the exit code,
standard output and the sha256 of every file under ``out`` are compared with
the values pinned below; the ``generated`` line of each file is dropped
before hashing.

The systems reach every correlation kernel: a one-generator finite-perm
system with two cycles, fixed points and a zero weight; a two-generator one,
with a one- and a two-variable map; a rotation over a rational window, and
one by two angles; and a Bernoulli system whose window holds shifts w both
inside and outside supp(B) - supp(B).  The maps reach every compiled form:
over F_p with exponents >= p, over Q with rational coefficients, over
F_p[t], and into a vector group from one and from two variables.  Three
instances run at the size of the benchmark's windows, where many rows share
one w, one correlation or one weight token.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from ipstar import cli

PERM1 = (
    "backend finite-perm\np 5\npoints 0 1 2 3 4 5 6 7 8 9 10 11 12\n"
    "weights 1/10 1/10 1/10 1/10 1/10 1/20 1/20 1/20 1/20 1/20 1/6 1/12 0\n"
    "gen (0 1 2 3 4)(5 6 7 8 9)\nset B 0 2 5 6 8 12\n"
)
PERM2 = (
    "backend finite-perm\np 3\npoints 0 1 2 3 4 5 6 7 8\n"
    "gen (0 1 2)(3 4 5)(6 7 8)\ngen (0 3 6)(1 4 7)(2 5 8)\nset B 0 1 4\n"
)
ROT = "backend rotation\nrho 2/7\nset B 1/12 1/3 1/2 3/4\n"
ROT2 = "backend rotation\nrho 2/7 -1/3\nset B 1/12 1/3 1/2 3/4\n"
BERN = "backend bernoulli\np 2\nprobs 1/3 2/3\nset B []:0 [0,1]:1 [1,1]:0\n"


def _big_perm(p=251):
    """505 points: two p-cycles and three fixed points, whose weights line
    repeats four tokens over one denominator (2p + p + 10 = 763)."""
    points = range(2 * p + 3)
    weights = ["2/763"] * p + ["1/763"] * p + ["3/763", "4/763", "3/763"]
    cycle = lambda r: "(" + " ".join(map(str, r)) + ")"
    B = [x for x in points if x % 3 == 0 or x % 7 == 2]
    return (f"backend finite-perm\np {p}\npoints {' '.join(map(str, points))}\n"
            f"weights {' '.join(weights)}\ngen {cycle(range(p))}{cycle(range(p, 2 * p))}\n"
            f"set B {' '.join(map(str, B))}\n")


def _steps(phi, epsilon, window, gens, N):
    common = [f"phi={phi}", f"epsilon={epsilon}", f"window={window}"]
    return [
        ["recurrence", *common, "output=out"],
        ["recurrence", *common, "format=report", "output=out"],
        ["probe", *common, f"gens={gens}"],
        ["density", f"phi={phi}", f"N={N}"],
    ]


INSTANCES = {
    "perm1": (PERM1, _steps("2*u^2 + u", "1/100", "full", "1,2,3", 3)),
    "perm2": (PERM2, _steps("u*(1,0) + u^2*(0,1)", "1/100", "full", "1,2", 2)),
    "perm2-xy": (PERM2, [["recurrence", "phi=x1*(1,0) + x1*x2*(0,1)", "epsilon=1/100",
                          "window=full", "output=out"]]),
    "rot": (ROT, _steps("u^2 + u", "1/100", "rat 5 5", "1/2,2,3/4", 4)),
    "bern": (BERN, _steps("u^2 + u", "1/1000", "deg 4", "[0,1],[1,1],[1]", 4)),
    "bern-u": (BERN, _steps("u", "1/1000", "deg 4", "[0,1],[1,0,1]", 3)),
    # a Q map with rational coefficients and mixed degrees, an F_p map with
    # exponents >= p, and a rotation by two angles, with a one- and a
    # two-variable map into Q^2
    "rot-q": (ROT, _steps("3/2*u^3 + -2/5*u + u^2", "1/100", "rat 7 6", "1/2,-3,2/3", 3)),
    "perm1-high": (PERM1, _steps("3*u^7 + 4*u^5 + u^2", "1/100", "full", "1,2,3", 3)),
    "rot2": (ROT2, _steps("u*(1,2) + 1/2*u^2*(-1/3,1)", "1/100", "rat 4 3", "1/2,2", 3)),
    "rot2-xy": (ROT2, [["recurrence", "phi=x1*(1,0) + 2/3*x1*x2^2*(1/2,1)", "epsilon=1/100",
                        "window=rat 2 2", "output=out"]]),
    # at benchmark scale: an even map on a rotation, so u and -u share w
    # (1,295 elements, 648 distinct w), a Bernoulli window of 2,048
    # elements, and a 505-point finite-perm system
    "rot-even": (ROT, _steps("2*u^2", "1/100", "rat 32 32", "1/2,2,3/4", 4)),
    "bern-deg": (BERN, _steps("u", "1/1000", "deg 11", "[0,1],[1,0,1]", 6)),
    "perm-big": (_big_perm(), _steps("2*u^2 + u", "1/100", "full", "1,2,3", 2)),
}


def _digest(path: Path) -> str:
    lines = path.read_bytes().splitlines(keepends=True)
    kept = b"".join(
        ln for ln in lines
        if not ln.lstrip().startswith((b'"generated"', b"# generated:"))
    )
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
        rc, stdout = _main([*argv, "system=sys.txt"])
        files = {p.name: _digest(p) for p in sorted(out.iterdir())} if out.exists() else {}
        records.append((rc, stdout, files))
    return records


# name -> [(exit code, stdout, {file: sha256}) per step]
GOLDEN = {'bern': [(0,
           'system: bernoulli p=2 probs=1/3,2/3\n'
           'phi: u^2 + u\n'
           'mu(B) = 2/27\n'
           'threshold = 3271/729000\n'
           'R: 16 of 16 window elements\n'
           'wrote out/recurrence.csv\n',
           {'recurrence.csv': '1bc4636af61f504acf0467ccaf13334a908bef9c2b7bc41ff6938c7428581207'}),
          (0,
           'system: bernoulli p=2 probs=1/3,2/3\n'
           'phi: u^2 + u\n'
           'mu(B) = 2/27\n'
           'threshold = 3271/729000\n'
           'R: 16 of 16 window elements\n'
           'wrote out/recurrence.json\n',
           {'recurrence.csv': '1bc4636af61f504acf0467ccaf13334a908bef9c2b7bc41ff6938c7428581207',
            'recurrence.json': '563091a43b7e03f1635be22c4a064733cced69792f1daaac5c7a4f63f42756a0'}),
          (0,
           'products: [0,1],[1,1],[0,1,1],[1],[0,1],[1,1],[0,1,1]\n'
           'witnesses: [0,1],[1,1],[0,1,1],[1],[0,1],[1,1],[0,1,1]\n'
           'intersects: true\n',
           {'recurrence.csv': '1bc4636af61f504acf0467ccaf13334a908bef9c2b7bc41ff6938c7428581207',
            'recurrence.json': '563091a43b7e03f1635be22c4a064733cced69792f1daaac5c7a4f63f42756a0'}),
          (0,
           'dlim over N=1..4\n'
           'N=1: 2500/531441\n'
           'N=2: 1250/531441\n'
           'N=3: 625/531441\n'
           'N=4: 625/1062882\n',
           {'recurrence.csv': '1bc4636af61f504acf0467ccaf13334a908bef9c2b7bc41ff6938c7428581207',
            'recurrence.json': '563091a43b7e03f1635be22c4a064733cced69792f1daaac5c7a4f63f42756a0'})],
 'bern-u': [(0,
             'system: bernoulli p=2 probs=1/3,2/3\n'
             'phi: u\n'
             'mu(B) = 2/27\n'
             'threshold = 3271/729000\n'
             'R: 14 of 16 window elements\n'
             'wrote out/recurrence.csv\n',
             {'recurrence.csv': 'b27ba495533d2fee9e4348b302720083c99d3eaab358dbce6251dd20b900b806'}),
            (0,
             'system: bernoulli p=2 probs=1/3,2/3\n'
             'phi: u\n'
             'mu(B) = 2/27\n'
             'threshold = 3271/729000\n'
             'R: 14 of 16 window elements\n'
             'wrote out/recurrence.json\n',
             {'recurrence.csv': 'b27ba495533d2fee9e4348b302720083c99d3eaab358dbce6251dd20b900b806',
              'recurrence.json': 'd5bfbbb0cf783f43f3c7bab6d073479372812f19818fd053aceba930c3c94265'}),
            (0,
             'products: [0,1],[1,0,1],[0,1,0,1]\nwitnesses: [1,0,1],[0,1,0,1]\nintersects: true\n',
             {'recurrence.csv': 'b27ba495533d2fee9e4348b302720083c99d3eaab358dbce6251dd20b900b806',
              'recurrence.json': 'd5bfbbb0cf783f43f3c7bab6d073479372812f19818fd053aceba930c3c94265'}),
            (0,
             'dlim over N=1..3\nN=1: 1258/531441\nN=2: 889/531441\nN=3: 889/1062882\n',
             {'recurrence.csv': 'b27ba495533d2fee9e4348b302720083c99d3eaab358dbce6251dd20b900b806',
              'recurrence.json': 'd5bfbbb0cf783f43f3c7bab6d073479372812f19818fd053aceba930c3c94265'})],
 'perm1': [(0,
            'system: finite-perm p=5 points=13 gens=1\n'
            'phi: 2*u^2 + u\n'
            'mu(B) = 7/20\n'
            'threshold = 9/80\n'
            'R: 3 of 5 window elements\n'
            'wrote out/recurrence.csv\n',
            {'recurrence.csv': '5c3103e0fe67916d0adfceee8de3c0ce59d6a89199b2002bd9498a767bb06152'}),
           (0,
            'system: finite-perm p=5 points=13 gens=1\n'
            'phi: 2*u^2 + u\n'
            'mu(B) = 7/20\n'
            'threshold = 9/80\n'
            'R: 3 of 5 window elements\n'
            'wrote out/recurrence.json\n',
            {'recurrence.csv': '5c3103e0fe67916d0adfceee8de3c0ce59d6a89199b2002bd9498a767bb06152',
             'recurrence.json': '71e9bbf5997958edd58e28f259434b8574f293b675430118a8e1a87d2e305a55'}),
           (0,
            'products: 1,2,2,3,3,1,1\nwitnesses: 1,2,2,1,1\nintersects: true\n',
            {'recurrence.csv': '5c3103e0fe67916d0adfceee8de3c0ce59d6a89199b2002bd9498a767bb06152',
             'recurrence.json': '71e9bbf5997958edd58e28f259434b8574f293b675430118a8e1a87d2e305a55'}),
           (0,
            'dlim over N=1..3\nN=1: 0\nN=2: 0\nN=3: 0\n',
            {'recurrence.csv': '5c3103e0fe67916d0adfceee8de3c0ce59d6a89199b2002bd9498a767bb06152',
             'recurrence.json': '71e9bbf5997958edd58e28f259434b8574f293b675430118a8e1a87d2e305a55'})],
 'perm2': [(0,
            'system: finite-perm p=3 points=9 gens=2\n'
            'phi: u*(1,0) + u^2*(0,1)\n'
            'mu(B) = 1/3\n'
            'threshold = 91/900\n'
            'R: 2 of 3 window elements\n'
            'wrote out/recurrence.csv\n',
            {'recurrence.csv': 'ab9b35d53c1659d77b347ebd352daa563ee174ffefc6e59c631ced4931dd53dc'}),
           (0,
            'system: finite-perm p=3 points=9 gens=2\n'
            'phi: u*(1,0) + u^2*(0,1)\n'
            'mu(B) = 1/3\n'
            'threshold = 91/900\n'
            'R: 2 of 3 window elements\n'
            'wrote out/recurrence.json\n',
            {'recurrence.csv': 'ab9b35d53c1659d77b347ebd352daa563ee174ffefc6e59c631ced4931dd53dc',
             'recurrence.json': 'dd29efc86cf1f6b1024064f86c77fbd5fc86f744ccfed10dedddb3343d5ff07b'}),
           (0,
            'products: 1,2,2\nwitnesses: 1\nintersects: true\n',
            {'recurrence.csv': 'ab9b35d53c1659d77b347ebd352daa563ee174ffefc6e59c631ced4931dd53dc',
             'recurrence.json': 'dd29efc86cf1f6b1024064f86c77fbd5fc86f744ccfed10dedddb3343d5ff07b'}),
           (0,
            'dlim over N=1..2\nN=1: 0\nN=2: 0\n',
            {'recurrence.csv': 'ab9b35d53c1659d77b347ebd352daa563ee174ffefc6e59c631ced4931dd53dc',
             'recurrence.json': 'dd29efc86cf1f6b1024064f86c77fbd5fc86f744ccfed10dedddb3343d5ff07b'})],
 'perm2-xy': [(0,
               'system: finite-perm p=3 points=9 gens=2\n'
               'phi: x1*(1,0) + x1*x2*(0,1)\n'
               'mu(B) = 1/3\n'
               'threshold = 91/900\n'
               'R: 7 of 9 window elements\n'
               'wrote out/recurrence.csv\n',
               {'recurrence.csv': '634d9fe924d2b022d7639987ad47838d4d145046fb333c413a597b87a0d6c142'})],
 'rot': [(0,
          'system: rotation rho=2/7\n'
          'phi: u^2 + u\n'
          'mu(B) = 1/2\n'
          'threshold = 6/25\n'
          'R: 27 of 39 window elements\n'
          'wrote out/recurrence.csv\n',
          {'recurrence.csv': 'a82947d95df2d0d73f613cbee399fbde7b85f5bbdc8544b6d36e04b6b2ade685'}),
         (0,
          'system: rotation rho=2/7\n'
          'phi: u^2 + u\n'
          'mu(B) = 1/2\n'
          'threshold = 6/25\n'
          'R: 27 of 39 window elements\n'
          'wrote out/recurrence.json\n',
          {'recurrence.csv': 'a82947d95df2d0d73f613cbee399fbde7b85f5bbdc8544b6d36e04b6b2ade685',
           'recurrence.json': '2f26eecee6df850426120fecd8d78716e79c370176aecbafa824fa8f1d753985'}),
         (0,
          'products: 1/2,2,1,3/4,3/8,3/2,3/4\nwitnesses: 1,3/4,3/2,3/4\nintersects: true\n',
          {'recurrence.csv': 'a82947d95df2d0d73f613cbee399fbde7b85f5bbdc8544b6d36e04b6b2ade685',
           'recurrence.json': '2f26eecee6df850426120fecd8d78716e79c370176aecbafa824fa8f1d753985'}),
         (0,
          'dlim over N=1..4\nN=1: 0\nN=2: 0\nN=3: 0\nN=4: 0\n',
          {'recurrence.csv': 'a82947d95df2d0d73f613cbee399fbde7b85f5bbdc8544b6d36e04b6b2ade685',
           'recurrence.json': '2f26eecee6df850426120fecd8d78716e79c370176aecbafa824fa8f1d753985'})]}


# the instances after bern-u, pinned from the evaluator that preceded the
# compiled maps
GOLDEN.update({'perm1-high': [(0,
                 'system: finite-perm p=5 points=13 gens=1\n'
                 'phi: 3*u^7 + 4*u^5 + u^2\n'
                 'mu(B) = 7/20\n'
                 'threshold = 9/80\n'
                 'R: 3 of 5 window elements\n'
                 'wrote out/recurrence.csv\n',
                 {'recurrence.csv': '81a527bbabaa8f33d85410d04b079b07e8e839dc4117378d96d4dc400ceb2edf'}),
                (0,
                 'system: finite-perm p=5 points=13 gens=1\n'
                 'phi: 3*u^7 + 4*u^5 + u^2\n'
                 'mu(B) = 7/20\n'
                 'threshold = 9/80\n'
                 'R: 3 of 5 window elements\n'
                 'wrote out/recurrence.json\n',
                 {'recurrence.csv': '81a527bbabaa8f33d85410d04b079b07e8e839dc4117378d96d4dc400ceb2edf',
                  'recurrence.json': '476cd1d576e62d1fca46b3e30e8cc48c32d8168028bee5a1f8e901359a5285ad'}),
                (0,
                 'products: 1,2,2,3,3,1,1\nwitnesses: 1,3,3,1,1\nintersects: true\n',
                 {'recurrence.csv': '81a527bbabaa8f33d85410d04b079b07e8e839dc4117378d96d4dc400ceb2edf',
                  'recurrence.json': '476cd1d576e62d1fca46b3e30e8cc48c32d8168028bee5a1f8e901359a5285ad'}),
                (0,
                 'dlim over N=1..3\nN=1: 0\nN=2: 0\nN=3: 0\n',
                 {'recurrence.csv': '81a527bbabaa8f33d85410d04b079b07e8e839dc4117378d96d4dc400ceb2edf',
                  'recurrence.json': '476cd1d576e62d1fca46b3e30e8cc48c32d8168028bee5a1f8e901359a5285ad'})],
 'rot-q': [(0,
            'system: rotation rho=2/7\n'
            'phi: 3/2*u^3 + -2/5*u + u^2\n'
            'mu(B) = 1/2\n'
            'threshold = 6/25\n'
            'R: 38 of 59 window elements\n'
            'wrote out/recurrence.csv\n',
            {'recurrence.csv': '8562addc0f6b769407b2b0f663dcf9d9ca2e7b735c0d1a43e46a8cbff31c27cc'}),
           (0,
            'system: rotation rho=2/7\n'
            'phi: 3/2*u^3 + -2/5*u + u^2\n'
            'mu(B) = 1/2\n'
            'threshold = 6/25\n'
            'R: 38 of 59 window elements\n'
            'wrote out/recurrence.json\n',
            {'recurrence.csv': '8562addc0f6b769407b2b0f663dcf9d9ca2e7b735c0d1a43e46a8cbff31c27cc',
             'recurrence.json': 'dae8b2968e3c26774269cf5834e4a5d2b80d5ea7b0f3b93e326d396600501437'}),
           (0,
            'products: 1/2,-3,-3/2,2/3,1/3,-2,-1\nwitnesses: 1/2,1/3,-2,-1\nintersects: true\n',
            {'recurrence.csv': '8562addc0f6b769407b2b0f663dcf9d9ca2e7b735c0d1a43e46a8cbff31c27cc',
             'recurrence.json': 'dae8b2968e3c26774269cf5834e4a5d2b80d5ea7b0f3b93e326d396600501437'}),
           (0,
            'dlim over N=1..3\nN=1: 0\nN=2: 0\nN=3: 0\n',
            {'recurrence.csv': '8562addc0f6b769407b2b0f663dcf9d9ca2e7b735c0d1a43e46a8cbff31c27cc',
             'recurrence.json': 'dae8b2968e3c26774269cf5834e4a5d2b80d5ea7b0f3b93e326d396600501437'})],
 'rot2': [(0,
           'system: rotation rho=(2/7,-1/3)\n'
           'phi: u*(1,2) + 1/2*u^2*(-1/3,1)\n'
           'mu(B) = 1/2\n'
           'threshold = 6/25\n'
           'R: 12 of 19 window elements\n'
           'wrote out/recurrence.csv\n',
           {'recurrence.csv': '9391eca1445ad7e677b02d62106c04a3c8aacde6165a55c91970e6c56076e5d3'}),
          (0,
           'system: rotation rho=(2/7,-1/3)\n'
           'phi: u*(1,2) + 1/2*u^2*(-1/3,1)\n'
           'mu(B) = 1/2\n'
           'threshold = 6/25\n'
           'R: 12 of 19 window elements\n'
           'wrote out/recurrence.json\n',
           {'recurrence.csv': '9391eca1445ad7e677b02d62106c04a3c8aacde6165a55c91970e6c56076e5d3',
            'recurrence.json': 'eed24218f43e21487ed33c4692960f80ee35e33458b694ec9bb32daed61368f3'}),
          (0,
           'products: 1/2,2,1\nwitnesses: 2,1\nintersects: true\n',
           {'recurrence.csv': '9391eca1445ad7e677b02d62106c04a3c8aacde6165a55c91970e6c56076e5d3',
            'recurrence.json': 'eed24218f43e21487ed33c4692960f80ee35e33458b694ec9bb32daed61368f3'}),
          (0,
           'dlim over N=1..3\nN=1: 0\nN=2: 0\nN=3: 0\n',
           {'recurrence.csv': '9391eca1445ad7e677b02d62106c04a3c8aacde6165a55c91970e6c56076e5d3',
            'recurrence.json': 'eed24218f43e21487ed33c4692960f80ee35e33458b694ec9bb32daed61368f3'})],
 'rot2-xy': [(0,
              'system: rotation rho=(2/7,-1/3)\n'
              'phi: x1*(1,0) + 2/3*x1*x2^2*(1/2,1)\n'
              'mu(B) = 1/2\n'
              'threshold = 6/25\n'
              'R: 29 of 49 window elements\n'
              'wrote out/recurrence.csv\n',
              {'recurrence.csv': '4aca1ead055a9351f91aa3227396a6d09b34c75c887da6679f98cfad257695e5'})]})

# the benchmark-scale instances, pinned from the scans that built a
# correlation and rendered a value once per row
GOLDEN.update({'bern-deg': [(0,
               'system: bernoulli p=2 probs=1/3,2/3\n'
               'phi: u\n'
               'mu(B) = 2/27\n'
               'threshold = 3271/729000\n'
               'R: 2046 of 2048 window elements\n'
               'wrote out/recurrence.csv\n',
               {'recurrence.csv': 'cf0f679044a49aa0eb190f8b6b9e841d1134f2804eac4b943b94e56789452dc1'}),
              (0,
               'system: bernoulli p=2 probs=1/3,2/3\n'
               'phi: u\n'
               'mu(B) = 2/27\n'
               'threshold = 3271/729000\n'
               'R: 2046 of 2048 window elements\n'
               'wrote out/recurrence.json\n',
               {'recurrence.csv': 'cf0f679044a49aa0eb190f8b6b9e841d1134f2804eac4b943b94e56789452dc1',
                'recurrence.json': '10d2cde1e8a2beee6fbea05be0b0b4e0a7ff2a237a1b7f66dc9a24f81bc6e886'}),
              (0,
               'products: [0,1],[1,0,1],[0,1,0,1]\n'
               'witnesses: [1,0,1],[0,1,0,1]\n'
               'intersects: true\n',
               {'recurrence.csv': 'cf0f679044a49aa0eb190f8b6b9e841d1134f2804eac4b943b94e56789452dc1',
                'recurrence.json': '10d2cde1e8a2beee6fbea05be0b0b4e0a7ff2a237a1b7f66dc9a24f81bc6e886'}),
              (0,
               'dlim over N=1..6\n'
               'N=1: 1258/531441\n'
               'N=2: 889/531441\n'
               'N=3: 889/1062882\n'
               'N=4: 889/2125764\n'
               'N=5: 889/4251528\n'
               'N=6: 889/8503056\n',
               {'recurrence.csv': 'cf0f679044a49aa0eb190f8b6b9e841d1134f2804eac4b943b94e56789452dc1',
                'recurrence.json': '10d2cde1e8a2beee6fbea05be0b0b4e0a7ff2a237a1b7f66dc9a24f81bc6e886'})],
 'perm-big': [(0,
               'system: finite-perm p=251 points=505 gens=1\n'
               'phi: 2*u^2 + u\n'
               'mu(B) = 3/7\n'
               'threshold = 851/4900\n'
               'R: 122 of 251 window elements\n'
               'wrote out/recurrence.csv\n',
               {'recurrence.csv': '6a9a5f2a39af5294e28c31c726ca8ddd63f40ab0d8d1e4b0febe09ce03390c40'}),
              (0,
               'system: finite-perm p=251 points=505 gens=1\n'
               'phi: 2*u^2 + u\n'
               'mu(B) = 3/7\n'
               'threshold = 851/4900\n'
               'R: 122 of 251 window elements\n'
               'wrote out/recurrence.json\n',
               {'recurrence.csv': '6a9a5f2a39af5294e28c31c726ca8ddd63f40ab0d8d1e4b0febe09ce03390c40',
                'recurrence.json': '51475ba8fd5df9dbb9f26dfcbaa0ea20f260835c26ae0c162bebaefb6ec769bb'}),
              (0,
               'products: 1,2,2,3,3,6,6\n'
               'witnesses: 1,3,3,6,6\n'
               'intersects: true\n',
               {'recurrence.csv': '6a9a5f2a39af5294e28c31c726ca8ddd63f40ab0d8d1e4b0febe09ce03390c40',
                'recurrence.json': '51475ba8fd5df9dbb9f26dfcbaa0ea20f260835c26ae0c162bebaefb6ec769bb'}),
              (0,
               'dlim over N=1..2\nN=1: 0\nN=2: 0\n',
               {'recurrence.csv': '6a9a5f2a39af5294e28c31c726ca8ddd63f40ab0d8d1e4b0febe09ce03390c40',
                'recurrence.json': '51475ba8fd5df9dbb9f26dfcbaa0ea20f260835c26ae0c162bebaefb6ec769bb'})],
 'rot-even': [(0,
               'system: rotation rho=2/7\n'
               'phi: 2*u^2\n'
               'mu(B) = 1/2\n'
               'threshold = 6/25\n'
               'R: 755 of 1295 window elements\n'
               'wrote out/recurrence.csv\n',
               {'recurrence.csv': '7ea38715a8aa5d43af65aafd6e6f3235267fe6327b1c170aa21560d3e8a9d943'}),
              (0,
               'system: rotation rho=2/7\n'
               'phi: 2*u^2\n'
               'mu(B) = 1/2\n'
               'threshold = 6/25\n'
               'R: 755 of 1295 window elements\n'
               'wrote out/recurrence.json\n',
               {'recurrence.csv': '7ea38715a8aa5d43af65aafd6e6f3235267fe6327b1c170aa21560d3e8a9d943',
                'recurrence.json': '0d4390b9f7fb70b45e4e279d8a5b79a2834c7d41e28ce64aafeb1f55712a851a'}),
              (0,
               'products: 1/2,2,1,3/4,3/8,3/2,3/4\n'
               'witnesses: 1,3/8\n'
               'intersects: true\n',
               {'recurrence.csv': '7ea38715a8aa5d43af65aafd6e6f3235267fe6327b1c170aa21560d3e8a9d943',
                'recurrence.json': '0d4390b9f7fb70b45e4e279d8a5b79a2834c7d41e28ce64aafeb1f55712a851a'}),
              (0,
               'dlim over N=1..4\nN=1: 0\nN=2: 0\nN=3: 0\nN=4: 0\n',
               {'recurrence.csv': '7ea38715a8aa5d43af65aafd6e6f3235267fe6327b1c170aa21560d3e8a9d943',
                'recurrence.json': '0d4390b9f7fb70b45e4e279d8a5b79a2834c7d41e28ce64aafeb1f55712a851a'})]})


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_golden_outputs(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert play(*INSTANCES[name]) == GOLDEN[name]
