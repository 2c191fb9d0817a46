"""The three workloads: seeded inputs, the commands of one round, and the
independent check attached to each command.

A round is a fixed list of ``Op``s.  Every op is one ``ipstar`` command line
run in-process; its check sees the exit code and standard output (and the
files the command wrote) and returns ``None`` or a reason for failure.  The
seed only chooses inputs of a fixed size and shape, so every seed asks for
about the same amount of work.
"""

from __future__ import annotations

import functools
import json
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Callable

import checks as ck


@dataclass
class Op:
    kind: str  # the ipstar command, or "check" for --check replays
    label: str  # unique within the round
    argv: list | Callable[[], list | None]  # None: nothing to run this round
    check: Callable[[int, str], str | None]


@dataclass
class Workload:
    name: str
    ops: list
    out: Path  # cleared before every round


def clear(path: Path) -> None:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)


# ---------------------------------------------------------------------------
# coloring: hj, fu-ramsey, fk-density, then --check on every certificate

def _hj(k, t, m_max, covers_at=None):
    certs = []
    for m in range(1, m_max + 1):
        tag = "cover" if m == covers_at else "counterexample"
        certs.append((f"hj-k{k}-t{t}-m{m}-{tag}.txt", tag, (k, t, m)))
        if m == covers_at:
            break
    return certs


def _fu(rs, s, k, covers_at=None):
    return [
        (f"fu-r{r}-s{s}-k{k}-{'cover' if r == covers_at else 'counterexample'}.txt",
         "cover" if r == covers_at else "counterexample", (r, s, k))
        for r in rs
    ]


# (label, command, keys, expected certificates as (file, kind, params), verdict)
# HJ(2,t) = t and HJ(3,2) = 4 are known values; HJ(4,2) > 3 is confirmed by
# the independently checked m=3 counterexample.  fu r_limit=6 stops at its
# first cover: r=1..4 counterexamples are checked here, r=5 by --check.
COLORING = [
    ("hj-k4-t2", "hj", ["k=4", "t=2", "m_max=3"], _hj(4, 2, 3), "HJ(4,2) > 3"),
    ("hj-k2-t5", "hj", ["k=2", "t=5", "m_max=5"], _hj(2, 5, 5, 5), "HJ(2,5) = 5"),
    ("hj-k2-t4", "hj", ["k=2", "t=4", "m_max=4"], _hj(2, 4, 4, 4), "HJ(2,4) = 4"),
    ("hj-k3-t2", "hj", ["k=3", "t=2", "m_max=3"], _hj(3, 2, 3), "HJ(3,2) > 3"),
    ("fu-r7-s2-k2", "fu-ramsey", ["r=7", "s=2", "k=2"], _fu([7], 2, 2, 7), None),
    ("fu-upto6-s2-k2", "fu-ramsey", ["r_limit=6", "s=2", "k=2"], _fu(range(1, 6), 2, 2, 5), "minimal r = 5"),
    ("fu-r4-s2-k3", "fu-ramsey", ["r=4", "s=2", "k=3"], _fu([4], 2, 3), None),
    ("fu-r5-s3-k2", "fu-ramsey", ["r=5", "s=3", "k=2"], _fu([5], 3, 2), None),
]
FK = [(2, 16), (2, 17), (2, 18), (3, 12)]
SPLIT = "hj-k4-t2"  # the instance re-run with a budget split and a resume
SPLIT_BUDGET = (1000, 20000)  # below the instance's ~27k DFS nodes


def coloring(seed: int, base: Path) -> Workload:
    rng = random.Random(seed)
    out = base / "out"
    runs, cert_ops = [], []
    for label, cmd, keys, certs, verdict in COLORING:
        d = out / label
        runs.append(Op(cmd, label, [cmd, *keys, f"output={d}"], _verdict_check(verdict)))
        for fname, tag, params in certs:
            cert_ops.append(Op("check", f"check:{fname}", ["--check", str(d / fname)],
                               _cert_check(d / fname, tag, params)))
    for r, N in FK:
        runs.append(Op("fk-density", f"fk-r{r}-N{N}", ["fk-density", f"r={r}", f"N={N}"],
                       lambda rc, out_, r=r, N=N: _rc(rc) or ck.check_fk(r, N, out_)))
    rng.shuffle(runs)
    rng.shuffle(cert_ops)

    label, cmd, keys, _certs, verdict = next(c for c in COLORING if c[0] == SPLIT)
    budget = rng.randint(*SPLIT_BUDGET)
    split_dir = out / (SPLIT + "-split")

    def resume_argv():
        found = sorted(split_dir.glob("checkpoint-*.txt"))
        return [cmd, "--resume", str(found[0]), *keys, f"output={split_dir}"] if found else None

    split_ops = [
        Op(cmd, f"{SPLIT}-budget", [cmd, *keys, f"budget={budget}", f"output={split_dir}"],
           lambda rc, _o: None if rc in (0, 2) else f"exit code {rc}"),
        Op(cmd, f"{SPLIT}-resume", resume_argv,
           lambda rc, o: _rc(rc) or _same_certs(out / SPLIT, split_dir) or _verdict_check(verdict)(rc, o)),
    ]
    return Workload("coloring", runs + split_ops + cert_ops, out)


def _rc(rc: int) -> str | None:
    return None if rc == 0 else f"exit code {rc}"


def _verdict_check(verdict):
    def check(rc, stdout):
        if rc != 0:
            return f"exit code {rc}"
        if verdict is not None and verdict not in stdout:
            return f"expected {verdict!r} in the output"
        return None
    return check


def _cert_check(path: Path, tag: str, params):
    def check(rc, stdout):
        if rc != 0 or "certificate valid" not in stdout:
            return f"--check rejected {path.name}"
        if tag == "cover":
            return None
        kind, got, coloring = ck.parse_coloring(path.read_text())
        names = ("k", "t", "m") if kind.startswith("hj") else ("r", "s", "k")
        if tuple(got.get(n) for n in names) != params:
            return f"{path.name} holds the parameters {got}"
        if kind.startswith("hj"):
            return ck.check_hj_counterexample(*params, coloring)
        return ck.check_fu_counterexample(*params, coloring)
    return check


def _same_certs(a: Path, b: Path) -> str | None:
    """The split-and-resumed run leaves the same certificates as the unsplit one."""
    names = sorted(p.name for p in a.glob("*.txt"))
    if names != sorted(p.name for p in b.glob("*.txt")):
        return "split run left a different set of files"
    for n in names:
        if (a / n).read_bytes() != (b / n).read_bytes():
            return f"split run wrote a different {n}"
    return None


# ---------------------------------------------------------------------------
# recurrence: recurrence, density, probe and classify over three backends


def _pick_eps(model, terms, window, rng):
    """epsilon = mu^2 - c for a correlation value c < mu^2 met at one of a
    few sampled window elements, so R drops that element and keeps 0.
    None if the sample meets no such c."""
    mu2 = model.mu() ** 2
    elems = ck.window_elements(model.dom, window)
    sample = rng.sample(elems, min(len(elems), 24))
    below = sorted({model.corr(ck.eval_phi(model.dom, terms, u)) for u in sample})
    below = [c for c in below if c < mu2]
    return None if not below else mu2 - rng.choice(below)


def _perm_model(rng, p, cycles_n, fixed_n):
    n = p * cycles_n + fixed_n
    pts = list(range(n))
    rng.shuffle(pts)
    cycles = [pts[i * p:(i + 1) * p] for i in range(cycles_n)]
    raw = {}
    for c in cycles:
        w = rng.randint(1, 4)
        raw.update({x: w for x in c})
    raw.update({x: rng.randint(1, 4) for x in pts[p * cycles_n:]})
    total = sum(raw.values())
    weights = {x: Fraction(v, total) for x, v in raw.items()}
    B = set(rng.sample(range(n), n // 2))
    return ck.PermModel(p, range(n), weights, cycles, B)


def _rot_model(rng, q):
    a = rng.choice([a for a in range(1, q) if gcd(a, q) == 1])
    cuts = sorted(rng.sample(range(1, 24), 4))
    arcs = [(Fraction(cuts[0], 24), Fraction(cuts[1], 24)), (Fraction(cuts[2], 24), Fraction(cuts[3], 24))]
    return ck.RotModel(Fraction(a, q), arcs)


def _bern_model(rng):
    # two coordinates of degree < 2 with disjoint letters always conflict
    # under the shift that swaps them, so R misses a few elements
    coords = rng.sample([(), (1,), (0, 1), (1, 1)], 3)
    letters = [{0}, {1}, {rng.randint(0, 1)}]
    q = Fraction(rng.randint(1, 4), 5)
    return ck.BernModel(2, [q, 1 - q], dict(zip(coords, letters)))


# (backend, size, window, classify r_max or None, density N) per system slot:
# small windows carry the IP* classification, large ones the correlation scans
REC_SLOTS = [
    ("finite-perm", 7, "full", 3, 3),
    ("finite-perm", 251, "full", None, 2),
    ("rotation", None, "rat 4 4", 2, 4),
    ("rotation", None, "rat 32 32", None, 6),
    ("bernoulli", None, "deg 4", 4, 6),  # r=4 scans 16^4 = 65,536 tuples: threaded
    ("bernoulli", None, "deg 11", None, 8),
]


def recurrence(seed: int, base: Path) -> Workload:
    rng = random.Random(seed)
    inputs, out = base / "inputs", base / "out"
    clear(inputs)
    ops = []
    for i, (backend, size, window, r_max, dens_N) in enumerate(REC_SLOTS):
        while True:
            if backend == "finite-perm":
                model = _perm_model(rng, size, 2, 3)
                terms = [(rng.randint(1, size - 1), rng.randint(1, 3))]
            elif backend == "rotation":
                model = _rot_model(rng, rng.choice([7, 11]))
                terms = [(rng.randint(1, 3), rng.randint(1, 2))]
            else:
                # corr(w) < mu^2 exactly where the shift w moves a constrained
                # coordinate onto one with disjoint letters (then corr = 0);
                # the swap of the two disjoint coordinates lies in the window
                model, terms = _bern_model(rng), [(1, 1)]
                eps = model.mu() ** 2 * Fraction(rng.randint(1, 4), 4)
                break
            eps = _pick_eps(model, terms, window, rng)
            if eps is not None:
                break
        sysf = inputs / f"sys{i}.txt"
        sysf.write_text(model.text())
        # the checks' reference (window, R), worked out on first use and kept,
        # so it costs neither set-up nor timed time
        ref = functools.cache(lambda m=model, t=terms, e=eps, w=window: ck.expected_R(m, t, e, w))
        phi, eps_t = ck.render_phi(terms), ck.frac(eps)
        common = [f"system={sysf}", f"phi={phi}", f"epsilon={eps_t}", f"window={window}"]
        d = out / f"sys{i}"
        ops.append(Op("recurrence", f"recurrence-csv:{i}", ["recurrence", *common, f"output={d}/csv"],
                      _csv_check(model, terms, eps, window, d / "csv" / "recurrence.csv")))
        ops.append(Op("recurrence", f"recurrence-report:{i}",
                      ["recurrence", *common, "format=report", f"output={d}/rep"],
                      _report_check(model.dom, ref, d / "rep" / "recurrence.json", None)))
        if r_max is not None:
            ops.append(Op("classify", f"classify:{i}",
                          ["classify", *common, f"r_max={r_max}", f"output={d}/cls"],
                          _report_check(model.dom, ref, d / "cls" / "classify.json", (model, r_max))))
        gens = [_nonzero(model.dom, rng) for _ in range(3)]
        ops.append(Op("probe", f"probe:{i}",
                      ["probe", *common, "gens=" + ",".join(model.dom.render(g) for g in gens)],
                      lambda rc, o, dom=model.dom, gens=gens, ref=ref:
                      _rc(rc) or ck.check_probe(dom, gens, ref()[1], o)))
        ops.append(Op("density", f"density:{i}",
                      ["density", f"system={sysf}", f"phi={phi}", f"N={dens_N}"],
                      lambda rc, o, m=model, t=terms, N=dens_N: _rc(rc) or ck.check_density(m, t, N, o)))
    rng.shuffle(ops)
    return Workload("recurrence", ops, out)


def _nonzero(dom, rng):
    if dom.kind == "field":
        return rng.randint(1, dom.p - 1)
    if dom.kind == "rat":
        return Fraction(rng.randint(1, 4), rng.randint(1, 3))
    return ck.trim([rng.randint(0, 1), rng.randint(0, 1), 1])


def _csv_check(model, terms, eps, window, path):
    def check(rc, _stdout):
        return _rc(rc) or ck.check_csv_rows(model, terms, eps, window, path.read_text())
    return check


def _report_check(dom, ref, path, classify):
    def check(rc, _stdout):
        if rc != 0:
            return f"exit code {rc}"
        elems, R = ref()
        tree = json.loads(path.read_text())
        err = ck.check_R(dom, tree["R"]["members"], R)
        if err or classify is None:
            return err
        model, r_max = classify
        cls = tree["classification"]
        if sorted(cls, key=int) != [str(r) for r in range(1, r_max + 1)]:
            return f"classification covers r={sorted(cls)}"
        err = ck.check_classification(dom, cls, R, elems)
        if err:
            return err
        if Fraction(tree["bounds"]["khintchine"]) < model.mu() ** 2:
            return "Khintchine bound below mu(B)^2"
        return None
    return check


# ---------------------------------------------------------------------------
# cover-search: seeded constructive searches on the compact backends

# The search instances are fixed: how far a line scan runs before its first
# monochromatic line varies several-fold between generator tuples, so seeding
# the tuples themselves would make the work per run vary with the seed.  The
# seed instead applies transformations that leave each search's course
# unchanged: rotation generators move by multiples of q (the tracked positions
# only see them mod q), and finite-perm points are relabelled.
# (backend, r, q) per slot; r=7 makes 61,741 lines, a threaded scan
SEARCH_SLOTS = [
    ("rotation", 7, 7), ("rotation", 7, 6), ("rotation", 7, 5), ("rotation", 7, 11),
    ("rotation", 6, 7), ("rotation", 6, 5), ("rotation", 6, 6), ("rotation", 6, 11),
    ("rotation", 6, 7), ("rotation", 6, 5),
    ("finite-perm", 7, 7), ("finite-perm", 7, 5), ("finite-perm", 6, 5), ("finite-perm", 6, 7),
    ("finite-perm", 6, 5), ("finite-perm", 6, 7),
]
CATALOG_SEED = 20261017


def _catalog():
    rng = random.Random(CATALOG_SEED)
    out = []
    for backend, r, q in SEARCH_SLOTS:
        coeff = rng.randint(1, 3)
        if backend == "rotation":
            x, eps = Fraction(rng.randint(0, 11), 12), Fraction(1, rng.choice([50, 100]))
            out.append((backend, r, q, coeff, x, eps, [rng.randint(1, q) for _ in range(r)]))
        else:
            model = _perm_model(rng, q, 2, 2)
            out.append((backend, r, q, coeff, model, Fraction(1, 2), [rng.randint(0, q - 1) for _ in range(r)]))
    return out


def _relabel(model, rng):
    n = len(model.points)
    new = list(range(n))
    rng.shuffle(new)
    f = dict(zip(model.points, new))
    return ck.PermModel(model.p, range(n), {f[x]: w for x, w in model.weights.items()},
                        [[f[x] for x in c] for c in model.cycles], {f[x] for x in model.B})


def cover_search(seed: int, base: Path) -> Workload:
    rng = random.Random(seed)
    inputs, out = base / "inputs", base / "out"
    clear(inputs)
    ops = []
    for i, (backend, r, q, coeff, x, eps, gens) in enumerate(_catalog()):
        if backend == "rotation":
            model = ck.RotModel(Fraction(1, q), [])
            gens = [g + q * rng.randint(0, 9) for g in gens]
            x_arg = ck.frac(x)
        else:
            model = _relabel(x, rng)
            x, x_arg = model.B, "B"
        sysf = inputs / f"search{i}.txt"
        sysf.write_text(model.text())
        argv = ["search", f"system={sysf}", f"x={x_arg}", f"m={coeff}*u^2",
                f"epsilon={ck.frac(eps)}", "gens=" + ",".join(str(g) for g in gens)]
        gens_d = [model.dom.scalar(g) for g in gens]
        ops.append(Op("search", f"search:{i}", argv,
                      lambda rc, o, m=model, c=coeff, x=x, e=eps, g=gens_d:
                      _rc(rc) or ck.check_search(m, c, 2, x, e, g, o)))
    rng.shuffle(ops)
    return Workload("cover-search", ops, out)


BUILDERS = {"coloring": coloring, "recurrence": recurrence, "cover-search": cover_search}
