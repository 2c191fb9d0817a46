"""Return sets, dual-family classification, constructive coloring search."""

import contextlib
import io
import itertools
import random
import time
from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipstar.algebra import (
    DegreeWindow,
    FullWindow,
    Monomial,
    PolyRing,
    PolynomialMap,
    PrimeField,
    RationalWindow,
    Rationals,
    VectorSpace,
    eval_poly,
    pair_column,
    scalar_poly_map,
    window_enumerate,
)
from ipstar import cli
from ipstar import recurrence as recurrence_module
from ipstar.ipsets import IpStarVerdict, finite_sums, is_ip_r_star
from ipstar.recurrence import (
    RecurrenceError,
    classify_ipstar,
    fp_probe,
    isometric_recurrence_search,
    recurrence_set,
)
from ipstar.systems import (
    BernoulliSystem,
    FinitePermSystem,
    RotationSystem,
    SystemError,
    regular_system,
)
from ipstar.textio import render_recurrence_csv, render_report_json, report_tree
from oracles import (
    naive_map_value,
    naive_rotation_return_sq,
    reference_recurrence_renders,
    reference_scan,
    reports_agree,
    theorem1_pipeline,
)
from test_ip_scan import MAX_TUPLES, reference_is_ip_r_star

F3 = PrimeField(3)
F5 = PrimeField(5)
Q = Rationals()
R2 = PolyRing(2)


def power_map(ring, coeff, degree):
    return scalar_poly_map(ring, [Monomial(ring, coeff, (degree,))])


SQUARE_5 = power_map(F5, 1, 2)
IDENT_P2 = power_map(R2, (1,), 1)


# ---------------------------------------------------------------------------
# return sets


def test_recurrence_set_full_f5():
    s = regular_system(5)
    rep = recurrence_set(s, {0, 1}, SQUARE_5, F(1, 100), FullWindow())
    assert rep.R == frozenset(range(5))
    assert rep.mu == F(2, 5) and rep.threshold == F(3, 20)
    assert rep.khintchine == F(2, 5)
    assert rep.outside_hypotheses
    # correlations behind the verdict: 2/5 at 0, 1/5 on every other square
    corr = {u: c for u, (c, _) in zip(rep.elements, rep.pairs)}
    assert corr[0] == F(2, 5) and corr[1] == F(1, 5) and corr[2] == F(1, 5)


def test_recurrence_set_singleton_f5():
    s = regular_system(5)
    rep = recurrence_set(s, {0}, SQUARE_5, F(1, 50), FullWindow())
    assert rep.R == frozenset({0})
    assert all((c == F(1, 5)) == (u == 0) for u, (c, _) in zip(rep.elements, rep.pairs))


def test_recurrence_set_enumerates_its_window_once(monkeypatch):
    # the report's elements are the only listing of the scan window: R, the pool
    # of the IP scan, the re-check of its witnesses and the exceptional
    # density over the canonical windows degree < 1, < 2 and < 3 are read
    # off them.  The ring's own method is counted, whichever module lists
    # the window.
    calls = []
    enumerate_window = PolyRing.enumerate_window

    def counting(ring, window):
        calls.append(window)
        return enumerate_window(ring, window)

    monkeypatch.setattr(PolyRing, "enumerate_window", counting)
    b = BernoulliSystem(2, [F(1, 2), F(1, 2)])
    args = (b, {(): {0}, (0, 1): {1}}, IDENT_P2, F(1, 100), DegreeWindow(3))
    for run in (
        lambda: recurrence_set(*args),
        lambda: classify_ipstar(recurrence_set(*args), 3),
        lambda: theorem1_pipeline(*args, 3)[0],
    ):
        calls.clear()
        rep = run()
        assert calls == [DegreeWindow(3)]
        assert len(rep.values) == len(rep.pairs) == len(rep.elements) == 8


def test_recurrence_set_refuses_an_event_with_unknown_points():
    with pytest.raises(SystemError, match="unknown points in event"):
        recurrence_set(regular_system(5), frozenset({9}), SQUARE_5, F(1, 100), FullWindow())


def test_recurrence_set_bernoulli_full_window():
    b = BernoulliSystem(2, [F(1, 2), F(1, 2)])
    rep = recurrence_set(b, {(): {0}}, IDENT_P2, F(1, 1000), DegreeWindow(4))
    assert rep.R == frozenset(rep.elements)
    assert len(rep.elements) == 16
    assert not rep.exact


def test_recurrence_set_zero_always_in_R():
    rng = random.Random(20260827)
    s = regular_system(7)
    F7 = PrimeField(7)
    for _ in range(30):
        B = {x for x in range(7) if rng.random() < 0.5}
        phi = power_map(F7, rng.randrange(1, 7), rng.randrange(1, 4))
        eps = F(1, rng.randrange(2, 200))
        rep = recurrence_set(s, B, phi, eps, FullWindow())
        assert 0 in rep.R


PERM2_GRID = FinitePermSystem(
    3, range(9), {x: F(1, 9) for x in range(9)},
    [{x: 3 * (x // 3) + (x + 1) % 3 for x in range(9)}, {x: (x + 3) % 9 for x in range(9)}],
)
# (system, B, map, window) per backend, and a vector-space domain on two
ZERO_CASES = {
    "finite-perm": (regular_system(5), {0, 1}, SQUARE_5, FullWindow()),
    "finite-perm-vector": (
        PERM2_GRID, {0, 1, 4},
        PolynomialMap(F3, 2, VectorSpace(F3, 2),
                      ((Monomial(F3, 1, (1, 0)), (1, 0)), (Monomial(F3, 1, (1, 1)), (0, 1)))),
        FullWindow(),
    ),
    "rotation": (RotationSystem(F(2, 7)), [(F(1, 12), F(1, 3))], power_map(Q, 1, 2),
                 RationalWindow(2, 2)),
    "rotation-vector": (
        RotationSystem((F(2, 7), F(-1, 3))), [(F(1, 12), F(1, 3))],
        PolynomialMap(Q, 2, VectorSpace(Q, 2),
                      ((Monomial(Q, 1, (1, 0)), (1, 0)), (Monomial(Q, 1, (1, 1)), (0, 1)))),
        RationalWindow(1, 2),
    ),
    "bernoulli": (BernoulliSystem(2, [F(1, 3), F(2, 3)]), {(): {0}, (0, 1): {1}}, IDENT_P2,
                  DegreeWindow(3)),
}


@pytest.mark.parametrize("name", sorted(ZERO_CASES))
def test_recurrence_set_refuses_a_kernel_that_misjudges_zero(name, monkeypatch):
    # the scan checks zero's pair once, not R: a kernel that calls w = 0 a
    # miss, and only that w, must still trip the invariant
    sys, B, phi, window = ZERO_CASES[name]
    rep = recurrence_set(sys, B, phi, F(1, 100), window)
    assert rep.pairs and "R" not in vars(rep)  # R is hashed on first use only
    # every kernel takes zero in column form: over Q as (0, 1) pairs
    zero, kernel = pair_column(sys.acting, [sys.acting.zero])[0], type(sys).kernel

    def misjudging(self, B, threshold):
        k = kernel(self, B, threshold)
        return lambda w: (k(w)[0], False) if w == zero else k(w)

    monkeypatch.setattr(type(sys), "kernel", misjudging)
    with pytest.raises(RecurrenceError, match="return set lost the zero element"):
        recurrence_set(sys, B, phi, F(1, 100), window)


def test_recurrence_set_epsilon_monotone():
    rng = random.Random(20260828)
    s = regular_system(7)
    F7 = PrimeField(7)
    for _ in range(30):
        B = {x for x in range(7) if rng.random() < 0.5}
        phi = power_map(F7, rng.randrange(1, 7), rng.randrange(1, 3))
        e1 = F(rng.randrange(1, 50), 100)
        e2 = e1 + F(rng.randrange(0, 50), 100)
        r1 = recurrence_set(s, B, phi, e1, FullWindow())
        r2 = recurrence_set(s, B, phi, e2, FullWindow())
        assert r1.R <= r2.R


def test_recurrence_set_rejections():
    s = regular_system(5)
    with pytest.raises(RecurrenceError, match="positive"):
        recurrence_set(s, {0}, SQUARE_5, F(0), FullWindow())
    with pytest.raises(RecurrenceError, match="does not match"):
        recurrence_set(s, {0}, IDENT_P2, F(1, 10), DegreeWindow(2))


def _perm_system(draw, p, gens):
    """One generator: up to three p-cycles and up to two fixed points.  Two
    generators: the p x p grid, g1 moving the first coordinate and g2 the
    second, plus a fixed point.  Integer weights constant on each orbit."""
    if gens == 1:
        orbits = [[("c", k, i) for i in range(p)] for k in range(draw(st.integers(1, 3)))]
        orbits += [[("f", m)] for m in range(draw(st.integers(0, 2)))]
        perms = [{x: o[(i + 1) % len(o)] for o in orbits for i, x in enumerate(o)}]
    else:
        grid = [("a", i, j) for i in range(p) for j in range(p)]
        orbits = [grid, [("f", 0)]]
        step = {("f", 0): ("f", 0)}
        perms = [step | {("a", i, j): ("a", (i + 1) % p, j) for _, i, j in grid},
                 step | {("a", i, j): ("a", i, (j + 1) % p) for _, i, j in grid}]
    raw = {}
    for o in orbits:
        raw.update(dict.fromkeys(o, draw(st.integers(1, 3))))
    pts = list(raw)
    weights = {x: F(v, sum(raw.values())) for x, v in raw.items()}
    return FinitePermSystem(p, pts, weights, perms), st.frozensets(st.sampled_from(pts))


@st.composite
def scan_cases(draw):
    """(system, B, phi, epsilon, window) on any backend: a map of one to
    three terms from a one- or two-coordinate domain, its weights vectors
    when the acting group is (two finite-perm generators, two angles);
    coefficients and weights may come unnormalised."""
    backend = draw(st.sampled_from(["finite-perm", "rotation", "bernoulli"]))
    n = draw(st.integers(1, 2))
    if backend == "finite-perm":
        p = draw(st.sampled_from([2, 3, 5]))
        sys, events = _perm_system(draw, p, draw(st.integers(1, 2)))
        ring, scalars, window = sys.ring, st.integers(-p, 2 * p), FullWindow()
        B = draw(events)
    elif backend == "rotation":
        rhos = tuple(draw(st.fractions(-2, 2, max_denominator=7)) for _ in range(draw(st.integers(1, 2))))
        sys = RotationSystem(rhos if len(rhos) > 1 else rhos[0])
        ring, scalars = sys.ring, st.fractions(-3, 3, max_denominator=4)
        window = RationalWindow(2, 2) if n == 2 else RationalWindow(4, 4)
        B = draw(st.lists(st.tuples(st.fractions(0, 1, max_denominator=12),
                                    st.fractions(0, 1, max_denominator=12)), max_size=3))
    else:
        p = draw(st.sampled_from([2, 3]))
        raw = draw(st.lists(st.integers(1, 3), min_size=p, max_size=p))
        sys = BernoulliSystem(p, [F(v, sum(raw)) for v in raw])
        ring = sys.ring
        scalars = st.lists(st.integers(0, 2 * p), max_size=3).map(tuple)
        window = DegreeWindow(2) if n == 2 else DegreeWindow(3)
        letters = st.frozensets(st.integers(0, p - 1), min_size=1, max_size=p - 1)
        coords = st.sampled_from(window_enumerate(ring, DegreeWindow(2)))
        B = draw(st.dictionaries(coords, letters, min_size=1, max_size=3))
    target = sys.acting
    weights = scalars if target == ring else st.tuples(*[scalars] * target.dim)
    exponents = st.tuples(*[st.integers(0, 2)] * n).filter(any)
    terms = draw(st.lists(st.tuples(scalars, exponents, weights), min_size=1, max_size=3))
    phi = PolynomialMap(ring, n, target, tuple((Monomial(ring, c, e), w) for c, e, w in terms))
    # epsilon a fraction of mu(B)^2, so the threshold falls among the values
    eps = draw(st.fractions(0, 1).filter(bool)) * (sys.measure(sys.event(B)) ** 2 or 1)
    return sys, B, phi, eps, window


@settings(max_examples=150, deadline=None)
@given(scan_cases())
def test_recurrence_rows_are_the_map_and_the_correlation_of_each_element(case):
    # the scan evaluates the map at window elements without normalising
    # them again; each element's value and pair must match eval_poly, which
    # does (repr tells an int from an equal Fraction), a term-by-term oracle
    # and a one-off correlation
    sys, B, phi, eps, window = case
    rep = recurrence_set(sys, B, phi, eps, window)
    B = sys.event(B)
    threshold = sys.measure(B) ** 2 - eps
    assert len(rep.values) == len(rep.pairs) == len(rep.elements)
    assert list(rep.elements) == window_enumerate(rep.domain, window)
    for u, w, (corr, hit) in zip(rep.elements, rep.values, rep.pairs):
        coords = (u,) if phi.n == 1 else u
        want = eval_poly(phi, coords)
        assert repr(w) == repr(want) and w == naive_map_value(phi, coords)
        assert corr == sys.correlation(B, want)
        assert hit == (corr > threshold)
    assert rep.R == {u for u, (_corr, hit) in zip(rep.elements, rep.pairs) if hit}


@settings(max_examples=100, deadline=None)
@given(scan_cases())
def test_renderers_and_summary_match_a_per_element_recount(case):
    # both renderers and the summary line read the report's columns; the
    # reference recomputes each element and writes each field itself
    rep = recurrence_set(*case)
    scan = reference_scan(rep)
    csv_text, json_text = reference_recurrence_renders(rep)
    assert render_recurrence_csv(rep) == csv_text
    assert render_report_json(report_tree(rep)) == json_text
    hits = [u for u, *_, hit in scan if hit]
    assert rep.R == frozenset(hits)
    assert rep.exceptional == tuple(u for u, *_, hit in scan if not hit)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._print_recurrence_summary(rep.system, rep)
    assert f"R: {len(hits)} of {len(scan)} window elements\n" in out.getvalue()


# ---------------------------------------------------------------------------
# classification


def test_classify_replaces_the_levels_of_an_earlier_scan():
    # a second, shorter scan on the same report keeps none of the first's
    # levels: no "holds" is left above a level whose scan ran out
    F7 = PrimeField(7)
    rep = recurrence_set(regular_system(7), {0, 1}, power_map(F7, 1, 2), F(1, 100), FullWindow())
    assert sorted(classify_ipstar(rep, 4).classification) == [1, 2, 3, 4]
    levels = classify_ipstar(rep, 2, budget=1).classification
    assert sorted(levels) == [1, 2]
    assert levels[2].kind == "budget_exceeded"


def test_classify_full_f5_holds_all_r():
    s = regular_system(5)
    rep = classify_ipstar(recurrence_set(s, {0, 1}, SQUARE_5, F(1, 100), FullWindow()), 4)
    assert all(rep.classification[r].holds for r in range(1, 5))
    assert not any(v["window_limited"] for v in report_tree(rep)["classification"].values())
    assert rep.exceptional == ()


def test_classify_singleton_fails_with_checked_witness():
    s = regular_system(5)
    rep = classify_ipstar(recurrence_set(s, {0}, SQUARE_5, F(1, 50), FullWindow()), 2)
    v = rep.classification[2]
    assert v.kind == "fails" and v.witness == (1, 1)
    # the witness really generates sums that all avoid R
    sums = finite_sums(F5, v.witness)
    assert sums == {1, 2} and not sums & rep.R


@pytest.mark.parametrize(
    "witness", [(0,), (1, 4), (1, 5)], ids=["0 in R", "1+4 in R", "5 outside the window"]
)
def test_classify_refuses_a_forged_fails_witness(monkeypatch, witness):
    # each level's witness is re-checked with finite_sums, outside the scan
    def forged(group, complement, r, **kw):
        prefixes = tuple(witness[:d] for d in range(1, len(witness) + 1))
        return IpStarVerdict("fails", witness, 1, prefixes=prefixes)

    monkeypatch.setattr(recurrence_module, "is_ip_r_star", forged)
    rep = recurrence_set(regular_system(5), {0}, SQUARE_5, F(1, 50), FullWindow())
    with pytest.raises(RecurrenceError, match="witness failed re-verification"):
        classify_ipstar(rep, 2)


@settings(max_examples=80, deadline=None)
@given(scan_cases())
def test_classify_levels_match_the_reference_scan_over_the_window(case):
    # classify scans the report's non-hit elements; the reference probes every
    # tuple of the window against R, so the two share only the return set
    sys, B, phi, eps, window = case
    rep = recurrence_set(sys, B, phi, eps, window)
    n = len(rep.elements)
    r_max = max([r for r in range(1, 5) if n**r <= MAX_TUPLES], default=1)
    levels = classify_ipstar(rep, r_max).classification
    assert sorted(levels) == list(range(1, r_max + 1))
    labels = report_tree(rep)["classification"]
    for d, v in levels.items():
        ref = reference_is_ip_r_star(rep.domain, window, rep.R, d)
        want = ("fails", ref.value, False) if ref.found else ("holds", None, not rep.exact)
        assert (v.kind, v.witness, labels[str(d)]["window_limited"]) == want


def test_classify_bernoulli_window_limited():
    b = BernoulliSystem(2, [F(1, 2), F(1, 2)])
    rep = classify_ipstar(recurrence_set(b, {(): {0}}, IDENT_P2, F(1, 10), DegreeWindow(3)), 3)
    labels = report_tree(rep)["classification"]
    for r in range(1, 4):
        assert rep.classification[r].holds and labels[str(r)]["window_limited"]
    assert rep.exceptional == ()
    # the canonical windows inside degree < 3
    assert rep.exceptional_density.values == (F(0),) * 3


def test_classify_bernoulli_windowed_fails_are_exact():
    # R misses only t in the window; its sums avoid R in the whole group, as
    # R is exact on the window, so r = 1 fails exactly and only holds is
    # window-limited
    b = BernoulliSystem(2, [F(1, 2), F(1, 2)])
    B = {(): {0}, (0, 1): {1}}
    rep = classify_ipstar(recurrence_set(b, B, IDENT_P2, F(1, 100), DegreeWindow(3)), 3)
    levels, labels = rep.classification, report_tree(rep)["classification"]
    assert (levels[1].kind, levels[1].witness, labels["1"]["window_limited"]) == (
        "fails",
        ((0, 1),),
        False,
    )
    assert all(levels[r].holds and labels[str(r)]["window_limited"] for r in (2, 3))


PRIMES_BELOW_90 = [p for p in range(2, 90) if all(p % d for d in range(2, p))]
RANK_CAP = 6  # keeps each exhaustive "holds" scan small


@st.composite
def linear_return_sets(draw):
    """(p, B, c, epsilon, L) with R = {u : |c*u| < L} on regular_system(p),
    |v| the distance from v to 0 on Z/p.  B is an interval of b <= p/2
    points, so B meets its shift by w in max(0, b - |w|) points and
    corr(w) = max(0, b - |w|) / p.  A threshold in [(b - L) / p,
    (b - L + 1) / p), below mu(B)^2 so that epsilon > 0, keeps exactly the
    |w| < L; such a threshold exists when L > b - b^2 / p.  L > p / 7 keeps
    floor(p / L) <= RANK_CAP."""
    p = draw(st.sampled_from(PRIMES_BELOW_90))
    b = draw(st.integers(p // (RANK_CAP + 1) + 1, max(1, p // 2)))
    L = draw(st.integers(max(p // (RANK_CAP + 1) + 1, (b * p - b * b) // p + 1), b))
    start = draw(st.integers(0, p - 1))
    mu2 = F(b, p) ** 2
    low, high = F(b - L, p), min(F(b - L + 1, p), mu2)
    threshold = low + (high - low) * draw(st.fractions(0, 1).filter(lambda t: t < 1))
    c = draw(st.integers(1, p - 1))
    return p, {(start + i) % p for i in range(b)}, c, mu2 - threshold, L


@settings(max_examples=80, deadline=None)
@given(linear_return_sets())
def test_classify_rank_of_a_linear_return_set_is_floor_p_over_L(case):
    # Dirichlet's pigeonhole: r = floor(p / L) generators always have a block
    # summing into R, and r - 1 copies of the u with c*u = L never do
    p, B, c, eps, L = case
    s = regular_system(p)
    rep = recurrence_set(s, B, power_map(s.ring, c, 1), eps, FullWindow())
    assert rep.R == {u for u in range(p) if min(c * u % p, -c * u % p) < L}
    rank = p // L
    classify_ipstar(rep, rank)
    assert [rep.classification[r].kind for r in range(1, rank + 1)] == ["fails"] * (rank - 1) + ["holds"]
    assert not any(v["window_limited"] for v in report_tree(rep)["classification"].values())


def _classify_square(p, r_max=4, B=(0, 1), **kw):
    """Levels 1..r_max of classify on the p-point cycle, u^2, epsilon 1/100."""
    phi = power_map(PrimeField(p), 1, 2)
    rep = recurrence_set(regular_system(p), set(B), phi, F(1, 100), FullWindow())
    return classify_ipstar(rep, r_max, **kw).classification


@pytest.mark.parametrize("p, nodes", [(7, {23}), (13, {145})])
def test_classify_node_counts(p, nodes):
    # one scan to level 4 decides every level, and each verdict carries its
    # nodes (a scan per level would take 1+2+23+23 and 1+2+3+145)
    levels = _classify_square(p)
    assert {levels[r].candidates for r in range(1, 5)} == nodes


def test_classify_f211_is_one_scan():
    # a scan per level would take 2,707,277 nodes, as levels 7 and 8 would
    # each exhaust this tree
    levels = _classify_square(211, 8, range(211 // 3))
    assert {v.candidates for v in levels.values()} == {1_041_361}
    assert [v.kind for v in levels.values()] == ["fails"] * 6 + ["holds"] * 2
    assert levels[6].witness == (43, 59, 64, 64, 64, 64)


def test_classify_budget_partial():
    # the first two nodes reach levels 1 and 2, so the budget runs out at 3
    levels = _classify_square(7, budget=3)
    assert [levels[r].kind for r in (1, 2)] == ["fails", "fails"]
    assert (levels[3].kind, levels[3].candidates) == ("budget_exceeded", 3)
    assert 4 not in levels


@pytest.mark.parametrize("budget", [1, 2, 5, 13, 50])
def test_classify_split_by_budget_resumes_to_the_unsplit_verdicts(budget):
    # the one scan takes 23 nodes
    whole = _classify_square(7)
    level, path, charged = 1, None, 0
    while True:
        part = _classify_square(7, budget=budget, resume_path=path)
        assert sorted(part) == list(range(1, max(part) + 1))  # every level below is listed
        r, last = max(part.items())
        charged += last.candidates
        if last.kind != "budget_exceeded":
            break
        assert last.candidates == budget
        assert r >= level  # a resume never moves back a level
        level, path = r, last.resume_path
    # the replay before the path is not charged, so the split runs charge the unsplit nodes
    assert charged == whole[4].candidates == 23
    assert {r: (v.kind, v.witness) for r, v in part.items()} == {
        r: (v.kind, v.witness) for r, v in whole.items()
    }


@pytest.mark.parametrize("p", [7, 13, 61])
def test_classify_resumes_checkpoints_of_per_level_scans(p):
    # a checkpoint of the per-level classify held (r, the path where level
    # r's own scan ran out); that scan is level r's prefix of the one scan,
    # and stops before any node below depth r, so the one scan reaches it
    B = range(p // 3)
    verdicts = {d: (v.kind, v.witness) for d, v in _classify_square(p, 8, B).items()}
    rep = recurrence_set(
        regular_system(p), set(B), power_map(PrimeField(p), 1, 2), F(1, 100), FullWindow()
    )
    for r in range(1, 9):
        scan = partial(is_ip_r_star, rep.domain, rep.exceptional, r)
        nodes = scan().candidates
        for budget in sorted({1, nodes // 3, nodes // 2, nodes - 1} - {0}):
            path = scan(budget=budget).resume_path
            part = _classify_square(p, 8, B, resume_path=path)
            assert {d: (v.kind, v.witness) for d, v in part.items()} == verdicts


def test_classify_exceptional_density_two_coordinate_cylinder():
    b = BernoulliSystem(2, [F(1, 2), F(1, 2)])
    B = {(): {0}, (0, 1): {1}}
    rep = classify_ipstar(recurrence_set(b, B, IDENT_P2, F(1, 100), DegreeWindow(3)), 2)
    # only the shift by t collides the two constraints into a contradiction
    assert rep.exceptional == ((0, 1),)
    # the scan saw degree < 3 only, so the profile stops at n = 3
    assert rep.exceptional_density.values == (F(0), F(1, 4), F(1, 8))


@st.composite
def bounded_windows(draw):
    """(system, B, phi, epsilon, window): a Bernoulli system over F_p[t]
    with a ``deg D`` window (D 0-4) or a rotation with a ``rat A B`` window
    (A 0-4, B 1-4), and a one-variable monomial map."""
    if draw(st.booleans()):
        p = draw(st.sampled_from([2, 3]))
        raw = draw(st.lists(st.integers(1, 3), min_size=p, max_size=p))
        sys = BernoulliSystem(p, [F(v, sum(raw)) for v in raw])
        window = DegreeWindow(draw(st.integers(0, 4)))
        letters = st.frozensets(st.integers(0, p - 1), min_size=1, max_size=p - 1)
        coords = st.sampled_from(window_enumerate(sys.ring, DegreeWindow(2)))
        B = draw(st.dictionaries(coords, letters, min_size=1, max_size=3))
        coeff = draw(st.lists(st.integers(0, p - 1), max_size=2).map(tuple))
    else:
        sys = RotationSystem(draw(st.fractions(-2, 2, max_denominator=7)))
        window = RationalWindow(draw(st.integers(0, 4)), draw(st.integers(1, 4)))
        ends = st.fractions(0, 1, max_denominator=12)
        B = draw(st.lists(st.tuples(ends, ends), max_size=3))
        coeff = draw(st.fractions(-3, 3, max_denominator=4))
    phi = power_map(sys.ring, coeff, draw(st.integers(1, 2)))
    eps = draw(st.fractions(0, 1).filter(bool)) * (sys.measure(sys.event(B)) ** 2 or 1)
    return sys, B, phi, eps, window


def _canonical_window(sys, n) -> set:
    """Phi_n listed plainly: polynomials of degree < n as coefficient tuples
    without trailing zeros, or the a/b with |a| <= n and 1 <= b <= n."""
    if isinstance(sys, BernoulliSystem):
        out = set()
        for c in itertools.product(range(sys.p), repeat=n):
            while c and c[-1] == 0:
                c = c[:-1]
            out.add(c)
        return out
    return {F(a, b) for a in range(-n, n + 1) for b in range(1, n + 1)}


@settings(max_examples=100, deadline=None)
@given(bounded_windows())
def test_exceptional_density_covers_the_canonical_windows_inside_the_report(case):
    # the profile runs over n = 1..N, N the largest index whose canonical
    # window lies inside the scanned one: D for deg D, min(A, B) for rat A B
    sys, B, phi, eps, window = case
    rep = classify_ipstar(recurrence_set(sys, B, phi, eps, window), 1)
    if isinstance(window, DegreeWindow):
        N = window.deg_bound
    else:
        N = min(window.num_bound, window.den_bound)
    assert report_tree(rep)["R"]["exact"] is False
    if N == 0:
        assert rep.exceptional_density is None
        return
    S = set(rep.exceptional)
    windows = [_canonical_window(sys, n) for n in range(1, N + 1)]
    assert list(rep.exceptional_density.values) == [F(len(S & w), len(w)) for w in windows]


# ---------------------------------------------------------------------------
# pipeline and agreement


def test_pipeline_finite_perm_A_subset_R_E_empty():
    s = regular_system(5)
    rep, A, E = theorem1_pipeline(s, {0, 1}, SQUARE_5, F(1, 100), FullWindow(), 2)
    assert E == ()
    assert set(A) <= rep.R
    assert 0 in A


def test_pipeline_bernoulli_A_window_E_finite():
    b = BernoulliSystem(2, [F(1, 2), F(1, 2)])
    B = {(): {0}, (0, 1): {1}}
    rep, A, E = theorem1_pipeline(b, B, IDENT_P2, F(1, 100), DegreeWindow(3), 2)
    assert A == rep.elements  # constant part never moves
    assert E == ((0, 1),)  # cross term dips exactly where letters clash
    assert set(A) - set(E) <= rep.R


def test_pipeline_rotation_matches_direct_scan():
    r = RotationSystem(F(1, 6))
    B = [(F(0), F(1, 2))]
    phi = power_map(Q, F(1), 1)
    win = RationalWindow(3, 2)
    a = recurrence_set(r, B, phi, F(1, 10), win)
    b, _A, _E = theorem1_pipeline(r, B, phi, F(1, 10), win, 2)
    assert reports_agree(a, b)
    assert a.R != frozenset(a.elements)  # half-turn shifts fall out


def test_two_path_agreement_randomized():
    rng = random.Random(20260829)
    s = regular_system(7)
    F7 = PrimeField(7)
    rot = RotationSystem(F(2, 9))
    ber = BernoulliSystem(2, [F(1, 3), F(2, 3)])
    for _ in range(17):
        B = {x for x in range(7) if rng.random() < 0.5}
        phi = power_map(F7, rng.randrange(1, 7), rng.randrange(1, 3))
        eps = F(rng.randrange(1, 40), 40)
        assert reports_agree(
            recurrence_set(s, B, phi, eps, FullWindow()),
            theorem1_pipeline(s, B, phi, eps, FullWindow(), 1)[0],
        )
    for _ in range(17):
        a = F(rng.randrange(0, 9), 9)
        b = a + F(rng.randrange(1, 5), 9)
        B = [(a, b if b <= 1 else b - 1)]
        phi = power_map(Q, F(rng.randrange(1, 5), rng.randrange(1, 3)), rng.randrange(1, 3))
        eps = F(rng.randrange(1, 30), 30)
        win = RationalWindow(2, 2)
        assert reports_agree(
            recurrence_set(rot, B, phi, eps, win),
            theorem1_pipeline(rot, B, phi, eps, win, 1)[0],
        )
    coords = [(), (1,), (0, 1), (1, 1)]
    for _ in range(16):
        picks = rng.sample(coords, rng.randrange(1, 3))
        B = {c: {rng.randrange(2)} for c in picks}
        phi = power_map(R2, (1,), rng.randrange(1, 3))
        eps = F(rng.randrange(1, 30), 30)
        assert reports_agree(
            recurrence_set(ber, B, phi, eps, DegreeWindow(2)),
            theorem1_pipeline(ber, B, phi, eps, DegreeWindow(2), 1)[0],
        )


def test_dilation_preserves_return_set_size():
    rng = random.Random(20260830)
    s = regular_system(7)
    F7 = PrimeField(7)
    lin = power_map(F7, 3, 1)
    for _ in range(25):
        B = {x for x in range(7) if rng.random() < 0.5}
        a = rng.randrange(1, 7)
        aB = {(a * x) % 7 for x in B}
        eps = F(rng.randrange(1, 60), 60)
        r1 = recurrence_set(s, B, lin, eps, FullWindow())
        r2 = recurrence_set(s, aB, lin, eps, FullWindow())
        assert len(r1.R) == len(r2.R)


# ---------------------------------------------------------------------------
# finite products


def test_fp_probe_examples():
    s = regular_system(5)
    full = (s, {0, 1}, SQUARE_5, F(1, 100), FullWindow())
    probe = fp_probe(*full, (2, 3))
    assert probe.products == (2, 3, 1)
    assert probe.intersects and probe.witnesses == (2, 3, 1)
    single = (s, {0}, SQUARE_5, F(1, 50), FullWindow())
    probe2 = fp_probe(*single, (2, 2))
    assert probe2.products == (2, 2, 4) and not probe2.intersects
    with pytest.raises(RecurrenceError, match="zero generator"):
        fp_probe(*full, (0, 2))


# (system, B, phi, epsilon, window) per backend, and the generators to draw from
PROBE_CASES = {
    "finite-perm": (
        (regular_system(7), {0, 1, 3}, power_map(PrimeField(7), 1, 2), F(1, 100), FullWindow()),
        st.integers(1, 6),
    ),
    "rotation": (
        (RotationSystem(F(1, 2)), [(0, F(1, 3))], power_map(Q, 1, 1), F(1, 100),
         RationalWindow(2, 2)),
        st.fractions(-4, 4, max_denominator=3).filter(bool),
    ),
    "bernoulli": (
        (BernoulliSystem(2, [F(1, 3), F(2, 3)]), {(): {0}, (1, 1): {1}}, IDENT_P2, F(1, 100),
         DegreeWindow(2)),
        st.sampled_from([(1,), (0, 1), (1, 1)]),
    ),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(PROBE_CASES)), st.data())
def test_fp_probe_witnesses_are_the_products_in_R(backend, data):
    args, gen = PROBE_CASES[backend]
    gens = data.draw(st.lists(gen, min_size=1, max_size=3), label="gens")
    probe = fp_probe(*args, gens)
    R = recurrence_set(*args).R
    assert probe.witnesses == tuple(v for v in probe.products if v in R)
    assert probe.intersects == bool(probe.witnesses)


@pytest.mark.parametrize("backend, gens, outside", [
    ("rotation", (2, 2, F(1, 2)), 4),  # 4 = 2*2 leaves |a| <= 2; angle 2 turns back to 0
    ("bernoulli", ((0, 1), (1, 1)), (0, 1, 1)),  # t(1+t) has degree 2; shift off supp(B)
])
def test_fp_probe_never_takes_a_product_outside_the_window(backend, gens, outside, monkeypatch):
    (sys, B, phi, eps, window), _ = PROBE_CASES[backend]
    asked = []  # every w the probe's kernel is called on
    kernel = sys.kernel

    def counting(event, threshold):
        hit = kernel(event, threshold)

        def counted(w):
            asked.append(w)
            return hit(w)

        return counted

    monkeypatch.setattr(sys, "kernel", counting)
    probe = fp_probe(sys, B, phi, eps, window, gens)
    monkeypatch.undo()
    rep = recurrence_set(sys, B, phi, eps, window)
    assert outside in probe.products and outside not in rep.elements
    # only 0 and the in-window products are correlated, each in column form
    inside = [v for v in probe.products if v in rep.elements]
    assert asked == list(pair_column(phi.target, [phi((v,)) for v in [rep.domain.zero, *inside]]))
    # its correlation clears the threshold, so only the window keeps it out
    assert sys.correlation(rep.B, phi((outside,))) > rep.threshold
    assert outside not in probe.witnesses and probe.witnesses


def test_fp_probe_needs_ring():
    pts = [(a, b) for a in range(2) for b in range(2)]
    wts = {x: F(1, 4) for x in pts}
    g1 = {(a, b): ((a + 1) % 2, b) for a, b in pts}
    g2 = {(a, b): (a, (b + 1) % 2) for a, b in pts}
    s = FinitePermSystem(2, pts, wts, [g1, g2])
    F2 = PrimeField(2)
    vec = VectorSpace(F2, 2)
    phi = PolynomialMap(
        F2,
        2,
        vec,
        ((Monomial(F2, 1, (1, 0)), (1, 0)), (Monomial(F2, 1, (0, 1)), (0, 1))),
    )
    with pytest.raises(RecurrenceError, match="ring"):
        fp_probe(s, {(0, 0)}, phi, F(1, 2), FullWindow(), ((1, 0),))


# ---------------------------------------------------------------------------
# constructive searches


def test_isometric_search_rotation_seventh():
    rot = RotationSystem(F(1, 7))
    m = Monomial(Q, F(1), (2,))
    res = isometric_recurrence_search(rot, F(0), m, F(1, 100), (1,) * 7)
    assert res.found
    assert res.gamma == frozenset(range(1, 8))
    assert res.u_gamma == 7 and res.exponent == F(49)
    assert res.distance_sq == 0
    assert res.cells == 200
    assert res.proof_bound == "hj(4, 200)"
    assert res.sufficient_length == 7


def test_isometric_search_rotation_third():
    rot = RotationSystem(F(1, 3))
    m = Monomial(Q, F(1), (1,))
    res = isometric_recurrence_search(rot, F(1, 5), m, F(1, 10), (1, 1, 1))
    assert res.found and res.gamma == frozenset({1, 2, 3})
    assert res.u_gamma == 3 and res.distance_sq == 0


def test_isometric_search_perm_trivial_and_exact():
    s = regular_system(5)
    m = Monomial(F5, 1, (1,))
    loose = isometric_recurrence_search(s, frozenset({0, 1}), m, F(2), (1,))
    assert loose.found and loose.gamma == frozenset({1})
    assert loose.cells == 1  # one giant ball
    assert loose.distance_sq == F(2, 5)
    tight = isometric_recurrence_search(s, frozenset({0, 1}), m, F(1, 10), (1,) * 5)
    assert tight.found and tight.exponent == 0
    assert tight.distance_sq == 0 and tight.sufficient_length == 5


def test_isometric_search_absent_when_r_too_small():
    rot = RotationSystem(F(1, 7))
    m = Monomial(Q, F(1), (2,))
    res = isometric_recurrence_search(rot, F(0), m, F(1, 100), (1,))
    assert res.status == "absent" and res.gamma is None
    assert res.words_scanned == 4
    s = regular_system(5)
    res2 = isometric_recurrence_search(s, frozenset({0, 1}), Monomial(F5, 1, (1,)), F(1, 10), (1,))
    assert res2.status == "absent"


def test_isometric_search_random_integer_gens():
    rot = RotationSystem(F(1, 7))
    m = Monomial(Q, F(1), (2,))
    rng = random.Random(20260831)
    for _ in range(8):
        gens = tuple(rng.randrange(-20, 21) for _ in range(7))
        x = F(rng.randrange(0, 7), 7)
        res = isometric_recurrence_search(rot, x, m, F(1, 100), gens)
        assert res.found
        # re-verify from scratch, independent of the search bookkeeping
        d2 = naive_rotation_return_sq(F(1, 7), x, 1, 2, gens, res.gamma)
        assert d2 == res.distance_sq < F(1, 100) ** 2


def test_search_refuses_a_certificate_that_fails_reverification(monkeypatch):
    # a cover that puts every orbit point in one cell makes every line
    # monochromatic; the exact re-check of the first one refuses it
    rot = RotationSystem(F(1, 7))
    m = Monomial(Q, F(1), (2,))
    monkeypatch.setattr(
        recurrence_module, "_cells", lambda s, m, x, width, gens: ([0] * (1 << len(gens)) ** 2, 1)
    )
    with pytest.raises(RecurrenceError, match="re-verification"):
        isometric_recurrence_search(rot, F(0), m, F(1, 100), (1,) * 7)


def test_search_input_rejections():
    rot = RotationSystem(F(1, 3))
    m = Monomial(Q, F(1), (1,))
    b = BernoulliSystem(2, [F(1, 2), F(1, 2)])
    with pytest.raises(RecurrenceError, match="compact"):
        isometric_recurrence_search(b, F(0), m, F(1, 10), (1,))
    with pytest.raises(RecurrenceError, match="positive"):
        isometric_recurrence_search(rot, F(0), m, F(0), (1,))
    with pytest.raises(RecurrenceError, match="\\[0, 1\\)"):
        isometric_recurrence_search(rot, F(3, 2), m, F(1, 10), (1,))
    with pytest.raises(RecurrenceError, match="at least one"):
        isometric_recurrence_search(rot, F(0), m, F(1, 10), ())
    with pytest.raises(RecurrenceError, match="too large"):
        isometric_recurrence_search(rot, F(0), Monomial(Q, F(1), (3,)), F(1, 10), (1,) * 8)


def test_search_space_cap_is_decided_by_exponents(monkeypatch):
    # (2^d)^r words: d * r = 20 reaches the cover table, 21 is refused, and
    # an absurd degree is refused before any power of it is formed
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(recurrence_module, "_cells", reached)
    rot = RotationSystem(F(1, 7))
    with pytest.raises(Reached):
        isometric_recurrence_search(rot, F(0), Monomial(Q, F(1), (5,)), F(1, 10), (1, 2, 3, 4))
    t0 = time.perf_counter()
    for degree, r in [(3, 7), (21, 1), (100_000_000, 4)]:
        with pytest.raises(RecurrenceError, match="search space too large"):
            isometric_recurrence_search(rot, F(0), Monomial(Q, F(1), (degree,)), F(1, 10), (1,) * r)
    assert time.perf_counter() - t0 < 0.5  # forming 2^(4 * 10^8) alone takes seconds
