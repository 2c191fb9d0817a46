"""Acceptance gate: the ten headline claims, one pass/fail line each.

Every test is exact-arithmetic end to end and carries its own wall-clock
ceiling; run with -v to see one line per criterion.
"""

import itertools
import random
import time
from fractions import Fraction as F
from functools import partial

from ipstar import cli
from ipstar.algebra import (
    DegreeWindow,
    FullWindow,
    Monomial,
    PolyRing,
    PrimeField,
    RationalWindow,
    Rationals,
    scalar_poly_map,
    window_enumerate,
)
from ipstar.halesjewett import (
    hj_stage,
    line_points,
    line_to_config,
    psi_encode,
)
from ipstar.ipsets import (
    example_a,
    example_a_checks,
    fk_density_experiment,
    fk_odds_certificate,
    fu_ramsey_check,
)
from ipstar.recurrence import (
    classify_ipstar,
    isometric_recurrence_search,
    recurrence_set,
)
from ipstar.search import stages
from ipstar.systems import (
    BernoulliSystem,
    RotationSystem,
    compact_projection,
    dlim_probe,
    regular_system,
)
from ipstar.textio import (
    check_certificate,
    coloring_certificate,
    render_certificate,
)
from oracles import (
    all_lines,
    config_points,
    family_order,
    folner_density,
    khintchine_bound,
    psi_decode,
    reports_agree,
    telescope_check,
    theorem1_pipeline,
    through_first_all_ok,
)

Q = Rationals()
F5 = PrimeField(5)
R2 = PolyRing(2)


def square_map(ring):
    return scalar_poly_map(ring, [Monomial(ring, ring.one, (2,))])


def test_criterion_01_hj_number_two_two():
    t0 = time.perf_counter()
    done = through_first_all_ok(stages(range(1, 5), partial(hj_stage, 2, 2)))
    assert [m for m, _ in done] == [1, 2]  # HJ(2,2) = 2
    (_, first), (_, second) = done
    assert first.kind == "counterexample" and first.coloring is not None
    assert second.kind == "all-colorings-ok" and second.cover
    # both stage claims survive the verification-only re-check
    assert check_certificate(coloring_certificate("hj", {"k": 2, "t": 2, "m": 1}, first))
    assert check_certificate(coloring_certificate("hj", {"k": 2, "t": 2, "m": 2}, second))
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_fu_ramsey_finite_shadow(tmp_path, capsys):
    t0 = time.perf_counter()
    res = fu_ramsey_check(3, 2, 2)
    assert res.kind == "counterexample"
    # the least bad coloring is exactly the block-size parity coloring
    parity = tuple(1 if len(a) % 2 else 2 for a in family_order(3))
    assert res.coloring == parity
    results = through_first_all_ok(
        stages(range(1, 5), lambda r, **kw: fu_ramsey_check(r, 2, 2, **kw), budget=500_000)
    )
    # no universal r that low; every level has a witness
    assert [(r, x.kind) for r, x in results] == [(r, "counterexample") for r in range(1, 5)]
    for r, x in results:
        path = tmp_path / f"fu-r{r}.txt"
        path.write_text(render_certificate(coloring_certificate("fu", {"r": r, "s": 2, "k": 2}, x)))
        assert cli.main(["--check", str(path)]) == 0
    capsys.readouterr()
    assert time.perf_counter() - t0 < 300


def test_criterion_03_blocking_density_bound():
    t0 = time.perf_counter()
    for N in (4, 8, 16):
        res = fk_density_experiment(2, N)
        assert res.status == "done"
        assert F(1, 2) - F(2, N) <= res.value <= F(1, 2) + F(2, N)
        _evens, density, valid = fk_odds_certificate(N)
        assert valid
        assert density == F(-(-N // 2), N)
    assert time.perf_counter() - t0 < 120


def test_criterion_04_block_example_checks():
    t0 = time.perf_counter()
    checks = example_a_checks(example_a(4))
    assert checks == {"in_block_fs": True, "cross_block_free": True, "fs_depth": True}
    assert time.perf_counter() - t0 < 10


def test_criterion_05_cycle_recurrence_exactness():
    t0 = time.perf_counter()
    s = regular_system(5)
    full = classify_ipstar(
        recurrence_set(s, {0, 1}, square_map(F5), F(1, 100), FullWindow()), 4
    )
    assert full.R == set(range(5)) and full.exact
    assert all(full.classification[r].kind == "holds" for r in range(1, 5))
    single = classify_ipstar(
        recurrence_set(s, {0}, square_map(F5), F(1, 50), FullWindow()), 2
    )
    assert single.R == {0} and single.exact
    assert single.classification[2].kind == "fails"
    assert single.classification[2].witness == (1, 1)
    assert single.outside_hypotheses  # finite ambient group
    assert time.perf_counter() - t0 < 1.0


def test_criterion_06_product_backend_mechanics():
    t0 = time.perf_counter()
    ber = BernoulliSystem(2, [F(1, 2), F(1, 2)])
    B = ber.event({(): {0}, (0, 1): {1}})
    mu = ber.measure(B)
    ident = scalar_poly_map(R2, [Monomial(R2, (1,), (1,))])
    # exact product splitting whenever the shifted support is disjoint
    checked = 0
    for w in window_enumerate(R2, DegreeWindow(6)):
        shifted = {R2.add(c, w) for c in B.constraints}
        if not (set(B.constraints) & shifted):
            checked += 1
            assert ber.correlation(B, w) == mu * mu
    assert checked == 62
    vals = dlim_probe(ber, B, ident, 6).values
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # the oracle returns only when its inequality chain held: A minus E lies in R
    _rep, _A, E = theorem1_pipeline(ber, B, ident, F(1, 10), DegreeWindow(6), 1)
    exceptional = set(E)
    assert len(exceptional) == 1  # finite, and tiny
    profile = folner_density(lambda u: u in exceptional, R2, 6)
    assert profile.value < F(1, 8)
    assert time.perf_counter() - t0 < 30


def test_criterion_07_constructive_search_rotation():
    t0 = time.perf_counter()
    rot = RotationSystem(F(1, 7))
    m = Monomial(Q, 1, (2,))
    eps = F(1, 100)
    rng = random.Random(20260916)
    probe = isometric_recurrence_search(rot, F(0), m, eps, (1,))
    length = probe.sufficient_length
    assert length == 7
    for _ in range(100):
        gens = tuple(rng.randrange(1, 100) for _ in range(length))
        res = isometric_recurrence_search(rot, F(0), m, eps, gens)
        assert res.found
        assert res.distance_sq < eps * eps
    F7 = PrimeField(7)
    for _ in range(1000):
        mono = Monomial(F7, rng.randrange(1, 7), (rng.randrange(1, 4),))
        u = (rng.randrange(7),)
        alphas = [(rng.randrange(7),) for _ in range(mono.total_degree)]
        assert telescope_check(mono, u, alphas)
    assert time.perf_counter() - t0 < 60


def test_criterion_08_two_path_agreement():
    t0 = time.perf_counter()
    rng = random.Random(20260915)
    s = regular_system(7)
    F7 = PrimeField(7)
    for _ in range(17):
        B = {x for x in range(7) if rng.random() < 0.5} or {0}
        phi = scalar_poly_map(F7, [Monomial(F7, rng.randrange(1, 7), (rng.randrange(1, 3),))])
        eps = F(rng.randrange(1, 50), 50)
        a = recurrence_set(s, B, phi, eps, FullWindow())
        # the oracle path returns only when its inequality chain held
        b, _A, _E = theorem1_pipeline(s, B, phi, eps, FullWindow(), 1)
        assert reports_agree(a, b)
    rot = RotationSystem(F(3, 8))
    for _ in range(17):
        lo = F(rng.randrange(0, 8), 8)
        hi = lo + F(rng.randrange(1, 4), 8)
        B = [(lo, min(hi, F(1)))]
        phi = scalar_poly_map(
            Q, [Monomial(Q, F(rng.randrange(1, 5), rng.randrange(1, 3)), (rng.randrange(1, 3),))]
        )
        eps = F(rng.randrange(1, 30), 30)
        win = RationalWindow(2, 2)
        a = recurrence_set(rot, B, phi, eps, win)
        b, _A, _E = theorem1_pipeline(rot, B, phi, eps, win, 1)
        assert reports_agree(a, b)
    ber = BernoulliSystem(2, [F(1, 4), F(3, 4)])
    coords = [(), (1,), (0, 1), (1, 1)]
    for _ in range(16):
        picks = rng.sample(coords, rng.randrange(1, 3))
        B = {c: {rng.randrange(2)} for c in picks}
        phi = scalar_poly_map(R2, [Monomial(R2, (1,), (rng.randrange(1, 3),))])
        eps = F(rng.randrange(1, 30), 30)
        a = recurrence_set(ber, B, phi, eps, DegreeWindow(2))
        b, _A, _E = theorem1_pipeline(ber, B, phi, eps, DegreeWindow(2), 1)
        assert reports_agree(a, b)
    assert time.perf_counter() - t0 < 120


def test_criterion_09_word_subset_encoding():
    t0 = time.perf_counter()
    for d in (1, 2, 3):
        for r in (1, 2, 3, 4):
            seen = set()
            for w in itertools.product(range(1, (1 << d) + 1), repeat=r):
                alphas = psi_encode(w, d)
                assert psi_decode(alphas, r) == w
                seen.add(alphas)
            assert len(seen) == (1 << d) ** r  # injective onto all subset tuples
    for d in (1, 2):
        for r in (1, 2, 3):
            for L in all_lines(1 << d, r):
                cfg = line_to_config(L, d)
                expect = [psi_encode(p, d) for p in line_points(L, 1 << d)]
                assert config_points(cfg) == expect
    assert time.perf_counter() - t0 < 10


def test_criterion_10_khintchine_bound_random():
    t0 = time.perf_counter()
    rng = random.Random(20260917)
    coords = [(), (1,), (0, 1), (1, 1)]
    for i in range(100):
        kind = i % 3
        if kind == 0:
            sys_ = regular_system(rng.choice([5, 7]))
            B = sys_.event(
                {x for x in sys_.points if rng.random() < 0.6} or {sys_.points[0]}
            )
        elif kind == 1:
            sys_ = RotationSystem(F(rng.randrange(1, 9), 9))
            lo = F(rng.randrange(0, 11), 12)
            hi = lo + F(rng.randrange(1, 6), 12)
            B = sys_.event([(lo, min(hi, F(1)))])
        else:
            sys_ = BernoulliSystem(2, [F(1, 3), F(2, 3)])
            picks = rng.sample(coords, rng.randrange(1, 3))
            B = sys_.event({c: {rng.randrange(2)} for c in picks})
        mu = sys_.measure(B)
        split = compact_projection(sys_, B)
        assert khintchine_bound(sys_, B) >= mu * mu
        assert split.norm2_f == split.norm2_compact + split.norm2_residual
        assert split.norm2_f == mu
    assert time.perf_counter() - t0 < 30
