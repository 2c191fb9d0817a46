"""Backend measure systems: exact correlations, splits, averaging."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipstar.algebra import (
    AlgebraError,
    DegreeWindow,
    Integers,
    Monomial,
    PolyRing,
    PolynomialMap,
    PrimeField,
    RationalWindow,
    Rationals,
    VectorSpace,
    window_enumerate,
)
from ipstar import systems
from ipstar.systems import (
    BernoulliSystem,
    Cylinder,
    DensityProfile,
    FinitePermSystem,
    IntervalUnion,
    RotationSystem,
    SpectralSplit,
    SystemError,
    compact_projection,
    dlim_probe,
    folner_sets,
    orbit_metric,
    regular_system,
    window_means,
)
from oracles import (
    cross_terms,
    folner_density,
    interval_length_oracle,
    khintchine_bound,
    naive_bernoulli_cylinder_prob,
    naive_dlim_values,
    naive_finite_correlation,
    naive_perm_power,
    projected_orbit_dist_sq,
    rotation_orbit_point,
)


# ---------------------------------------------------------------------------
# finite permutation systems


def test_regular_system_correlation_examples():
    s = regular_system(5)
    B = s.event({0, 1})
    assert s.measure(B) == F(2, 5)
    assert s.correlation(B, 1) == F(1, 5)
    assert s.correlation(B, 0) == F(2, 5)
    assert s.correlation(B, 2) == 0
    assert s.correlation(B, 3) == 0
    assert s.correlation(B, 4) == F(1, 5)


def test_regular_system_correlation_symmetric():
    s = regular_system(7)
    rng = random.Random(20260815)
    for _ in range(50):
        B = s.event({x for x in range(7) if rng.random() < 0.5})
        w = rng.randrange(7)
        assert s.correlation(B, w) == s.correlation(B, -w)
        assert 0 <= s.correlation(B, w) <= s.measure(B)


def test_finite_correlation_matches_oracle():
    s = regular_system(7)
    rng = random.Random(20260816)
    for _ in range(200):
        B = {x for x in range(7) if rng.random() < 0.5}
        w = rng.randrange(7)
        got = s.correlation(s.event(B), w)
        want = naive_finite_correlation(s.points, s.weights, naive_perm_power(s.gens, (w,)), B)
        assert got == want


def test_two_generator_system():
    pts = [(a, b) for a in range(3) for b in range(3)]
    wts = {x: F(1, 9) for x in pts}
    g1 = {(a, b): ((a + 1) % 3, b) for a, b in pts}
    g2 = {(a, b): (a, (b + 1) % 3) for a, b in pts}
    s = FinitePermSystem(3, pts, wts, [g1, g2])
    assert s.acting == VectorSpace(PrimeField(3), 2)
    B = s.event({(0, 0), (1, 2)})
    assert s.measure(B) == F(2, 9)
    assert s.correlation(B, (1, 2)) == F(1, 9)  # (0,0)+(1,2) = (1,2) lands in B
    assert s.correlation(B, (0, 0)) == F(2, 9)
    rng = random.Random(20260817)
    for _ in range(40):
        Br = s.event({x for x in pts if rng.random() < 0.4})
        w = (rng.randrange(3), rng.randrange(3))
        want = naive_finite_correlation(s.points, s.weights, naive_perm_power(s.gens, w), Br)
        assert s.correlation(Br, w) == want


def test_transform_is_additive_homomorphism():
    pts = [(a, b) for a in range(3) for b in range(3)]
    wts = {x: F(1, 9) for x in pts}
    g1 = {(a, b): ((a + 1) % 3, b) for a, b in pts}
    g2 = {(a, b): (a, (b + 1) % 3) for a, b in pts}
    s = FinitePermSystem(3, pts, wts, [g1, g2])
    rng = random.Random(20260818)
    for _ in range(30):
        w1 = (rng.randrange(3), rng.randrange(3))
        w2 = (rng.randrange(3), rng.randrange(3))
        w12 = ((w1[0] + w2[0]) % 3, (w1[1] + w2[1]) % 3)
        t1, t2 = s.transform(w1), s.transform(w2)
        assert s.transform(w12) == {x: t1[t2[x]] for x in pts}


def test_finite_perm_isometry_spot_checks():
    s = regular_system(5)
    rng = random.Random(20260819)
    for _ in range(40):
        B1 = s.event({x for x in range(5) if rng.random() < 0.5})
        B2 = s.event({x for x in range(5) if rng.random() < 0.5})
        w = rng.randrange(5)
        d = orbit_metric(s, B1, B2)
        assert orbit_metric(s, s.shift_event(B1, w), s.shift_event(B2, w)) == d


def test_orbit_metric_examples():
    s = regular_system(5)
    B = s.event({0, 1})
    assert orbit_metric(s, B, B) == 0
    # Koopman image of 1_B under w=1 is the indicator of B shifted back
    assert orbit_metric(s, B, s.shift_event(B, -1)) == F(2, 5)
    assert orbit_metric(s, B, s.shift_event(B, 1)) == F(2, 5)


def test_finite_perm_construction_rejections():
    pts = [0, 1, 2, 3]
    uni = {x: F(1, 4) for x in pts}
    ident = {x: x for x in pts}
    with pytest.raises(SystemError, match="permutation"):
        FinitePermSystem(2, pts, uni, [{0: 0, 1: 0, 2: 2, 3: 3}])
    with pytest.raises(SystemError, match="sum to 1"):
        FinitePermSystem(2, pts, {x: F(1, 5) for x in pts}, [ident])
    with pytest.raises(SystemError, match="cover exactly"):
        FinitePermSystem(2, pts, {0: F(1, 2), 1: F(1, 2)}, [ident])
    with pytest.raises(SystemError, match="non-negative"):
        FinitePermSystem(2, pts, {0: F(3, 2), 1: F(-1, 2), 2: F(0), 3: F(0)}, [ident])
    with pytest.raises(SystemError, match="duplicate"):
        FinitePermSystem(2, [0, 0, 1], {0: F(1, 2), 1: F(1, 2)}, [ident])
    # swap of unequal weights breaks measure preservation
    lop = {0: F(1, 2), 1: F(1, 6), 2: F(1, 6), 3: F(1, 6)}
    swap01 = {0: 1, 1: 0, 2: 2, 3: 3}
    with pytest.raises(SystemError, match="preserve"):
        FinitePermSystem(2, pts, lop, [swap01])
    # transposition has order 2, not dividing 3
    with pytest.raises(SystemError, match="order"):
        FinitePermSystem(3, pts, uni, [swap01])
    # two overlapping transpositions do not commute
    swap12 = {0: 0, 1: 2, 2: 1, 3: 3}
    with pytest.raises(SystemError, match="commute"):
        FinitePermSystem(2, pts, uni, [swap01, swap12])
    with pytest.raises(SystemError, match="unknown points"):
        regular_system(5).event({0, 9})


def test_an_event_is_checked_against_the_point_set_of_the_system():
    s = FinitePermSystem(2, ["a", "b", 3], {"a": F(1, 4), "b": F(1, 4), 3: F(1, 2)},
                         [{"a": "b", "b": "a", 3: 3}])
    assert s.event(["b", 3, "b"]) == frozenset({"b", 3})
    assert s.event(()) == frozenset()
    with pytest.raises(SystemError) as refused:
        s.event({"a", 4, "c"})
    assert str(refused.value) == "unknown points in event: ['4', 'c']"


def test_finite_perm_keeps_fraction_weights_and_converts_the_rest():
    half, quarter = F(1, 2), F(1, 4)
    s = FinitePermSystem(2, [0, 1, 2, 3], {0: half, 1: "1/4", 2: quarter, 3: 0},
                         [{0: 0, 1: 2, 2: 1, 3: 3}])
    assert s.weights[0] is half and s.weights[2] is quarter
    assert s.weights == {0: half, 1: quarter, 2: quarter, 3: F(0)}
    assert all(type(w) is F for w in s.weights.values())


def test_finite_perm_acting_elements_must_be_field_elements():
    # a float or a bool is no element of F_p, as on the other backends
    s = regular_system(5)
    B = s.event({0, 1})
    for w in (True, 0.5, (True,), (F(1),)):
        with pytest.raises(AlgebraError):
            s.correlation(B, w)
        with pytest.raises(AlgebraError):
            s.shift_event(B, w)
    t = FinitePermSystem(5, s.points, s.weights, [s.gens[0], s.gens[0]])
    assert t.correlation(B, (1, 4)) == t.correlation(B, (0, 0))
    with pytest.raises(AlgebraError):
        t.correlation(B, (1, False))


# ---------------------------------------------------------------------------
# interval unions and rotations


def test_interval_union_normalization():
    u = IntervalUnion([(F(1, 2), F(3, 4)), (F(0), F(1, 4))])
    assert u.pieces == ((F(0), F(1, 4)), (F(1, 2), F(3, 4)))
    assert IntervalUnion([(F(0), F(1, 2)), (F(1, 4), F(3, 4))]).pieces == ((F(0), F(3, 4)),)
    # one set from two pair lists: equal, with one hash
    a = IntervalUnion([(F(0), F(1, 2)), (F(1, 4), F(3, 4))])
    b = IntervalUnion([(F(1, 4), F(3, 4)), (F(0), F(1, 4))])
    assert a == b and hash(a) == hash(b) and a != IntervalUnion([(F(0), F(1, 2))])
    # half-open adjacency merges
    assert IntervalUnion([(F(0), F(1, 2)), (F(1, 2), F(3, 4))]).pieces == ((F(0), F(3, 4)),)
    # a wrapping pair splits at 1
    assert IntervalUnion([(F(3, 4), F(1, 4))]).pieces == ((F(0), F(1, 4)), (F(3, 4), F(1)))
    assert IntervalUnion([(F(1, 3), F(1, 3))]).pieces == ()
    with pytest.raises(SystemError, match="out of"):
        IntervalUnion([(F(0), F(3, 2))])


@pytest.mark.parametrize(
    "wrapping, plain",
    [((F(3, 4), F(0)), (F(3, 4), F(1))), ((F(1), F(1, 4)), (F(0), F(1, 4)))],
    ids=["ends at 0", "starts at 1"],
)
def test_interval_union_wrap_keeps_no_empty_half(wrapping, plain):
    # a wrapping pair whose half past 1 or before 0 is empty is the plain arc
    u, v = IntervalUnion([wrapping]), IntervalUnion([plain])
    assert u == v and u.pieces == v.pieces == (plain,)


def test_interval_measure_matches_oracle():
    rng = random.Random(20260820)
    for _ in range(300):
        pieces = []
        for _ in range(rng.randrange(1, 5)):
            d1, d2 = rng.randrange(1, 13), rng.randrange(1, 13)
            a, b = F(rng.randrange(0, d1 + 1), d1), F(rng.randrange(0, d2 + 1), d2)
            if a == b:
                continue
            pieces.append((min(a, b), max(a, b)))
        assert IntervalUnion(pieces).measure == interval_length_oracle(pieces)


def test_interval_shift():
    half = IntervalUnion([(F(0), F(1, 2))])
    assert half.shift(F(1, 4)).pieces == ((F(1, 4), F(3, 4)),)
    assert IntervalUnion([(F(3, 8), F(7, 8))]).shift(F(1, 4)).pieces == (
        (F(0), F(1, 8)),
        (F(5, 8), F(1)),
    )
    full = IntervalUnion([(F(0), F(1))])
    assert full.shift(F(2, 7)) == full
    rng = random.Random(20260821)
    for _ in range(100):
        d = rng.randrange(1, 13)
        a = F(rng.randrange(0, d), d)
        b = a + F(rng.randrange(1, 13), 24)
        u = IntervalUnion([(a, min(b, F(1)))])
        s = F(rng.randrange(-12, 13), rng.randrange(1, 13))
        assert u.shift(s).measure == u.measure
        assert u.shift(s).shift(-s) == u


# endpoints a/d in [0, 1], with 0 and 1 drawn often: wrapping pairs, pairs
# starting at 1 and pieces ending at 1
_ENDPOINTS = st.one_of(
    st.sampled_from([F(0), F(1)]),
    st.integers(1, 12).flatmap(lambda d: st.integers(0, d).map(lambda n: F(n, d))),
)


def _on_arcs(pairs, x) -> bool:
    """x in [0, 1) lies on an arc of the pairs; a pair with b < a runs from
    a past 1 round to b."""
    return any(a <= x < b if a <= b else (a <= x or x < b) for a, b in pairs)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_ENDPOINTS, _ENDPOINTS), max_size=4), st.integers(-2, 2), st.data())
def test_interval_union_cut_and_shift_match_a_point_oracle(pairs, turns, data):
    U = IntervalUnion(pairs)
    ends = {e for pair in pairs for e in pair}
    # some shifts turn an endpoint exactly onto 1
    onto_one = [st.sampled_from(sorted(1 - e for e in ends))] if ends else []
    s = data.draw(st.one_of(_ENDPOINTS, *onto_one)) + turns
    V = U.shift(s)
    cuts = sorted({F(0), F(1)} | {e % 1 for e in ends} | {(e + s) % 1 for e in ends})
    # each breakpoint and each midpoint between two of them
    for x in cuts[:-1] + [(lo + hi) / 2 for lo, hi in zip(cuts, cuts[1:])]:
        assert any(a <= x < b for a, b in U.pieces) == _on_arcs(pairs, x)
        assert any(a <= x < b for a, b in V.pieces) == _on_arcs(pairs, (x - s) % 1)


def test_interval_intersection():
    a = IntervalUnion([(F(0), F(1, 2))])
    b = IntervalUnion([(F(1, 4), F(3, 4))])
    assert a.intersect(b).pieces == ((F(1, 4), F(1, 2)),)
    assert a.intersect(IntervalUnion([(F(1, 2), F(1))])).measure == 0
    assert a.intersect(a) == a
    rng = random.Random(20260822)
    for _ in range(100):
        mk = lambda: [
            (F(rng.randrange(0, 10), 12), F(rng.randrange(10, 13), 12))
            for _ in range(rng.randrange(1, 3))
        ]
        pa, pb = mk(), mk()
        ua, ub = IntervalUnion(pa), IntervalUnion(pb)
        pts = sorted({F(0), F(1)} | {q for ab in pa + pb for q in ab})
        want = F(0)
        for lo, hi in zip(pts, pts[1:]):
            mid = (lo + hi) / 2
            if any(s <= mid < e for s, e in pa) and any(s <= mid < e for s, e in pb):
                want += hi - lo
        assert ua.intersect(ub).measure == want


def test_rotation_correlation_examples():
    r = RotationSystem(F(1, 3))
    B = r.event([(F(0), F(1, 2))])
    assert r.correlation(B, 1) == F(1, 6)
    assert r.correlation(B, 0) == F(1, 2)
    r4 = RotationSystem(F(1, 4))
    assert orbit_metric(r4, B, r4.shift_event(B, 1)) == F(1, 2)


def test_rotation_orbit_point_oracle_consistency():
    # the interval [x, x+h) shifted n times starts at the rotated point
    rho = F(2, 7)
    r = RotationSystem(rho)
    x, h = F(1, 5), F(1, 10)
    B = r.event([(x, x + h)])
    for n in range(10):
        start = rotation_orbit_point(rho, x, n)
        shifted = r.shift_event(B, n)
        assert any(a == start for a, _ in shifted.pieces)


def test_rotation_correlation_periodic_and_symmetric():
    r = RotationSystem(F(1, 7))
    B = r.event([(F(0), F(1, 7)), (F(1, 2), F(9, 14))])
    for w in range(-7, 8):
        assert r.correlation(B, w) == r.correlation(B, w + 7)
        assert r.correlation(B, w) == r.correlation(B, -w)
        assert 0 <= r.correlation(B, w) <= r.measure(B)


def test_rotation_isometry_spot_checks():
    r = RotationSystem(F(3, 8))
    rng = random.Random(20260823)
    for _ in range(40):
        mk = lambda: r.event(
            [(F(rng.randrange(0, 8), 8), F(rng.randrange(1, 9), 8)) for _ in range(2)]
        )
        B1, B2 = mk(), mk()
        w = F(rng.randrange(-10, 11), rng.randrange(1, 7))
        d = orbit_metric(r, B1, B2)
        assert orbit_metric(r, r.shift_event(B1, w), r.shift_event(B2, w)) == d


def test_rotation_componentwise_tuple_action():
    r = RotationSystem((F(1, 4), F(1, 6)))
    assert r.n == 2
    B = r.event([(F(0), F(1, 2))])
    # (1,1) rotates by 1/4 + 1/6 = 5/12
    assert r.shift_event(B, (1, 1)) == B.shift(F(5, 12))
    assert r.correlation(B, (2, 3)) == r.correlation(B, (0, 0))  # full turn
    with pytest.raises(SystemError, match="coordinates"):
        r.correlation(B, (1,))


def test_rotation_acting_elements_must_be_rational():
    # a float or a bool is no element of Q, as on the other backends
    r = RotationSystem(F(1, 7))
    B = r.event([(0, F(1, 3))])
    for w in (0.5, True):
        with pytest.raises(AlgebraError):
            r.correlation(B, w)
        with pytest.raises(AlgebraError):
            r.shift_event(B, w)
    r2 = RotationSystem((F(1, 4), F(1, 6)))
    with pytest.raises(AlgebraError):
        r2.correlation(B, (1, 0.5))


def test_rotation_correlator_checks_w_before_its_memo():
    # equal numbers hash alike: a memo read first answered 0.5 with the value
    # kept for 1/2, and True with the value kept for 1
    r = RotationSystem(F(1, 7))
    c = r.correlator(r.event([(0, F(1, 3))]))
    assert c(F(1, 2)) == F(11, 42) and c(1) == F(4, 21)
    for w in (0.5, True, (0.5,), (True,)):
        with pytest.raises(AlgebraError):
            c(w)
    r2 = RotationSystem((F(1, 4), F(1, 6)))
    c2 = r2.correlator(r2.event([(0, F(1, 3))]))
    c2((1, 1))
    with pytest.raises(AlgebraError):
        c2((1, True))


# ---------------------------------------------------------------------------
# Bernoulli cylinders


def test_bernoulli_single_coordinate_example():
    b = BernoulliSystem(2, [F(1, 2), F(1, 2)])
    B = b.event({(): {0}})
    assert b.measure(B) == F(1, 2)
    assert b.correlation(B, (0, 1)) == F(1, 4)  # disjoint support: mu(B)^2
    assert b.correlation(B, ()) == F(1, 2)


def test_bernoulli_disjoint_support_squares_exhaustive():
    b = BernoulliSystem(3, [F(1, 2), F(1, 3), F(1, 6)])
    ring = PolyRing(3)
    B = b.event({(): {0, 1}, (1,): {2}})
    mu = b.measure(B)
    assert mu == F(5, 36)
    from ipstar.algebra import DegreeWindow, window_enumerate

    for w in window_enumerate(ring, DegreeWindow(3)):
        shifted_support = {ring.add(c, w) for c in set(B.constraints)}
        if shifted_support & set(B.constraints):
            continue
        assert b.correlation(B, w) == mu * mu


def test_bernoulli_overlapping_support_by_hand():
    b = BernoulliSystem(3, [F(1, 2), F(1, 3), F(1, 6)])
    B = b.event({(): {0, 1}, (0, 1): {0, 2}})
    # shift by t: constraints at t and 2t; merged coordinate t allows {0}
    got = b.correlation(B, (0, 1))
    assert got == F(5, 6) * F(1, 2) * F(2, 3)
    # conflicting letters kill the intersection
    B2 = b.event({(): {0, 1}, (0, 1): {2}})
    assert b.correlation(B2, (0, 1)) == 0


def test_bernoulli_measure_matches_oracle():
    rng = random.Random(20260824)
    base = [F(1, 4), F(1, 4), F(1, 2)]
    b = BernoulliSystem(3, base)
    ring = PolyRing(3)
    from ipstar.algebra import DegreeWindow, window_enumerate

    coords = window_enumerate(ring, DegreeWindow(2))
    for _ in range(100):
        picks = rng.sample(coords, rng.randrange(1, 4))
        table = {c: rng.randrange(3) for c in picks}
        got = b.measure(b.event({c: {l} for c, l in table.items()}))
        assert got == naive_bernoulli_cylinder_prob(base, table)
    # letter-set cylinders expand to sums of single-letter ones
    from itertools import product as iproduct

    for _ in range(50):
        picks = rng.sample(coords, rng.randrange(1, 3))
        table = {c: frozenset(rng.sample(range(3), rng.randrange(1, 3))) for c in picks}
        got = b.measure(b.event(table))
        want = F(0)
        for choice in iproduct(*(sorted(table[c]) for c in picks)):
            want += naive_bernoulli_cylinder_prob(base, dict(zip(picks, choice)))
        assert got == want


def test_bernoulli_full_alphabet_constraint_dropped():
    b = BernoulliSystem(2, [F(1, 2), F(1, 2)])
    B = b.event({(): {0, 1}, (1,): {0}})
    assert B.constraints == {(1,): frozenset({0})}
    assert b.measure(b.event({(): {0, 1}})) == 1


def test_bernoulli_symmetry_and_bounds():
    b = BernoulliSystem(2, [F(1, 3), F(2, 3)])
    ring = PolyRing(2)
    B = b.event({(): {0}, (0, 1): {1}})
    from ipstar.algebra import DegreeWindow, window_enumerate

    for w in window_enumerate(ring, DegreeWindow(3)):
        neg = ring.neg(w)
        assert b.correlation(B, w) == b.correlation(B, neg)
        assert 0 <= b.correlation(B, w) <= b.measure(B)


def test_bernoulli_construction_rejections():
    with pytest.raises(SystemError, match="sum to 1"):
        BernoulliSystem(2, [F(1, 2), F(1, 3)])
    with pytest.raises(SystemError, match="non-negative"):
        BernoulliSystem(2, [F(3, 2), F(-1, 2)])
    with pytest.raises(SystemError, match="at least one"):
        BernoulliSystem(2, [])
    b = BernoulliSystem(2, [F(1, 2), F(1, 2)])
    with pytest.raises(SystemError, match="letters out of range"):
        b.event({(): {0, 2}})


# ---------------------------------------------------------------------------
# spectral splits and the mean recurrence bound


def test_compact_projection_shapes():
    s = regular_system(5)
    B = s.event({0, 1})
    sp = compact_projection(s, B)
    assert (sp.kind, sp.norm2_compact, sp.norm2_residual) == ("identity", F(2, 5), 0)
    r = RotationSystem(F(1, 3))
    spr = compact_projection(r, r.event([(F(0), F(1, 4))]))
    assert (spr.kind, spr.norm2_compact, spr.norm2_residual) == ("identity", F(1, 4), 0)
    b = BernoulliSystem(2, [F(1, 2), F(1, 2)])
    spb = compact_projection(b, b.event({(): {0}}))
    assert (spb.kind, spb.mu, spb.norm2_compact, spb.norm2_residual) == (
        "constant",
        F(1, 2),
        F(1, 4),
        F(1, 4),
    )


def test_spectral_split_pythagoras_enforced():
    with pytest.raises(SystemError, match="Pythagoras"):
        SpectralSplit("identity", F(1, 2), F(1, 2), F(1, 2), F(1, 4))


def test_khintchine_bound_examples():
    s = regular_system(5)
    assert khintchine_bound(s, s.event({0, 1})) == F(2, 5)
    assert khintchine_bound(s, s.event(set())) == 0
    b = BernoulliSystem(2, [F(1, 2), F(1, 2)])
    assert khintchine_bound(b, b.event({(): {0}})) == F(1, 4)


def test_khintchine_bound_random_events_all_backends():
    rng = random.Random(20260825)
    s = regular_system(7)
    r = RotationSystem(F(2, 9))
    b = BernoulliSystem(3, [F(1, 6), F(1, 3), F(1, 2)])
    from ipstar.algebra import DegreeWindow, window_enumerate

    coords = window_enumerate(PolyRing(3), DegreeWindow(2))
    for _ in range(100):
        Bs = s.event({x for x in range(7) if rng.random() < 0.5})
        assert khintchine_bound(s, Bs) >= s.measure(Bs) ** 2
        Br = r.event([(F(rng.randrange(0, 9), 9), F(rng.randrange(1, 10), 9))])
        assert khintchine_bound(r, Br) >= r.measure(Br) ** 2
        picks = rng.sample(coords, rng.randrange(1, 3))
        Bb = b.event({c: frozenset(rng.sample(range(3), rng.randrange(1, 3))) for c in picks})
        assert khintchine_bound(b, Bb) == b.measure(Bb) ** 2


def test_cross_term_values():
    s = regular_system(5)
    cross = cross_terms(s, s.event({0, 1}))
    for w in range(5):
        assert cross(w) == 0
    b = BernoulliSystem(2, [F(1, 2), F(1, 2)])
    Bb = b.event({(): {0}})
    cross = cross_terms(b, Bb)
    assert cross(()) == F(1, 4)
    assert cross((0, 1)) == 0
    assert cross((1,)) == 0
    for w in [(), (1,), (0, 1), (1, 1), ()]:
        assert cross(w) == b.correlation(Bb, w) - F(1, 4)


def test_projected_orbit_distance():
    s = regular_system(5)
    B = s.event({0, 1})
    assert projected_orbit_dist_sq(s, B, 1) == F(2, 5)
    assert projected_orbit_dist_sq(s, B, 0) == 0
    b = BernoulliSystem(2, [F(1, 2), F(1, 2)])
    Bb = b.event({(): {0}})
    for w in [(), (1,), (0, 1)]:
        assert projected_orbit_dist_sq(b, Bb, w) == 0


def test_symm_diff_inclusion_exclusion():
    s = regular_system(7)
    rng = random.Random(20260826)
    for _ in range(60):
        B1 = {x for x in range(7) if rng.random() < 0.5}
        B2 = {x for x in range(7) if rng.random() < 0.5}
        want = s.measure(s.event(B1 ^ B2))
        assert orbit_metric(s, s.event(B1), s.event(B2)) == want


# ---------------------------------------------------------------------------
# averaging windows


def test_folner_sets_canonical_choices():
    assert folner_sets(PolyRing(2), 2) == [(), (1,), (0, 1), (1, 1)]
    assert folner_sets(Rationals(), 1) == [F(-1), F(0), F(1)]
    assert folner_sets(PrimeField(5), 1) == [0, 1, 2, 3, 4]
    assert folner_sets(PrimeField(5), 9) == [0, 1, 2, 3, 4]
    assert len(folner_sets(VectorSpace(PrimeField(2), 2), 1)) == 4
    assert folner_sets(VectorSpace(PolyRing(2), 2), 1) == [((), ()), ((), (1,)), ((1,), ()), ((1,), (1,))]
    assert len(folner_sets(VectorSpace(Rationals(), 2), 1)) == 9
    with pytest.raises(SystemError, match=">= 1"):
        folner_sets(PolyRing(2), 0)


def test_folner_density_profiles():
    # constant-term-0 polynomials fill exactly half of every window
    ring = PolyRing(2)
    zero_const = lambda q: q == () or q[0] == 0
    prof = folner_density(zero_const, ring, 5)
    assert isinstance(prof, DensityProfile)
    assert prof.values == (F(1, 2),) * 5
    assert prof.value == F(1, 2)
    # singleton density decays like the window
    single = folner_density(lambda q: q == (), ring, 4)
    assert single.values == (F(1, 2), F(1, 4), F(1, 8), F(1, 16))


_V2, _VQ, _V3 = VectorSpace(PolyRing(2), 2), VectorSpace(Rationals(), 2), VectorSpace(PrimeField(3), 2)
# (group, N, a listing that holds window N and more)
WINDOW_MEANS_CASES = {
    "F_5": (PrimeField(5), 3, folner_sets(PrimeField(5), 1)),
    "F_3[t]": (PolyRing(3), 3, window_enumerate(PolyRing(3), DegreeWindow(4))),
    "Q": (Rationals(), 3, window_enumerate(Rationals(), RationalWindow(4, 5))),
    "F_2[t]^2": (_V2, 2, window_enumerate(_V2, DegreeWindow(3))),
    "Q^2": (_VQ, 2, window_enumerate(_VQ, RationalWindow(3, 2))),
    "F_3^2": (_V3, 2, folner_sets(_V3, 1)),
}


def _term(u):
    return F(len(repr(u)) % 3, 2)  # zero on about a third of the elements


@pytest.mark.parametrize("case", sorted(WINDOW_MEANS_CASES))
def test_window_means_reads_each_window_off_a_larger_listing(case):
    group, N, listing = WINDOW_MEANS_CASES[case]
    listing = list(listing)
    random.Random(case).shuffle(listing)
    want = []
    for n in range(1, N + 1):
        window = folner_sets(group, n)
        want.append(F(sum(map(_term, window)), len(window)))
    prof = window_means(_term, group, N, listing)
    assert list(prof.values) == want and prof.value == want[-1]


def test_window_means_refuses_a_group_without_canonical_windows():
    with pytest.raises(SystemError, match="no canonical averaging sequence"):
        window_means(lambda u: 1, VectorSpace(Integers(), 2), 1, [(0, 0)])
    with pytest.raises(SystemError, match=">= 1"):
        window_means(lambda u: 1, Integers(), 0, [0])


def _identity_map(ring):
    return PolynomialMap(ring, 1, ring, ((Monomial(ring, (1,), (1,)), (1,)),))


def test_dlim_probe_values():
    b = BernoulliSystem(2, [F(1, 2), F(1, 2)])
    B = b.event({(): {0}})
    ring = PolyRing(2)
    ident = _identity_map(ring)
    prof = dlim_probe(b, B, ident, 6)
    vals = list(prof.values)
    assert vals == [F(1, 2 ** (N + 4)) for N in range(1, 7)]
    assert prof.value == vals[-1]
    assert all(a > b2 for a, b2 in zip(vals, vals[1:]))
    # compact backends have zero residual
    s = regular_system(5)
    phi5 = PolynomialMap(PrimeField(5), 1, PrimeField(5), ((Monomial(PrimeField(5), 1, (1,)), 1),))
    assert dlim_probe(s, s.event({0, 1}), phi5, 3).values == (0, 0, 0)


_F5, _Q, _F3, _R2 = PrimeField(5), Rationals(), PrimeField(3), PolyRing(2)
_GRID = [(a, b) for a in range(3) for b in range(3)]
# (system, B, phi) per backend
DLIM_CASES = {
    "finite-perm": (regular_system(5), {0, 1, 3},
                    PolynomialMap(_F5, 1, _F5, ((Monomial(_F5, 2, (2,)), 1),))),
    "finite-perm-2gen": (
        FinitePermSystem(3, _GRID, dict.fromkeys(_GRID, F(1, 9)),
                         [{(a, b): ((a + 1) % 3, b) for a, b in _GRID},
                          {(a, b): (a, (b + 1) % 3) for a, b in _GRID}]),
        {(0, 0), (1, 2), (2, 2)},
        PolynomialMap(_F3, 1, VectorSpace(_F3, 2),
                      ((Monomial(_F3, 1, (2,)), (1, 0)), (Monomial(_F3, 2, (1,)), (0, 1))))),
    "rotation": (RotationSystem(F(2, 7)), [(F(1, 12), F(1, 3)), (F(1, 2), F(3, 4))],
                 PolynomialMap(_Q, 1, _Q, ((Monomial(_Q, 1, (2,)), 1), (Monomial(_Q, 1, (1,)), 1)))),
    "bernoulli": (BernoulliSystem(2, [F(1, 3), F(2, 3)]), {(): {0}, (0, 1): {1}},
                  _identity_map(PolyRing(2))),
    "bernoulli-u^2+u": (BernoulliSystem(2, [F(1, 3), F(2, 3)]), {(): {0}, (0, 1): {1}, (1,): {0}},
                        PolynomialMap(_R2, 1, _R2, ((Monomial(_R2, (1,), (2,)), (1,)),
                                                    (Monomial(_R2, (1,), (1,)), (1,))))),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(DLIM_CASES)), st.integers(1, 4))
def test_dlim_probe_matches_a_per_window_recomputation(backend, N):
    sys_, B, phi = DLIM_CASES[backend]
    windows = [folner_sets(phi.ring, n) for n in range(1, N + 1)]
    prof = dlim_probe(sys_, sys_.event(B), phi, N)
    assert list(prof.values) == naive_dlim_values(sys_, B, phi, windows)
    assert prof.value == prof.values[-1]


def test_dlim_probe_lists_no_window_on_a_compact_backend(monkeypatch):
    def refuse(*args):
        raise AssertionError("a compact backend's profile listed a window")

    monkeypatch.setattr(systems, "folner_sets", refuse)
    monkeypatch.setattr(systems, "window_enumerate", refuse)
    for backend in ("finite-perm", "finite-perm-2gen", "rotation"):
        sys_, B, phi = DLIM_CASES[backend]
        prof = dlim_probe(sys_, sys_.event(B), phi, 7)
        assert prof.values == (0,) * 7 and prof.value == 0
        assert all(type(v) is F for v in prof.values)
        with pytest.raises(SystemError, match=">= 1"):
            dlim_probe(sys_, sys_.event(B), phi, 0)


def test_dlim_probe_refuses_a_map_into_another_group():
    # u^2 over F_3[t] on a system acted on by F_2[t]: unchecked, its F_3[t]
    # values would be looked up in the F_2[t] kernel's table and averaged
    b = BernoulliSystem(2, [F(1, 2), F(1, 2)])
    R3 = PolyRing(3)
    square = PolynomialMap(R3, 1, R3, ((Monomial(R3, (1,), (2,)), (1,)),))
    with pytest.raises(SystemError, match=r"map target F_3\[t\] does not match the acting group F_2\[t\]"):
        dlim_probe(b, b.event({(): {0}}), square, 2)
    # a compact backend refuses it too, though its profile needs no value
    s = regular_system(5)
    with pytest.raises(SystemError, match="does not match the acting group F_5"):
        dlim_probe(s, s.event({0}), _identity_map(PolyRing(2)), 2)


def test_finite_perm_reports_its_problems_in_a_fixed_order():
    pts = [0, 1, 2, 3]
    lop = {0: F(1, 2), 1: F(1, 6), 2: F(1, 6), 3: F(1, 6)}
    swap01 = {0: 1, 1: 0, 2: 2, 3: 3}  # moves weight 1/2 onto 1/6
    swap23 = {0: 0, 1: 1, 2: 3, 3: 2}  # keeps the weights; order 2
    # every generator's measure is checked before any generator's order
    with pytest.raises(SystemError, match="preserve"):
        FinitePermSystem(3, pts, lop, [swap23, swap01])
    with pytest.raises(SystemError, match="order"):
        FinitePermSystem(3, pts, lop, [swap23, swap23])
    # a weight that is no number is reported before a negative one
    with pytest.raises(ValueError, match="'x'"):
        FinitePermSystem(2, pts, {0: F(-1), 1: "x", 2: F(1), 3: F(1)}, [swap23])
    # one weight object shared by every point is read once, as many equal ones are
    shared = FinitePermSystem(2, pts, dict.fromkeys(pts, "1/4"), [swap01])
    apart = FinitePermSystem(2, pts, {x: F(1, 4) for x in pts}, [swap01])
    assert shared.weights == apart.weights == dict.fromkeys(pts, F(1, 4))
    B = shared.event({0, 2})
    assert shared.correlation(B, 1) == apart.correlation(B, 1) == F(1, 4)
