import random
import re
import time
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipstar.algebra import (
    AlgebraError,
    DegreeWindow,
    FullWindow,
    Integers,
    Monomial,
    PolyRing,
    PolynomialMap,
    PrimeField,
    RationalWindow,
    Rationals,
    SIZE_CAP,
    VectorSpace,
    check_window_size,
    column_elements,
    eval_monomial,
    eval_poly,
    pair_column,
    power_over_cap,
    rational_pairs,
    scalar_poly_map,
    window_enumerate,
)
from ipstar.halesjewett import Line, SubsetConfig
from ipstar.textio import parse_element, render_element, render_poly_map
from oracles import counter_poly_window, naive_map_value, telescope_check, vector_scale

RINGS = [PrimeField(2), PrimeField(5), Rationals(), PolyRing(2), PolyRing(3)]


def random_element(ring, rng):
    if isinstance(ring, PrimeField):
        return rng.randrange(ring.p)
    if isinstance(ring, Rationals):
        return Fraction(rng.randrange(-30, 31), rng.randrange(1, 12))
    if isinstance(ring, PolyRing):
        return ring.element([rng.randrange(ring.p) for _ in range(rng.randrange(0, 5))])
    raise AssertionError(ring)


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_ring_axioms_random(ring):
    # commutative ring axioms on random triples; exact equality throughout
    rng = random.Random(20260811)
    for _ in range(2500):
        a = random_element(ring, rng)
        b = random_element(ring, rng)
        c = random_element(ring, rng)
        assert ring.add(a, b) == ring.add(b, a)
        assert ring.mul(a, b) == ring.mul(b, a)
        assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
        assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
        assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
        assert ring.add(a, ring.zero) == a
        assert ring.mul(a, ring.one) == a
        assert ring.add(a, ring.neg(a)) == ring.zero
        assert ring.sub(a, b) == ring.add(a, ring.neg(b))


def test_polyring_normalization():
    R = PolyRing(3)
    assert R.element([1, 2, 3]) == (1, 2)  # 3 == 0 mod 3, trailing zero dropped
    assert R.element([0, 0, 0]) == ()
    assert R.element(5) == (2,)
    assert R.add((1, 2), (2, 1)) == ()  # exact cancellation collapses to zero
    assert R.mul((0, 1), (0, 1)) == (0, 0, 1)


def test_prime_check():
    with pytest.raises(AlgebraError):
        PrimeField(6)
    with pytest.raises(AlgebraError):
        PolyRing(1)
    PrimeField(2)
    PrimeField(13)


def test_a_prime_is_refused_from_the_square_of_the_cap_before_trial_division():
    # 2^40 - 87 and 2^40 + 15 are the primes nearest the cap's square; past
    # it trial division would try more than 2^20 divisors
    assert PolyRing(SIZE_CAP * SIZE_CAP - 87).p == SIZE_CAP * SIZE_CAP - 87
    for p in (SIZE_CAP * SIZE_CAP, SIZE_CAP * SIZE_CAP + 15, 10**18 + 3):
        for ring in (PrimeField, PolyRing):
            with pytest.raises(AlgebraError, match=rf"p = {p} is at least the cap of 1048576\^2"):
                ring(p)


# ---------------------------------------------------------------------------
# windows


def test_prime_field_window():
    assert window_enumerate(PrimeField(5), FullWindow()) == [0, 1, 2, 3, 4]


def test_rational_window_matches_reference():
    got = window_enumerate(Rationals(), RationalWindow(1, 2))
    want = [Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1)]
    assert got == want


def test_rational_window_no_duplicates_and_symmetric():
    rng = random.Random(99)
    for _ in range(20):
        A = rng.randrange(0, 6)
        B = rng.randrange(1, 7)
        win = window_enumerate(Rationals(), RationalWindow(A, B))
        assert len(win) == len(set(win))
        assert win == sorted(win)
        assert set(win) == {-q for q in win}  # closed under negation
        for q in win:
            assert abs(q.numerator) <= A and q.denominator <= B


def _naive_rational_window(A, B):
    """Every a/b with |a| <= A, 1 <= b <= B, reduced, deduplicated and
    sorted as Fractions."""
    out = set()
    for b in range(1, B + 1):
        for a in range(-A, A + 1):
            q = Fraction(a, b)
            if abs(q.numerator) <= A and q.denominator <= B:
                out.add(q)
    return sorted(out)


def test_rational_window_matches_the_naive_enumeration():
    for A in range(0, 9):
        for B in range(1, 9):
            got = window_enumerate(Rationals(), RationalWindow(A, B))
            assert got == _naive_rational_window(A, B), (A, B)
            assert all(type(q) is Fraction for q in got)
            # the integer listing the Fractions are built from
            assert Rationals().window_pairs(RationalWindow(A, B)) == list(rational_pairs(got))


# the listing sorts on quotients as doubles; checked in integers at the cap's
# largest A*B^2, (1, 349525), and at its largest A*B, (723, 723), which holds
# the neighbours a/b < c/d closest relative to their size, 1/(b*c) apart
@pytest.mark.parametrize("A, B", [(1, 349525), (723, 723)])
def test_rational_window_listing_increases_strictly_near_the_cap(A, B):
    window = RationalWindow(A, B)
    check_window_size(Rationals(), window)
    pairs = Rationals().window_pairs(window)
    assert all(a * d < c * b for (a, b), (c, d) in zip(pairs, pairs[1:]))
    assert all(abs(a) <= A and 1 <= b <= B and gcd(a, b) == 1 for a, b in pairs)
    if A == 1:  # 0 and every +-1/b
        assert len(pairs) == 2 * B + 1


def test_listing_a_long_rational_window_takes_little_memory():
    tracemalloc.start()
    try:
        listed = window_enumerate(Rationals(), RationalWindow(1, 20000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(listed) == 40001
    assert peak < 30 * 2**20


def test_degree_window_base_p_order():
    got = window_enumerate(PolyRing(2), DegreeWindow(2))
    assert got == [(), (1,), (0, 1), (1, 1)]
    got3 = window_enumerate(PolyRing(3), DegreeWindow(1))
    assert got3 == [(), (1,), (2,)]
    # counter order: index i has little-endian base-p digits of i
    win = window_enumerate(PolyRing(3), DegreeWindow(3))
    assert len(win) == 27 == len(set(win))
    assert win[5] == (2, 1)  # 5 = 2 + 1*3


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(0, 5))
def test_degree_window_is_the_counter_order(p, D):
    assert window_enumerate(PolyRing(p), DegreeWindow(D)) == counter_poly_window(p, D)


@st.composite
def _window_and_element(draw):
    """(ring, window, u) with u a normal-form element up to 2 past each of
    the window's bounds."""
    kind = draw(st.sampled_from(["field", "rat", "poly"]))
    if kind == "field":
        p = draw(st.sampled_from([2, 3, 7]))
        return PrimeField(p), FullWindow(), draw(st.integers(0, p - 1))
    if kind == "rat":
        A, B = draw(st.integers(0, 5)), draw(st.integers(1, 5))
        num, den = draw(st.integers(-A - 2, A + 2)), draw(st.integers(1, B + 2))
        return Rationals(), RationalWindow(A, B), Fraction(num, den)
    ring = PolyRing(draw(st.sampled_from([2, 3])))
    D = draw(st.integers(0, 4))
    coeffs = draw(st.lists(st.integers(0, ring.p - 1), max_size=D + 2))
    return ring, DegreeWindow(D), ring.element(coeffs)


@settings(max_examples=300, deadline=None)
@given(_window_and_element())
def test_window_contains_agrees_with_the_enumeration(case):
    ring, window, u = case
    assert ring.window_contains(window, u) == (u in window_enumerate(ring, window))


def _small_windows():
    """(group, window) for small windows of every kind, scalar and vector."""
    out = [(PrimeField(p), FullWindow()) for p in (2, 3, 7)]
    out += [(Rationals(), RationalWindow(A, B)) for A in range(5) for B in range(1, 6)]
    out += [(PolyRing(p), DegreeWindow(D)) for p in (2, 3, 5) for D in range(4)]
    out += [(VectorSpace(PrimeField(3), n), FullWindow()) for n in (1, 2, 3)]
    out += [(VectorSpace(Rationals(), 2), RationalWindow(A, B)) for A, B in ((0, 1), (2, 3), (3, 2))]
    out += [(VectorSpace(PolyRing(2), n), DegreeWindow(D)) for n in (2, 3) for D in (0, 1, 2)]
    return out


@pytest.mark.parametrize("group, window", _small_windows(), ids=str)
def test_window_size_bounds_the_listing(group, window):
    base, exp = group.window_power(window)
    size, listed = base**exp, len(window_enumerate(group, window))
    scalars = group.ring if isinstance(group, VectorSpace) else group
    if isinstance(scalars, Rationals):  # (2A+1)*B counts a/b before reduction
        assert size >= listed
    else:
        assert size == listed


def test_window_size_refuses_a_window_of_another_ring():
    for ring, window in [(Rationals(), DegreeWindow(2)), (PolyRing(2), RationalWindow(1, 1)),
                         (VectorSpace(PrimeField(2), 2), DegreeWindow(1))]:
        with pytest.raises(AlgebraError, match="needs a"):
            ring.window_power(window)


def test_check_window_size_refuses_only_above_the_cap():
    assert SIZE_CAP == 1 << 20
    check_window_size(PolyRing(2), DegreeWindow(20))  # exactly the cap
    check_window_size(VectorSpace(PolyRing(2), 2), DegreeWindow(10))
    for group, window, shown in [
        (PolyRing(2), DegreeWindow(21), "up to 2097152 elements"),
        (VectorSpace(PolyRing(2), 2), DegreeWindow(11), "up to 4194304 elements"),
        (Rationals(), RationalWindow(1024, 1024), "up to 2098176 elements"),
        (PrimeField(1048583), FullWindow(), "up to 1048583 elements"),
        # too many digits to print: named by a power of two above it
        (PolyRing(3), DegreeWindow(10**4), "up to 2^15850 elements"),
    ]:
        message = f"window of {group} holds {shown}, more than the cap of 1048576"
        with pytest.raises(AlgebraError, match=re.escape(message)):
            check_window_size(group, window)


def test_check_window_size_refuses_a_huge_window_without_its_power():
    # p^D and its dim-th power are never taken: each refusal is immediate
    t0 = time.perf_counter()
    for group, window, shown in [
        (PolyRing(3), DegreeWindow(10**9), "up to 2^1584962501 elements"),
        (PolyRing(2), DegreeWindow(10**9), "up to 2^1000000001 elements"),
        (VectorSpace(PolyRing(3), 3), DegreeWindow(10**6), "up to 2^4754888 elements"),
        (PolyRing(3), DegreeWindow(10**400), "more than the cap"),
    ]:
        with pytest.raises(AlgebraError, match=re.escape(shown)):
            check_window_size(group, window)
    assert time.perf_counter() - t0 < 0.5  # 3^(10^7) alone takes seconds


def test_power_over_cap_allows_the_cap_and_refuses_one_past_it():
    for base, exp in [(2, 20), (1 << 20, 1), (1024, 2), (32, 4), (1, 10**9), (7, 0)]:
        assert power_over_cap(base, exp) is None
    for base, exp, shown in [((1 << 20) + 1, 1, (1 << 20) + 1), (1025, 2, 1025**2),
                             (2, 21, 1 << 21), (3, 13, 3**13), (10, 18, "2^60"),
                             (2, 10**9, "2^1000000001")]:
        assert power_over_cap(base, exp) == shown


def test_window_contains_rejects_a_window_of_another_ring():
    for ring, window in [(Rationals(), DegreeWindow(2)), (PolyRing(2), RationalWindow(1, 1))]:
        with pytest.raises(AlgebraError, match="needs a"):
            ring.window_contains(window, ring.zero)


def test_window_rejects_bad_parameters():
    with pytest.raises(AlgebraError):
        RationalWindow(2, 0)
    with pytest.raises(AlgebraError):
        DegreeWindow(-2)


def test_vector_window_product_order():
    V = VectorSpace(PrimeField(2), 2)
    assert window_enumerate(V, FullWindow()) == [(0, 0), (0, 1), (1, 0), (1, 1)]


# ---------------------------------------------------------------------------
# vector spaces


def test_vector_space_ops():
    V = VectorSpace(Rationals(), 2)
    u = V.element([Fraction(1, 2), 3])
    v = V.element([Fraction(1, 2), -1])
    assert V.add(u, v) == (Fraction(1), Fraction(2))
    assert V.sub(u, u) == V.zero
    assert vector_scale(V, Fraction(2), u) == (Fraction(1), Fraction(6))
    with pytest.raises(AlgebraError):
        V.element([1])
    with pytest.raises(AlgebraError):
        V.add(u, (Fraction(1),) * 3)


def test_vector_format_parse_roundtrip():
    rng = random.Random(3)
    for ring in RINGS:
        for dim in (1, 2, 3):
            V = VectorSpace(ring, dim)
            for _ in range(50):
                u = tuple(random_element(ring, rng) for _ in range(dim))
                u = V.element(u)
                assert parse_element(V, render_element(V, u)) == u


def test_scalar_format_parse_roundtrip():
    rng = random.Random(4)
    for ring in RINGS:
        for _ in range(100):
            a = random_element(ring, rng)
            assert parse_element(ring, render_element(ring, a)) == a


def test_format_conventions():
    Q = Rationals()
    assert render_element(Q, Fraction(3, 1)) == "3"
    assert render_element(Q, Fraction(-1, 2)) == "-1/2"
    R = PolyRing(3)
    assert render_element(R, ()) == "[]"
    assert render_element(R, (2, 0, 1)) == "[2,0,1]"
    V = VectorSpace(Q, 1)
    assert render_element(V, (Fraction(7),)) == "7"  # rank-1 renders as a bare scalar
    V2 = VectorSpace(Q, 2)
    assert render_element(V2, (Fraction(7), Fraction(-1))) == "(7,-1)"
    assert parse_element(V2, "(7, -1)") == (7, -1)


# ---------------------------------------------------------------------------
# monomials and polynomial maps


def test_monomial_basics():
    Q = Rationals()
    m = Monomial(Q, 3, (2, 1))  # 3 * x1^2 * x2
    assert m.total_degree == 3
    assert m.factor_coordinates() == [0, 0, 1]
    assert eval_monomial(m, (2, 5)) == 60
    with pytest.raises(AlgebraError):
        eval_monomial(m, (2,))
    with pytest.raises(AlgebraError):
        Monomial(Q, 1, (0, 0))
    with pytest.raises(AlgebraError):
        Monomial(Q, 1, ())
    # zero coefficient is the zero map, still structurally fine
    z = Monomial(Q, 0, (3,))
    assert eval_monomial(z, (9,)) == 0


def test_monomial_mod_p():
    F = PrimeField(5)
    m = Monomial(F, 2, (3,))
    assert eval_monomial(m, (3,)) == (2 * 27) % 5


def test_poly_map_eval():
    Q = Rationals()
    V = VectorSpace(Q, 2)
    phi = PolynomialMap(Q, 1, V, ((Monomial(Q, 1, (1,)), (1, 0)), (Monomial(Q, 1, (2,)), (0, 1))))
    # u -> (u, u^2)
    assert eval_poly(phi, (Fraction(1, 2),)) == (Fraction(1, 2), Fraction(1, 4))
    assert eval_poly(phi, (Q.zero,)) == V.zero  # zero constant term by construction


def test_poly_map_scalar_target():
    F = PrimeField(7)
    phi = scalar_poly_map(F, [Monomial(F, 1, (2,)), Monomial(F, 3, (1,))])
    # u -> u^2 + 3u mod 7
    assert eval_poly(phi, (2,)) == (4 + 6) % 7
    assert render_poly_map(phi) == "u^2 + 3*u"


def test_poly_map_mismatch_errors():
    Q = Rationals()
    F = PrimeField(3)
    with pytest.raises(AlgebraError):
        PolynomialMap(Q, 1, Q, ((Monomial(F, 1, (1,)), 1),))
    with pytest.raises(AlgebraError):
        PolynomialMap(Q, 2, Q, ((Monomial(Q, 1, (1,)), 1),))
    phi = scalar_poly_map(Q, [Monomial(Q, 1, (1, 1))])
    with pytest.raises(AlgebraError):
        eval_poly(phi, (Fraction(1),))



# ---------------------------------------------------------------------------
# value types: equal and hashed by type and fields, frozen, shown field by field

F5 = PrimeField(5)
# each value type built twice, positionally and by keyword, from equal inputs
VALUE_PAIRS = [
    (FullWindow(), FullWindow()),
    (RationalWindow(4, 4), RationalWindow(num_bound=4, den_bound=4)),
    (DegreeWindow(3), DegreeWindow(deg_bound=3)),
    (PrimeField(5), PrimeField(p=5)),
    (Integers(), Integers()),
    (Rationals(), Rationals()),
    (PolyRing(2), PolyRing(p=2)),
    (VectorSpace(F5, 2), VectorSpace(ring=PrimeField(5), dim=2)),
    (Monomial(F5, 1, (2,)), Monomial(ring=F5, coeff=6, exponents=[2])),
    (
        scalar_poly_map(F5, [Monomial(F5, 1, (2,))]),
        PolynomialMap(ring=F5, n=1, target=F5, terms=[(Monomial(F5, 6, (2,)), 6)]),
    ),
    (Line(2, ((2, 1),), {1}), Line(m=2, fixed=[(2, 1)], moving=frozenset({1}))),
    (SubsetConfig(({3},), {1}), SubsetConfig(base=(frozenset({3}),), mover=frozenset({1}))),
]
VALUE_IDS = [type(a).__name__ for a, _ in VALUE_PAIRS]


@pytest.mark.parametrize("a, b", VALUE_PAIRS, ids=VALUE_IDS)
def test_equal_values_built_apart_are_equal_and_hash_equal(a, b):
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert {a: 1}[b] == 1


@pytest.mark.parametrize("a, b", VALUE_PAIRS, ids=VALUE_IDS)
def test_a_value_equals_itself_without_reading_its_fields(a, b, monkeypatch):
    def refuse(self):
        raise AssertionError("read the fields of one object to compare it with itself")

    monkeypatch.setattr(type(a), "_values", refuse)
    assert a == a and not a != a


@pytest.mark.parametrize("a, b", VALUE_PAIRS, ids=VALUE_IDS)
def test_values_refuse_assignment_and_deletion(a, b):
    for name in a._fields or ("p",):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b


def test_values_of_distinct_types_are_unequal():
    assert len({FullWindow(), Integers(), Rationals()}) == 3
    assert PrimeField(2) != PolyRing(2) and PrimeField(2) != PrimeField(3)
    assert PrimeField(2) != (2,) and FullWindow() != ()


def test_value_repr_shows_each_field():
    assert repr(RationalWindow(4, 4)) == "RationalWindow(num_bound=4, den_bound=4)"
    assert repr(FullWindow()) == "FullWindow()"
    assert repr(Monomial(F5, 6, (2,))) == "Monomial(ring=PrimeField(p=5), coeff=1, exponents=(2,))"
    with pytest.raises(AlgebraError, match=r"needs a DegreeWindow, got RationalWindow\(num_bound=1,"):
        PolyRing(2).window_power(RationalWindow(1, 1))


def test_value_validations_fire():
    for build in [
        lambda: PrimeField(4),
        lambda: PolyRing(1),
        lambda: VectorSpace(F5, 0),
        lambda: RationalWindow(-1, 1),
        lambda: DegreeWindow(-1),
        lambda: Monomial(F5, True, (1,)),
        lambda: Monomial(F5, 1, (1, -1)),
        lambda: PolynomialMap(F5, 1, F5, ()),
        lambda: PolynomialMap(F5, 1, Rationals(), ((Monomial(F5, 1, (1,)), 1),)),
    ]:
        with pytest.raises(AlgebraError):
            build()


# eval_poly against a plain oracle: sum of coeff * prod u_i^e_i * w, with
# values kept as ints, Fractions or coefficient lists and no ring method


def _plain(ring):
    """(normalise, add, mul) for the ring's values, sharing no code with it."""
    if isinstance(ring, PrimeField):
        p = ring.p
        return (lambda x: x % p), (lambda a, b: (a + b) % p), (lambda a, b: a * b % p)
    if isinstance(ring, Rationals):
        return Fraction, (lambda a, b: a + b), (lambda a, b: a * b)
    p = ring.p

    def norm(x):
        cs = [c % p for c in ([x] if isinstance(x, int) else x)]
        while cs and cs[-1] == 0:
            cs.pop()
        return tuple(cs)

    def add(a, b):
        n = max(len(a), len(b))
        return norm([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])

    def mul(a, b):
        out = [0] * (len(a) + len(b))
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return norm(out)

    return norm, add, mul


def _oracle_value(ring, target, terms, u):
    norm, _add, mul = _plain(ring)
    scalar = target.ring if isinstance(target, VectorSpace) else target
    t_norm, t_add, t_mul = _plain(scalar)
    acc = None
    for coeff, exps, w in terms:
        v = norm(coeff)
        for c, e in zip(u, exps):
            for _ in range(e):
                v = mul(v, norm(c))
        if isinstance(target, VectorSpace):
            contrib = tuple(t_mul(v, t_norm(x)) for x in w)
            acc = contrib if acc is None else tuple(map(t_add, acc, contrib))
        else:
            contrib = t_mul(v, t_norm(w))
            acc = contrib if acc is None else t_add(acc, contrib)
    return acc


P2, P3 = PolyRing(2), PolyRing(3)
EVAL_CASES = [
    (PrimeField(5), PrimeField(5)),
    (Rationals(), Rationals()),
    (P2, P2),
    (P3, P3),
    (PrimeField(5), VectorSpace(PrimeField(5), 2)),
    (Rationals(), VectorSpace(Rationals(), 2)),
    (P2, VectorSpace(P2, 2)),
]


def _raw(ring):
    """Unnormalised inputs the ring accepts: ints out of range for F_p, ints
    for Q, ints and lists or tuples with trailing zeros for F_p[t]."""
    ints = st.integers(-12, 12)
    if isinstance(ring, Rationals):
        return ints | st.fractions(-6, 6, max_denominator=7)
    if isinstance(ring, PolyRing):
        coeffs = st.lists(st.integers(-4, 4), max_size=4)
        return ints | coeffs.map(tuple) | coeffs
    return ints


@st.composite
def eval_cases(draw):
    ring, target = draw(st.sampled_from(EVAL_CASES))
    n = draw(st.integers(1, 2))
    scalar = target.ring if isinstance(target, VectorSpace) else target
    one = scalar.one
    if isinstance(target, VectorSpace):
        weight = st.lists(_raw(scalar), min_size=target.dim, max_size=target.dim).map(tuple)
    else:
        weight = st.just(one) | _raw(scalar)
    exps = st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any).map(tuple)
    terms = draw(st.lists(st.tuples(_raw(ring), exps, weight), min_size=1, max_size=3))
    u = tuple(draw(_raw(ring)) for _ in range(n))
    return ring, target, n, terms, u


def _types(v):
    return tuple(map(_types, v)) if isinstance(v, tuple) else type(v)


@settings(max_examples=300, deadline=None)
@given(eval_cases())
def test_eval_poly_matches_a_plain_oracle(case):
    ring, target, n, terms, u = case
    phi = PolynomialMap(ring, n, target, tuple((Monomial(ring, c, e), w) for c, e, w in terms))
    got = eval_poly(phi, u)
    want = _oracle_value(ring, target, terms, u)
    assert got == want
    assert _types(got) == _types(want)  # e.g. a Fraction over Q, never an int
    assert phi(u) == got


# the compiled form of a map against naive_map_value, by repr, so that an
# int never stands in for an equal Fraction; exponents reach past p
COMPILED_CASES = [
    (Rationals(), Rationals()),
    (PrimeField(3), PrimeField(3)),
    (PrimeField(5), PrimeField(5)),
    (P2, P2),
    (P3, P3),
    (Rationals(), VectorSpace(Rationals(), 2)),
    (PrimeField(5), VectorSpace(PrimeField(5), 2)),
    (P2, VectorSpace(P2, 2)),
]


@st.composite
def compiled_cases(draw, cases=COMPILED_CASES):
    """(phi, u): one to three variables; one to four terms whose
    coefficients and weights may be zero, rational or unnormalised;
    exponents up to 7 over the finite rings (at least p there), 3 over Q."""
    ring, target = draw(st.sampled_from(cases))
    n = draw(st.integers(1, 3))
    scalar = target.ring if isinstance(target, VectorSpace) else target
    if isinstance(target, VectorSpace):
        weight = st.lists(_raw(scalar), min_size=target.dim, max_size=target.dim).map(tuple)
    else:
        weight = st.just(scalar.one) | _raw(scalar)
    top = 3 if isinstance(ring, Rationals) else 7
    exps = st.lists(st.integers(0, top), min_size=n, max_size=n).filter(any).map(tuple)
    terms = draw(st.lists(st.tuples(_raw(ring), exps, weight), min_size=1, max_size=4))
    phi = PolynomialMap(ring, n, target, tuple((Monomial(ring, c, e), w) for c, e, w in terms))
    return phi, tuple(draw(_raw(ring)) for _ in range(n))


@settings(max_examples=400, deadline=None)
@given(compiled_cases())
def test_compiled_map_matches_the_naive_value(case):
    # the compiled map takes and gives column form: over Q reduced pairs
    phi, raw = case
    u = pair_column(phi.ring, [phi.ring.element(c) for c in raw])
    want = naive_map_value(phi, raw)
    assert repr(phi.compiled(u)) == repr(pair_column(phi.target, [want])[0])
    assert repr(eval_poly(phi, raw)) == repr(want)
    assert phi.compiled is phi.compiled  # built once per map
    for m, _w in phi.terms:
        one = PolynomialMap(phi.ring, phi.n, phi.ring, ((m, phi.ring.one),))
        assert repr(eval_monomial(m, raw)) == repr(naive_map_value(one, raw))


@settings(max_examples=300, deadline=None)
@given(compiled_cases([c for c in COMPILED_CASES if isinstance(c[0], Rationals)]))
def test_compiled_map_over_q_gives_the_reduced_pairs_of_eval_poly(case):
    # Q and Q^2 points, rational coefficients, scalar and vector targets
    phi, raw = case
    got = phi.compiled(rational_pairs(tuple(map(phi.ring.element, raw))))
    want = eval_poly(phi, raw)
    pairs = got if isinstance(phi.target, VectorSpace) else (got,)
    assert all(type(a) is type(b) is int and b >= 1 and gcd(a, b) == 1 for a, b in pairs)
    assert column_elements(phi.target, [got]) == (want,)


def test_compiled_map_returns_a_first_power_itself():
    # a unit coefficient and a first power are not computed over F_p[t]
    u = ((1, 0, 1),)
    assert scalar_poly_map(P2, [Monomial(P2, (1,), (1,))]).compiled(u) is u[0]


def test_map_refuses_a_target_over_another_ring():
    for ring, target in ((PrimeField(5), Rationals()), (Rationals(), PrimeField(5)),
                         (Rationals(), VectorSpace(PrimeField(5), 2))):
        with pytest.raises(AlgebraError, match="cannot take values"):
            PolynomialMap(ring, 1, target, ((Monomial(ring, 1, (1,)), target.zero),))


def test_polyring_valued_map():
    # maps into F_2[t]: u -> u^2 * t
    R = PolyRing(2)
    phi = PolynomialMap(R, 1, R, ((Monomial(R, (1,), (2,)), (0, 1)),))
    assert eval_poly(phi, ((1, 1),)) == R.mul(R.mul((1, 1), (1, 1)), (0, 1))


def test_telescope_check_random():
    # the 2^d-term signed expansion must reproduce the monomial exactly
    rng = random.Random(20260812)
    F = PrimeField(7)
    for _ in range(1000):
        n = rng.randrange(1, 4)
        exps = [rng.randrange(0, 3) for _ in range(n)]
        if sum(exps) == 0:
            exps[rng.randrange(n)] = 1
        m = Monomial(F, rng.randrange(7), tuple(exps))
        d = m.total_degree
        u_gamma = tuple(rng.randrange(7) for _ in range(n))
        alphas = [tuple(rng.randrange(7) for _ in range(n)) for _ in range(d)]
        assert telescope_check(m, u_gamma, alphas)


def test_telescope_check_rational():
    Q = Rationals()
    m = Monomial(Q, Fraction(2, 3), (2, 1))
    u = (Fraction(1, 2), Fraction(-3))
    alphas = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(2)), (Fraction(-1, 5), Fraction(1))]
    assert telescope_check(m, u, alphas)
    with pytest.raises(AlgebraError):
        telescope_check(m, u, alphas[:2])  # needs one alpha per linear factor
