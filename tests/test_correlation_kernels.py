"""Differential tests of the backends' correlation kernels.

``correlator(B)`` returns w -> mu(B cap T^w B), an integer kernel on every
backend: finite-perm with one generator intersects B's bitmask on each cycle
with its rotation, and with more generators maps only B's points along their
cycles; the rotation shifts and intersects integer intervals over one common
denominator, memoised by w; Bernoulli tables supp(B) - supp(B) and returns
mu(B)^2 elsewhere.  One correlator is reused over a drawn list of w, with
repeats to hit the memo, and each value must equal ``correlation(B, w)``,
the naive event algebra, ``intersection_measure(B, shift_event(B, w))``, and
an oracle from ``tests/oracles.py`` that shares no code with either.
"""

from fractions import Fraction as F
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from ipstar.algebra import DegreeWindow, PolyRing, window_enumerate
from ipstar.systems import BernoulliSystem, FinitePermSystem, IntervalUnion, RotationSystem
from oracles import (
    interval_length_oracle,
    naive_bernoulli_cylinder_prob,
    naive_finite_correlation,
    naive_perm_power,
)

SETTINGS = settings(max_examples=200, deadline=None)


def _agree(sys, B, ws, want_of):
    """One correlator over every w; each value against the naive algebra
    and want_of(w)."""
    corr = sys.correlator(B)
    for w in ws:
        got = corr(w)
        assert isinstance(got, F)
        assert got == sys.correlation(B, w)
        assert got == sys.intersection_measure(B, sys.shift_event(B, w)) == want_of(w)


def _with_repeats(draw, ws, variants=lambda w: st.just(w)):
    """ws followed by a few of its members again, each drawn from its
    variants (an equal element written another way)."""
    again = draw(st.lists(st.sampled_from(ws), max_size=4))
    return ws + [draw(variants(w)) for w in again]


# ---------------------------------------------------------------------------
# rotations

# endpoints 0 and 1 come up often, so unions touch both ends of the circle
ENDPOINTS = st.sampled_from([F(0), F(1)]) | st.fractions(0, 1, max_denominator=12)
SMALL = st.fractions(-3, 3, max_denominator=9)


def _shifted(pieces, s):
    out = []
    for a, b in pieces:
        a2 = (a + s) % 1
        b2 = a2 + (b - a)
        out += [(a2, b2)] if b2 <= 1 else [(a2, F(1)), (F(0), b2 - 1)]
    return out


def _as_ints(x):
    """An equal rational written as an int when it is one."""
    return int(x) if x.denominator == 1 else x


@st.composite
def rotation_cases(draw):
    """(system, B, ws, rhos): rho a rational or a rational vector, negatives
    allowed; B a union of up to four pieces, a piece with a > b wrapping
    past 1; ws up to four elements, then some of them again, possibly with
    integral coordinates written as ints."""
    n = draw(st.integers(1, 3))
    rhos = tuple(draw(SMALL) for _ in range(n))
    sys = RotationSystem(rhos if n > 1 else rhos[0])
    pairs = draw(st.lists(st.tuples(ENDPOINTS, ENDPOINTS), max_size=4))
    ws = [tuple(draw(SMALL) for _ in range(n)) for _ in range(draw(st.integers(1, 4)))]
    ws = _with_repeats(draw, ws, lambda w: st.just(w) | st.just(tuple(map(_as_ints, w))))
    return sys, sys.event(pairs), [w if n > 1 else w[0] for w in ws], rhos


@SETTINGS
@given(rotation_cases())
def test_rotation_kernel_matches_interval_oracle(case):
    sys, B, ws, rhos = case
    pieces = list(B.pieces)

    def want(w):
        # the angle mod 1 worked out here; then mu(B cap B') = mu(B) +
        # mu(B') - mu(B cup B'), each by breakpoint refinement
        s = sum((c * r for c, r in zip(w if len(rhos) > 1 else (w,), rhos)), F(0)) % 1
        moved = _shifted(pieces, s)
        return (
            interval_length_oracle(pieces)
            + interval_length_oracle(moved)
            - interval_length_oracle(pieces + moved)
        )

    _agree(sys, B, ws, want)


def test_rotation_kernel_examples():
    sys = RotationSystem(F(-1, 3))
    B = IntervalUnion([(F(5, 6), F(1, 6)), (F(1, 3), F(1, 2))])  # wraps through 0
    assert B.pieces == ((0, F(1, 6)), (F(1, 3), F(1, 2)), (F(5, 6), 1))
    assert sys.correlation(B, 0) == F(1, 2)
    # shift by -1/3 = 2/3: [0,1/6) -> [2/3,5/6), [1/3,1/2) -> [0,1/6), [5/6,1) -> [1/2,2/3)
    assert sys.correlation(B, 1) == F(1, 6)
    assert sys.correlation(B, F(-3, 2)) == sys.correlation(B, F(3, 2))  # 3 turns by -1/3
    vec = RotationSystem((F(1, 4), F(-1, 6)))
    assert vec.correlation(vec.event([(0, F(1, 2))]), (F(2), F(6))) == 0  # a half turn
    assert vec.correlation(vec.event([]), (1, 1)) == 0


# ---------------------------------------------------------------------------
# finite permutations


@st.composite
def perm_cases(draw):
    """(system, B, ws): two commuting generators on a p x p grid (g1 moves the
    first coordinate, g2 the second), a p-cycle that g1 moves by 1 and g2 by
    k, and fixed points; integer weights constant on each block, zero on
    some fixed points; ws up to four pairs, then some of them again."""
    p = draw(st.sampled_from([2, 3, 5]))
    k = draw(st.integers(0, p - 1))
    n_fixed = draw(st.integers(0, 3))
    grid = [("a", i, j) for i in range(p) for j in range(p)]
    cyc = [("c", i) for i in range(p)]
    fixed = [("f", m) for m in range(n_fixed)]
    pts = grid + cyc + fixed
    g1, g2 = {x: x for x in pts}, {x: x for x in pts}
    for _, i, j in grid:
        g1[("a", i, j)] = ("a", (i + 1) % p, j)
        g2[("a", i, j)] = ("a", i, (j + 1) % p)
    for _, i in cyc:
        g1[("c", i)] = ("c", (i + 1) % p)
        g2[("c", i)] = ("c", (i + k) % p)
    wa, wc = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    raw = {x: wa for x in grid} | {x: wc for x in cyc} | {x: draw(st.integers(0, 3)) for x in fixed}
    weights = {x: F(v, sum(raw.values())) for x, v in raw.items()}
    sys = FinitePermSystem(p, pts, weights, [g1, g2])
    B = draw(st.just(frozenset()) | st.just(frozenset(pts))
             | st.frozensets(st.sampled_from(pts)))
    coord = st.integers(-2 * p, 2 * p)
    ws = _with_repeats(draw, draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=4)))
    return sys, sys.event(B), ws


@st.composite
def one_generator_perm_cases(draw):
    """(system, B, ws): one generator with up to four p-cycles and up to
    four fixed points, weights constant on each cycle and zero on some
    cycles and fixed points; ws scalars and 1-tuples, some repeated."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    cycles = [[("c", k, i) for i in range(p)] for k in range(draw(st.integers(0, 4)))]
    fixed = [("f", m) for m in range(draw(st.integers(0 if cycles else 1, 4)))]
    pts = [x for c in cycles for x in c] + fixed
    g = {x: x for x in fixed}
    raw = {x: draw(st.integers(0, 3)) for x in fixed}
    for c in cycles:
        g.update(zip(c, c[1:] + c[:1]))
        raw.update(dict.fromkeys(c, draw(st.integers(0, 3))))
    if not any(raw.values()):
        raw = dict.fromkeys(raw, 1)
    weights = {x: F(v, sum(raw.values())) for x, v in raw.items()}
    sys = FinitePermSystem(p, pts, weights, [g])
    B = draw(st.just(frozenset()) | st.just(frozenset(pts))
             | st.frozensets(st.sampled_from(pts)))
    ws = draw(st.lists(st.integers(-2 * p, 2 * p), min_size=1, max_size=4))
    ws = _with_repeats(draw, ws, lambda w: st.just(w) | st.just((w,)) | st.just(w + p))
    return sys, sys.event(B), ws


def _perm_oracle(sys, B, w):
    coords = w if isinstance(w, tuple) else (w,)
    power = naive_perm_power(sys.gens, [c % sys.p for c in coords])
    assert sys.transform(w) == power
    return naive_finite_correlation(sys.points, sys.weights, power, B)


@SETTINGS
@given(perm_cases())
def test_finite_perm_kernel_matches_pointwise_oracle(case):
    sys, B, ws = case
    _agree(sys, B, ws, lambda w: _perm_oracle(sys, B, w))


@SETTINGS
@given(one_generator_perm_cases())
def test_one_generator_bitmask_kernel_matches_pointwise_oracle(case):
    sys, B, ws = case
    _agree(sys, B, ws, lambda w: _perm_oracle(sys, B, w))


# ---------------------------------------------------------------------------
# Bernoulli shifts


def _poly_add(p, a, b):
    n = max(len(a), len(b))
    out = [((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p for i in range(n)]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _cylinder_prob(base, table):
    """Probability of a cylinder with letter sets: the sum over every choice
    of one allowed letter per coordinate of that single-letter cylinder's
    probability; an empty letter set leaves nothing to sum."""
    coords = list(table)
    return sum(
        (naive_bernoulli_cylinder_prob(base, dict(zip(coords, pick)))
         for pick in product(*(sorted(table[c]) for c in coords))),
        F(0),
    )


@st.composite
def bernoulli_cases(draw):
    """(system, B, ws, constraints): a support of up to four coordinates of
    degree < 3 or < 4, letter sets that may be empty, plus up to two
    coordinates padded with trailing zeros, which may name a support
    coordinate again; each w is either any window element or the difference
    of two support coordinates, so the shifted support collides with B's."""
    p = draw(st.sampled_from([2, 3]))
    d = draw(st.sampled_from([3, 4]))
    ring = PolyRing(p)
    elems = window_enumerate(ring, DegreeWindow(d))
    letters = draw(st.integers(2, 3))
    raw = draw(st.lists(st.integers(1, 5), min_size=letters, max_size=letters))
    base = [F(v, sum(raw)) for v in raw]
    supp = draw(st.lists(st.sampled_from(elems), min_size=0, max_size=4, unique=True))
    letter_sets = st.sets(st.integers(0, letters - 1), max_size=letters - 1).map(frozenset)
    constraints = {c: draw(letter_sets) for c in supp}
    coords = st.sampled_from(elems) | st.sampled_from(supp) if supp else st.sampled_from(elems)
    for c in draw(st.lists(coords, max_size=2)):
        constraints[c + (0,) * draw(st.integers(1, 2))] = draw(letter_sets)
    # w inside supp(B) - supp(B), a difference of two support coordinates,
    # or any window element, which is mostly outside
    diffs = [_poly_add(p, a, tuple((-x) % p for x in b)) for a in supp for b in supp]
    ws = draw(st.lists(st.sampled_from(diffs) | st.sampled_from(elems) if diffs
                       else st.sampled_from(elems), min_size=1, max_size=4))
    # repeats, some padded with trailing zeros: the same element unnormalised
    ws = _with_repeats(draw, ws, lambda w: st.integers(0, 2).map(lambda k: w + (0,) * k))
    sys = BernoulliSystem(p, base)
    return sys, sys.event(constraints), ws, constraints


@SETTINGS
@given(bernoulli_cases())
def test_bernoulli_kernel_matches_cylinder_oracle(case):
    sys, B, ws, constraints = case

    def want(w):
        table = {}  # B's constraints and its shift's, on normalised coordinates
        for shift in ((), w):
            for c, ls in constraints.items():
                moved = _poly_add(sys.p, c, shift)
                table[moved] = table[moved] & ls if moved in table else set(ls)
        return _cylinder_prob(sys.base, table)

    _agree(sys, B, ws, want)


def test_bernoulli_disjoint_supports_are_independent():
    sys = BernoulliSystem(2, [F(1, 3), F(2, 3)])
    B = sys.event({(): {0}, (0, 1): {1}})
    mu = sys.measure(B)
    assert mu == F(2, 9)
    assert sys.correlation(B, (1,)) == mu**2  # {1, 1+t} misses {0, t}
    assert sys.correlation(B, (0, 1)) == 0  # 0 lands on t: letters 0 and 1 clash
    assert sys.correlation(B, ()) == mu
    # coordinates given unnormalised: (1, 0) and (1,) both name 1, which
    # must hold letters 0 and 1 at once
    raw = sys.event({(1,): {0}, (1, 0): {1}})
    assert sys.measure(raw) == 0
    assert sys.correlation(raw, (0, 1)) == sys.intersection_measure(raw, sys.shift_event(raw, (0, 1)))
    empty = sys.event({(1,): set()})
    assert raw == empty and sys.measure(empty) == 0
    assert sys.correlation(empty, (1,)) == sys.correlation(empty, (0, 0, 1)) == 0
