"""Differential tests of the backends' correlation kernels.

``correlator(B)`` returns w -> mu(B cap T^w B), an integer kernel on every
backend: finite-perm with one generator intersects B's bitmask on each cycle
with its rotation, and with more generators maps only B's points along their
cycles; the rotation tables the overlap of B with its turns at B's
breakpoints, the differences of its endpoints over one common denominator,
and reads each call off the segment its turn falls in; Bernoulli tables
supp(B) - supp(B) as it is asked for and returns mu(B)^2 elsewhere.  One
correlator is reused over a drawn list of w, with repeats, some written
another way, so that a kernel's state is read back as well as filled; each
value must equal ``correlation(B, w)``, the naive event algebra,
``intersection_measure(B, shift_event(B, w))``, and an oracle from
``tests/oracles.py`` or a closed form that shares no code with either.
Rotation turns are also drawn on the breakpoints and just either side of
them, where the table switches segment.  Each ``kernel(B, threshold)``
takes w in column form and tables one (corr, hit) pair per distinct key,
corr as the reduced (numerator, denominator) pair of the oracle's value; a
shuffled window whose w repeat must get the oracle's pair on every call,
kernels for other events or thresholds on the same system must keep tables
of their own, and the correlator must be the kernel behind normalisation.
"""

from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipstar.algebra import (
    AlgebraError,
    DegreeWindow,
    PolyRing,
    RationalWindow,
    Rationals,
    column_elements,
    pair_column,
    window_enumerate,
)
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


def _interval_oracle(pieces, rhos):
    """w -> mu(B cap (B + s)): the angle s mod 1 worked out here, then
    mu(B cap B') = mu(B) + mu(B') - mu(B cup B'), each by breakpoint
    refinement."""
    pieces = list(pieces)

    def want(w):
        s = sum((c * r for c, r in zip(w if len(rhos) > 1 else (w,), rhos)), F(0)) % 1
        moved = _shifted(pieces, s)
        return (
            interval_length_oracle(pieces)
            + interval_length_oracle(moved)
            - interval_length_oracle(pieces + moved)
        )

    return want


@SETTINGS
@given(rotation_cases())
def test_rotation_kernel_matches_interval_oracle(case):
    sys, B, ws, rhos = case
    _agree(sys, B, ws, _interval_oracle(B.pieces, rhos))


# endpoints over denominators up to 60, so B's common denominator and its
# breakpoints are fine-grained; angles non-zero, so a turn can be solved for
WIDE_ENDPOINTS = st.sampled_from([F(0), F(1)]) | st.fractions(0, 1, max_denominator=60)
ANGLES = st.fractions(-3, 3, max_denominator=9).filter(bool)
# a turn exactly on a breakpoint, or a small step to either side of one
NUDGES = st.sampled_from([F(0), F(1, 10**9), F(-1, 10**9)]) | st.fractions(F(-1, 120), F(1, 120))


def _solve_for_turn(draw, turn, rhos):
    """An acting element whose turn is exactly turn: every coordinate but
    the first drawn, the first solved for."""
    rest = tuple(draw(SMALL) for _ in rhos[1:])
    first = (turn - sum((c * r for c, r in zip(rest, rhos[1:])), F(0))) / rhos[0]
    return (first, *rest) if len(rhos) > 1 else first


@st.composite
def breakpoint_cases(draw):
    """(system, B, ws, rhos): one to three angles; B up to four pieces with
    endpoint denominators up to 60; each w turns by a difference of two of
    B's endpoints plus a whole number of turns, nudged or not."""
    n = draw(st.integers(1, 3))
    rhos = tuple(draw(ANGLES) for _ in range(n))
    sys = RotationSystem(rhos if n > 1 else rhos[0])
    B = sys.event(draw(st.lists(st.tuples(WIDE_ENDPOINTS, WIDE_ENDPOINTS), min_size=1, max_size=4)))
    ends = sorted({e for piece in B.pieces for e in piece}) or [F(0)]
    ws = []
    for _ in range(draw(st.integers(1, 6))):
        turn = draw(st.sampled_from(ends)) - draw(st.sampled_from(ends))
        ws.append(_solve_for_turn(draw, turn + draw(st.integers(-2, 2)) + draw(NUDGES), rhos))
    return sys, B, ws, rhos


@SETTINGS
@given(breakpoint_cases())
def test_rotation_kernel_on_and_beside_breakpoints(case):
    sys, B, ws, rhos = case
    _agree(sys, B, ws, _interval_oracle(B.pieces, rhos))


@st.composite
def one_arc_cases(draw):
    """(system, B, b, ws, rhos): one to three angles; one arc [a, a + b) of
    length 0 < b <= 1/2, which may wrap past 1, endpoint denominators up to
    60; each w turns by 0 or +-b (the breakpoints), nudged or not, or by
    any small rational."""
    rhos = tuple(draw(ANGLES) for _ in range(draw(st.integers(1, 3))))
    sys = RotationSystem(rhos if len(rhos) > 1 else rhos[0])
    a = draw(st.fractions(0, 1, max_denominator=60).filter(lambda x: x < 1))
    b = draw(st.fractions(0, F(1, 2), max_denominator=60).filter(bool))
    B = sys.event([(a, a + b if a + b <= 1 else a + b - 1)])
    turns = st.sampled_from([F(0), b, -b]).flatmap(lambda t: NUDGES.map(lambda d: t + d)) | SMALL
    ws = [_solve_for_turn(draw, draw(turns), rhos) for _ in range(draw(st.integers(1, 6)))]
    return sys, B, b, ws, rhos


@SETTINGS
@given(one_arc_cases())
def test_rotation_kernel_matches_the_one_arc_closed_form(case):
    # one arc of length b <= 1/2 meets its turn by s only on the near side:
    # corr = max(0, b - ||s||), ||s|| the distance from s to the nearest integer
    sys, B, b, ws, rhos = case

    def closed_form(w):
        s = sum((c * r for c, r in zip(w if len(rhos) > 1 else (w,), rhos)), F(0)) % 1
        return max(F(0), b - min(s, 1 - s))

    _agree(sys, B, ws, closed_form)


def test_one_angle_correlator_takes_a_scalar_or_a_1_tuple():
    sys = RotationSystem(F(2, 7))
    B = sys.event([(F(1, 12), F(5, 12)), (F(2, 3), F(1, 6))])
    corr = sys.correlator(B)
    for w in (0, 3, -1, F(1, 2), F(-5, 3), F(7, 4)):
        want = sys.intersection_measure(B, sys.shift_event(B, w))
        assert corr(w) == corr((w,)) == sys.correlation(B, (w,)) == want


@pytest.mark.parametrize("rho, ws", [
    (F(1, 7), [0.5, True, False, (0.5,), (True,), (F(1, 2), 0.5)]),
    ((F(1, 4), F(-1, 6)), [(1, 0.5), (True, 1), (0.5, F(1, 2)), (1, 1, False), (0.5,), 0.5]),
])
def test_rotation_kernel_refuses_floats_and_bools_in_every_form(rho, ws):
    # each w follows a call with an equal rational, so a kernel keyed by
    # value would answer it
    sys = RotationSystem(rho)
    B = sys.event([(0, F(1, 3))])
    corr = sys.correlator(B)
    for w in ws:
        coords = w if isinstance(w, tuple) else (w,)
        if len(coords) == sys.n:
            corr(tuple(map(F, coords)))
        with pytest.raises(AlgebraError):
            corr(w)
        with pytest.raises(AlgebraError):
            sys.correlation(B, w)


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


def _cylinder_oracle(sys, constraints):
    """w -> mu(B cap T^w B) for the cylinder of the constraints, from the
    letter sets of B and its shift, met on normalised coordinates."""

    def want(w):
        table = {}  # B's constraints and its shift's, on normalised coordinates
        for shift in ((), w):
            for c, ls in constraints.items():
                moved = _poly_add(sys.p, c, shift)
                table[moved] = table[moved] & ls if moved in table else set(ls)
        return _cylinder_prob(sys.base, table)

    return want


@SETTINGS
@given(bernoulli_cases())
def test_bernoulli_kernel_matches_cylinder_oracle(case):
    sys, B, ws, constraints = case
    _agree(sys, B, ws, _cylinder_oracle(sys, constraints))


@settings(max_examples=200, deadline=None)
@given(bernoulli_cases(), st.fractions(-1, 1, max_denominator=30))
def test_bernoulli_integer_kernel_matches_the_event_algebra(case, threshold):
    # the kernel's D-table is integer letter weights over one common
    # denominator; each of its pairs, and the one outside D, must be the
    # reduced pair of the naive intersection of B with its shift
    sys, B, ws, _constraints = case
    kernel = sys.kernel(B, threshold)
    supp = list(B.constraints)
    for w in [sys.ring.sub(a, c) for a in supp for c in supp] + [sys.ring.element(w) for w in ws]:
        want = sys.intersection_measure(B, sys.shift_event(B, w))
        assert kernel(w) == ((want.numerator, want.denominator), want > threshold)


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


# ---------------------------------------------------------------------------
# the kernels' tables: one pair per distinct key, kept by each kernel alone

SMALL_WINDOW = window_enumerate(Rationals(), RationalWindow(2, 2))  # -2..2 and +-1/2


@st.composite
def tabled_cases(draw):
    """(system, [(B, oracle), (B', oracle')], ws, thresholds): one of the
    five kernels (finite-perm with one generator or two, a rotation by one
    angle or two, Bernoulli), two events on it, and a window of w in column
    form, as the scans feed the kernels (a rotation's coordinates as
    (numerator, denominator) pairs), squared coordinate by coordinate (so u
    and -u share w) or listed twice, in a drawn order; the oracles take w
    in column form too.  A threshold is either a correlation met in the
    window, which is then a miss, or any rational."""
    kind = draw(st.sampled_from(["perm1", "perm2", "rot1", "rot2", "bernoulli"]))
    if kind in ("perm1", "perm2"):
        sys, B, _ = draw(one_generator_perm_cases() if kind == "perm1" else perm_cases())
        B2 = sys.event(draw(st.frozensets(st.sampled_from(sys.points))))
        p = sys.p
        if kind == "perm1":
            c = draw(st.integers(1, p - 1))
            ws = [c * u * u % p for u in range(p)]
        else:
            ws = [(u * u % p, v * v % p) for u, v in product(range(p), repeat=2)]
        events = [(E, lambda w, E=E: _perm_oracle(sys, E, w)) for E in (B, B2)]
    elif kind in ("rot1", "rot2"):
        n = 1 if kind == "rot1" else 2
        rhos = tuple(draw(SMALL) for _ in range(n))
        sys = RotationSystem(rhos if n > 1 else rhos[0])
        pieces = st.lists(st.tuples(ENDPOINTS, ENDPOINTS), max_size=3)
        events = [(E, lambda w, want=_interval_oracle(E.pieces, rhos): want(_element(sys, w)))
                  for E in (sys.event(draw(pieces)) for _ in "ab")]
        ws = list(pair_column(sys.acting, [u * u for u in SMALL_WINDOW] if n == 1
                              else [(a * a, b * b) for a, b in product(SMALL_WINDOW, repeat=2)]))
    else:
        sys, B, _, constraints = draw(bernoulli_cases())
        kept = draw(st.sets(st.sampled_from(sorted(constraints)))) if constraints else set()
        fewer = {c: ls for c, ls in constraints.items() if c in kept}
        events = [(B, _cylinder_oracle(sys, constraints)),
                  (sys.event(fewer), _cylinder_oracle(sys, fewer))]
        ws = window_enumerate(sys.ring, DegreeWindow(3)) * 2
    met = sorted({events[0][1](w) for w in ws})
    thresholds = [draw(st.sampled_from(met) | st.fractions(-1, 1, max_denominator=30)) for _ in "ab"]
    return sys, events, draw(st.permutations(ws)), thresholds


def _element(sys, w):
    """The acting element whose column form is w."""
    return column_elements(sys.acting, [w])[0]


def _is_pair(pair, want, threshold):
    # the correlation comes as the oracle value's reduced (numerator, denominator)
    corr, hit = pair
    return corr == (want.numerator, want.denominator) and hit == (want > threshold)


@settings(max_examples=150, deadline=None)
@given(tabled_cases())
def test_a_kernel_returns_the_oracle_pair_on_every_call(case):
    sys, [(B, want), _], ws, [threshold, _] = case
    kernel = sys.kernel(B, threshold)
    for w in ws:
        assert _is_pair(kernel(w), want(w), threshold)


@settings(max_examples=150, deadline=None)
@given(tabled_cases())
def test_kernels_on_one_system_do_not_share_a_table(case):
    # another event under the same threshold, and the same event under
    # another threshold, called in turn over the same w
    sys, [(B, want), (B2, want2)], ws, [t, t2] = case
    kernels = [(sys.kernel(B, t), want, t), (sys.kernel(B2, t), want2, t), (sys.kernel(B, t2), want, t2)]
    for w in ws:
        for kernel, want_of, threshold in kernels:
            assert _is_pair(kernel(w), want_of(w), threshold)


@settings(max_examples=100, deadline=None)
@given(tabled_cases())
def test_the_correlator_is_the_kernel_behind_normalisation(case):
    # an element normalises to its column form, where the kernel's pair
    # holds the correlator's value and the hit of corr > threshold
    sys, [(B, _), _], ws, [threshold, _] = case
    kernel, correlator = sys.kernel(B, threshold), sys.correlator(B)
    for w in ws:
        u = _element(sys, w)
        assert sys._normalise(u) == w
        corr, hit = kernel(sys._normalise(u))
        assert F(*corr) == correlator(u) and hit == (F(*corr) > threshold)
