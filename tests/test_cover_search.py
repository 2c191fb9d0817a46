"""Differential tests of the constructive cover-and-colour search.

The search colours every word over the 2^d-letter alphabet by the cover
cells of its orbit point, with rotation cells computed in integers over one
common denominator.  The reference below is the search it replaced: a
dictionary keyed by tuples of index sets, cells from exact ``Fraction``
positions (``fraction_cell``), a ball cover memoised by event and measured
with ``orbit_metric`` (``oracles.ReferenceBallCover``), and the first
monochromatic line of ``all_lines``.  Both must report the same cells, the
same table size and the same first configuration.
"""

from fractions import Fraction as F
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from ipstar.algebra import Monomial, Rationals
from ipstar.halesjewett import line_points, line_to_config, psi_encode
from ipstar.recurrence import _BallCover, _cells, isometric_recurrence_search
from ipstar.systems import FinitePermSystem, RotationSystem, orbit_metric, regular_system
from oracles import ReferenceBallCover, all_lines, family_order, per_tuple_cells

SETTINGS = settings(max_examples=150, deadline=None)


def fraction_cell(sys, x, exponent, cover):
    """Cover-cell id of T^exponent applied to the tracked object."""
    if isinstance(sys, RotationSystem):
        pos = (F(x) + sys._angle(exponent)) % 1
        return (pos.numerator * cover) // pos.denominator
    return cover.cell(sys.shift_event(x, exponent))


def _add(ring, u, v):
    return tuple(ring.add(a, b) for a, b in zip(u, v))


def reference_search(sys, m, x, epsilon, gens):
    """(first monochromatic line or None, cells, table size)."""
    ring, n = m.ring, m.n
    gens = [tuple(ring.element(c) for c in (g if n > 1 else (g,))) for g in gens]
    r, d = len(gens), m.total_degree
    width = F(epsilon) / (1 << (d - 1))
    if isinstance(sys, RotationSystem):
        cover = -(-width.denominator // width.numerator)
    else:
        cover = ReferenceBallCover(sys, (width / 2) ** 2)
    sums = {}
    for alpha in [frozenset()] + family_order(r):
        total = (ring.zero,) * n
        for i in sorted(alpha):
            total = _add(ring, total, gens[i - 1])
        sums[alpha] = total
    table = {}
    for alphas in product(list(sums), repeat=d):
        exp = m.coeff
        for slot, c in enumerate(m.factor_coordinates()):
            exp = ring.mul(exp, sums[alphas[slot]][c])
        table[alphas] = fraction_cell(sys, x, exp, cover)
    k = 1 << d
    colors = lambda L: {table[psi_encode(w, d)] for w in line_points(L, k)}  # noqa: E731
    hit = next((L for L in all_lines(k, r) if len(colors(L)) == 1), None)
    cells = cover if isinstance(cover, int) else len(cover.centers)
    return hit, cells, len(table)


fractions = st.builds(F, st.integers(-12, 12), st.integers(1, 6))
unit_points = st.builds(lambda a, b: F(a % b, b), st.integers(0, 60), st.integers(1, 12))
epsilons = st.builds(F, st.integers(1, 12), st.integers(1, 40))


@st.composite
def monomials(draw, ring, n, max_degree):
    degree = draw(st.integers(1, max_degree))
    first = degree if n == 1 else draw(st.integers(0, degree))
    exps = (first,) if n == 1 else (first, degree - first)
    return Monomial(ring, draw(fractions), exps)


@st.composite
def rotation_searches(draw):
    """A rotation and a monomial over Q of degree up to 4, generators with
    negative and non-integer coordinates; at most two from degree 3."""
    n = draw(st.integers(1, 2))
    max_degree = draw(st.integers(1, 4))
    r = draw(st.integers(1, 4 if max_degree < 3 else 2))
    sys = RotationSystem(draw(fractions))
    m = draw(monomials(Rationals(), n, max_degree))
    gens = [tuple(draw(fractions) for _ in range(n)) if n > 1 else draw(fractions) for _ in range(r)]
    return sys, m, draw(unit_points), draw(epsilons), gens


@st.composite
def mixed_denominator_rotations(draw):
    """Generators of mixed denominators 2, 3 and 6 (1/2, 1/3, 5/6, ...), and
    a tracked point in the upper half of the circle, so that x + c*rho*E
    often passes 1 before it is reduced mod 1."""
    n = draw(st.integers(1, 2))
    m = draw(monomials(Rationals(), n, 2))
    coord = st.sampled_from([F(1, 2), F(1, 3), F(5, 6), F(-1, 2), F(4, 3), F(7, 6)])
    r = draw(st.integers(1, 4))
    gens = [tuple(draw(coord) for _ in range(n)) if n > 1 else draw(coord) for _ in range(r)]
    x = draw(st.sampled_from([F(11, 12), F(9, 10), F(5, 6), F(1, 2)]))
    return RotationSystem(draw(fractions)), m, x, draw(epsilons), gens


any_rotation = st.one_of(rotation_searches(), mixed_denominator_rotations())


@st.composite
def perm_systems(draw):
    """A field acting on c p-cycles and f fixed points, with weights that
    differ between cycles and fixed points; and a tracked event, sometimes a
    union of orbits, which every T^k fixes, so that distinct exponents give
    equal events."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    c, f = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    points = list(range(p * c + f))
    weights = [draw(st.integers(1, 3)) for _ in range(c + f)]  # per cycle, then per fixed point
    total = p * sum(weights[:c]) + sum(weights[c:])
    orbit = [x // p if x < p * c else c + x - p * c for x in points]
    w = {x: F(weights[orbit[x]], total) for x in points}
    g = {x: (x // p) * p + (x + 1) % p if x < p * c else x for x in points}
    s = FinitePermSystem(p, points, w, [g])
    if draw(st.booleans()):
        orbits = draw(st.sets(st.integers(0, c + f - 1), min_size=1))
        return s, s.event(x for x in points if orbit[x] in orbits)
    return s, s.event(draw(st.sets(st.sampled_from(points), min_size=1)))


@st.composite
def perm_searches(draw):
    s, x = draw(perm_systems())
    p, ring, n = s.p, s.ring, draw(st.integers(1, 2))
    exps = draw(st.sampled_from([(1,), (2,)] if n == 1 else [(1, 0), (1, 1), (0, 2)]))
    m = Monomial(ring, draw(st.integers(0, p - 1)), exps)
    r = draw(st.integers(1, 4))
    coord = st.integers(0, p - 1)
    gens = [tuple(draw(coord) for _ in range(n)) if n > 1 else draw(coord) for _ in range(r)]
    eps = F(draw(st.integers(1, 8)), 4)
    return s, m, x, eps, gens


def _agrees_with_reference(case):
    s, m, x, eps, gens = case
    hit, cells, size = reference_search(s, m, x, eps, gens)
    res = isometric_recurrence_search(s, x, m, eps, gens)
    assert (res.cells, res.words_scanned) == (cells, size)
    if hit is None:
        assert res.status == "absent"
    else:
        assert res.status == "found" and res.config == line_to_config(hit, m.total_degree)


@SETTINGS
@given(any_rotation)
def test_rotation_search_matches_the_fraction_table(case):
    _agrees_with_reference(case)


@SETTINGS
@given(perm_searches())
def test_perm_search_matches_the_event_keyed_cover(case):
    _agrees_with_reference(case)


def _coords(m, gens):
    """The generators as coordinate tuples of the monomial's ring, as the
    search passes them to ``_cells``."""
    ring, n = m.ring, m.n
    return [tuple(ring.element(c) for c in (g if n > 1 else (g,))) for g in gens]


@SETTINGS
@given(any_rotation, st.builds(F, st.integers(1, 7), st.integers(1, 300)))
def test_integer_rotation_cells_match_fraction_cells(case, width):
    s, m, x, _eps, gens = case
    ring, n = m.ring, m.n
    gens = _coords(m, gens)
    sums = [(ring.zero,) * n]
    for mask in range(1, 1 << len(gens)):
        low = mask & -mask
        sums.append(_add(ring, sums[mask ^ low], gens[low.bit_length() - 1]))
    cover = -(-width.denominator // width.numerator)
    expect = []
    for masks in product(range(len(sums)), repeat=m.total_degree):
        exp = m.coeff
        for a, c in zip(masks, m.factor_coordinates()):
            exp = ring.mul(exp, sums[a][c])
        expect.append(fraction_cell(s, x, exp, cover))
    table, cells = _cells(s, m, x, width, gens)
    assert (list(table), cells) == (expect, cover)


@st.composite
def exact_radius_cases(draw):
    """A p-cycle of points of weight w and a fixed point that brings the
    total to 2*w*k^2, tracking one cycle point: every T^e x other than x
    lies at squared distance 2w / (2wk^2) = 1/k^2, so a width of 2/k puts
    them exactly on the radius, where they must found cells of their own."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    w, k = draw(st.integers(1, 3)), draw(st.integers(2, 3))
    points = list(range(p + 1))
    weights = {x: F(w, 2 * w * k * k) for x in range(p)}
    weights[p] = F(w * (2 * k * k - p), 2 * w * k * k)
    s = FinitePermSystem(p, points, weights, [{x: (x + 1) % p if x < p else x for x in points}])
    x = s.event(draw(st.sampled_from([{0}, {0, p}])))
    m = Monomial(s.ring, draw(st.integers(1, p - 1)), draw(st.sampled_from([(1,), (2,), (3,)])))
    gens = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=3))
    return s, m, x, F(2, k), gens


@st.composite
def perm_cell_cases(draw):
    """A finite-perm search with a monomial of degree up to 4, so that
    partial products of one, two and three columns can coincide; at most
    two generators at degree 4."""
    s, m, x, _eps, gens = draw(perm_searches())
    degree = draw(st.integers(1, 4))
    first = degree if m.n == 1 else draw(st.integers(0, degree))
    exps = (first,) if m.n == 1 else (first, degree - first)
    m = Monomial(s.ring, m.coeff, exps)
    gens = gens[:2] if degree == 4 else gens
    return s, m, x, draw(st.builds(F, st.integers(1, 8), st.integers(1, 8))), gens


@SETTINGS
@given(any_rotation, st.builds(F, st.integers(1, 7), st.integers(1, 300)))
def test_rotation_cell_rows_match_the_per_tuple_table(case, width):
    # rational generators over Q; degree up to 4
    s, m, x, _eps, gens = case
    gens = _coords(m, gens)
    table, cells = _cells(s, m, x, width, gens)
    assert (list(table), cells) == per_tuple_cells(s, m, x, width, gens)


@SETTINGS
@given(st.one_of(perm_cell_cases(), exact_radius_cases()))
def test_ball_cell_rows_match_the_per_tuple_table(case):
    # cell ids number the balls in founding order, so equal lists mean the
    # balls were founded in the same order
    s, m, x, width, gens = case
    gens = _coords(m, gens)
    table, cells = _cells(s, m, x, width, gens)
    assert (list(table), cells) == per_tuple_cells(s, m, x, width, gens)


@st.composite
def ball_cover_cases(draw):
    """A tracked event, a run of exponents with repeats, and a positive
    squared radius (as the search's, half a cell width squared) that is
    often exactly one of the orbit's distances."""
    s, x = draw(perm_systems())
    exps = draw(st.lists(st.integers(0, s.p - 1), min_size=1, max_size=12))
    dists = sorted({orbit_metric(s, x, s.shift_event(x, e)) for e in range(s.p)} - {0})
    some = st.builds(F, st.integers(1, 8), st.integers(1, 8))
    radius_sq = draw(st.sampled_from(dists) | some if dists else some)
    return s, x, exps, radius_sq


@SETTINGS
@given(ball_cover_cases())
def test_ball_cover_reads_the_event_keyed_cover_off_the_correlator(case):
    s, x, exps, radius_sq = case
    cover, ref = _BallCover(s, x, radius_sq), ReferenceBallCover(s, radius_sq)
    assert [cover.cell(e) for e in exps] == [ref.cell(s.shift_event(x, e)) for e in exps]
    assert len(cover.centers) == len(ref.centers)


def test_ball_cover_radius_is_strict():
    # {0} and {1} lie at squared distance exactly 1 = (epsilon/2)^2: two cells
    s = regular_system(2)
    m, x = Monomial(s.ring, 1, (1,)), s.event({0})
    _agrees_with_reference((s, m, x, F(2), (1, 1)))
    assert isometric_recurrence_search(s, x, m, F(2), (1, 1)).cells == 2
