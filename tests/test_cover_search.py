"""Differential tests of the constructive cover-and-colour search.

The search colours every word over the 2^d-letter alphabet by the cover
cells of its orbit point, with rotation cells computed in integers over one
common denominator.  The reference below is the search it replaced: a
dictionary keyed by tuples of index sets, cells from exact ``Fraction``
positions (``fraction_cell``), a ball cover memoised by event, and the first
monochromatic line of ``all_lines``.  Both must report the same cells, the
same table size and the same first configuration.
"""

from fractions import Fraction as F
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from ipstar.algebra import Integers, Monomial, Rationals
from ipstar.halesjewett import all_lines, line_points, line_to_config, psi_encode
from ipstar.ipsets import family_order
from ipstar.recurrence import _cells, commuting_recurrence_search
from ipstar.systems import FinitePermSystem, RotationSystem, orbit_metric, regular_system

SETTINGS = settings(max_examples=150, deadline=None)


class ReferenceBallCover:
    """Greedy ball cover keyed by event, as the table search used it."""

    def __init__(self, sys, radius_sq):
        self.sys, self.radius_sq, self.centers, self.known = sys, radius_sq, [], {}

    def cell(self, event):
        if event not in self.known:
            near = [orbit_metric(self.sys, event, c) < self.radius_sq for c in self.centers]
            if True not in near:
                self.centers.append(event)
                near.append(True)
            self.known[event] = near.index(True)
        return self.known[event]


def fraction_cell(sys, x, exponent, cover):
    """Cover-cell id of T^exponent applied to the tracked object."""
    if isinstance(sys, RotationSystem):
        pos = (F(x) + sys._angle(exponent)) % 1
        return (pos.numerator * cover) // pos.denominator
    return cover.cell(sys.shift_event(x, exponent))


def _add(ring, u, v):
    return tuple(ring.add(a, b) for a, b in zip(u, v))


def reference_search(systems, monomials, x, epsilon, gens):
    """(first monochromatic line or None, cells per action, table size)."""
    ring, n = monomials[0].ring, monomials[0].n
    gens = [tuple(ring.element(c) for c in (g if n > 1 else (g,))) for g in gens]
    r, d = len(gens), max(m.total_degree for m in monomials)
    tol = F(epsilon) / len(systems)
    covers = []
    for s, m in zip(systems, monomials):
        width = tol / (1 << (m.total_degree - 1))
        if isinstance(s, RotationSystem):
            covers.append(-(-width.denominator // width.numerator))
        else:
            covers.append(ReferenceBallCover(s, (width / 2) ** 2))
    sums = {}
    for alpha in [frozenset()] + family_order(r):
        total = (ring.zero,) * n
        for i in sorted(alpha):
            total = _add(ring, total, gens[i - 1])
        sums[alpha] = total
    table = {}
    for alphas in product(list(sums), repeat=d):
        key = []
        for s, m, cov in zip(systems, monomials, covers):
            exp = m.coeff
            for slot, c in enumerate(m.factor_coordinates()):
                exp = ring.mul(exp, sums[alphas[slot]][c])
            key.append(fraction_cell(s, x, exp, cov))
        table[alphas] = tuple(key)
    k = 1 << d
    colors = lambda L: {table[psi_encode(w, d)] for w in line_points(L, k)}  # noqa: E731
    hit = next((L for L in all_lines(k, r) if len(colors(L)) == 1), None)
    cells = tuple(c if isinstance(c, int) else len(c.centers) for c in covers)
    return hit, cells, len(table)


fractions = st.builds(F, st.integers(-12, 12), st.integers(1, 6))
unit_points = st.builds(lambda a, b: F(a % b, b), st.integers(0, 60), st.integers(1, 12))
epsilons = st.builds(F, st.integers(1, 12), st.integers(1, 40))


@st.composite
def monomials(draw, ring, n, max_degree):
    degree = draw(st.integers(1, max_degree))
    first = degree if n == 1 else draw(st.integers(0, degree))
    exps = (first,) if n == 1 else (first, degree - first)
    coeff = draw(st.integers(-4, 4)) if ring == Integers() else draw(fractions)
    return Monomial(ring, coeff, exps)


@st.composite
def rotation_searches(draw):
    """One or two rotations, a shared arity and ring, generators with
    negative and non-integer coordinates."""
    ring = draw(st.sampled_from([Rationals(), Integers()]))
    n = draw(st.integers(1, 2))
    actions = draw(st.integers(1, 2))
    max_degree = draw(st.integers(1, 3))
    r = draw(st.integers(1, 4 if max_degree < 3 else 2))
    systems = [RotationSystem(draw(fractions)) for _ in range(actions)]
    mons = [draw(monomials(ring, n, max_degree)) for _ in range(actions)]
    coord = st.integers(-12, 12) if ring == Integers() else fractions
    gens = [tuple(draw(coord) for _ in range(n)) if n > 1 else draw(coord) for _ in range(r)]
    return systems, mons, draw(unit_points), draw(epsilons), gens


@st.composite
def perm_searches(draw):
    """A field acting on c p-cycles and f fixed points, once or twice."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    c, f = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    points = list(range(p * c + f))
    weights = [draw(st.integers(1, 3)) for _ in range(c + f)]  # per cycle, then per fixed point
    total = p * sum(weights[:c]) + sum(weights[c:])
    w = {x: F(weights[x // p] if x < p * c else weights[c + x - p * c], total) for x in points}
    g = {x: (x // p) * p + (x + 1) % p if x < p * c else x for x in points}
    s = FinitePermSystem(p, points, w, [g])
    x = s.event(draw(st.sets(st.sampled_from(points), min_size=1)))
    actions = draw(st.integers(1, 2))
    ring, n = s.field, draw(st.integers(1, 2))
    mons = []
    for _ in range(actions):
        exps = draw(st.sampled_from([(1,), (2,)] if n == 1 else [(1, 0), (1, 1), (0, 2)]))
        mons.append(Monomial(ring, draw(st.integers(0, p - 1)), exps))
    r = draw(st.integers(1, 4))
    coord = st.integers(0, p - 1)
    gens = [tuple(draw(coord) for _ in range(n)) if n > 1 else draw(coord) for _ in range(r)]
    eps = F(draw(st.integers(1, 8)), 4)
    return [s] * actions, mons, x, eps, gens


def _agrees_with_reference(case):
    systems, mons, x, eps, gens = case
    hit, cells, size = reference_search(systems, mons, x, eps, gens)
    res = commuting_recurrence_search(systems, mons, x, eps, gens)
    assert (res.cells, res.words_scanned) == (cells, size)
    if hit is None:
        assert res.status == "absent"
    else:
        d = max(m.total_degree for m in mons)
        assert res.status == "found" and res.config == line_to_config(hit, d)


@SETTINGS
@given(rotation_searches())
def test_rotation_search_matches_the_fraction_table(case):
    _agrees_with_reference(case)


@SETTINGS
@given(perm_searches())
def test_perm_search_matches_the_event_keyed_cover(case):
    _agrees_with_reference(case)


@SETTINGS
@given(rotation_searches(), st.builds(F, st.integers(1, 7), st.integers(1, 300)))
def test_integer_rotation_cells_match_fraction_cells(case, width):
    systems, mons, x, _eps, gens = case
    s, m = systems[0], mons[0]
    ring, n = m.ring, m.n
    gens = [tuple(ring.element(c) for c in (g if n > 1 else (g,))) for g in gens]
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
    assert _cells(s, m, ring, x, width, sums) == (expect, cover)


def test_ball_cover_radius_is_strict():
    # {0} and {1} lie at squared distance exactly 1 = (epsilon/2)^2: two cells
    s = regular_system(2)
    case = [s], [Monomial(s.field, 1, (1,))], s.event({0}), F(2), (1, 1)
    _agrees_with_reference(case)
    assert commuting_recurrence_search(*case).cells == (2,)
