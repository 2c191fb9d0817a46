"""Return sets of measurable events, their dual-family structure, and the
constructive coloring search that produces recurrent finite sums.

The headline objects are return sets

    R = {u in the window : mu(B cap T^{phi(u)} B) > mu(B)^2 - eps}

computed member by member with exact rationals, then classified against
r-generator finite-sums families.  ``recurrence_set`` keeps the scan as
three columns in window order.  It lists the window once
(``algebra.window_column``), then fills each further column with one
``map`` over the one before: the map's compiled form
(``PolynomialMap.compiled``) gives the value phi(u) of each element, and
the backend's kernel (``kernel(B, threshold)``) the (corr, hit) pair of
each value, corr as its reduced (numerator, denominator) int pair.  All
three columns speak the column form of ``algebra`` on every ring, so a
scan over Q stays in (numerator, denominator) pairs, and no column holds a
``Fraction``.  mu(B) is measured once, and the report and its Khintchine
bound take that value.  The kernel builds each distinct pair once, so the
pair column shares them.  R, the frozenset of the hit elements, and the
Fractions of ``elements`` and ``values`` are built only when a caller
reads them; the renderers work by column: the window's texts come from its
product structure (``textio.window_texts``), a report's members are
``compress``ed out of them by the hit column, and each distinct pair's
text is written once.  ``fp_probe`` reads the hits of its few products
off the same kernel, through the compiled map.
The second, independent assembly path, which replays the spectral proof
(A, E and the inequality chain), lives in the test oracles
(``tests/oracles.py``), and the two must agree exactly.
By duality R is IP*_r exactly when its complement holds no IP_r set, so
the classification scans the non-hit elements in window order.  The scan
takes only a pool, a budget and a resume path; the report holds the
window, so it alone says what a verdict and a density claim: a "holds"
decides the claim on the whole finite group (``RecurrenceReport.exact``)
and is window-limited otherwise, and the exceptional set's density runs
only over the canonical windows inside the report's window, read off its
elements in one pass (``window_means``).  Each classification replaces the
report's levels.

The constructive side (`isometric_recurrence_search`) drives the coloring
machinery for one action, one system and one monomial: cover the tracked
orbit by small cells, color subset-tuples by the cell their orbit point
lands in, and read a recurrent finite union out of a monochromatic
configuration.  Several commuting generators are one action of a vector
group (a finite-perm system with several generators, a rotation with a
tuple of angles), not several actions.  The search computes exponents in
their cyclic group, F_p or Z/L on the circle, and reads ball cells off the
hits of the tracked event's kernel.  Every returned certificate, and every
failing classify witness, is re-verified by exact arithmetic after the
search, never trusted from the search itself.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache, cached_property, reduce
from itertools import compress
from math import lcm
from operator import iadd, itemgetter, not_

from .algebra import FullWindow, Monomial, PolynomialMap, Rationals, VectorSpace, Window
from .algebra import SIZE_CAP, as_coords, column_elements, pair_column
from .algebra import check_value_size, power_over_cap, window_column
from .halesjewett import first_mono_subset_line, lanes, line_to_config
from .ipsets import finite_sums, is_ip_r_star, subset_folds
from .systems import (
    FinitePermSystem,
    RotationSystem,
    SpectralSplit,
    check_map_target,
    folner_reach,
    orbit_metric,
    window_means,
)

class RecurrenceError(ValueError):
    """Inputs outside what the exact machinery can decide."""


class RecurrenceReport:
    """Everything known about one return set, filled in stages.

    A report is built from its inputs, mu(B), its threshold mu(B)^2 -
    epsilon and the scan's three columns; the domain, the Khintchine bound
    and the theorem-hypotheses flag are read off phi, the system and mu(B).
    The columns hold the elements and their values in column form
    (``algebra.pair_column``: over Q each rational coordinate as its pair),
    and the kernel's pairs, each correlation a reduced (numerator,
    denominator) int pair.  ``elements`` and ``values`` read the columns in
    normal form, built once, when first read."""

    def __init__(
        self, system, B, phi: PolynomialMap, epsilon: Fraction, window: Window, mu: Fraction,
        threshold: Fraction, element_column: tuple, value_column: tuple, pairs: tuple,
    ):
        self.system, self.B, self.phi, self.epsilon = system, B, phi, epsilon
        self.window, self.mu, self.threshold = window, mu, threshold
        self.element_column = element_column  # the window in canonical order
        self.value_column = value_column  # phi(u) for each element
        self.pairs = pairs  # the kernel's (corr, in_R) for each value, one tuple per distinct pair
        self.domain = phi.domain
        self.khintchine = SpectralSplit.of(system, mu).khintchine
        self.outside_hypotheses = system.outside_theorem_hypotheses
        self.classification = {}  # r -> IpStarVerdict
        self.exceptional_density = None  # a DensityProfile, once a windowed classify ran

    @cached_property
    def elements(self) -> tuple:
        """The window in canonical order, in normal form."""
        return column_elements(self.domain, self.element_column)

    @cached_property
    def values(self) -> tuple:
        """phi(u) for each element, in normal form."""
        return column_elements(self.phi.target, self.value_column)

    def hits(self):
        """The in_R column: an iterator of one bool per element."""
        return map(itemgetter(1), self.pairs)

    @cached_property
    def R(self) -> frozenset:
        """The window elements that are hits, hashed on first use only."""
        return frozenset(compress(self.elements, self.hits()))

    @property
    def exceptional(self) -> tuple:
        """R's complement in the window: the other elements, in window order."""
        return tuple(compress(self.elements, map(not_, self.hits())))

    @property
    def exact(self) -> bool:
        return isinstance(self.window, FullWindow)

    def window_limited(self, verdict) -> bool:
        """Whether a verdict claims less than the whole group.  A "fails" is
        exact in any window: R is exact on it, so the witness's sums avoid R
        everywhere.  Any other verdict is decided on the window only."""
        return verdict.kind != "fails" and not self.exact


def _checked_kernel(sys, B, phi: PolynomialMap, epsilon, window: Window, count: int):
    """What the return-set scan and the probe share: the checked inputs,
    then (B as an event, epsilon, mu(B), the threshold, the kernel, the
    compiled map), mu(B) measured once.  The count values the caller builds
    at elements of the window are refused before any is built when they
    would take more than ``VALUE_CAP`` (``check_value_size``).  Zero's pair is checked: every
    window holds zero, and corr(0) = mu(B) lies above the threshold."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise RecurrenceError("epsilon must be a positive rational")
    check_map_target(sys, phi, RecurrenceError)
    B = sys.event(B)
    check_value_size(phi, window, count)
    mu = sys.measure(B)
    threshold = mu * mu - epsilon
    kernel, value = sys.kernel(B, threshold), phi.compiled
    # the compiled map takes and gives column form, as the kernel takes it
    if not kernel(value(pair_column(phi.ring, (phi.ring.zero,) * phi.n)))[1]:
        raise RecurrenceError("return set lost the zero element; broken invariant")
    return B, epsilon, mu, threshold, kernel, value


def recurrence_set(sys, B, phi: PolynomialMap, epsilon, window: Window) -> RecurrenceReport:
    """Exact membership scan of the return set over the window: the value
    w = phi(u) and the kernel's pair (corr, hit) of every element, as
    columns in window order; R is not built here.  The columns are in the
    column form that the compiled map and the kernel take, so over Q no
    ``Fraction`` is built per element.  A window of more than ``SIZE_CAP``
    elements is refused before anything else (``window_column``)."""
    elements = window_column(phi.domain, window)
    B, epsilon, mu, threshold, kernel, value = _checked_kernel(sys, B, phi, epsilon, window, len(elements))
    # a one-variable map takes its element as a 1-tuple of coordinates
    values = tuple(map(value, zip(elements) if phi.n == 1 else elements))
    pairs = tuple(map(kernel, values))
    return RecurrenceReport(sys, B, phi, epsilon, window, mu, threshold, elements, values, pairs)


def classify_ipstar(
    report: RecurrenceReport,
    r_max: int = 4,
    *,
    budget: int | None = None,
    resume_path: tuple[int, ...] | None = None,
) -> RecurrenceReport:
    """Check R against every r-generator finite-sums family, r = 1..r_max.

    One scan to level r_max decides every level (``IpStarVerdict.levels``),
    which replace any the report held, and the budget counts its nodes.  A
    scan resumed at ``resume_path`` replays the nodes before it without
    charge, so the report still lists the levels it passed.  A windowed
    report also gets the density of its exceptional set along the canonical
    averaging sequence, supporting an almost-dual reading (failures confined
    to a vanishing-density set), over the windows 1..N that lie inside its
    own (``folner_reach``), read off its elements; it has none when N = 0.
    """
    dom, pool = report.domain, report.exceptional
    v = is_ip_r_star(dom, pool, r_max, budget=budget, resume_path=resume_path)
    report.classification = v.levels(r_max)
    # a witness's sums lie in R's complement in the window exactly when
    # they stay in the window and avoid R
    exc = frozenset(pool)
    for level in report.classification.values():
        if level.kind == "fails" and not finite_sums(dom, level.witness) <= exc:
            raise RecurrenceError("classify witness failed re-verification")
    N = 0 if report.exact else folner_reach(report.window)
    if N:
        report.exceptional_density = window_means(exc.__contains__, dom, N, report.elements)
    return report


FpProbe = namedtuple("FpProbe", [
    "products",  # subset products in family order, duplicates kept
    "witnesses",  # those that land in R
    "intersects",
])


def fp_probe(sys, B, phi: PolynomialMap, epsilon, window: Window, gens) -> FpProbe:
    """Does the return set R of (B, phi, epsilon) over the window meet the
    finite products of the given generators?

    A multiplicative analogue probe: products run over non-empty index
    subsets in ascending mask order, evaluated in the domain ring.  A
    product is a witness exactly when it lies in the window and its
    correlation exceeds the threshold.  Window membership is decided from
    the window's bounds, so the window is never listed; only the in-window
    products' hits are read off the kernel, plus the one at 0 that keeps
    the zero-element invariant (``_checked_kernel``).  More than
    ``SIZE_CAP`` products are refused before any is listed, and products
    whose values would take more than ``VALUE_CAP`` before any is built.
    """
    ring = phi.domain
    if isinstance(ring, VectorSpace):
        raise RecurrenceError("finite products need a ring, not a vector group")
    gens = tuple(ring.element(g) for g in gens)
    if any(g == ring.zero for g in gens):
        raise RecurrenceError("zero generator has no multiplicative content")
    r = len(gens)
    if power_over_cap(2, r) is not None:
        raise RecurrenceError(f"{r} generators have 2^{r} - 1 products, more than the cap of {SIZE_CAP}")
    products = subset_folds(ring.mul, ring.one, gens)[1:]
    *_, kernel, value = _checked_kernel(sys, B, phi, epsilon, window, len(products) + 1)
    # a one-variable map takes a 1-tuple
    witnesses = tuple(v for v in products if ring.window_contains(window, v)
                      and kernel(value(pair_column(ring, (v,))))[1])
    return FpProbe(tuple(products), witnesses, bool(witnesses))


# ---------------------------------------------------------------------------
# constructive search: cover, color, extract a finite union


class IsoSearchResult(namedtuple("IsoSearchResult", [
    "status",  # "found" | "absent"
    "gamma",
    "u_gamma",
    "exponent",  # the acting exponent m(u_gamma)
    "distance_sq",
    "config",  # a SubsetConfig
    "cells",  # the cover size actually used
    "proof_bound",
    "sufficient_length",
    "words_scanned",
])):
    __slots__ = ()

    @property
    def found(self) -> bool:
        return self.status == "found"


class _BallCover:
    """Greedy cover of the orbit of a tracked event by balls of a fixed
    radius, centred at orbit points named by their exponents: each new
    exponent joins the first existing cell whose center is strictly closer
    than the radius, or founds a new cell.  Two members of one cell are
    then strictly within twice the radius of each other.  ``cell`` places
    each exponent once, at its first call (``functools.cache``), so the
    order of first calls decides the order in which cells are founded.

    T preserves mu, so d^2(T^e x, T^c x) = 2(mu(x) - mu(x cap T^(c-e) x)):
    strictly inside the radius reads corr(c - e) > mu(x) - radius^2 / 2,
    the hit of one call of the event's kernel at that threshold, on the
    difference normalised into the acting group."""

    def __init__(self, sys, x, radius_sq: Fraction):
        kernel, normalise = sys.kernel(x, sys.measure(x) - radius_sq / 2), sys._normalise
        self.centers = centers = []

        @cache
        def cell(e) -> int:
            """Cell of T^e applied to the tracked event."""
            i = next((j for j, c in enumerate(centers) if kernel(normalise(c - e))[1]), len(centers))
            if i == len(centers):
                centers.append(e)
            return i

        self.cell = cell


def _cells(s, m, x, width: Fraction, gens):
    """Cover cell of T^E x for every tuple of slot masks (a_1..a_deg) of the
    monomial's factors, lexicographic with slot 1 outermost, where E is c
    times the product of the slots' subset sums; and the number of cells.

    Exponents live in a cyclic group Z/L: each factor's column of subset
    sums is one ``subset_folds`` of the generators' coordinates mod L.  In
    F_p, L = p.  On the circle, over the generators' common denominator den
    (every subset sum's divides it) and those of x and c*rho, x + c*rho*E is
    N / L with L = den(x) * den(c*rho) * den^deg, so the cell
    floor(((x + c*rho*E) mod 1) * cover) is ((N mod L) * cover) // L.  The
    partial products of the leading columns come from one fold, in slot
    order; the last column's row below a partial product is built once per
    distinct product (``functools.cache``), at its first occurrence, and
    the rows are joined in the partial products' order, each copied onto
    one fresh table (``reduce(iadd, ..., pack())`` never extends a cached
    row).  So ball cells are founded in slot-tuple order, as a cell-by-cell
    scan would found them.

    The table is one flat buffer in slot-tuple order, which is the
    subset-tuple order ``halesjewett.first_mono_subset_line`` scans: its
    rows are 1-, 2- or 4-byte lanes (``halesjewett.lanes``), the narrowest
    that hold every cell the cover can give (below ``cover`` on the
    circle; below the group's order and the table's size for balls), and
    each row is appended at C level.  A cover of more than 2^32 cells
    gives a list."""
    facs = m.factor_coordinates()
    if isinstance(s, RotationSystem):
        turn = s._angle(m.coeff)  # c*rho
        den = lcm(*(g[c].denominator for g in gens for c in facs))
        L = x.denominator * turn.denominator * den ** len(facs)
        start = turn.numerator * x.denominator
        gens = [{c: g[c].numerator * (den // g[c].denominator) for c in facs} for g in gens]
    else:
        L, start = s.p, m.coeff
    folds = {c: subset_folds(lambda a, b: (a + b) % L, 0, [g[c] for g in gens]) for c in set(facs)}
    *columns, last = [folds[c] for c in facs]
    partials = [start % L]
    for column in columns:
        partials = [p * q % L for p in partials for q in column]
    if isinstance(s, RotationSystem):
        cover = (width.denominator + width.numerator - 1) // width.numerator
        shift = x.numerator * (L // x.denominator)
        pack = lanes(cover - 1)
        row = cache(lambda p: pack([(shift + p * q) % L * cover // L for q in last]))
        return reduce(iadd, map(row, partials), pack()), cover
    balls = _BallCover(s, x, (width / 2) ** 2)
    pack = lanes(min(L, len(partials) * len(last)) - 1)
    row = cache(lambda p: pack([balls.cell(p * q % L) for q in last]))
    return reduce(iadd, map(row, partials), pack()), len(balls.centers)


def isometric_recurrence_search(sys, x, m: Monomial, epsilon, gens):
    """Find a finite index union whose generated exponent returns x to
    within epsilon, by the cover-and-color argument.

    gens supplies r candidate generators (scalars, or coordinate tuples
    matching the monomial's arity).  The r the proof guarantees is reported
    as a formula (its value is far beyond evaluation); the search happily
    runs at smaller r and reports absence when no configuration exists.
    Distances: arc length on the circle backend, squared indicator norm on
    the finite backend; both compared squared against epsilon^2.

    The line is read off the cover table as ``_cells`` builds it, in
    subset-tuple order (``halesjewett.first_mono_subset_line``): the table
    is never reordered into word order, and the line found is the first in
    the canonical line order.  ``words_scanned`` is the table's size,
    (2^d)^r entries.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise RecurrenceError("epsilon must be a positive rational")
    if isinstance(sys, RotationSystem):
        x = Fraction(x)
        if not 0 <= x < 1:
            raise RecurrenceError("tracked point must lie in [0, 1)")
    elif isinstance(sys, FinitePermSystem):
        x = sys.event(x)
    else:
        raise RecurrenceError("constructive search needs a compact backend")
    ring, n, d = m.ring, m.n, m.total_degree
    gens = tuple(tuple(ring.element(c) for c in as_coords(g, n)) for g in gens)
    for g in gens:
        if len(g) != n:
            raise RecurrenceError(f"generator needs {n} coordinates")
    r = len(gens)
    if r < 1:
        raise RecurrenceError("need at least one generator")
    # (2^d)^r = 2^(d*r) words against a cap that is a power of two: compared
    # by exponents, so an absurd degree never forms the power
    if d * r > SIZE_CAP.bit_length() - 1:
        raise RecurrenceError("search space too large; fewer generators or lower degree")
    if isinstance(sys, RotationSystem) and not isinstance(ring, Rationals):
        raise RecurrenceError("rotation search needs a monomial over Q")

    # cells of width epsilon / 2^(d-1): the telescoping chain over the
    # 2^(d-1) same-cell pairs then stays under epsilon
    cells, used = _cells(sys, m, x, epsilon / (1 << (d - 1)), gens)
    line = first_mono_subset_line(d, r, cells)
    proof_bound = f"hj({1 << d}, {used})"
    suff = _sufficient_length(sys, m)
    if line is None:
        return IsoSearchResult(
            "absent", None, None, None, None, None, used, proof_bound, suff, len(cells)
        )
    gamma = frozenset(line.moving)
    # summed afresh from the generators, not read from the search's table
    u_gamma = reduce(lambda u, v: tuple(map(ring.add, u, v)), [gens[i - 1] for i in gamma])
    exponent = m(u_gamma)
    dist_sq = _distance_sq(sys, x, exponent)
    if not dist_sq < epsilon * epsilon:
        raise RecurrenceError("search certificate failed exact re-verification")
    return IsoSearchResult(
        "found",
        gamma,
        u_gamma if n > 1 else u_gamma[0],
        exponent,
        dist_sq,
        line_to_config(line, d),
        used,
        proof_bound,
        suff,
        len(cells),
    )


_cover_color_search = isometric_recurrence_search  # the name the tracer spans (cover_table)


def _distance_sq(sys, x, exponent) -> Fraction:
    """Squared distance from x to T^exponent x: arc length on the circle,
    the indicator norm on the finite backend, through the naive event
    algebra that the search's correlator is checked against."""
    if isinstance(sys, RotationSystem):
        t = sys._angle(exponent) % 1
        return min(t, 1 - t) ** 2
    return orbit_metric(sys, x, sys.shift_event(x, exponent))


def _sufficient_length(sys, m: Monomial) -> int | None:
    """Generator count guaranteeing success for integer generators, by the
    pigeonhole on prefix sums: some non-empty index run sums to 0 modulo
    the annihilator, making every cover cell question moot."""
    if m.n != 1:
        return None
    if isinstance(sys, FinitePermSystem):
        return sys.p
    return (Fraction(m.coeff) * sys.rho).denominator
