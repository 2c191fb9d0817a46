"""Return sets of measurable events, their dual-family structure, and the
constructive coloring search that produces recurrent finite sums.

The headline objects are return sets

    R = {u in the window : mu(B cap T^{phi(u)} B) > mu(B)^2 - eps}

computed member by member with exact rationals, then classified against
r-generator finite-sums families.  ``recurrence_set`` lists the window
once and keeps the scan as three columns in window order: the elements,
their values phi(u), and the kernel's (corr, hit) pair for each value.  It
builds R, the frozenset of the hit elements, only when a caller asks for
it.  The second, independent assembly path, which replays the spectral
proof (A, E and the inequality chain), lives in the test oracles
(``tests/oracles.py``), and the two must agree exactly.
``recurrence_set`` lists the window (``algebra.window_column``), then fills
each further column with one ``map`` over the one before: the map's
compiled form (``PolynomialMap.compiled``) over the elements, then the
backend's kernel (``kernel(B, threshold)``) over the values.  All three
speak the column form of ``algebra`` on every ring, so a scan over Q stays
in (numerator, denominator) pairs.  The kernel returns the correlation
with its hit and builds each distinct pair once, so the pair column shares
them.  The report builds the Fractions of ``elements`` and ``values`` only
when they are read; the renderers write the pairs' text straight from the
columns.  ``fp_probe`` reads the hits of its few products off the same
kernel, through the compiled map.
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
tracked event's correlator.  Every returned certificate, and every failing
classify witness, is re-verified by exact arithmetic after the search,
never trusted from the search itself.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property, reduce
from itertools import compress
from math import lcm
from operator import itemgetter, not_

from .algebra import FullWindow, Monomial, PolynomialMap, Rationals, VectorSpace, Window
from .algebra import SIZE_CAP, as_coords, check_window_size, column_elements, pair_column
from .algebra import power_over_cap, window_column
from .halesjewett import first_mono_line, line_to_config, word_gather
from .ipsets import finite_sums, is_ip_r_star, subset_folds
from .systems import (
    DensityProfile,
    FinitePermSystem,
    RotationSystem,
    folner_reach,
    khintchine_bound,
    orbit_metric,
    window_means,
)

class RecurrenceError(ValueError):
    """Inputs outside what the exact machinery can decide."""


class RecurrenceReport:
    """Everything known about one return set, filled in stages.

    The scan's columns hold the elements and their values in column form
    (``algebra.pair_column``: over Q each rational coordinate as its pair).
    ``elements`` and ``values`` read the columns in normal form, built
    once, when first read."""

    def __init__(
        self, system, B, phi: PolynomialMap, epsilon: Fraction, window: Window, domain,
        element_column: tuple, mu: Fraction, threshold: Fraction, value_column: tuple,
        pairs: tuple, khintchine: Fraction, outside_hypotheses: bool,
        classification: dict | None = None, exceptional_density: DensityProfile | None = None,
    ):
        self.system, self.B, self.phi, self.epsilon = system, B, phi, epsilon
        self.window, self.domain, self.mu, self.threshold = window, domain, mu, threshold
        self.element_column = element_column  # the window in canonical order
        self.value_column = value_column  # phi(u) for each element
        self.pairs = pairs  # the kernel's (corr, in_R) for each value, one tuple per distinct pair
        self.khintchine, self.outside_hypotheses = khintchine, outside_hypotheses
        self.classification = {} if classification is None else classification  # r -> IpStarVerdict
        self.exceptional_density = exceptional_density

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


def _report_fields(sys, B, phi: PolynomialMap, epsilon, window: Window) -> dict:
    """Checked inputs and the report fields the return-set scans and the
    probe share.  The scans list the window themselves; the probe never
    does."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise RecurrenceError("epsilon must be a positive rational")
    if phi.target != sys.acting:
        raise RecurrenceError(
            f"map target {phi.target} does not match the acting group {sys.acting}"
        )
    B = sys.event(B)
    domain = phi.domain
    mu = sys.measure(B)
    return dict(
        system=sys,
        B=B,
        phi=phi,
        epsilon=epsilon,
        window=window,
        domain=domain,
        mu=mu,
        threshold=mu * mu - epsilon,
        khintchine=khintchine_bound(sys, B),
        outside_hypotheses=sys.outside_theorem_hypotheses,
    )


def recurrence_set(sys, B, phi: PolynomialMap, epsilon, window: Window) -> RecurrenceReport:
    """Exact membership scan of the return set over the window: the value
    w = phi(u) and the kernel's pair (corr, hit) of every element, as
    columns in window order; R is not built here.  The columns are in the
    column form that the compiled map and the kernel take, so over Q no
    ``Fraction`` is built per element."""
    base = _report_fields(sys, B, phi, epsilon, window)
    domain, n = base["domain"], phi.n
    check_window_size(domain, window)
    elements = window_column(domain, window)
    kernel, value = sys.kernel(base["B"], base["threshold"]), phi.compiled
    # a one-variable map takes its element as a 1-tuple of coordinates
    values = tuple(map(value, zip(elements) if n == 1 else elements))
    pairs = tuple(map(kernel, values))
    # every window holds zero, and zero's pair is the kernel's at phi(0)
    if not kernel(value(pair_column(phi.ring, (phi.ring.zero,) * n)))[1]:
        raise RecurrenceError("return set lost the zero element; broken invariant")
    return RecurrenceReport(**base, element_column=elements, value_column=values, pairs=pairs)


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
    the zero-element invariant.  More than ``SIZE_CAP`` products are
    refused before any is listed.
    """
    base = _report_fields(sys, B, phi, epsilon, window)
    ring, threshold = base["domain"], base["threshold"]
    if isinstance(ring, VectorSpace):
        raise RecurrenceError("finite products need a ring, not a vector group")
    gens = tuple(ring.element(g) for g in gens)
    if any(g == ring.zero for g in gens):
        raise RecurrenceError("zero generator has no multiplicative content")
    r = len(gens)
    if power_over_cap(2, r) is not None:
        raise RecurrenceError(f"{r} generators have 2^{r} - 1 products, more than the cap of {SIZE_CAP}")
    products = subset_folds(ring.mul, ring.one, gens)[1:]
    # the compiled map takes and gives column form, as the kernel takes it;
    # a one-variable map takes a 1-tuple
    kernel, value = sys.kernel(base["B"], threshold), phi.compiled

    def in_R(u):
        return ring.window_contains(window, u) and kernel(value(pair_column(ring, (u,))))[1]

    if ring.window_contains(window, ring.zero) and not in_R(ring.zero):
        raise RecurrenceError("return set lost the zero element; broken invariant")
    witnesses = tuple(v for v in products if in_R(v))
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
    then strictly within twice the radius of each other.

    T preserves mu, so d^2(T^e x, T^c x) = 2(mu(x) - mu(x cap T^(c-e) x)):
    each distance is one call of the event's correlator, and strictly inside
    the radius reads corr(c - e) > mu(x) - radius^2 / 2."""

    def __init__(self, sys, x, radius_sq: Fraction):
        self.corr = sys.correlator(x)
        self.floor = sys.measure(x) - radius_sq / 2
        self.centers: list = []
        self.known: dict = {}  # exponent -> cell

    def cell(self, e) -> int:
        """Cell of T^e applied to the tracked event."""
        if e not in self.known:
            close = (self.corr(c - e) > self.floor for c in self.centers)
            i = next((j for j, hit in enumerate(close) if hit), len(self.centers))
            if i == len(self.centers):
                self.centers.append(e)
            self.known[e] = i
        return self.known[e]


def _product_rows(start, columns, L, last_row) -> list:
    """last_row(start * q_1 * ... * q_(deg-1) mod L) concatenated over every
    tuple (q_1..q_(deg-1)) drawn from the columns, lexicographic with the
    first column outermost.  The row below a partial product p at a level
    is the same wherever (level, p) recurs, so it is built at its first
    occurrence and copied from the table at every later one; the memo holds
    offsets into the table, not rows."""
    out: list = []
    built: dict = {}  # (level, partial product) -> slice of its row in out

    def row(level, p):
        span = built.get((level, p))
        if span is not None:
            out.extend(out[span])
            return
        at = len(out)
        if level == len(columns):
            out.extend(last_row(p))
        else:
            for q in columns[level]:
                row(level + 1, p * q % L)
        built[level, p] = slice(at, len(out))

    row(0, start)
    return out


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
    table is built row by row (``_product_rows``), each row once per
    distinct (slot, partial product): at most L rows per slot.  Ball cells
    are founded in slot-tuple order, as a cell-by-cell scan would found
    them: a copied row repeats only exponents that its first occurrence,
    earlier in that order, has already placed."""
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
    if isinstance(s, RotationSystem):
        cover = (width.denominator + width.numerator - 1) // width.numerator
        shift = x.numerator * (L // x.denominator)
        return _product_rows(
            start % L, columns, L, lambda p: [(shift + p * q) % L * cover // L for q in last]
        ), cover
    balls = _BallCover(s, x, (width / 2) ** 2)
    cells = _product_rows(start % L, columns, L, lambda p: [balls.cell(p * q % L) for q in last])
    return cells, len(balls.centers)


def isometric_recurrence_search(sys, x, m: Monomial, epsilon, gens):
    """Find a finite index union whose generated exponent returns x to
    within epsilon, by the cover-and-color argument.

    gens supplies r candidate generators (scalars, or coordinate tuples
    matching the monomial's arity).  The r the proof guarantees is reported
    as a formula (its value is far beyond evaluation); the search happily
    runs at smaller r and reports absence when no configuration exists.
    Distances: arc length on the circle backend, squared indicator norm on
    the finite backend; both compared squared against epsilon^2.
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
    colors = word_gather(d, r)(cells)
    # (2^d)^r >= 2 indices, so the itemgetter returns a tuple, not one item
    assert isinstance(colors, tuple)
    line = first_mono_line(1 << d, r, colors)
    proof_bound = f"hj({1 << d}, {used})"
    suff = _sufficient_length(sys, m)
    if line is None:
        return IsoSearchResult(
            "absent", None, None, None, None, None, used, proof_bound, suff, len(colors)
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
        len(colors),
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
