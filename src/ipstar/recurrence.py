"""Return sets of measurable events, their dual-family structure, and the
constructive coloring search that produces recurrent finite sums.

The headline objects are return sets

    R = {u in the window : mu(B cap T^{phi(u)} B) > mu(B)^2 - eps}

computed member by member with exact rationals, then classified against
r-generator finite-sums families.  Two independent assembly paths exist
(`recurrence_set` and `theorem1_pipeline`) and must agree exactly.

The constructive side (`isometric_recurrence_search`) drives the coloring
machinery: cover the tracked orbit by small cells, color subset-tuples by
the cell their orbit point lands in, and read a recurrent finite union out
of a monochromatic configuration.  Every returned certificate is re-verified
by exact arithmetic after the search, never trusted from the search itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .algebra import Integers, Monomial, PolynomialMap, Rationals, VectorSpace, Window
from .algebra import window_enumerate
from .halesjewett import SubsetConfig, first_mono_line, line_to_config, word_subset_tuples
from .ipsets import ElementSet, family_order, is_ip_r_star
from .systems import (
    DensityProfile,
    FinitePermSystem,
    RotationSystem,
    compact_projection,
    cross_term,
    folner_density,
    khintchine_bound,
    orbit_metric,
    projected_orbit_dist_sq,
    symm_diff_measure,
    systems_commute,
)

SEARCH_SPACE_CAP = 1 << 20


class RecurrenceError(ValueError):
    """Inputs outside what the exact machinery can decide."""


def _domain_of(phi: PolynomialMap):
    return phi.ring if phi.n == 1 else VectorSpace(phi.ring, phi.n)


def _as_coords(u, n: int) -> tuple:
    # scalars may themselves be tuples (polynomials), so arity decides
    return (u,) if n == 1 else u


@dataclass
class RecurrenceReport:
    """Everything known about one return set, filled in stages."""

    system: object
    B: object
    phi: PolynomialMap
    epsilon: Fraction
    window: Window
    domain: object
    elements: tuple
    mu: Fraction
    threshold: Fraction
    rows: tuple  # (u, w, corr, in_R) in canonical order
    R: ElementSet
    khintchine: Fraction
    outside_hypotheses: bool
    classification: dict = field(default_factory=dict)  # r -> IpStarVerdict
    exceptional: tuple | None = None
    exceptional_density: DensityProfile | None = None
    A: tuple | None = None
    E: tuple | None = None
    chain_checked: bool = False

    @property
    def windowed(self) -> bool:
        return not self.R.exact


def _report_fields(sys, B, phi: PolynomialMap, epsilon, window: Window) -> dict:
    """Checked inputs and the report fields both return-set scans share."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise RecurrenceError("epsilon must be a positive rational")
    if phi.target != sys.acting:
        raise RecurrenceError(
            f"map target {phi.target} does not match the acting group {sys.acting}"
        )
    B = sys.event(B) if not _is_event(sys, B) else B
    domain = _domain_of(phi)
    mu = sys.measure(B)
    return dict(
        system=sys,
        B=B,
        phi=phi,
        epsilon=epsilon,
        window=window,
        domain=domain,
        elements=tuple(window_enumerate(domain, window)),
        mu=mu,
        threshold=mu * mu - epsilon,
        khintchine=khintchine_bound(sys, B),
        outside_hypotheses=sys.outside_theorem_hypotheses,
    )


def recurrence_set(sys, B, phi: PolynomialMap, epsilon, window: Window) -> RecurrenceReport:
    """Exact membership scan of the return set over the window."""
    base = _report_fields(sys, B, phi, epsilon, window)
    B, elements, threshold = base["B"], base["elements"], base["threshold"]
    rows = []
    members = set()
    for u in elements:
        w = phi(_as_coords(u, phi.n))
        corr = sys.correlation(B, w)
        hit = corr > threshold
        rows.append((u, w, corr, hit))
        if hit:
            members.add(u)
    domain = base["domain"]
    if domain.zero in set(elements) and domain.zero not in members:
        raise RecurrenceError("return set lost the zero element; broken invariant")
    return RecurrenceReport(**base, rows=tuple(rows), R=ElementSet(domain, members, window))


def _is_event(sys, B) -> bool:
    if isinstance(sys, FinitePermSystem):
        return isinstance(B, frozenset)
    if isinstance(sys, RotationSystem):
        return hasattr(B, "pieces")
    return hasattr(B, "constraints")


def classify_ipstar(
    report: RecurrenceReport,
    r_max: int = 4,
    *,
    density_N: int = 6,
    budget: int | None = None,
    resume: tuple[int, int] | None = None,
) -> RecurrenceReport:
    """Check R against every r-generator finite-sums family, r = 1..r_max.

    Window-limited verdicts never claim anything about the infinite group;
    for those the density profile of the exceptional set along the canonical
    averaging sequence is attached, supporting an almost-dual reading
    (failures confined to a vanishing-density set).  resume=(r, index) skips
    the first index candidates at level r; lower levels rerun from scratch
    (each level gets the full budget, so a finished level cannot stall).
    """
    for r in range(1, r_max + 1):
        start = resume[1] if resume is not None and resume[0] == r else 0
        verdict = is_ip_r_star(report.R, r, budget=budget, start=start)
        report.classification[r] = verdict
        if verdict.kind == "budget_exceeded":
            break  # partial classification: higher r only costs more
    report.exceptional = tuple(u for u in report.elements if u not in report.R.members)
    if report.windowed:
        exc = set(report.exceptional)
        report.exceptional_density = folner_density(lambda u: u in exc, report.domain, density_N)
    return report


@dataclass(frozen=True)
class SyndeticityReport:
    mode: str  # "exact" | "window-limited"
    gap: int


def syndeticity_check(report: RecurrenceReport) -> SyndeticityReport:
    """Gap structure of R under the canonical enumeration.

    Exact mode (full finite ambient): longest run of consecutive
    non-members; 0 means every element is in R.  Window-limited mode:
    largest index step between successive members (1 means the window is
    full); degenerate when R has fewer than two members, reported as the
    window length.
    """
    flags = [u in report.R.members for u in report.elements]
    if report.R.exact:
        worst = run = 0
        for f in flags:
            run = 0 if f else run + 1
            worst = max(worst, run)
        return SyndeticityReport("exact", worst)
    idx = [i for i, f in enumerate(flags) if f]
    if len(idx) < 2:
        return SyndeticityReport("window-limited", len(flags))
    gap = max(b - a for a, b in zip(idx, idx[1:]))
    return SyndeticityReport("window-limited", gap)


@dataclass(frozen=True)
class FpProbe:
    products: tuple  # subset products in family order, duplicates kept
    witnesses: tuple  # those that land in R
    intersects: bool


def fp_probe(report: RecurrenceReport, gens) -> FpProbe:
    """Does R meet the finite products of the given generators?

    A multiplicative analogue probe: products run over non-empty index
    subsets in ascending mask order, evaluated in the domain ring.
    """
    ring = report.domain
    if isinstance(ring, VectorSpace):
        raise RecurrenceError("finite products need a ring, not a vector group")
    gens = tuple(ring.element(g) for g in gens)
    if any(g == ring.zero for g in gens):
        raise RecurrenceError("zero generator has no multiplicative content")
    products = []
    for alpha in family_order(len(gens)):
        val = ring.one
        for i in sorted(alpha):
            val = ring.mul(val, gens[i - 1])
        products.append(val)
    witnesses = tuple(v for v in products if v in report.R.members)
    return FpProbe(tuple(products), witnesses, bool(witnesses))


# ---------------------------------------------------------------------------
# theorem pipeline: split, orbit metric, cross term, chain check


def theorem1_pipeline(
    sys, B, phi: PolynomialMap, epsilon, window: Window, r_max: int = 4, **classify_kw
) -> RecurrenceReport:
    """Replay the spectral proof mechanics end to end and cross-check.

    f is the almost-periodic part of the indicator.  A collects the u whose
    orbit-metric displacement of f stays below eps/2 (squared comparison);
    the cross term <T^{phi(u)}(1_B - f), 1_B> is computed per u, and E marks
    the elements of A where it dips to -eps/2 or lower, breaking the
    inequality chain.  A minus E provably lands in R; set inclusion is
    checked element by element, as is agreement of R with the direct scan.
    """
    base = _report_fields(sys, B, phi, epsilon, window)
    B, mu, threshold = base["B"], base["mu"], base["threshold"]
    split = compact_projection(sys, B)
    half = base["epsilon"] / 2
    rows = []
    members, A, E = set(), [], []
    for u in base["elements"]:
        w = phi(_as_coords(u, phi.n))
        # independent correlation path: inclusion-exclusion through the
        # symmetric difference instead of the direct intersection measure
        corr = mu - symm_diff_measure(sys, B, sys.shift_event(B, w)) / 2
        cross = cross_term(sys, B, w, split)
        in_A = projected_orbit_dist_sq(sys, B, w, split) < half * half
        in_E = in_A and cross <= -half
        hit = corr > threshold
        if in_A:
            A.append(u)
        if in_E:
            E.append(u)
        if in_A and not in_E and not hit:
            raise RecurrenceError("inequality chain failed: A minus E left the return set")
        rows.append((u, w, corr, hit))
        if hit:
            members.add(u)
    report = RecurrenceReport(
        **base,
        rows=tuple(rows),
        R=ElementSet(base["domain"], members, window),
        A=tuple(A),
        E=tuple(E),
        chain_checked=True,
    )
    return classify_ipstar(report, r_max, **classify_kw)


def reports_agree(a: RecurrenceReport, b: RecurrenceReport) -> bool:
    """Same R, same correlations, element by element."""
    return (
        a.elements == b.elements
        and a.R.members == b.R.members
        and [(u, c) for u, _, c, _ in a.rows] == [(u, c) for u, _, c, _ in b.rows]
    )


# ---------------------------------------------------------------------------
# constructive search: cover, color, extract a finite union


def _arc_dist(x: Fraction, y: Fraction) -> Fraction:
    t = (x - y) % 1
    return min(t, 1 - t)


def _sum_tuple(ring, vecs, n: int):
    out = (ring.zero,) * n
    for v in vecs:
        out = tuple(ring.add(a, b) for a, b in zip(out, v))
    return out


@dataclass(frozen=True)
class IsoSearchResult:
    status: str  # "found" | "absent"
    gamma: frozenset | None
    u_gamma: object | None
    exponents: tuple | None  # one acting exponent per action
    distance_sq: Fraction | None
    config: SubsetConfig | None
    cells: tuple  # per-action cover size actually used
    proof_bound: str
    sufficient_length: int | None
    words_scanned: int

    @property
    def found(self) -> bool:
        return self.status == "found"


class _BallCover:
    """Greedy cover of the orbit of a tracked event by balls of a fixed
    radius: each new point joins the first existing cell whose center is
    strictly closer than the radius, or founds a new cell.  Two members of
    one cell are then strictly within twice the radius of each other."""

    def __init__(self, sys, x, radius_sq: Fraction):
        self.sys = sys
        self.x = x
        self.radius_sq = radius_sq
        self.centers: list = []
        self.known: dict = {}  # exponent -> cell

    def cell(self, exponent) -> int:
        """Cell of T^exponent applied to the tracked event."""
        if exponent not in self.known:
            event = self.sys.shift_event(self.x, exponent)
            close = (orbit_metric(self.sys, event, c) < self.radius_sq for c in self.centers)
            i = next((j for j, hit in enumerate(close) if hit), len(self.centers))
            if i == len(self.centers):
                self.centers.append(event)
            self.known[exponent] = i
        return self.known[exponent]


def _cells(s, m, ring, x, width: Fraction, sums):
    """Cover cell of T^E x for every tuple of slot masks (a_1..a_deg) of the
    monomial's factors, lexicographic with slot 1 outermost, where E is c
    times the product of the slots' subset sums; and the number of cells.

    On the circle the cell is floor(((x + c*rho*E) mod 1) * cover), computed
    in integers over one common denominator of the subset sums as
    ((N mod L) * cover) // L.  Ball cells are founded in slot-tuple order."""
    facs = m.factor_coordinates()
    if isinstance(s, RotationSystem):
        cover = (width.denominator + width.numerator - 1) // width.numerator
        turn = s._angle(m.coeff)  # c*rho
        den = lcm(*(Fraction(v[c]).denominator for v in sums for c in facs))
        L = x.denominator * turn.denominator * den ** len(facs)
        prods = [turn.numerator * x.denominator]
        for c in facs:
            column = [int(Fraction(v[c]) * den) for v in sums]
            prods = [p * q for p in prods for q in column]
        shift = x.numerator * (L // x.denominator)
        return [(shift + p) % L * cover // L for p in prods], cover
    balls = _BallCover(s, x, (width / 2) ** 2)
    prods = [m.coeff]
    for c in facs:
        prods = [ring.mul(p, v[c]) for p in prods for v in sums]
    return [balls.cell(e) for e in prods], len(balls.centers)


def _check_compact_tracked(sys, x):
    if isinstance(sys, RotationSystem):
        p = Fraction(x)
        if not 0 <= p < 1:
            raise RecurrenceError("tracked point must lie in [0, 1)")
        return p
    if isinstance(sys, FinitePermSystem):
        return sys.event(x)
    raise RecurrenceError("constructive search needs a compact backend")


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
    return _cover_color_search([sys], [m], x, epsilon, gens)


def commuting_recurrence_search(systems, monomials, x, epsilon, gens):
    """Joint return under several commuting actions on one space: each
    action gets tolerance epsilon/k, colors are per-action cell tuples, and
    the composed displacement is verified below epsilon."""
    systems, monomials = list(systems), list(monomials)
    if len(systems) != len(monomials) or not systems:
        raise RecurrenceError("need one monomial per action")
    for i in range(len(systems)):
        for j in range(i + 1, len(systems)):
            if not systems_commute(systems[i], systems[j]):
                raise RecurrenceError(f"actions {i + 1} and {j + 1} do not commute")
    return _cover_color_search(systems, monomials, x, epsilon, gens)


def _cover_color_search(systems, monomials, x, epsilon, gens):
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise RecurrenceError("epsilon must be a positive rational")
    lead = systems[0]
    x = _check_compact_tracked(lead, x)
    for s in systems[1:]:
        if type(s) is not type(lead):
            raise RecurrenceError("all actions must share one backend space")
    k = len(systems)
    arity = {m.n for m in monomials}
    if len(arity) != 1:
        raise RecurrenceError("monomials must share one variable count")
    n = arity.pop()
    ring = monomials[0].ring
    gens = tuple(
        tuple(ring.element(c) for c in _as_coords(g, n)) for g in gens
    )
    for g in gens:
        if len(g) != n:
            raise RecurrenceError(f"generator needs {n} coordinates")
    r = len(gens)
    if r < 1:
        raise RecurrenceError("need at least one generator")
    d = max(m.total_degree for m in monomials)
    if (1 << d) ** r > SEARCH_SPACE_CAP:
        raise RecurrenceError("search space too large; fewer generators or lower degree")
    tol = epsilon / k
    size = 1 << r
    sums = [(ring.zero,) * n] * size  # subset sums by mask, bit j for index j+1
    for mask in range(1, size):
        low = mask & -mask
        sums[mask] = tuple(map(ring.add, sums[mask ^ low], gens[low.bit_length() - 1]))
    if isinstance(lead, RotationSystem) and not isinstance(ring, (Rationals, Integers)):
        raise RecurrenceError("rotation search needs a monomial over Q or Z")

    # each action reads only its own degree's worth of slots: extra slots
    # are ignored, which lets actions of different degrees share the space.
    # A word's color is the mixed-radix code of its per-action cells.
    tuples = word_subset_tuples(d, r)
    colors = [0] * len(tuples)
    t_report, radix = (), 1
    for s, m in zip(systems, monomials):
        # cells of width tol / 2^(deg-1): the telescoping chain over the
        # 2^(deg-1) same-cell pairs then stays under tol
        width = tol / (1 << (m.total_degree - 1))
        cells, used = _cells(s, m, ring, x, width, sums)
        shift = r * (d - m.total_degree)
        colors = [c + radix * cells[t >> shift] for c, t in zip(colors, tuples)]
        t_report += (used,)
        radix *= used
    line = first_mono_line(1 << d, r, colors)
    proof_bound = f"hj({1 << d}, {max(t_report)})"
    suff = _sufficient_length(systems, monomials)
    if line is None:
        return IsoSearchResult(
            "absent", None, None, None, None, None, t_report, proof_bound, suff, len(colors)
        )
    gamma = frozenset(line.moving)
    u_gamma = _sum_tuple(monomials[0].ring, [gens[i - 1] for i in gamma], n)
    exponents = tuple(m(u_gamma) for m in monomials)
    dist_sq = _composed_distance_sq(systems, x, exponents)
    if not dist_sq < epsilon * epsilon:
        raise RecurrenceError("search certificate failed exact re-verification")
    return IsoSearchResult(
        "found",
        gamma,
        u_gamma if n > 1 else u_gamma[0],
        exponents,
        dist_sq,
        line_to_config(line, d),
        t_report,
        proof_bound,
        suff,
        len(colors),
    )


def _composed_distance_sq(systems, x, exponents) -> Fraction:
    if isinstance(systems[0], RotationSystem):
        total = sum((s._angle(e) for s, e in zip(systems, exponents)), Fraction(0))
        return _arc_dist((Fraction(x) + total) % 1, Fraction(x)) ** 2
    moved = x
    for s, e in zip(systems, exponents):
        moved = s.shift_event(moved, e)
    return orbit_metric(systems[0], x, moved)


def _sufficient_length(systems, monomials) -> int | None:
    """Generator count guaranteeing success for integer generators, by the
    pigeonhole on prefix sums: some non-empty index run sums to 0 modulo
    the annihilator, making every cover cell question moot."""
    if any(m.n != 1 for m in monomials):
        return None
    if isinstance(systems[0], FinitePermSystem):
        return systems[0].p
    out = 1
    for s, m in zip(systems, monomials):
        q = (Fraction(m.coeff) * s.rho).denominator
        out = out * q // gcd(out, q)
    return out


def verify_gamma_distance(systems, x, monomials, gens, gamma, epsilon) -> Fraction:
    """Recompute the displacement of a claimed finite union from scratch;
    used by certificate checking, shares no state with the search."""
    systems, monomials = list(systems), list(monomials)
    n = monomials[0].n
    lead = systems[0]
    x = _check_compact_tracked(lead, x)
    gens = tuple(_as_coords(g, n) for g in gens)
    u_gamma = _sum_tuple(monomials[0].ring, [gens[i - 1] for i in gamma], n)
    exponents = tuple(m(u_gamma) for m in monomials)
    dist_sq = _composed_distance_sq(systems, x, exponents)
    if not dist_sq < Fraction(epsilon) ** 2:
        raise RecurrenceError("claimed finite union misses the distance bound")
    return dist_sq
