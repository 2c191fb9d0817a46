"""Independent oracles for the derived values under test.

Everything here is deliberately naive: direct definitions, quadratic loops,
no sharing with the library code paths being checked.  Slow is fine.
"""

import json
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import lcm
from operator import itemgetter

from ipstar.algebra import (
    AlgebraError,
    FullWindow,
    Monomial,
    PolynomialMap,
    PolyRing,
    Rationals,
    VectorSpace,
    Window,
    as_coords,
    check_window_size,
    eval_monomial,
    eval_poly,
    pair_column,
    window_enumerate,
)
from ipstar.halesjewett import Line, SubsetConfig
from ipstar.ipsets import subset_folds
from ipstar.recurrence import RecurrenceError, RecurrenceReport, classify_ipstar
from ipstar.search import (
    ALL_OK,
    COUNTEREXAMPLE,
    CUT,
    ColoringOutcome,
    Cut,
    prefix_search,
)
from ipstar.systems import (
    DensityProfile,
    RotationSystem,
    compact_projection,
    folner_sets,
    orbit_metric,
)
from ipstar.textio import describe_system, render_poly_map


def naive_subset_sums(group, gens):
    """All sums over the nonempty subsets of an indexed generator list.

    Returns a dict mapping frozenset of 1-based indices -> sum.  Duplicates
    across different index sets are kept (same value under two keys).
    """
    out = {}
    idx = list(range(1, len(gens) + 1))
    for size in range(1, len(gens) + 1):
        for picks in combinations(idx, size):
            acc = group.zero
            for i in picks:
                acc = group.add(acc, gens[i - 1])
            out[frozenset(picks)] = acc
    return out


def naive_fs_set(group, gens):
    """The set of values of naive_subset_sums."""
    return set(naive_subset_sums(group, gens).values())


def naive_meets_every_ip_r(group, members, r, pool):
    """Directly check the universal statement: every r-tuple drawn from the
    pool (with repetition) has some finite subset sum inside ``members``.

    Returns (True, None) or (False, first_failing_tuple) scanning tuples in
    lexicographic pool order.
    """
    members = set(members)
    for tup in product(pool, repeat=r):
        if not (naive_fs_set(group, tup) & members):
            return False, tup
    return True, None


def naive_window_density(members, window_elements):
    """|S ∩ W| / |W| as an exact Fraction."""
    members = set(members)
    hit = sum(1 for x in window_elements if x in members)
    return Fraction(hit, len(window_elements))


def folner_density(member_pred, group, N: int) -> DensityProfile:
    """|S cap Phi_n| / |Phi_n| for n = 1..N, each canonical window listed
    afresh by ``folner_sets`` and counted directly."""
    values = []
    for n in range(1, N + 1):
        window = folner_sets(group, n)
        values.append(Fraction(sum(1 for u in window if member_pred(u)), len(window)))
    return DensityProfile(values[-1], tuple(values))


def vector_scale(V: VectorSpace, a, u: tuple) -> tuple:
    """a * u in the vector space V, coordinate by coordinate."""
    return tuple(V.ring.mul(a, c) for c in u)


def reference_render_element(group, x) -> str:
    """The canonical text of an element, worked out afresh at every call:
    the group's type dispatched per element, each coordinate recursed into,
    each rational rebuilt as a ``Fraction``."""
    if isinstance(group, VectorSpace):
        if group.dim == 1:
            return reference_render_element(group.ring, x[0])
        return "(" + ",".join(reference_render_element(group.ring, c) for c in x) + ")"
    if isinstance(group, PolyRing):
        return "[" + ",".join(str(c) for c in x) + "]"
    if isinstance(group, Rationals):
        q = Fraction(x)
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    return str(x)


def interval_length_oracle(pieces):
    """Total length of a union of half-open subintervals of [0,1), each given
    as a (start, end) Fraction pair, computed by breakpoint refinement rather
    than pairwise merging."""
    points = sorted({Fraction(0), Fraction(1)} | {p for ab in pieces for p in ab})
    total = Fraction(0)
    for a, b in zip(points, points[1:]):
        mid = (a + b) / 2
        if any(s <= mid < e for s, e in pieces):
            total += b - a
    return total


def rotation_orbit_point(rho, x, n):
    """n-fold rotation of x by rho on Q/Z."""
    return (x + n * rho) % 1


def naive_rotation_return_sq(rho, x, coeff, degree, gens, gamma) -> Fraction:
    """Squared arc length between x and its image under the rotation by
    coeff * u^degree * rho, u the sum of the generators gamma picks (1-based
    indices), in plain Fraction arithmetic."""
    u = sum((Fraction(gens[i - 1]) for i in gamma), Fraction(0))
    y = rotation_orbit_point(Fraction(rho), Fraction(x), Fraction(coeff) * u**degree)
    d = abs(y - Fraction(x))
    return min(d, 1 - d) ** 2


def naive_finite_correlation(points, weights, perm_power, B):
    """mu(B ∩ T^{-1 applied}B) computed pointwise: weight of x with x in B and
    image(x) in B, where perm_power maps point -> point."""
    B = set(B)
    total = Fraction(0)
    for x in points:
        if x in B and perm_power[x] in B:
            total += weights[x]
    return total


def naive_perm_power(gens, coords):
    """The permutation of the acting element with these coordinates:
    generator i composed with itself coords[i] times, then the next one."""
    out = {x: x for x in gens[0]}
    for g, c in zip(gens, coords):
        for _ in range(c):
            out = {x: g[y] for x, y in out.items()}
    return out


def naive_bernoulli_cylinder_prob(base_probs, constraints):
    """Product-measure probability of a cylinder: constraints is a dict
    coordinate -> required letter."""
    out = Fraction(1)
    for _, letter in constraints.items():
        out *= base_probs[letter]
    return out


KNOWN_HJ = {(1, 1): 1, (2, 1): 1, (1, 2): 1, (2, 2): 2, (2, 3): 3, (3, 2): 4}
"""Hales-Jewett numbers small enough to be common knowledge: hj(k, colors).

hj(2, t) = t: two-letter words form the Boolean lattice, lines are comparable
pairs, and the least antichain cover has size m + 1 (longest chain), so a
mono pair is forced exactly when t < m + 1.
"""


def naive_subsets_of(r):
    """Non-empty subsets of {1..r} in ascending bitmask order."""
    out = []
    for mask in range(1, 1 << r):
        out.append(frozenset(i + 1 for i in range(r) if mask >> i & 1))
    return out


def naive_fu_families(r, s):
    """All (alpha_1..alpha_s) with max(alpha_i) < min(alpha_{i+1}), together
    with every union, in the order of the full s-fold product; a partial
    tuple of the product is kept only while it is ordered."""
    sets = naive_subsets_of(r)
    ordered = [()]
    for _ in range(s):
        ordered = [p + (a,) for p in ordered for a in sets if not p or max(p[-1]) < min(a)]
    fams = []
    for blocks in ordered:
        unions = []
        for mask in range(1, 1 << s):
            u = frozenset()
            for i in range(s):
                if mask >> i & 1:
                    u |= blocks[i]
            unions.append(u)
        fams.append((blocks, unions))
    return fams


def mask_to_set(mask: int) -> frozenset[int]:
    """The index set of a bitmask: bit i - 1 stands for i."""
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def finite_unions(alphas) -> tuple[frozenset[int], ...]:
    """The 2^s - 1 unions of ordered blocks alpha_1 < ... < alpha_s, in
    ``subset_folds`` order."""
    alphas = [frozenset(a) for a in alphas]
    if not alphas or any(not a for a in alphas):
        raise ValueError("blocks must be non-empty")
    for a, b in zip(alphas, alphas[1:]):
        if max(a) >= min(b):
            raise ValueError(f"blocks out of order: max {max(a)} >= min {min(b)}")
    return tuple(subset_folds(frozenset.union, frozenset(), alphas)[1:])


def union_positions_by_sets(r, s, blocks):
    """The positions of every union of s ordered blocks inside {1..r}, or
    None when the blocks are not such a family, decoded on frozensets by
    ``finite_unions``."""
    if len(blocks) != s:
        return None
    try:
        unions = finite_unions(blocks)
    except ValueError:
        return None
    if any(not u <= frozenset(range(1, r + 1)) for u in unions):
        return None
    return [sum(1 << i - 1 for i in u) - 1 for u in unions]


def per_split_fu_table(r, s):
    """The finite-unions hyperedge table built one split at a time: for each
    position, the cuts of its bits into s runs in ``combinations`` order,
    each as (blocks, union positions) with the unions in ``subset_folds``
    order."""
    table = []
    for alpha in range(1, 1 << r):
        bits = [1 << i for i in range(r) if alpha >> i & 1]
        entries = []
        for cuts in combinations(range(1, len(bits)), s - 1) if s <= len(bits) else ():
            bounds = (0, *cuts, len(bits))
            blocks = [sum(bits[a:b]) for a, b in zip(bounds, bounds[1:])]
            unions = subset_folds(int.__or__, 0, blocks)[1:]
            entries.append((tuple(map(mask_to_set, blocks)), tuple(u - 1 for u in unions)))
        table.append(entries)
    return table


def stepwise_check_cover_tree(M, k, leaves, edge_positions):
    """A cover tree's replay one descent step at a time: the state of the
    canonical DFS grows by color 1 until it equals the leaf's prefix (at
    most M positions), the leaf's reasons must refute that prefix, and the
    state then backs up to its next canonical sibling; every leaf is met
    and the tree exhausted.  Prefix colors are read from a dict of the
    prefix."""
    state = [1]
    for leaf in leaves:
        prefix = tuple(leaf.prefix)
        while tuple(state) != prefix:
            if len(state) >= M:
                return False
            state.append(1)
        if not _stepwise_refutes(M, k, prefix, leaf.witness, edge_positions):
            return False
        while state:
            last = state.pop()
            if last < min(k, max(state, default=0) + 1):
                state.append(last + 1)
                break
    return not state


def _stepwise_refutes(M, k, prefix, reasons, edge_positions):
    colors = dict(enumerate(prefix))
    left = {}
    for i, witness in enumerate(reasons, 1):
        positions = edge_positions(witness)
        if positions is None or any(not 0 <= q < M for q in positions):
            return False
        free = {q for q in positions if q not in colors}
        shades = {colors[q] for q in positions if q in colors}
        if len(shades) != 1 or len(free) > 1:
            return False
        if free:
            (q,) = free
            (c,) = shades
            open_ = left.setdefault(q, set(range(1, k + 1)))
            if c not in open_:
                return False
            open_.discard(c)
            if len(open_) == 1:
                colors[q] = min(open_)
            if open_:
                continue
        return i == len(reasons)
    return False


def naive_coloring_avoids_fu(r, s, color_of):
    """True when no family has all its unions in one color; color_of maps a
    frozenset to its color."""
    for _blocks, unions in naive_fu_families(r, s):
        if len({color_of[u] for u in unions}) == 1:
            return False
    return True


def naive_fk_blocks(r, N, A):
    """A blocks when no r-tuple from the complement C of A in {1..N} keeps
    every subset sum in C."""
    C = set(range(1, N + 1)) - set(A)
    return not any(
        all(sum(tup[i] for i in range(r) if m >> i & 1) in C for m in range(1, 1 << r))
        for tup in product(sorted(C), repeat=r)
    )


def naive_fk_min_density(r, N):
    """Minimum |A|/N over all 2^N subsets, fully independently."""
    universe = list(range(1, N + 1))
    best = None
    for mask in range(1 << N):
        A = {universe[i] for i in range(N) if mask >> i & 1}
        if naive_fk_blocks(r, N, A) and (best is None or len(A) < best):
            best = len(A)
    return Fraction(best, N)


def plain_coloring_search(k, edges_by_last):
    """The coloring search without propagation: positions in index order,
    colors ascending with canonical first use, a branch cut only when the
    color just placed makes an edge listed under that position
    monochromatic.  Each cover leaf names that one edge, as a one-reason
    tuple.  Returns a ``search.ColoringOutcome``."""

    def span(top, depth):
        # the state is the largest color used so far
        return 1, min(k, top + 1) + 1

    def extend(top, depth, c, colors):
        for witness, positions in edges_by_last[depth]:
            if all(colors[q] == c for q in positions):
                return Cut((witness,))
        return c if c > top else top

    out = prefix_search(0, len(edges_by_last), span, extend)
    if out.path is not None:
        return ColoringOutcome(COUNTEREXAMPLE, out.path, None, out.candidates)
    return ColoringOutcome(ALL_OK, None, out.leaves, out.candidates)


def through_first_all_ok(staged) -> list:
    """The (stage, outcome) pairs that ``search.stages`` yields, up to and
    including the first all-colorings-ok outcome: the stages that decide
    the least stage whose claim holds for every coloring."""
    out = []
    for n, res in staged:
        out.append((n, res))
        if res.kind == ALL_OK:
            break
    return out


def per_size_fk_search(r, N, edges_by_last):
    """fk-density one size at a time, without a bound: for size = 0, 1, ...
    a depth-first search over x = 1..N tries "x in A" before "x in C", so
    the first full path of the first size that has one is the least blocking
    set in (size, lexicographic) order.  "x in C" is cut when an edge of
    ``edges_by_last[x]`` lies wholly in C, "x in A" once A has the size, and
    "x in C" when too few elements are left to reach it.  Returns (size,
    witness, nodes summed over the sizes)."""

    def span(state, depth):
        # state: (C, elements A still lacks); bit x of C stands for x
        missing = state[1]
        return (0 if missing else 1), (2 if missing < N - depth else 1)

    def extend(state, depth, choice, path):
        C, missing = state
        if choice == 0:
            return C, missing - 1
        C |= 1 << depth + 1
        if any(e & C == e for e in edges_by_last[depth + 1]):
            return CUT
        return C, missing

    nodes = 0
    for size in range(N + 1):
        out = prefix_search((0, size), N, span, extend)
        nodes += out.candidates
        if out.path is not None:
            return size, frozenset(x for x, c in enumerate(out.path, 1) if c == 0), nodes


def telescope_expansion(m: Monomial, u_gamma: tuple, alphas: list[tuple]):
    """The 2^d signed terms of the product expansion in which each linear
    factor u_gamma(k) is rewritten as (u_gamma(k) + u_alpha(k)) - u_alpha(k),
    one alpha vector per factor position.

    Yields (sign, value) with sign in {+1, -1}; the signed sum equals the
    plain monomial value.
    """
    r = m.ring
    coords = m.factor_coordinates()
    d = len(coords)
    if len(alphas) != d:
        raise AlgebraError(f"need {d} alpha vectors, got {len(alphas)}")
    u_gamma = tuple(r.element(c) for c in u_gamma)
    alphas = [tuple(r.element(c) for c in a) for a in alphas]
    if len(u_gamma) != m.n or any(len(a) != m.n for a in alphas):
        raise AlgebraError("coordinate arity mismatch in telescope expansion")
    for picks in product((True, False), repeat=d):
        val = r.element(m.coeff)
        sign = 1
        for j, take_sum in enumerate(picks):
            k = coords[j]
            if take_sum:
                val = r.mul(val, r.add(u_gamma[k], alphas[j][k]))
            else:
                val = r.mul(val, alphas[j][k])
                sign = -sign
        yield sign, val


def telescope_check(m: Monomial, u_gamma: tuple, alphas: list[tuple]) -> bool:
    """Validate the expansion code path: distribute into 2^d signed terms,
    sum, and compare with the directly evaluated monomial.  Always true."""
    r = m.ring
    total = r.zero
    for sign, val in telescope_expansion(m, u_gamma, alphas):
        total = r.add(total, val) if sign > 0 else r.sub(total, val)
    return total == eval_monomial(m, u_gamma)


def naive_map_value(phi, u):
    """phi(u) term by term with the rings' own operations: each power a
    repeated product, each weight multiplied in, each term added to the
    target's zero, none of the evaluator's shortcuts."""
    ring, tgt = phi.ring, phi.target
    total = tgt.zero
    for m, w in phi.terms:
        val = ring.element(m.coeff)
        for c, e in zip(u, m.exponents):
            for _ in range(e):
                val = ring.mul(val, ring.element(c))
        if isinstance(tgt, VectorSpace):
            term = tuple(ring.mul(val, x) for x in w)
        else:
            term = ring.mul(val, w)
        total = tgt.add(total, term)
    return total


def family_order(r: int) -> list[frozenset[int]]:
    """All non-empty subsets of {1..r} in ascending bitmask order."""
    return [mask_to_set(m) for m in range(1, 1 << r)]


def khintchine_bound(sys, B) -> Fraction:
    """||P 1_B||^2 of an event, measured afresh: the bound a report reads
    off its own mu(B) (``SpectralSplit.khintchine``)."""
    return compact_projection(sys, B).khintchine


def cross_terms(sys, B):
    """w -> <T^w (1_B - P1_B), 1_B> exactly, from one correlator: zero when
    the projection is the identity, corr(w) - mu(B)^2 for the constant
    projection."""
    split = compact_projection(sys, B)
    if split.kind == "identity":
        return lambda w: Fraction(0)
    corr, mu2 = sys.correlator(B), split.mu**2
    return lambda w: corr(w) - mu2


def projected_orbit_dist_sq(sys, B, w) -> Fraction:
    """||P1_B - T^w P1_B||^2: the constant part never moves; the identity
    part moves like the event itself."""
    if compact_projection(sys, B).kind == "constant":
        return Fraction(0)
    return orbit_metric(sys, B, sys.shift_event(B, w))


def theorem1_pipeline(sys, B, phi: PolynomialMap, epsilon, window: Window, r_max: int = 4):
    """Replay the spectral proof mechanics end to end: the second,
    independent assembly path of a classified return-set report.

    f is the almost-periodic part of the indicator.  A collects the u whose
    orbit-metric displacement of f stays below eps/2 (squared comparison);
    the cross term <T^{phi(u)}(1_B - f), 1_B> is computed per u, and E marks
    the elements of A where it dips to -eps/2 or lower, breaking the
    inequality chain.  A minus E provably lands in R; set inclusion is
    checked element by element.  Returns (report, A, E); returning at all
    means the chain held.
    """
    epsilon, B, domain = Fraction(epsilon), sys.event(B), phi.domain
    mu = sys.measure(B)
    threshold = mu * mu - epsilon
    check_window_size(domain, window)
    elements = tuple(window_enumerate(domain, window))
    cross_of = cross_terms(sys, B)
    half = epsilon / 2
    values, pairs, A, E = [], [], [], []
    for u in elements:
        w = eval_poly(phi, as_coords(u, phi.n))
        # independent correlation path: inclusion-exclusion through the
        # symmetric difference instead of the direct intersection measure
        corr = mu - orbit_metric(sys, B, sys.shift_event(B, w)) / 2
        cross = cross_of(w)
        in_A = projected_orbit_dist_sq(sys, B, w) < half * half
        in_E = in_A and cross <= -half
        hit = corr > threshold
        if in_A:
            A.append(u)
        if in_E:
            E.append(u)
        if in_A and not in_E and not hit:
            raise RecurrenceError("inequality chain failed: A minus E left the return set")
        values.append(w)
        pairs.append(((corr.numerator, corr.denominator), hit))
    report = RecurrenceReport(
        sys, B, phi, epsilon, window, mu, threshold,
        pair_column(domain, elements), pair_column(phi.target, values), tuple(pairs),
    )
    return classify_ipstar(report, r_max), tuple(A), tuple(E)


def reports_agree(a, b) -> bool:
    """Two recurrence reports have the same R and the same correlations,
    element by element."""
    return (
        a.elements == b.elements
        and a.R == b.R
        and [c for c, _ in a.pairs] == [c for c, _ in b.pairs]
    )


def reference_scan(report) -> list:
    """(u, w, corr, hit) for each element of the report's window, in window
    order, recomputed one element at a time: the window listed afresh, w
    through ``eval_poly`` and corr through ``sys.correlation``."""
    sys, B, phi = report.system, report.B, report.phi
    threshold = sys.measure(B) ** 2 - report.epsilon
    out = []
    for u in window_enumerate(report.domain, report.window):
        w = eval_poly(phi, as_coords(u, phi.n))
        corr = sys.correlation(B, w)
        out.append((u, w, corr, corr > threshold))
    return out


def reference_recurrence_renders(report) -> tuple[str, str]:
    """The csv table and the JSON report of an unclassified return-set
    report, written field by field from ``reference_scan``; a field holding
    a comma is quoted, as csv's minimal quoting does."""
    assert not report.classification and report.exceptional_density is None
    sys, B = report.system, report.B
    mu = sys.measure(B)
    threshold = mu * mu - report.epsilon

    def q(x) -> str:
        return reference_render_element(Rationals(), x)

    def field(text: str) -> str:
        return f'"{text}"' if "," in text else text

    scan = reference_scan(report)
    lines = ["w,mu_B,corr,threshold,in_R"]
    for _u, w, corr, hit in scan:
        w_text = reference_render_element(sys.acting, w)
        texts = [w_text, q(mu), q(corr), q(threshold), str(hit).lower()]
        lines.append(",".join(map(field, texts)))
    tree = {
        "system": describe_system(sys),
        "phi": render_poly_map(report.phi),
        "epsilon": q(report.epsilon),
        "R": {
            "members": [reference_render_element(report.domain, u) for u, *_, hit in scan if hit],
            "exact": isinstance(report.window, FullWindow),
        },
        "classification": {},
        "witness": None,
        "exceptional_density": None,
        "bounds": {"khintchine": q(khintchine_bound(sys, B))},
    }
    return "".join(line + "\n" for line in lines), json.dumps(tree, indent=2) + "\n"


def counter_poly_window(p: int, D: int) -> list:
    """The degree-< D window over GF(p) in counter order, one divmod loop per
    element: entry i holds the little-endian base-p digits of i."""
    out = []
    for i in range(p**D):
        coeffs = []
        v = i
        while v:
            v, r = divmod(v, p)
            coeffs.append(r)
        out.append(tuple(coeffs))
    return out


def naive_dlim_values(sys, B, phi, windows) -> list:
    """The Cesaro average of |<T^{phi(v)}(1_B - P1_B), 1_B>|^2 over each
    window, recomputed from scratch per window and per element with the
    event algebra: <T^w P1_B, 1_B> is mu(B cap T^w B) itself when the
    projection is the identity (compact backends) and mu(B)^2 when it is the
    constant mu(B) (product backend)."""
    B = sys.event(B)
    mu = sys.measure(B)
    out = []
    for window in windows:
        total = Fraction(0)
        for v in window:
            w = phi((v,) if phi.n == 1 else v)
            corr = sys.intersection_measure(B, sys.shift_event(B, w))
            total += (corr - (corr if sys.is_compact else mu * mu)) ** 2
        out.append(total / len(window))
    return out


# words, lines and configurations listed directly: the references for the
# word-index and subset-tuple line scans and the subset-tuple encoding in
# ipstar.halesjewett


def all_lines(k: int, m: int) -> list[Line]:
    """Every line of the m-position word space, in canonical order."""
    out = []
    positions = list(range(1, m + 1))
    for size in range(1, m + 1):
        for moving in combinations(positions, size):
            rest = [p for p in positions if p not in moving]
            for letters in product(range(1, k + 1), repeat=len(rest)):
                out.append(Line(m, tuple(zip(rest, letters)), frozenset(moving)))
    return out


def psi_decode(alphas, r: int) -> tuple[int, ...]:
    """Inverse of psi_encode for index sets inside {1..r}."""
    alphas = [frozenset(a) for a in alphas]
    if any(not a <= set(range(1, r + 1)) for a in alphas):
        raise ValueError("index sets must lie inside {1..r}")
    out = []
    for j in range(1, r + 1):
        val = 0
        for i, alpha in enumerate(alphas, start=1):
            if j in alpha:
                val |= 1 << (i - 1)
        out.append(val + 1)
    return tuple(out)


@cache
def word_subset_tuples(d: int, r: int) -> tuple[int, ...]:
    """For each word index over the 2^d-letter alphabet, the number
    sum_i a_i * 2^(r*(d-i)) of its subset masks (a_1..a_d) under ``psi_encode``,
    where bit j of a mask is index j+1 and sits at word position j+1: the
    subset-tuple order in which ``halesjewett.first_mono_subset_line`` reads
    its table, listed in word order.  Built as an outer sum of per-position
    offset tables: a letter v at position p (counted from 0) contributes
    the bits of v - 1 shifted to p, and position 0 is outermost, as in the
    word order."""
    letter_bits = [sum(1 << r * (d - 1 - i) for i in range(d) if v >> i & 1) for v in range(1 << d)]
    out = [0]
    for p in range(r):
        offsets = [bits << p for bits in letter_bits]
        out = [a + b for a in out for b in offsets]
    return tuple(out)


@cache
def word_gather(d: int, r: int) -> itemgetter:
    """cells -> the tuple (cells[t] for t in word_subset_tuples(d, r)): a
    table in subset-tuple order, read in word order by one C-level gather,
    as ``halesjewett.first_mono_line`` takes it."""
    return itemgetter(*word_subset_tuples(d, r))


def config_points(cfg: SubsetConfig) -> list[tuple[frozenset[int], ...]]:
    """The 2^d induced points, ordered to match the line points (the point
    with pattern bits of ell-1 sits at moving letter ell)."""
    def move(point, i):  # base set i takes the mover
        return (*point[:i], point[i] | cfg.mover, *point[i + 1 :])

    return subset_folds(move, tuple(cfg.base), range(cfg.d))


class ReferenceBallCover:
    """Greedy ball cover keyed by event: an event joins the first center
    whose ``orbit_metric`` distance is strictly below the radius, or founds
    a new cell."""

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


def per_tuple_cells(s, m, x, width: Fraction, gens):
    """Cover cell of T^E x for every tuple of slot masks (a_1..a_deg) of the
    monomial's factors, lexicographic with slot 1 outermost, where E is c
    times the product of the slots' subset sums; and the number of cells.
    gens are coordinate tuples of the monomial's ring.  One product and one
    cell lookup per tuple: the table ``recurrence._cells`` builds from
    shared rows.

    On the circle the cell is floor(((x + c*rho*E) mod 1) * cover), computed
    in integers over one common denominator of all the subset sums as
    ((N mod L) * cover) // L.  Ball cells come from the event-keyed
    ``ReferenceBallCover``, founded in slot-tuple order."""
    ring, facs = m.ring, m.factor_coordinates()
    sums = []
    for mask in range(1 << len(gens)):
        total = tuple(ring.zero for _ in range(m.n))
        for j, g in enumerate(gens):
            if mask >> j & 1:
                total = tuple(ring.add(a, b) for a, b in zip(total, g))
        sums.append(total)
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
    balls = ReferenceBallCover(s, (width / 2) ** 2)
    prods = [m.coeff]
    for c in facs:
        prods = [ring.mul(p, v[c]) for p in prods for v in sums]
    return [balls.cell(s.shift_event(x, e)) for e in prods], len(balls.centers)
