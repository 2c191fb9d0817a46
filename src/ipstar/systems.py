"""Exactly-computable measure-preserving actions and their exact correlations.

Three backends, each chosen so every inner product needed downstream is a
finite rational computation:

* ``FinitePermSystem``: a finite point set with rational weights and an
  action of the additive vector group over a prime field, one commuting
  order-p generator permutation per coordinate.
* ``RotationSystem``: the circle with Lebesgue measure, acting group the
  additive rationals, T^u x = x + u * rho mod 1 with rho rational; events
  are finite unions of half-open rational intervals.
* ``BernoulliSystem``: the i.i.d. product over the additive polynomial ring
  over a prime field, with a rational base distribution; events are cylinder
  sets constraining finitely many coordinates to letter sets.

Every event measure, correlation mu(B cap T^w B), squared orbit distance and
spectral quantity the public functions return is a ``fractions.Fraction``.

Each backend has one kernel per event, ``kernel(B, threshold)``: w ->
(corr, hit), corr = mu(B cap T^w B) as its reduced (numerator,
denominator) int pair, the form values over Q take in the scans, and hit
whether corr exceeds the threshold, for w in column form
(``algebra.pair_column``: over Q each coordinate as its pair).  No kernel
does ``Fraction`` arithmetic per call or per tabled value.  The work that
depends only on (system, B) is done once, and each call pays only for what
depends on w.  ``correlator(B)`` is that kernel behind the check of w and
its conversion to column form, its pair read back as a ``Fraction``, and
``correlation(B, w)`` is ``correlator(B)(w)``.  The return-set paths ask
the kernel: ``recurrence_set``, ``fp_probe`` and the Bernoulli
``dlim_probe`` feed it the compiled map's values, already in column form,
and so does the constructive search's ball cover (``_BallCover``,
d^2(T^e x, T^c x) = 2(mu(x) - mu(x cap T^(c-e) x)), which reads only the
hit of the normalised difference c - e).  The correlator remains for
``correlation`` and for the test oracles.  Densities
(``dlim_probe`` and a windowed classify) average over the canonical windows
1..N of ``folner_sets`` only, through one function, ``window_means``: one
pass over a listing that holds window N (window N itself, or a report's
elements) puts each element in the bucket of the least n whose window holds
it, and returns the whole run as a ``DensityProfile``.  The kernels are
integer arithmetic, decide the hit in integers, and build each distinct
pair once, keyed on integers (Bernoulli: on the shifts in D), in a table
that lives and dies with the kernel; the event algebra
(``shift_event``, ``intersection_measure``, ``measure``) stays the naive
reference every kernel must agree with:

* finite-perm: the weights are integer numerators over one common
  denominator, and each generator has a cycle-position map x -> (x's
  cycle, x's index in it), so T^w moves a point c_i steps along its cycle
  per coordinate.  With one generator, B is one int bitmask per cycle it
  meets, and the weight of the x in B landing in B is, summed over those
  cycles, the cycle's weight times popcount(m & rot(m, c)).  With more
  generators, B's points and their numerators are listed once, each call
  maps the points along their cycles, and the numerators of those landing
  in B are summed.  Either way the pair is keyed on the total, below
  ``_den``.  The same maps build ``transform``.
* rotation: the overlap of B with its turn by s is piecewise linear in
  s mod 1, with kinks only at the differences of B's endpoints.  Over B's
  common denominator D these breakpoints are integers, at most 4P^2 for P
  pieces; the kernel tables the integer overlap at each and the integer
  slope after it, once per event.  A call works out w's turn as an integer
  ratio n / M (with one angle, straight off w's numerator and
  denominator); a turn n mod M over M met for the first time finds its
  segment by bisection and reduces its value by one gcd; an even map
  gives u and -u one w, so one turn.
* Bernoulli: cylinders on disjoint coordinates are independent under the
  product measure, so for w outside D = supp(B) - supp(B) the correlation
  is mu(B)^2.  The letter probabilities are integer weights over one
  common denominator q, and on the finite set D each correlation is a
  product of letter-set weights over a power of q, worked out once from
  the overlapping coordinate pairs of each shift (no ``Cylinder`` is
  built) and tabled with its hit; a call is one dict lookup, which
  returns the one precomputed (mu(B)^2, hit) pair for every w outside D.
  Only the correlator normalises w first.

The finite-field backend sits outside the hypotheses of the recurrence
theorem being exercised (which needs an infinite ground structure); its
``outside_theorem_hypotheses`` flag says so, and a report carries the flag
but no output renders it.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction
from functools import cache
from math import gcd, lcm, prod

from .algebra import (
    DegreeWindow,
    FullWindow,
    PolyRing,
    PrimeField,
    RationalWindow,
    Rationals,
    SIZE_CAP,
    Value,
    VectorSpace,
    as_coords,
    check_value_size,
    check_window_size,
    rational_pairs,
    ring_power,
    window_enumerate,
)


class SystemError(ValueError):
    """Backend construction or usage violated an exactness invariant."""


class _Backend:
    """What the three backends share: ``correlator`` is the backend's one
    kernel behind the check and normalisation of w.  ``kernel(B,
    threshold)`` takes w in column form, as the compiled maps produce it: a
    scalar with one acting coordinate, else a tuple, a rational as its
    pair.  ``_coords`` checks w coordinate by coordinate, in that form; the
    Bernoulli backend, whose scalars are tuples, normalises w whole."""

    def correlation(self, B, w) -> Fraction:
        return self.correlator(B)(w)

    def correlator(self, B):
        """w -> mu(B cap T^w B), a ``Fraction``, for any w the acting group
        accepts."""
        kernel, normalise = self.kernel(B, 0), self._normalise  # the hit is not read
        return lambda w: Fraction(*kernel(normalise(w))[0])

    def _normalise(self, w):
        coords = self._coords(w)
        return coords[0] if self.n == 1 else coords

    def _coords(self, w) -> tuple:
        """The coordinates of the acting element w, each normalised by the
        ring (``element``), then their number checked."""
        coords = tuple(map(self.ring.element, w if isinstance(w, tuple) else (w,)))
        if len(coords) != self.n:
            raise SystemError(f"acting element needs {self.n} coordinates")
        return coords


# ---------------------------------------------------------------------------
# finite permutation actions


class FinitePermSystem(_Backend):
    """Finite measure space with a vector group of commuting permutations.

    points: hashable labels.  weights: label -> positive rational, summing
    to 1.  gens: one permutation (dict label -> label) per acting coordinate;
    each must preserve the weights, have order exactly dividing p, and
    commute with the others, checked here.
    """

    is_compact = True
    outside_theorem_hypotheses = True

    def __init__(self, p: int, points, weights, gens):
        self.ring = PrimeField(p)
        self.p = p
        self.points = tuple(points)
        self._point_set = pts = frozenset(self.points)  # read by every event check
        if len(pts) != len(self.points):
            raise SystemError("duplicate point labels")
        if set(weights) != pts:
            raise SystemError("weights must cover exactly the point set")
        # each distinct weight object is converted and scaled once (a parsed
        # file shares one per token); Fraction(w) rebuilds a Fraction, so
        # those are kept as given
        given = list(map(weights.__getitem__, self.points))
        keys = list(map(id, given))
        fracs = {k: w if isinstance(w, Fraction) else Fraction(w)
                 for k, w in dict(zip(keys, given)).items()}
        # the weights as integer numerators over one common denominator
        self._den = den = lcm(*{w.denominator for w in fracs.values()})
        scaled = {k: w.numerator * (den // w.denominator) for k, w in fracs.items()}
        if any(v < 0 for v in scaled.values()):
            raise SystemError("weights must be non-negative")
        self.weights = dict(zip(self.points, map(fracs.__getitem__, keys)))
        self._num = num = dict(zip(self.points, map(scaled.__getitem__, keys)))
        if sum(num.values()) != den:
            raise SystemError("weights must sum to 1")
        self.gens = tuple(dict(g) for g in gens)
        if not self.gens:
            raise SystemError("need at least one generator permutation")
        self.n = len(self.gens)
        cycles = []
        for g in self.gens:
            if set(g) != pts or set(g.values()) != pts:
                raise SystemError("generator is not a permutation of the points")
            cycles.append(_cycles(g))
            # g preserves the weights exactly when they are constant on its cycles
            if any(len(set(map(num.__getitem__, c))) > 1 for c in cycles[-1] if len(c) > 1):
                raise SystemError("generator does not preserve the measure")
        for cs in cycles:  # g^p is the identity exactly when every cycle length divides p
            if any(p % len(c) for c in cs):
                raise SystemError(f"generator order does not divide {p}")
        # one cycle-position map per generator: x -> (x's cycle, x's index in it)
        self._cycles = [{y: (c, i) for c in cs for i, y in enumerate(c)} for cs in cycles]
        for i in range(self.n):
            for j in range(i + 1, self.n):
                gi, gj = self.gens[i], self.gens[j]
                if any(gi[gj[x]] != gj[gi[x]] for x in pts):
                    raise SystemError(f"generators {i + 1} and {j + 1} do not commute")
        self.acting = ring_power(self.ring, self.n)

    def _images(self, xs, coords) -> list:
        """The images of the points xs, in order, under the acting element
        with these coordinates: each generator power moves a point along its
        cycle."""
        out = list(xs)
        for positions, c in zip(self._cycles, coords):
            if c:
                out = [cycle[(i + c) % len(cycle)] for cycle, i in map(positions.__getitem__, out)]
        return out

    def transform(self, w):
        """The permutation applied by the acting element w (forward map)."""
        return dict(zip(self.points, self._images(self.points, self._coords(w))))

    def event(self, members) -> frozenset:
        members = frozenset(members)
        stray = members - self._point_set
        if stray:
            raise SystemError(f"unknown points in event: {sorted(map(str, stray))}")
        return members

    def measure(self, B: frozenset) -> Fraction:
        return Fraction(sum(map(self._num.__getitem__, B)), self._den)

    def shift_event(self, B: frozenset, w) -> frozenset:
        T = self.transform(w)
        return frozenset(T[x] for x in B)

    def intersection_measure(self, B1: frozenset, B2: frozenset) -> Fraction:
        return self.measure(B1 & B2)

    def kernel(self, B: frozenset, threshold):
        """w -> (mu(B cap T^w B), whether it exceeds threshold) for w in
        normal form, the correlation as its reduced (numerator, denominator)
        pair.  T^w preserves the weights, so the correlation is the weight
        of the x in B whose image lands in B: an integer total over
        ``_den``, compared with the threshold in integers.  The pair is
        built once per distinct total and tabled in the kernel."""
        den, td = self._den, threshold.denominator
        bar = threshold.numerator * den  # total / den > threshold: total * td > bar
        pair = cache(lambda total: (_reduced(total, den), total * td > bar))
        if self.n == 1:
            # B as one bitmask per cycle it meets: T^c moves index i to
            # i + c, so the x in B landing in B are the set bits of m & rot(m, c)
            masks: dict = {}  # id(cycle) -> [cycle, mask]
            for x in B:
                cycle, i = self._cycles[0][x]
                masks.setdefault(id(cycle), [cycle, 0])[1] |= 1 << i
            rings = [(m, len(cycle), (1 << len(cycle)) - 1, self._num[cycle[0]])
                     for cycle, m in masks.values() if self._num[cycle[0]]]

            def kernel(c):
                total = 0
                for m, n, full, weight in rings:
                    s = c % n
                    total += weight * (m & ((m >> s | m << (n - s)) & full)).bit_count()
                return pair(total)

            return kernel
        xs = tuple(B)
        nums = [self._num[x] for x in xs]
        return lambda w: pair(sum(v for v, y in zip(nums, self._images(xs, w)) if y in B))


def _reduced(num: int, den: int) -> tuple[int, int]:
    """num / den (den > 0) as its pair in lowest terms, by one gcd."""
    g = gcd(num, den)
    return num // g, den // g


def _cycles(g: dict) -> list[tuple]:
    """The cycles of the permutation g, each starting from its first point
    in g's order."""
    seen, out = set(), []
    for x in g:
        if x in seen:
            continue
        cycle, y = [x], g[x]
        while y != x:
            cycle.append(y)
            y = g[y]
        seen.update(cycle)
        out.append(tuple(cycle))
    return out


def regular_system(p: int) -> FinitePermSystem:
    """The field acting on itself by translation, uniform weights."""
    pts = list(range(p))
    w = dict.fromkeys(pts, Fraction(1, p))
    return FinitePermSystem(p, pts, w, [{x: (x + 1) % p for x in pts}])


# ---------------------------------------------------------------------------
# rational rotations


def _turned(a, b, s, L) -> list:
    """The arc [a, b) (0 <= b - a <= L) of a circle of length L turned by
    s: one piece in [0, L], or two where it runs past L and reappears at 0."""
    start = (a + s) % L
    end = start + (b - a)
    return [(start, end)] if end <= L else [(start, L), (0, end - L)]


class IntervalUnion(Value):
    """Finite union of half-open rational subintervals of [0, 1), kept
    sorted, disjoint and merged, so set equality is equality of the
    ``Value`` field ``pieces``.  A wrapping pair and a shift are cut at 1
    by ``_turned``, the one arc cutter, which the rotation kernel's
    ``_overlap`` shares over Z/D."""

    __slots__ = _fields = ("pieces",)

    def __init__(self, pairs):
        raw = []
        for a, b in pairs:
            a, b = Fraction(a), Fraction(b)
            if not (0 <= a <= 1 and 0 <= b <= 1):
                raise SystemError(f"interval endpoints out of [0,1]: {a}, {b}")
            # a pair with b < a is the arc [a, b + 1); only positive lengths are kept
            halves = [(a, b)] if a <= b else _turned(a, b + 1, 0, 1)
            raw += [(x, y) for x, y in halves if x < y]
        raw.sort()
        merged: list[list[Fraction]] = []
        for a, b in raw:
            if merged and a <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        self._init(tuple((a, b) for a, b in merged))

    @property
    def measure(self) -> Fraction:
        return sum((b - a for a, b in self.pieces), Fraction(0))

    def shift(self, s) -> "IntervalUnion":
        s = Fraction(s)
        return IntervalUnion([arc for a, b in self.pieces for arc in _turned(a, b, s, 1)])

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        out = []
        for a, b in self.pieces:
            for c, d in other.pieces:
                lo, hi = max(a, c), min(b, d)
                if lo < hi:
                    out.append((lo, hi))
        return IntervalUnion(out)


class RotationSystem(_Backend):
    """x -> x + u * rho mod 1 on the circle, rho rational, Lebesgue measure.

    rho may also be a tuple of rationals, in which case the acting group is
    the rational vector group acting componentwise: x -> x + sum u_i rho_i.
    """

    is_compact = True
    outside_theorem_hypotheses = False

    def __init__(self, rho):
        if isinstance(rho, tuple):
            self.rhos = tuple(Fraction(r) for r in rho)
            if not self.rhos:
                raise SystemError("need at least one rotation angle")
        else:
            self.rhos = (Fraction(rho),)
        self.n = len(self.rhos)
        self.rho = self.rhos[0]
        self.ring = Rationals()
        self.acting = ring_power(self.ring, self.n)

    def _coords(self, w) -> tuple:
        """The checked coordinates of w as (numerator, denominator) pairs."""
        return rational_pairs(super()._coords(w))

    def _turn(self, pairs) -> tuple[int, int]:
        """The turn sum_i w_i * rho_i of w, given as its coordinates'
        (numerator, denominator) pairs, as integers (n, M), n / M not
        reduced."""
        n, M = 0, 1
        for (a, b), r in zip(pairs, self.rhos):
            d = b * r.denominator
            n, M = n * d + a * r.numerator * M, M * d
        return n, M

    def _angle(self, w) -> Fraction:
        """The turn sum_i w_i * rho_i of the acting element w."""
        return Fraction(*self._turn(self._coords(w)))

    def event(self, pairs) -> IntervalUnion:
        return pairs if isinstance(pairs, IntervalUnion) else IntervalUnion(pairs)

    def measure(self, B: IntervalUnion) -> Fraction:
        return B.measure

    def shift_event(self, B: IntervalUnion, w) -> IntervalUnion:
        return B.shift(self._angle(w))

    def intersection_measure(self, B1, B2) -> Fraction:
        return B1.intersect(B2).measure

    def kernel(self, B: IntervalUnion, threshold):
        """w -> (mu(B cap T^w B), whether it exceeds threshold) for w in
        column form, as ``PolynomialMap.compiled`` gives it: with one angle
        w's (numerator, denominator), else the tuple of its coordinates'
        pairs.  The pairs are read off a breakpoint table of B.

        As a function of the turn s mod 1, the overlap of B with B + s is
        piecewise linear, with kinks only where an endpoint of B + s meets
        one of B: at the differences of B's endpoints mod 1.  Over B's
        common denominator D these are integers 0 = beta_0 < beta_1 < ... < D,
        the overlap at beta_i is an integer V_i over D (B's pieces turned
        by ``_turned``, the arc cutter of ``IntervalUnion``, in integers),
        and each segment has an integer slope k_i.  A turn s = n / M in
        [beta_i / D, beta_(i+1) / D) then has
        corr = (V_i * M + k_i * (n * D - beta_i * M)) / (D * M), compared
        with the threshold in integers and reduced by one gcd to the pair
        the kernel returns.  With one angle rho the turn of w = (a, b) is
        n / M = (a * rho.numerator) / (b * rho.denominator).  Each turn
        (n mod M, M) is worked out once; its pair is tabled in the
        kernel."""
        D = lcm(*(e.denominator for piece in B.pieces for e in piece))
        ends = [(a.numerator * (D // a.denominator), b.numerator * (D // b.denominator))
                for a, b in B.pieces]
        points = [e for piece in ends for e in piece]
        starts = sorted({0} | {(e - f) % D for e in points for f in points})
        values = [_overlap(ends, beta, D) for beta in starts]
        slopes = [(v1 - v0) // (b1 - b0) for v0, v1, b0, b1
                  in zip(values, values[1:] + values[:1], starts, starts[1:] + [D])]
        td, bar = threshold.denominator, threshold.numerator * D  # corr > threshold: num * td > bar * M

        @cache
        def pair(n, M):  # the turn n / M, 0 <= n < M
            i = bisect_right(starts, n * D // M) - 1
            num = values[i] * M + slopes[i] * (n * D - starts[i] * M)
            return _reduced(num, D * M), num * td > bar * M

        if self.n == 1:
            rn, rd = self.rho.numerator, self.rho.denominator

            def kernel(w):
                M = w[1] * rd
                return pair(w[0] * rn % M, M)

            return kernel
        turn = self._turn

        def kernel(w):
            n, M = turn(w)
            return pair(n % M, M)

        return kernel


def _overlap(ends, shift: int, L: int) -> int:
    """The overlap of the integer intervals ends, disjoint in [0, L), with
    the same intervals turned by shift around Z/L."""
    moved = [arc for a, b in ends for arc in _turned(a, b, shift, L)]
    return sum(max(0, min(b, d) - max(a, c)) for a, b in ends for c, d in moved)


# ---------------------------------------------------------------------------
# Bernoulli shifts over the polynomial-ring group


class Cylinder(Value):
    """Finitely many coordinate constraints: group element -> allowed letter
    set, a dict in coordinate order, so set equality is equality of the
    ``Value`` field ``constraints`` (a dict, so a cylinder is unhashable).
    Constraints allowing every letter are dropped at construction.
    Coordinates are taken as given, so two that name one element must come
    normalised, as ``BernoulliSystem.event`` makes them."""

    __slots__ = _fields = ("constraints",)

    def __init__(self, constraints, alphabet_size: int):
        table = {}
        for coord, letters in dict(constraints).items():
            letters = frozenset(letters)
            if any(not 0 <= l < alphabet_size for l in letters):
                raise SystemError(f"letters out of range at coordinate {coord}")
            if len(letters) == alphabet_size:
                continue
            table[tuple(coord)] = letters
        self._init(dict(sorted(table.items())))


class BernoulliSystem(_Backend):
    """i.i.d. product measure over the additive polynomial-ring group; the
    shift by w relocates a cylinder's constraints from c to c + w."""

    is_compact = False
    outside_theorem_hypotheses = False

    def __init__(self, p: int, base_probs):
        self.ring = PolyRing(p)
        self.p = p
        self.base = tuple(Fraction(q) for q in base_probs)
        if len(self.base) < 1:
            raise SystemError("need at least one letter")
        if any(q < 0 for q in self.base):
            raise SystemError("letter probabilities must be non-negative")
        if sum(self.base) != 1:
            raise SystemError("letter probabilities must sum to 1")
        self.acting = self.ring

    @property
    def alphabet_size(self) -> int:
        return len(self.base)

    def event(self, constraints) -> Cylinder:
        """The cylinder of the constraints, coordinates normalised: two
        coordinates naming one polynomial, such as (1,) and (1, 0), are one
        coordinate constrained to both letter sets."""
        if isinstance(constraints, Cylinder):
            return constraints
        out = Cylinder({}, self.alphabet_size)
        for coord, letters in dict(constraints).items():
            one = Cylinder({self.ring.element(coord): letters}, self.alphabet_size)
            out = self.intersect(out, one)
        return out

    def letters_prob(self, letters) -> Fraction:
        return sum((self.base[l] for l in letters), Fraction(0))

    def measure(self, B: Cylinder) -> Fraction:
        out = Fraction(1)
        for letters in B.constraints.values():
            out *= self.letters_prob(letters)
        return out

    def shift_event(self, B: Cylinder, w) -> Cylinder:
        w = self.ring.element(w)
        moved = {self.ring.add(c, w): letters for c, letters in B.constraints.items()}
        return Cylinder(moved, self.alphabet_size)

    def intersect(self, B1: Cylinder, B2: Cylinder) -> Cylinder:
        table = dict(B1.constraints)
        for c, letters in B2.constraints.items():
            table[c] = table[c] & letters if c in table else letters
        return Cylinder(table, self.alphabet_size)

    def intersection_measure(self, B1, B2) -> Fraction:
        return self.measure(self.intersect(B1, B2))

    def _normalise(self, w) -> tuple:
        return self.ring.element(w)

    def kernel(self, B: Cylinder, threshold):
        """w -> (mu(B cap T^w B), whether it exceeds threshold) for a
        normalised w, the correlation as its reduced (numerator,
        denominator) pair.  The letter probabilities are integer weights
        over one common denominator q, so a cylinder constraining k
        coordinates has an integer measure over q^k.  T^d B constrains
        c + d to B's letters at c, so for d = a - c with a, c in supp(B)
        the coordinate a holds both letter sets; the overlapping pairs
        (a, c) of each d in D = supp(B) - supp(B) are grouped once, and
        mu(B cap T^d B) is the product of the overlaps' weights and of the
        other constraints' over q^(2k - overlaps).  Outside D, B and its
        shift constrain disjoint coordinates, independent under the product
        measure, so every such w gets one pair, mu(B)^2 with its hit, and w
        is never looked at beyond one dict lookup."""
        q = lcm(*(x.denominator for x in self.base))
        weights = [x.numerator * (q // x.denominator) for x in self.base]
        weight = cache(lambda letters: sum(map(weights.__getitem__, letters)))
        supp, tn, td = B.constraints, threshold.numerator, threshold.denominator

        def pair(num: int, k: int):  # num / q^k
            den = q**k
            return _reduced(num, den), num * td > tn * den

        alone = {c: weight(letters) for c, letters in supp.items()}
        overlaps: dict = {}  # d -> [(a, c), ...] with a - c = d
        for a in supp:
            for c in supp:
                overlaps.setdefault(self.ring.sub(a, c), []).append((a, c))
        k = len(supp)
        table = {}
        for d, both in overlaps.items():
            mine, theirs = dict(alone), dict(alone)  # B's constraints, then T^d B's
            num = 1
            for a, c in both:
                num *= weight(supp[a] & supp[c])
                del mine[a], theirs[c]
            table[d] = pair(num * prod(mine.values()) * prod(theirs.values()), 2 * k - len(both))
        outside = pair(prod(alone.values()) ** 2, 2 * k)
        get = table.get
        return lambda w: get(w, outside)


MeasureSystem = FinitePermSystem | RotationSystem | BernoulliSystem


# ---------------------------------------------------------------------------
# generic event algebra


def orbit_metric(sys, B1, B2) -> Fraction:
    """Squared L2 distance between two indicator observables: the measure
    of their symmetric difference, by inclusion-exclusion.

    Squared values keep every comparison rational: d < eps iff d^2 < eps^2
    for non-negative eps.  The acting maps are isometries for this metric,
    checked by sampling in the test suite.
    """
    return sys.measure(B1) + sys.measure(B2) - 2 * sys.intersection_measure(B1, B2)


# ---------------------------------------------------------------------------
# spectral split


class SpectralSplit(namedtuple("SpectralSplit", "kind mu norm2_f norm2_compact norm2_residual")):
    """Exact decomposition of an indicator into its almost-periodic part and
    the orthogonal residual.

    kind "identity": the whole observable is almost periodic (finite orbits,
    isometric rotations); the residual is zero.
    kind "constant": the almost-periodic part is the constant mu(B); the
    residual 1_B - mu(B) decorrelates along the shift (product measure).
    """

    __slots__ = ()

    def __new__(cls, kind, mu, norm2_f, norm2_compact, norm2_residual):
        if norm2_f != norm2_compact + norm2_residual:
            raise SystemError("split violates the Pythagoras identity")
        return super().__new__(cls, kind, mu, norm2_f, norm2_compact, norm2_residual)

    @classmethod
    def of(cls, sys, mu: Fraction) -> "SpectralSplit":
        """The split of an event of measure mu on sys."""
        if sys.is_compact:
            return cls("identity", mu, mu, mu, Fraction(0))
        # product measure: constants are the only almost-periodic component of a
        # cylinder indicator; norms: ||1_B||^2 = mu, ||mu||^2 = mu^2
        return cls("constant", mu, mu, mu * mu, mu - mu * mu)

    @property
    def khintchine(self) -> Fraction:
        """||P 1_B||^2, which can never fall below mu(B)^2."""
        if self.norm2_compact < self.mu**2:
            raise SystemError("projection norm fell below the square of the measure")
        return self.norm2_compact


def compact_projection(sys, B) -> SpectralSplit:
    return SpectralSplit.of(sys, sys.measure(B))


# ---------------------------------------------------------------------------
# averaging windows


def folner_sets(group, N: int) -> list:
    """The frozen canonical averaging window at index N, listed by
    ``window_enumerate``.

    Prime field: everything (``FullWindow``).  Polynomial ring: degree < N
    (``DegreeWindow(N)``).  Rationals: a/b with |a| <= N, b <= N
    (``RationalWindow(N, N)``).  A vector space takes its scalars' window
    in every coordinate.  Such a window is refused unlisted when it may hold
    more than ``SIZE_CAP`` elements (``check_window_size``).
    """
    if N < 1:
        raise SystemError("averaging window index must be >= 1")
    scalars = group.ring if isinstance(group, VectorSpace) else group
    if isinstance(scalars, PrimeField):
        window = FullWindow()
    elif isinstance(scalars, PolyRing):
        window = DegreeWindow(N)
    elif isinstance(scalars, Rationals):
        window = RationalWindow(N, N)
    else:
        raise SystemError(f"no canonical averaging sequence for {group}")
    check_window_size(group, window)
    return window_enumerate(group, window)


def _window_rank(group):
    """u -> the least n whose canonical window ``folner_sets(group, n)``
    holds u: 1 on a prime field, max(number of coefficients, 1) on the
    polynomials, max(|numerator|, denominator) on the rationals, and the
    largest coordinate's rank on a vector space."""
    if isinstance(group, VectorSpace):
        rank = _window_rank(group.ring)
        return lambda u: max(map(rank, u))
    if isinstance(group, PrimeField):
        return lambda c: 1
    if isinstance(group, PolyRing):
        return lambda c: max(len(c), 1)
    if isinstance(group, Rationals):
        return lambda c: max(abs(c.numerator), c.denominator)
    raise SystemError(f"no canonical averaging sequence for {group}")


def folner_reach(window) -> int:
    """The largest N whose canonical window ``folner_sets(group, N)`` lies
    inside the bounded ``window`` (0 when none does): ``deg D`` holds the
    degree windows n <= D, and ``rat A B`` holds ``rat n n`` for
    n <= min(A, B)."""
    if isinstance(window, DegreeWindow):
        return window.deg_bound
    if isinstance(window, RationalWindow):
        return min(window.num_bound, window.den_bound)
    raise SystemError(f"{window} holds every canonical averaging window")


class DensityProfile(namedtuple("DensityProfile", "value values")):
    """Exact density in the window at N together with the whole run 1..N,
    so the limsup behaviour can be eyeballed."""

    __slots__ = ()


def window_means(f, group, N: int, elements) -> DensityProfile:
    """The mean of f over each canonical window Phi_n, n = 1..N, exact, from
    elements, a listing that holds Phi_N (and so every Phi_n inside it):
    ``folner_sets(group, N)`` or a report's elements.  One pass puts each element
    in the bucket of the least n whose window holds it (``_window_rank``);
    Phi_n's sum and size are the running totals of buckets 1..n."""
    if N < 1:
        raise SystemError("averaging window index must be >= 1")
    rank = _window_rank(group)
    sums, sizes = [0] * (N + 1), [0] * (N + 1)
    for u in elements:
        n = rank(u)
        if n <= N:
            sizes[n] += 1
            t = f(u)
            if t:  # zero terms, most of a Cesaro window, are not added
                sums[n] += t
    out, total, size = [], 0, 0
    for n in range(1, N + 1):
        total, size = total + sums[n], size + sizes[n]
        out.append(Fraction(total, size))
    return DensityProfile(out[-1], tuple(out))


def check_map_target(sys, phi, error) -> None:
    """Refuse, by raising error, a map whose values are not elements of the
    group acting on sys."""
    if phi.target != sys.acting:
        raise error(f"map target {phi.target} does not match the acting group {sys.acting}")


def dlim_probe(sys, B, phi_map, N: int) -> DensityProfile:
    """Cesaro averages of |<T^{phi(v)}(1_B - P1_B), 1_B>|^2 over the
    canonical windows 1..N of the map's domain, for a map into the acting
    group (``check_map_target``).  Exactly zero on the compact backends,
    where the projection is the identity, so no window is listed there, and
    an N over ``SIZE_CAP`` is refused before the profile is built.  On the
    product backend the term is (corr - mu(B)^2)^2, read in one pass over
    window N from the kernel's pair for phi(v), its correlation an integer
    pair, and squared once per distinct pair; it must decay in N, since
    only finitely many v contribute.  There a window over ``SIZE_CAP``
    elements, or values over it past ``VALUE_CAP`` (``check_value_size``),
    are refused before any value is built."""
    check_map_target(sys, phi_map, SystemError)
    split, domain = compact_projection(sys, B), phi_map.domain
    if split.kind == "identity":
        if N < 1:
            raise SystemError("averaging window index must be >= 1")
        if N > SIZE_CAP:
            raise SystemError(f"averaging window index {N} is more than the cap of {SIZE_CAP}")
        return DensityProfile(Fraction(0), (Fraction(0),) * N)
    elements = folner_sets(domain, N)
    check_value_size(phi_map, DegreeWindow(N), len(elements))  # window N of F_p[t]
    kernel, value, n = sys.kernel(B, 0), phi_map.compiled, phi_map.n
    a, b = split.mu.numerator ** 2, split.mu.denominator ** 2  # mu(B)^2 = a / b
    squares: dict = {}  # id(pair) -> its term; the kernel keeps every pair it returns alive

    def term(v):
        pair = kernel(value(as_coords(v, n)))
        t = squares.get(id(pair))
        if t is None:
            (c, d), _hit = pair  # (c / d - a / b)^2
            t = squares[id(pair)] = Fraction((c * b - a * d) ** 2, (d * b) ** 2)
        return t

    return window_means(term, domain, N, elements)
