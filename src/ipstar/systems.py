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
spectral quantity is a ``fractions.Fraction``.

The finite-field backend sits outside the hypotheses of the recurrence
theorem being exercised (which needs an infinite ground structure); reports
downstream label it accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .algebra import (
    DegreeWindow,
    FullWindow,
    Integers,
    PolyRing,
    PrimeField,
    RationalWindow,
    Rationals,
    VectorSpace,
    window_enumerate,
)


class SystemError(ValueError):
    """Backend construction or usage violated an exactness invariant."""


# ---------------------------------------------------------------------------
# finite permutation actions


class FinitePermSystem:
    """Finite measure space with a vector group of commuting permutations.

    points: hashable labels.  weights: label -> positive rational, summing
    to 1.  gens: one permutation (dict label -> label) per acting coordinate;
    each must preserve the weights, have order exactly dividing p, and
    commute with the others, checked here.
    """

    label = "finite-perm"
    is_compact = True
    outside_theorem_hypotheses = True

    def __init__(self, p: int, points, weights, gens):
        self.field = PrimeField(p)
        self.p = p
        self.points = tuple(points)
        if len(set(self.points)) != len(self.points):
            raise SystemError("duplicate point labels")
        if set(weights) != set(self.points):
            raise SystemError("weights must cover exactly the point set")
        self.weights = {x: Fraction(weights[x]) for x in self.points}
        if any(w < 0 for w in self.weights.values()):
            raise SystemError("weights must be non-negative")
        if sum(self.weights.values()) != 1:
            raise SystemError("weights must sum to 1")
        self.gens = tuple(dict(g) for g in gens)
        if not self.gens:
            raise SystemError("need at least one generator permutation")
        self.n = len(self.gens)
        pts = set(self.points)
        for g in self.gens:
            if set(g) != pts or set(g.values()) != pts:
                raise SystemError("generator is not a permutation of the points")
            for x in pts:
                if self.weights[g[x]] != self.weights[x]:
                    raise SystemError("generator does not preserve the measure")
        for g in self.gens:
            if self._power(g, p) != {x: x for x in pts}:
                raise SystemError(f"generator order does not divide {p}")
        for i in range(self.n):
            for j in range(i + 1, self.n):
                gi, gj = self.gens[i], self.gens[j]
                if any(gi[gj[x]] != gj[gi[x]] for x in pts):
                    raise SystemError(f"generators {i + 1} and {j + 1} do not commute")
        self.acting = VectorSpace(self.field, self.n) if self.n > 1 else self.field
        # power tables: gen i composed j times, j in 0..p-1
        self._tables = []
        for g in self.gens:
            row = [{x: x for x in pts}]
            for _ in range(1, p):
                row.append({x: g[row[-1][x]] for x in pts})
            self._tables.append(row)

    @staticmethod
    def _power(g, k):
        out = {x: x for x in g}
        for _ in range(k):
            out = {x: g[out[x]] for x in out}
        return out

    def _coords(self, w):
        if not isinstance(w, tuple):
            w = (w,)
        if len(w) != self.n:
            raise SystemError(f"acting element needs {self.n} coordinates")
        return tuple(c % self.p for c in w)

    def transform(self, w):
        """The permutation applied by the acting element w (forward map)."""
        coords = self._coords(w)
        out = {x: x for x in self.points}
        for i, c in enumerate(coords):
            tab = self._tables[i][c]
            out = {x: tab[out[x]] for x in self.points}
        return out

    def event(self, members) -> frozenset:
        members = frozenset(members)
        stray = members - set(self.points)
        if stray:
            raise SystemError(f"unknown points in event: {sorted(map(str, stray))}")
        return members

    def measure(self, B: frozenset) -> Fraction:
        return sum((self.weights[x] for x in B), Fraction(0))

    def shift_event(self, B: frozenset, w) -> frozenset:
        T = self.transform(w)
        return frozenset(T[x] for x in B)

    def intersection_measure(self, B1: frozenset, B2: frozenset) -> Fraction:
        return self.measure(B1 & B2)

    def correlation(self, B: frozenset, w) -> Fraction:
        return self.measure(B & self.shift_event(B, w))


def regular_system(p: int) -> FinitePermSystem:
    """The field acting on itself by translation, uniform weights."""
    pts = list(range(p))
    w = {x: Fraction(1, p) for x in pts}
    return FinitePermSystem(p, pts, w, [{x: (x + 1) % p for x in pts}])


# ---------------------------------------------------------------------------
# rational rotations


class IntervalUnion:
    """Finite union of half-open rational subintervals of [0, 1), kept
    sorted, disjoint and merged, so set equality is tuple equality."""

    __slots__ = ("pieces",)

    def __init__(self, pairs):
        raw = []
        for a, b in pairs:
            a, b = Fraction(a), Fraction(b)
            if not (0 <= a <= 1 and 0 <= b <= 1):
                raise SystemError(f"interval endpoints out of [0,1]: {a}, {b}")
            if a == b:
                continue
            if a < b:
                raw.append((a, b))
            else:  # wraps past 1
                raw.append((a, Fraction(1)))
                raw.append((Fraction(0), b))
        raw.sort()
        merged: list[list[Fraction]] = []
        for a, b in raw:
            if merged and a <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        self.pieces = tuple((a, b) for a, b in merged)

    @property
    def measure(self) -> Fraction:
        return sum((b - a for a, b in self.pieces), Fraction(0))

    def shift(self, s) -> "IntervalUnion":
        s = Fraction(s) % 1
        out = []
        for a, b in self.pieces:
            a2 = (a + s) % 1
            b2 = a2 + (b - a)
            if b2 <= 1:
                out.append((a2, b2))
            else:  # runs past 1, reappears at 0
                out.append((a2, Fraction(1)))
                out.append((Fraction(0), b2 - 1))
        return IntervalUnion(out)

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        out = []
        for a, b in self.pieces:
            for c, d in other.pieces:
                lo, hi = max(a, c), min(b, d)
                if lo < hi:
                    out.append((lo, hi))
        return IntervalUnion(out)

    def __eq__(self, other):
        return isinstance(other, IntervalUnion) and self.pieces == other.pieces

    def __hash__(self):
        return hash(self.pieces)

    def __repr__(self):
        return "IntervalUnion(" + ", ".join(f"[{a},{b})" for a, b in self.pieces) + ")"


class RotationSystem:
    """x -> x + u * rho mod 1 on the circle, rho rational, Lebesgue measure.

    rho may also be a tuple of rationals, in which case the acting group is
    the rational vector group acting componentwise: x -> x + sum u_i rho_i.
    """

    label = "rotation"
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
        self.acting = VectorSpace(Rationals(), self.n) if self.n > 1 else Rationals()

    def _angle(self, w) -> Fraction:
        if not isinstance(w, tuple):
            w = (w,)
        if len(w) != self.n:
            raise SystemError(f"acting element needs {self.n} coordinates")
        return sum((Fraction(c) * r for c, r in zip(w, self.rhos)), Fraction(0))

    def event(self, pairs) -> IntervalUnion:
        return pairs if isinstance(pairs, IntervalUnion) else IntervalUnion(pairs)

    def measure(self, B: IntervalUnion) -> Fraction:
        return B.measure

    def shift_event(self, B: IntervalUnion, w) -> IntervalUnion:
        return B.shift(self._angle(w))

    def intersection_measure(self, B1, B2) -> Fraction:
        return B1.intersect(B2).measure

    def correlation(self, B: IntervalUnion, w) -> Fraction:
        return B.intersect(self.shift_event(B, w)).measure


# ---------------------------------------------------------------------------
# Bernoulli shifts over the polynomial-ring group


class Cylinder:
    """Finitely many coordinate constraints: group element -> allowed letter
    set.  Constraints allowing every letter are dropped at construction."""

    __slots__ = ("constraints",)

    def __init__(self, constraints, alphabet_size: int):
        table = {}
        for coord, letters in dict(constraints).items():
            letters = frozenset(letters)
            if any(not 0 <= l < alphabet_size for l in letters):
                raise SystemError(f"letters out of range at coordinate {coord}")
            if len(letters) == alphabet_size:
                continue
            table[tuple(coord)] = letters
        self.constraints = dict(sorted(table.items()))

    @property
    def support(self):
        return set(self.constraints)

    def __eq__(self, other):
        return isinstance(other, Cylinder) and self.constraints == other.constraints

    def __repr__(self):
        return f"Cylinder({self.constraints})"


class BernoulliSystem:
    """i.i.d. product measure over the additive polynomial-ring group; the
    shift by w relocates a cylinder's constraints from c to c + w."""

    label = "bernoulli"
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
        if isinstance(constraints, Cylinder):
            return constraints
        return Cylinder(constraints, self.alphabet_size)

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

    def correlation(self, B: Cylinder, w) -> Fraction:
        return self.intersection_measure(B, self.shift_event(B, w))


MeasureSystem = FinitePermSystem | RotationSystem | BernoulliSystem


# ---------------------------------------------------------------------------
# generic event algebra


def symm_diff_measure(sys, B1, B2) -> Fraction:
    """mu(B1 symmetric-difference B2) via inclusion-exclusion; exact."""
    return sys.measure(B1) + sys.measure(B2) - 2 * sys.intersection_measure(B1, B2)


def orbit_metric(sys, B1, B2) -> Fraction:
    """Squared L2 distance between two indicator observables.

    Squared values keep every comparison rational: d < eps iff d^2 < eps^2
    for non-negative eps.  The acting maps are isometries for this metric,
    checked by sampling in the test suite.
    """
    return symm_diff_measure(sys, B1, B2)


def systems_commute(sys1, sys2) -> bool:
    """Do two actions on the same space commute?  Rotations always do;
    finite permutation systems are checked generator by generator."""
    if isinstance(sys1, RotationSystem) and isinstance(sys2, RotationSystem):
        return True
    if isinstance(sys1, FinitePermSystem) and isinstance(sys2, FinitePermSystem):
        if sys1.points != sys2.points:
            return False
        for g in sys1.gens:
            for h in sys2.gens:
                if any(g[h[x]] != h[g[x]] for x in sys1.points):
                    return False
        return True
    return False


# ---------------------------------------------------------------------------
# spectral split


@dataclass(frozen=True)
class SpectralSplit:
    """Exact decomposition of an indicator into its almost-periodic part and
    the orthogonal residual.

    kind "identity": the whole observable is almost periodic (finite orbits,
    isometric rotations); the residual is zero.
    kind "constant": the almost-periodic part is the constant mu(B); the
    residual 1_B - mu(B) decorrelates along the shift (product measure).
    """

    kind: str  # "identity" | "constant"
    mu: Fraction
    norm2_f: Fraction
    norm2_compact: Fraction
    norm2_residual: Fraction

    def __post_init__(self):
        if self.norm2_f != self.norm2_compact + self.norm2_residual:
            raise SystemError("split violates the Pythagoras identity")


def compact_projection(sys, B) -> SpectralSplit:
    mu = sys.measure(B)
    if sys.is_compact:
        return SpectralSplit("identity", mu, mu, mu, Fraction(0))
    # product measure: constants are the only almost-periodic component of a
    # cylinder indicator; norms: ||1_B||^2 = mu, ||mu||^2 = mu^2
    return SpectralSplit("constant", mu, mu, mu * mu, mu - mu * mu)


def khintchine_bound(sys, B) -> Fraction:
    """||P 1_B||^2, which can never fall below mu(B)^2."""
    split = compact_projection(sys, B)
    bound = split.norm2_compact
    if bound < split.mu**2:
        raise SystemError("projection norm fell below the square of the measure")
    return bound


def cross_term(sys, B, w, split: SpectralSplit | None = None) -> Fraction:
    """<T^w (1_B - P1_B), 1_B> exactly: zero when the projection is the
    identity, corr(w) - mu(B)^2 for the constant projection."""
    if split is None:
        split = compact_projection(sys, B)
    if split.kind == "identity":
        return Fraction(0)
    return sys.correlation(B, w) - split.mu**2


def projected_orbit_dist_sq(sys, B, w, split: SpectralSplit | None = None) -> Fraction:
    """||P1_B - T^w P1_B||^2: the constant part never moves; the identity
    part moves like the event itself."""
    if split is None:
        split = compact_projection(sys, B)
    if split.kind == "constant":
        return Fraction(0)
    return symm_diff_measure(sys, B, sys.shift_event(B, w))


# ---------------------------------------------------------------------------
# averaging windows


def folner_sets(group, N: int) -> list:
    """The frozen canonical averaging window at index N.

    Integers: {0..N-1}.  Polynomial ring: degree < N.  Rationals: a/b with
    |a| <= N, b <= N.  Prime field and vector spaces over it: everything.
    Vector spaces over infinite rings: coordinate products of the scalar
    window.
    """
    if N < 1:
        raise SystemError("averaging window index must be >= 1")
    if isinstance(group, PrimeField):
        return window_enumerate(group, FullWindow())
    if isinstance(group, Integers):
        return list(range(N))
    if isinstance(group, PolyRing):
        return window_enumerate(group, DegreeWindow(N))
    if isinstance(group, Rationals):
        return window_enumerate(group, RationalWindow(N, N))
    if isinstance(group, VectorSpace):
        scalars = folner_sets(group.ring, N)
        return [tuple(v) for v in product(scalars, repeat=group.dim)]
    raise SystemError(f"no canonical averaging sequence for {group}")


def _resolve_folner(folner, group, n: int) -> list:
    """Window n of an averaging sequence: a callable n -> elements, a list
    of explicit element lists (index n-1), or None for the canonical one."""
    if folner is None:
        phi = folner_sets(group, n)
    elif callable(folner):
        phi = list(folner(n))
    else:
        phi = list(folner[n - 1])
    if not phi:
        raise SystemError(f"averaging window {n} is empty")
    return phi


@dataclass(frozen=True)
class DensityProfile:
    """Exact density in the window at N together with the whole run 1..N,
    so the limsup behaviour can be eyeballed."""

    value: Fraction
    values: tuple[Fraction, ...]


def folner_density(member_pred, group, N: int, folner=None) -> DensityProfile:
    """|S cap Phi_n| / |Phi_n| for n = 1..N, exact."""
    if N < 1:
        raise SystemError("averaging window index must be >= 1")
    out = []
    for n in range(1, N + 1):
        phi = _resolve_folner(folner, group, n)
        hits = sum(1 for x in phi if member_pred(x))
        out.append(Fraction(hits, len(phi)))
    return DensityProfile(out[-1], tuple(out))


def dlim_probe(sys, B, phi_map, N: int, folner=None) -> Fraction:
    """Cesaro average of |<T^{phi(v)}(1_B - P1_B), 1_B>|^2 over window N of
    the map's domain.  Exactly zero on the compact backends; must decay in N
    for the product backend, where only finitely many v contribute."""
    split = compact_projection(sys, B)
    domain = phi_map.ring if phi_map.n == 1 else VectorSpace(phi_map.ring, phi_map.n)
    phi_n = _resolve_folner(folner, domain, N)
    total = Fraction(0)
    for v in phi_n:
        # scalar domain elements may themselves be tuples (polynomials)
        vv = (v,) if phi_map.n == 1 else v
        w = phi_map(vv)
        total += cross_term(sys, B, w, split) ** 2
    return total / len(phi_n)
