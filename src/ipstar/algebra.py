"""Exact arithmetic for the ground structures.

The backends' maps are defined over three ground rings, all with exact
arithmetic:

* ``PrimeField(p)``   elements are ints in ``0..p-1``, arithmetic mod p
* ``Rationals()``     elements are ``fractions.Fraction`` (lowest terms,
  positive denominator, guaranteed by the Fraction type)
* ``PolyRing(p)``     univariate polynomials over GF(p), stored as tuples of
  coefficients in ascending degree with no trailing zero; ``()`` is zero

``Integers()`` is no ground ring: it is Z, as plain ints, only as the
additive group that the finite-sums combinatorics scans in.  It shares its
operations with ``Rationals``, Python's own exact ``+ - *``; each ring's
``zero`` and ``one`` are class attributes.

On top of the rings sit fixed-dimension vector spaces (elements are tuples of
ring elements), monomial maps ``u -> a * u1^d1 * ... * un^dn`` and polynomial
maps ``u -> sum_i m_i(u) * w_i`` with zero constant term, whose weights lie
over the domain ring.  Each map is evaluated through a compiled form, built
on its first evaluation and kept (``compiled``): one scalar polynomial per
target coordinate, its weights folded into its coefficients, in plain ints
over F_p and Q and in the ring's own operations over F_p[t].  Compiled
maps, the backends' kernels and the return-set scans speak one form, the
column form (``pair_column``): over Q each coordinate is its (numerator,
denominator) pair in lowest terms, elsewhere the element itself.
``window_column`` lists a window in it; ``column_elements`` reads it back.

Window enumeration orders are frozen so that "first witness" answers from the
search modules are deterministic:

* ``PrimeField``: ``0, 1, ..., p-1``
* ``Rationals`` bounds (A, B): every ``a/b`` in lowest terms with ``|a| <= A``
  and ``1 <= b <= B``, in ascending numeric order (``window_pairs`` lists
  them in column form, ``enumerate_window`` as Fractions)
* ``PolyRing`` degree bound D: base-p counter order, i.e. the polynomial whose
  coefficient list is the little-endian base-p expansion of ``i`` for
  ``i = 0, 1, ..., p^D - 1`` (sorts by degree, then by coefficients from the
  leading one down)
* vector spaces: cartesian product of the scalar window with coordinate 1
  most significant (last coordinate varies fastest)

A ground ring's ``window_contains`` method decides whether an element lies
in a window from the window's bounds, without listing it, and a group's
``window_power`` bounds the number of elements from above the same way, as
a power b^e left untaken: exactly, except on the rationals, where (2A+1)*B
counts every a/b before reduction.  ``check_window_size`` refuses, before
anything is listed, a window that may hold more than ``SIZE_CAP`` elements.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache, cached_property
from math import floor, gcd, lcm, log2


class AlgebraError(ValueError):
    """Dimension, ring or window mismatch in an exact-arithmetic operation."""


def is_prime(p: int) -> bool:
    """Trial division, refused for p of ``SIZE_CAP``^2 or more before any
    step: below it, at most ``SIZE_CAP`` divisors are tried."""
    if p >= SIZE_CAP * SIZE_CAP:
        raise AlgebraError(f"p = {p} is at least the cap of {SIZE_CAP}^2")
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# frozen values


class Value:
    """A value type's shared base.  Its fields (``_fields``) are set once, by
    ``__init__`` through ``_init``, and never reassigned.  Two values are
    equal when they have the same type and equal fields; the hash is over
    the fields, so it is the same in every run.  The repr shows each field."""

    __slots__ = ()
    _fields: tuple = ()

    def _init(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign or delete {name!r}: a {type(self).__name__} is frozen")

    __delattr__ = __setattr__


# ---------------------------------------------------------------------------
# window specifications


class FullWindow(Value):
    """The whole (finite) ring; only valid for PrimeField."""

    __slots__ = ()


class RationalWindow(Value):
    __slots__ = _fields = ("num_bound", "den_bound")

    def __init__(self, num_bound: int, den_bound: int):
        if num_bound < 0 or den_bound < 1:
            raise AlgebraError("rational window needs num_bound >= 0, den_bound >= 1")
        self._init(num_bound, den_bound)


class DegreeWindow(Value):
    __slots__ = _fields = ("deg_bound",)  # polynomials of degree < deg_bound

    def __init__(self, deg_bound: int):
        if deg_bound < 0:
            raise AlgebraError("degree window bound must be >= 0")
        self._init(deg_bound)


Window = FullWindow | RationalWindow | DegreeWindow


def _expect_window(ring, window, kind) -> None:
    if not isinstance(window, kind):
        raise AlgebraError(f"{ring} needs a {kind.__name__}, got {window}")


# ---------------------------------------------------------------------------
# ground rings
# (zero and one are class attributes, not fields)


class PrimeField(Value):
    __slots__ = _fields = ("p",)
    zero = 0
    one = 1

    def __init__(self, p: int):
        if not is_prime(p):
            raise AlgebraError(f"{p} is not prime")
        self._init(p)

    def element(self, x) -> int:
        if isinstance(x, bool) or not isinstance(x, int):
            raise AlgebraError(f"not a {self} element: {x!r}")
        return x % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def enumerate_window(self, window: Window) -> list[int]:
        _expect_window(self, window, FullWindow)
        return list(range(self.p))

    def window_contains(self, window: Window, a: int) -> bool:
        _expect_window(self, window, FullWindow)
        return True

    def window_power(self, window: Window) -> tuple[int, int]:
        _expect_window(self, window, FullWindow)
        return self.p, 1

    def __str__(self):
        return f"F_{self.p}"


class _ExactNumbers(Value):
    """Z and Q: Python's own operators are exact on ints and Fractions."""

    __slots__ = ()
    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b


class Integers(_ExactNumbers):
    """Z as the additive group of the finite-sums scans: no map or window
    is defined over it."""

    __slots__ = ()


class Rationals(_ExactNumbers):
    """Q, its elements Fractions.  A window is listed as integer pairs
    (``window_pairs``), the column form a scan over Q keeps; the Fractions
    of ``enumerate_window`` are built from that listing."""

    __slots__ = ()
    zero = Fraction(0)
    one = Fraction(1)

    def element(self, x) -> Fraction:
        if isinstance(x, Fraction):  # already in lowest terms
            return x
        if isinstance(x, int) and not isinstance(x, bool):
            return Fraction(x)
        raise AlgebraError(f"not a rational: {x!r}")

    def window_pairs(self, window: Window) -> list[tuple[int, int]]:
        """The window in canonical order as integer pairs: each value once,
        as (a, b) with a/b in lowest terms and b >= 1."""
        _expect_window(self, window, RationalWindow)
        A, B = window.num_bound, window.den_bound
        pairs = [(a, b) for b in range(1, B + 1) for a in range(-A, A + 1) if gcd(a, b) == 1]
        # Sorted on the quotients a / b as doubles, which is exact: two values
        # x < y of the window differ by at least 1/(b*d) >= 1/B^2 and
        # |x|, |y| <= A, so by a relative 1/(A*B^2) or more.  A listable window
        # has (2A+1)*B <= SIZE_CAP = 2^20, so A*B^2 < 2^39 < 2^52: the rounding
        # of a double, relative 2^-53, can neither merge nor swap two values.
        pairs.sort(key=lambda pair: pair[0] / pair[1])
        return pairs

    def enumerate_window(self, window: Window) -> list[Fraction]:
        return list(itertools.starmap(Fraction, self.window_pairs(window)))

    def window_contains(self, window: Window, a: Fraction) -> bool:
        _expect_window(self, window, RationalWindow)
        return abs(a.numerator) <= window.num_bound and a.denominator <= window.den_bound

    def window_power(self, window: Window) -> tuple[int, int]:
        _expect_window(self, window, RationalWindow)
        return (2 * window.num_bound + 1) * window.den_bound, 1

    def __str__(self):
        return "Q"


def rational_pairs(u) -> tuple:
    """The (numerator, denominator) pair of each rational coordinate of u."""
    return tuple([(x.numerator, x.denominator) for x in u])


def pair_column(group, items) -> tuple:
    """Elements of group as a return-set report's column holds them: over Q
    each rational coordinate as its (numerator, denominator) pair, a scalar
    one pair and a vector a tuple of pairs; over the other rings the
    elements themselves.  ``column_elements`` reads such a column back."""
    if isinstance(group, VectorSpace) and isinstance(group.ring, Rationals):
        return tuple(map(rational_pairs, items))
    return rational_pairs(items) if isinstance(group, Rationals) else tuple(items)


def column_elements(group, column) -> tuple:
    """The elements of group, in normal form, that a ``pair_column`` holds."""
    if isinstance(group, VectorSpace) and isinstance(group.ring, Rationals):
        return tuple([tuple(itertools.starmap(Fraction, u)) for u in column])
    return tuple(itertools.starmap(Fraction, column)) if isinstance(group, Rationals) else column


def window_column(group, window) -> tuple:
    """The window of group in canonical order and column form: over Q
    listed as integer pairs (``window_pairs``), no Fraction built.  A window
    of more than ``SIZE_CAP`` elements is refused unlisted
    (``check_window_size``)."""
    check_window_size(group, window)
    scalars = group.ring if isinstance(group, VectorSpace) else group
    if not isinstance(scalars, Rationals):
        return tuple(window_enumerate(group, window))
    pairs = scalars.window_pairs(window)
    return tuple(pairs if group is scalars else itertools.product(pairs, repeat=group.dim))


class PolyRing(Value):
    """Univariate polynomials over GF(p), the additive-group workhorse for
    the countably infinite finite-characteristic case."""

    __slots__ = _fields = ("p",)
    zero = ()
    one = (1,)

    def __init__(self, p: int):
        if not is_prime(p):
            raise AlgebraError(f"{p} is not prime")
        self._init(p)

    def element(self, x) -> tuple:
        if isinstance(x, int) and not isinstance(x, bool):
            x = (x,)
        if not isinstance(x, (tuple, list)):
            raise AlgebraError(f"not a {self} element: {x!r}")
        coeffs = [c % self.p for c in x]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return tuple(coeffs)

    def add(self, a: tuple, b: tuple) -> tuple:
        n = max(len(a), len(b))
        out = [0] * n
        for i, c in enumerate(a):
            out[i] = c
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.p
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)

    def neg(self, a: tuple) -> tuple:
        return tuple((-c) % self.p for c in a)

    def sub(self, a: tuple, b: tuple) -> tuple:
        return self.add(a, self.neg(b))

    def mul(self, a: tuple, b: tuple) -> tuple:
        if not a or not b:
            return ()
        out = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c == 0:
                continue
            for j, d in enumerate(b):
                out[i + j] = (out[i + j] + c * d) % self.p
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)

    def pow(self, a: tuple, k: int) -> tuple:
        """a^k by square-and-multiply over k's bits, the leading one first:
        at most 2 * log2(k) + 2 products, each by a or a square."""
        out = self.one
        for bit in f"{k:b}":
            out = self.mul(out, out)
            if bit == "1":
                out = self.mul(out, a)
        return out

    def enumerate_window(self, window: Window) -> list[tuple]:
        _expect_window(self, window, DegreeWindow)
        # the polynomials of n+1 coefficients are the counters p^n..p^(n+1)-1:
        # leading coefficient outermost, then the lower ones as a base-p
        # counter with the highest degree most significant
        out = [()]
        for n in range(window.deg_bound):
            lows = [low[::-1] for low in itertools.product(range(self.p), repeat=n)]
            out += [low + (lead,) for lead in range(1, self.p) for low in lows]
        return out

    def window_contains(self, window: Window, a: tuple) -> bool:
        _expect_window(self, window, DegreeWindow)
        return len(a) <= window.deg_bound

    def window_power(self, window: Window) -> tuple[int, int]:
        _expect_window(self, window, DegreeWindow)
        return self.p, window.deg_bound

    def __str__(self):
        return f"F_{self.p}[t]"


GroundRing = PrimeField | Rationals | PolyRing


# ---------------------------------------------------------------------------
# vector spaces


class VectorSpace(Value):
    """A fixed-dimension coordinate space over a ground ring.

    Elements are tuples of ring elements.  Shares the additive-group method
    names with the rings (add, neg, sub, zero, ...) so FS and search
    machinery can treat either uniformly.
    """

    __slots__ = _fields = ("ring", "dim")

    def __init__(self, ring: GroundRing, dim: int):
        if dim < 1:
            raise AlgebraError("vector space dimension must be >= 1")
        self._init(ring, dim)

    @property
    def zero(self) -> tuple:
        return (self.ring.zero,) * self.dim

    def element(self, coords) -> tuple:
        coords = tuple(self.ring.element(c) for c in coords)
        if len(coords) != self.dim:
            raise AlgebraError(f"expected {self.dim} coordinates, got {len(coords)}")
        return coords

    def add(self, u: tuple, v: tuple) -> tuple:
        self._check(u, v)
        return tuple(self.ring.add(a, b) for a, b in zip(u, v))

    def sub(self, u: tuple, v: tuple) -> tuple:
        self._check(u, v)
        return tuple(self.ring.sub(a, b) for a, b in zip(u, v))

    def neg(self, u: tuple) -> tuple:
        return tuple(self.ring.neg(a) for a in u)

    def _check(self, u, v):
        if len(u) != self.dim or len(v) != self.dim:
            raise AlgebraError(f"dimension mismatch in {self}")

    def enumerate_window(self, window: Window) -> list[tuple]:
        scalars = self.ring.enumerate_window(window)
        return [tuple(v) for v in itertools.product(scalars, repeat=self.dim)]

    def window_power(self, window: Window) -> tuple[int, int]:
        base, exp = self.ring.window_power(window)
        return base, exp * self.dim

    def __str__(self):
        return f"{self.ring}^{self.dim}"


Group = GroundRing | VectorSpace
"""Anything with the additive-group slice of the ring interface."""


def ring_power(ring: GroundRing, n: int) -> Group:
    """ring^n: the ring itself when n = 1, else ``VectorSpace(ring, n)``."""
    return ring if n == 1 else VectorSpace(ring, n)


def window_enumerate(group: Group, window: Window) -> list:
    """All window elements, each exactly once, in the frozen canonical order."""
    return group.enumerate_window(window)


SIZE_CAP = 1 << 20  # the most window elements listed, or words a search colours


def power_over_cap(base: int, exp: int) -> int | str | None:
    """None when base^exp, base >= 1, is at most ``SIZE_CAP``; otherwise the
    power, for a message.  The power is taken only when it has fewer than
    2^17 bits; a larger one is named by a power of two above it, "2^N",
    found from log2(base) without taking the power."""
    # b^e has fewer than e * bit_length(b) bits: under 2^17 here, unless b = 1
    if exp * (base.bit_length() - 1) <= 1 << 16:
        size = base**exp
        if size <= SIZE_CAP:
            return None
        # str() refuses ints of more than 4,300 digits: name a power of two above
        return size if size < 10**18 else f"2^{size.bit_length()}"
    # a margin of 2^-50 covers the float's rounding, so 2^bits exceeds b^e
    return f"2^{floor(exp * Fraction(log2(base)) * (1 + Fraction(1, 1 << 50))) + 1}"


def check_window_size(group: Group, window: Window) -> None:
    """Refuse a window of more than ``SIZE_CAP`` elements, by its
    ``window_power`` bound b^e (``power_over_cap``), before anything is
    listed."""
    shown = power_over_cap(*group.window_power(window))
    if shown is not None:
        raise AlgebraError(
            f"window of {group} holds up to {shown} elements, more than the cap of {SIZE_CAP}"
        )


VALUE_CAP = 1 << 26  # the most coefficient products (F_p[t]) or bits (Q) of a run's map values


def check_value_size(phi: PolynomialMap, window: Window, count: int) -> None:
    """Refuse, before any is built, count values of phi at elements of the
    window that may take more than ``VALUE_CAP`` in all.  A term's value has
    a size of at most twice the largest of its coefficient's and weights'
    plus its degree times a coordinate's, and a value at most the sum over
    its terms.  Over F_p[t] a size is a length (degree + 1), a coordinate
    counted by its degree, below the window's bound, and a value of length
    L takes L^2 coefficient products.  Over Q a size is the bits of the
    numerator and the denominator, a coordinate's at most those of the
    window's larger bound, and a value takes its bits.  Over F_p a value is
    a residue, and a map of bare coordinates (each term of degree 1, its
    coefficient and weights 0 or 1) only adds coordinates."""
    ring, vector = phi.ring, isinstance(phi.target, VectorSpace)
    terms = [(m.total_degree, {m.coeff, *(w if vector else (w,))}) for m, w in phi.terms]
    if isinstance(ring, PrimeField) or all(d == 1 and c <= {ring.zero, ring.one} for d, c in terms):
        return
    poly = isinstance(ring, PolyRing)
    _expect_window(ring, window, DegreeWindow if poly else RationalWindow)
    coordinate = (max(window.deg_bound - 1, 0) if poly
                  else max(window.num_bound, window.den_bound).bit_length())

    def size(x) -> int:
        return len(x) if poly else x.numerator.bit_length() + x.denominator.bit_length()

    value = sum(2 * max(map(size, c)) + d * coordinate for d, c in terms)
    work = count * value**2 if poly else count * value
    if work > VALUE_CAP:
        shown = work if work < 10**18 else f"2^{work.bit_length()}"  # str() refuses long ints
        unit = "coefficient products" if poly else "bits"
        raise AlgebraError(
            f"{count} values of the map take up to {shown} {unit}, more than the cap of {VALUE_CAP}"
        )


# ---------------------------------------------------------------------------
# monomial and polynomial maps


class Monomial(Value):
    """u -> coeff * u_1^{e_1} * ... * u_n^{e_n} with the exponents not all zero.

    A zero coeff is allowed and yields the zero map.
    """

    __slots__ = _fields = ("ring", "coeff", "exponents")

    def __init__(self, ring: GroundRing, coeff, exponents: tuple[int, ...]):
        coeff = ring.element(coeff)
        exponents = tuple(int(e) for e in exponents)
        if not exponents or any(e < 0 for e in exponents):
            raise AlgebraError("exponents must be a non-empty tuple of ints >= 0")
        if all(e == 0 for e in exponents):
            raise AlgebraError("exponents must not all be zero")
        self._init(ring, coeff, exponents)

    @property
    def n(self) -> int:
        return len(self.exponents)

    @property
    def domain(self) -> Group:
        return ring_power(self.ring, self.n)

    @property
    def total_degree(self) -> int:
        return sum(self.exponents)

    def factor_coordinates(self) -> list[int]:
        """Coordinate index (0-based) used by each of the ``total_degree``
        linear factors, in order: coordinate k repeated exponents[k] times."""
        out = []
        for k, e in enumerate(self.exponents):
            out.extend([k] * e)
        return out

    def __call__(self, u: tuple):
        return eval_monomial(self, u)


def eval_monomial(m: Monomial, u: tuple):
    """Exact value of the monomial: ``eval_poly`` of the one-term map."""
    return eval_poly(_monomial_map(m), u)


@cache
def _monomial_map(m: Monomial) -> PolynomialMap:
    """The one-term map of a monomial, built and compiled once per monomial."""
    return scalar_poly_map(m.ring, [m])


def _compile(ring, terms):
    """u -> sum of a * u_1^e_1 * ... * u_n^e_n over the (a, e) in terms, a
    function of coordinates from ``ring`` in column form, built once.

    * F_p: ints mod p, each power one ``pow(u_k, e, p)``.
    * Q: integers in column form: each coordinate u_k = p_k/q_k comes as
      its pair (p_k, q_k) in lowest terms and the value goes out as its
      reduced (numerator, denominator).  The coefficients are integers A
      over their common denominator L; with E_k the top power of u_k, the
      value is sum A * prod p_k^e_k * q_k^(E_k - e_k) over
      L * prod q_k^E_k, reduced by one gcd.  No ``Fraction`` is built.
    * F_p[t]: the ring's own operations; a coefficient equal to one is not
      multiplied in and a first power not computed, so ``u`` returns u.
    """
    # each term as its coefficient and its (coordinate, power) factors
    terms = [(a, [(k, d) for k, d in enumerate(e) if d]) for a, e in terms]
    if isinstance(ring, PrimeField):
        p = ring.p

        def value(u):
            total = 0
            for a, factors in terms:
                for k, d in factors:
                    a = a * pow(u[k], d, p)
                total += a
            return total % p

        return value
    if isinstance(ring, PolyRing):
        one, add, mul, pw = ring.one, ring.add, ring.mul, ring.pow
        terms = [(None if a == one else a, factors) for a, factors in terms]

        def value(u):
            acc = None
            for v, factors in terms:
                for k, d in factors:
                    f = u[k] if d == 1 else pw(u[k], d)
                    v = f if v is None else mul(v, f)
                acc = v if acc is None else add(acc, v)
            return acc

        return value
    L = lcm(*(a.denominator for a, _ in terms))
    tops: dict = {}  # k -> E_k
    for _, factors in terms:
        for k, d in factors:
            tops[k] = max(tops.get(k, 0), d)
    tops = list(tops.items())
    # each term as A and its powers of the p_k and q_k: (k, e_k, E_k - e_k)
    terms = [(a.numerator * (L // a.denominator), dict(factors)) for a, factors in terms]
    terms = [(A, [(k, e.get(k, 0), top - e.get(k, 0)) for k, top in tops]) for A, e in terms]

    def value(u):
        total = 0
        for A, factors in terms:
            for k, d, f in factors:
                p, q = u[k]
                if d:
                    A *= p**d
                if f:
                    A *= q**f
            total += A
        den = L
        for k, top in tops:
            den *= u[k][1] ** top
        g = gcd(total, den)
        return total // g, den // g

    return value


class PolynomialMap(Value):
    """u -> sum_i m_i(u) * w_i, a map with zero constant term from ring^n into
    a target additive group (a vector space over the ring, or the ring itself).
    ``terms`` holds the (Monomial, target element) pairs."""

    _fields = ("ring", "n", "target", "terms")
    __slots__ = (*_fields, "__dict__")  # the __dict__ holds the cached_property

    def __init__(self, ring: GroundRing, n: int, target: Group, terms: tuple):
        if not terms:
            raise AlgebraError("polynomial map needs at least one term")
        scalars = target.ring if isinstance(target, VectorSpace) else target
        if scalars != ring:
            raise AlgebraError(f"a map on {ring} cannot take values in {target}")
        checked = []
        for m, w in terms:
            if m.ring != ring or m.n != n:
                raise AlgebraError("monomial ring/arity mismatch in polynomial map")
            checked.append((m, target.element(w)))
        self._init(ring, n, target, tuple(checked))

    @property
    def domain(self) -> Group:
        return ring_power(self.ring, self.n)

    @cached_property
    def compiled(self):
        """The map in column form (``pair_column``), n coordinates in and the
        target's entry out, built once per map: one scalar polynomial per
        target coordinate (``_compile``), its terms' weights folded into its
        coefficients; a vector's value is the tuple of its coordinates'."""
        tgt = self.target
        if not isinstance(tgt, VectorSpace):
            return _compile(tgt, [(tgt.mul(m.coeff, w), m.exponents) for m, w in self.terms])
        scalars = tgt.ring
        coords = [
            _compile(scalars, [(scalars.mul(m.coeff, w[j]), m.exponents) for m, w in self.terms])
            for j in range(tgt.dim)
        ]
        return lambda u: tuple([f(u) for f in coords])

    def __call__(self, u: tuple):
        return eval_poly(self, u)


def eval_poly(phi: PolynomialMap, u: tuple):
    """Exact value of the polynomial map; eval_poly(phi, 0) is the target zero.

    The coordinates are normalised once, then the compiled form evaluates
    them in column form."""
    u = tuple(phi.ring.element(c) for c in u)
    if len(u) != phi.n:
        raise AlgebraError(f"polynomial map in {phi.n} variables applied to {len(u)} coordinates")
    return column_elements(phi.target, [phi.compiled(pair_column(phi.ring, u))])[0]


def as_coords(u, n: int) -> tuple:
    """The coordinate tuple of an element of ring^n: a scalar is wrapped,
    since a scalar may itself be a tuple (a polynomial), arity decides."""
    return (u,) if n == 1 else u


def scalar_poly_map(ring: GroundRing, monomials) -> PolynomialMap:
    """Convenience: a ring-valued polynomial map sum_i m_i(u) * 1."""
    monomials = list(monomials)
    n = monomials[0].n
    return PolynomialMap(ring, n, ring, tuple((m, ring.one) for m in monomials))
