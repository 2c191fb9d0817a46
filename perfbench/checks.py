"""Correctness checks computed apart from the program.

Nothing here imports ``ipstar``.  Every quantity the benchmark compares the
program's output against is recomputed from the definitions: combinatorial
lines and finite-union families are enumerated afresh, correlations come
straight from each backend's definition (pointwise permutation weights,
interval breakpoints, cylinder products), and search answers are re-derived
from the generators.  Each checker returns ``None`` when the output is right
and a one-line reason when it is not.
"""

from __future__ import annotations

import csv
from fractions import Fraction
from itertools import combinations, product

# ---------------------------------------------------------------------------
# domains: F_p (ints), Q (Fractions), F_p[t] (little-endian coefficient tuples)


class Domain:
    """Additive group plus multiplication of one of the three scalar rings."""

    def __init__(self, kind: str, p: int | None = None):
        self.kind, self.p = kind, p

    @property
    def zero(self):
        return {"field": 0, "rat": Fraction(0), "poly": ()}[self.kind]

    def add(self, a, b):
        if self.kind == "field":
            return (a + b) % self.p
        if self.kind == "rat":
            return a + b
        n = max(len(a), len(b))
        out = [((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % self.p for i in range(n)]
        return trim(out)

    def mul(self, a, b):
        if self.kind == "field":
            return a * b % self.p
        if self.kind == "rat":
            return a * b
        if not a or not b:
            return ()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % self.p
        return trim(out)

    def power(self, a, e: int):
        out = {"field": 1, "rat": Fraction(1), "poly": (1,)}[self.kind]
        for _ in range(e):
            out = self.mul(out, a)
        return out

    def scalar(self, c: int):
        if self.kind == "field":
            return c % self.p
        if self.kind == "rat":
            return Fraction(c)
        return trim([c % self.p])

    def render(self, x) -> str:
        if self.kind == "field":
            return str(x)
        if self.kind == "rat":
            return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
        return "[" + ",".join(str(c) for c in x) + "]"

    def parse(self, text: str):
        text = text.strip()
        if self.kind == "field":
            return int(text) % self.p
        if self.kind == "rat":
            return Fraction(text)
        inner = text.strip("[]")
        return trim([int(c) % self.p for c in inner.split(",")] if inner else [])


def trim(coeffs) -> tuple:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def window_elements(dom: Domain, window: str) -> list:
    """The window's elements as a list (order is irrelevant to the checks)."""
    parts = window.split()
    if parts[0] == "full":
        return list(range(dom.p))
    if parts[0] == "rat":
        A, Bd = int(parts[1]), int(parts[2])
        out = {Fraction(a, b) for b in range(1, Bd + 1) for a in range(-A, A + 1)}
        return [q for q in out if abs(q.numerator) <= A and q.denominator <= Bd]
    if parts[0] == "deg":
        return [trim(c[::-1]) for c in product(range(dom.p), repeat=int(parts[1]))]
    raise ValueError(f"unknown window {window!r}")


def finite_sums(dom: Domain, gens) -> list:
    out = []
    for size in range(1, len(gens) + 1):
        for idx in combinations(range(len(gens)), size):
            acc = dom.zero
            for i in idx:
                acc = dom.add(acc, gens[i])
            out.append(acc)
    return out


def eval_phi(dom: Domain, terms, u):
    """phi(u) = sum of c * u^e over (c, e) terms."""
    acc = dom.zero
    for c, e in terms:
        acc = dom.add(acc, dom.mul(dom.scalar(c), dom.power(u, e)))
    return acc


def render_phi(terms) -> str:
    return " + ".join((f"{c}*u^{e}" if c != 1 else f"u^{e}") for c, e in terms)


# ---------------------------------------------------------------------------
# the three backends, from their definitions


class PermModel:
    """Finite points, one permutation of order p given by its cycles,
    weights constant on cycles; T^w is the permutation applied w times."""

    def __init__(self, p: int, points, weights, cycles, B):
        self.p, self.points, self.B = p, list(points), frozenset(B)
        self.weights, self.cycles = dict(weights), [list(c) for c in cycles]
        self.where = {x: (c, i) for c in self.cycles for i, x in enumerate(c)}
        self.dom = Domain("field", p)

    def image(self, E, w: int):
        """T^w E: a point on a cycle of length p moves w places along it."""
        out = set()
        for x in E:
            if x in self.where:
                c, i = self.where[x]
                x = c[(i + w) % len(c)]
            out.add(x)
        return frozenset(out)

    def mu(self, E=None) -> Fraction:
        return sum((self.weights[x] for x in (self.B if E is None else E)), Fraction(0))

    def corr(self, w) -> Fraction:
        return self.mu(self.B & self.image(self.B, w))

    def text(self) -> str:
        gen = "".join("(" + " ".join(str(x) for x in c) + ")" for c in self.cycles)
        return (
            f"backend finite-perm\np {self.p}\npoints {' '.join(map(str, self.points))}\n"
            f"weights {' '.join(frac(self.weights[x]) for x in self.points)}\n"
            f"gen {gen}\nset B {' '.join(str(x) for x in sorted(self.B))}\n"
        )


class RotModel:
    """x -> x + w * rho mod 1 on the circle; B a union of half-open arcs."""

    def __init__(self, rho: Fraction, arcs):
        self.rho, self.arcs = Fraction(rho), [(Fraction(a), Fraction(b)) for a, b in arcs]
        self.dom = Domain("rat")

    def _pieces(self, shift: Fraction):
        out = []
        for a, b in self.arcs:
            a2 = (a + shift) % 1
            b2 = a2 + (b - a)
            out += [(a2, b2)] if b2 <= 1 else [(a2, Fraction(1)), (Fraction(0), b2 - 1)]
        return out

    @staticmethod
    def _inside(pieces, x) -> bool:
        return any(a <= x < b for a, b in pieces)

    def mu(self) -> Fraction:
        return self.measure_both(Fraction(0))

    def measure_both(self, shift: Fraction) -> Fraction:
        """Length of B cap (B + shift), by splitting [0,1) at every endpoint."""
        base, moved = self._pieces(Fraction(0)), self._pieces(shift)
        cuts = sorted({Fraction(0), Fraction(1)} | {e for pc in base + moved for e in pc})
        total = Fraction(0)
        for lo, hi in zip(cuts, cuts[1:]):
            mid = (lo + hi) / 2
            if self._inside(base, mid) and self._inside(moved, mid):
                total += hi - lo
        return total

    def corr(self, w) -> Fraction:
        return self.measure_both(Fraction(w) * self.rho)

    def text(self) -> str:
        ends = " ".join(f"{frac(a)} {frac(b)}" for a, b in self.arcs)
        return f"backend rotation\nrho {frac(self.rho)}\n" + (f"set B {ends}\n" if ends else "")


class BernModel:
    """i.i.d. letters indexed by F_p[t]; B constrains finitely many
    coordinates to letter sets; the shift by w moves coordinate c to c + w."""

    def __init__(self, p: int, probs, constraints):
        self.p, self.probs = p, [Fraction(q) for q in probs]
        self.constraints = {tuple(c): frozenset(l) for c, l in constraints.items()}
        self.dom = Domain("poly", p)

    def _measure(self, table) -> Fraction:
        out = Fraction(1)
        for letters in table.values():
            out *= sum((self.probs[l] for l in letters), Fraction(0))
        return out

    def mu(self) -> Fraction:
        return self._measure(self.constraints)

    def corr(self, w) -> Fraction:
        table = {c: set(l) for c, l in self.constraints.items()}
        for c, letters in self.constraints.items():
            moved = self.dom.add(c, w)
            table[moved] = table[moved] & letters if moved in table else set(letters)
        return self._measure(table)

    def text(self) -> str:
        cyl = " ".join(
            self.dom.render(c) + ":" + ",".join(map(str, sorted(l)))
            for c, l in sorted(self.constraints.items())
        )
        return (
            f"backend bernoulli\np {self.p}\nprobs {' '.join(frac(q) for q in self.probs)}\n"
            f"set B {cyl}\n"
        )


def frac(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def expected_R(model, terms, eps: Fraction, window: str):
    """(window elements, R) from the model's own correlations."""
    elems = window_elements(model.dom, window)
    threshold = model.mu() ** 2 - eps
    return elems, {u for u in elems if model.corr(eval_phi(model.dom, terms, u)) > threshold}


# ---------------------------------------------------------------------------
# recurrence-side checkers


def check_R(dom: Domain, rendered_members, R) -> str | None:
    got = [dom.parse(t) for t in rendered_members]
    if len(set(got)) != len(got):
        return "R lists a member twice"
    if set(got) != set(R):
        extra = sorted(dom.render(x) for x in set(got) - set(R))
        missing = sorted(dom.render(x) for x in set(R) - set(got))
        return f"R differs: extra {extra[:3]} missing {missing[:3]}"
    if dom.zero not in set(got):
        return "0 is not in R"
    return None


def check_classification(dom: Domain, classification: dict, R, window_elems) -> str | None:
    """fails witnesses have finite sums that miss R and stay in the window;
    holds at r implies holds at every larger r."""
    members, ambient = set(R), set(window_elems)
    held = False
    for r in sorted(classification, key=int):
        v = classification[r]
        if v["kind"] == "holds":
            held = True
        elif v["kind"] == "fails":
            if held:
                return f"r={r}: fails after a lower r held"
            wit = [dom.parse(t) for t in v["witness"] or []]
            if len(wit) != int(r):
                return f"r={r}: witness has {len(wit)} generators"
            sums = finite_sums(dom, wit)
            if any(s in members for s in sums):
                return f"r={r}: a finite sum of the witness lies in R"
            if any(s not in ambient for s in sums):
                return f"r={r}: a finite sum of the witness leaves the window"
        else:
            return f"r={r}: verdict {v['kind']!r}"
    return None


def check_csv_rows(model, terms, eps, window, csv_text: str) -> str | None:
    """Per-element table: one row per window element with w = phi(u), the
    exact correlation of w, and in_R iff corr > mu^2 - eps."""
    dom = model.dom
    rows = list(csv.reader(ln for ln in csv_text.splitlines() if ln and not ln.startswith("#")))[1:]
    elems = window_elements(dom, window)
    if len(rows) != len(elems):
        return f"{len(rows)} rows for {len(elems)} window elements"
    want = sorted(dom.render(eval_phi(dom, terms, u)) for u in elems)
    if sorted(r[0] for r in rows) != want:
        return "the w column is not phi over the window"
    mu = model.mu()
    threshold = mu * mu - eps
    for w_text, mu_text, corr_text, thr_text, flag in rows:
        w = dom.parse(w_text)
        corr = model.corr(w)
        if Fraction(mu_text) != mu or Fraction(thr_text) != threshold:
            return "mu or threshold column is wrong"
        if Fraction(corr_text) != corr:
            return f"corr at w={w_text} is {corr_text}, expected {frac(corr)}"
        if (flag == "true") != (corr > threshold):
            return f"in_R wrong at w={w_text}"
    return None


def check_probe(dom: Domain, gens, R, stdout: str) -> str | None:
    fields = _fields(stdout)
    products = []
    for size in range(1, len(gens) + 1):
        for idx in combinations(range(len(gens)), size):
            val = dom.scalar(1)
            for i in idx:
                val = dom.mul(val, gens[i])
            products.append(dom.render(val))
    got = _split_items(fields.get("products", ""))
    if sorted(got) != sorted(products):
        return "products differ from the subset products of the generators"
    want_w = sorted(t for t in products if dom.parse(t) in R)
    if sorted(_split_items(fields.get("witnesses", ""))) != want_w:
        return "witnesses are not the products that lie in R"
    if fields.get("intersects") != ("true" if want_w else "false"):
        return "intersects flag is wrong"
    return None


def check_density(model, terms, N: int, stdout: str) -> str | None:
    """dlim at n = Cesaro mean of (corr - mu^2)^2 over the n-th averaging
    window; zero on the compact backends, recomputed on the product one."""
    fields = _fields(stdout)
    for n in range(1, N + 1):
        got = fields.get(f"N={n}")
        if got is None:
            return f"no value for N={n}"
        if isinstance(model, BernModel):
            mu2 = model.mu() ** 2
            win = window_elements(model.dom, f"deg {n}")
            vals = [(model.corr(eval_phi(model.dom, terms, v)) - mu2) ** 2 for v in win]
            want = sum(vals, Fraction(0)) / len(win)
        else:
            want = Fraction(0)
        if Fraction(got) != want:
            return f"dlim at N={n} is {got}, expected {frac(want)}"
    return None


def _fields(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        key, sep, rest = line.partition(":")
        if sep:
            out[key.strip()] = rest.strip()
    return out


def _split_items(text: str) -> list[str]:
    # polynomial renderings contain commas inside their brackets
    parts, depth, cur = [], 0, ""
    for ch in text:
        depth += ch == "["
        depth -= ch == "]"
        if ch == "," and depth == 0:
            parts.append(cur)
            cur = ""
        else:
            cur += ch
    if cur:
        parts.append(cur)
    return [p.strip() for p in parts if p.strip()]


# ---------------------------------------------------------------------------
# cover-search checker


def check_search(model, coeff: int, degree: int, x, eps: Fraction, gens, stdout: str) -> str | None:
    """Recompute u_gamma and the displacement from the generators; demand a
    witness whenever r reaches the pigeonhole length, which is recomputed."""
    fields = _fields(stdout)
    r = len(gens)
    q = model.p if isinstance(model, PermModel) else (Fraction(coeff) * model.rho).denominator
    if fields.get("sufficient length") != str(q):
        return f"pigeonhole length {fields.get('sufficient length')}, expected {q}"
    status = fields.get("status")
    if status == "absent":
        return f"no witness although r={r} >= {q}" if r >= q else None
    if status != "found":
        return f"status {status!r}"
    return _check_gamma(model, coeff, degree, x, eps, gens, fields)


def _check_gamma(model, coeff, degree, x, eps, gens, fields) -> str | None:
    dom = model.dom
    gamma = fields.get("gamma", "").strip("{}")
    try:
        idx = [int(t) for t in gamma.split(",") if t]
    except ValueError:
        return f"gamma {gamma!r} is not an index set"
    if not idx or any(not 1 <= i <= len(gens) for i in idx) or len(set(idx)) != len(idx):
        return f"gamma {{{gamma}}} is not a non-empty subset of 1..{len(gens)}"
    u = dom.zero
    for i in idx:
        u = dom.add(u, gens[i - 1])
    if fields.get("u_gamma") != dom.render(u):
        return f"u_gamma {fields.get('u_gamma')}, expected {dom.render(u)}"
    e = dom.mul(dom.scalar(coeff), dom.power(u, degree))
    if fields.get("exponents") != dom.render(e):
        return f"exponent {fields.get('exponents')}, expected {dom.render(e)}"
    if isinstance(model, RotModel):
        t = e * model.rho % 1  # a rotation moves every point by the same arc
        dist = min(t, 1 - t) ** 2
    else:
        moved = model.image(x, e)
        dist = model.mu(x) + model.mu(moved) - 2 * model.mu(x & moved)
    if Fraction(fields.get("distance_sq", "-1")) != dist:
        return f"distance_sq {fields.get('distance_sq')}, expected {frac(dist)}"
    if not dist < eps * eps:
        return f"distance_sq {frac(dist)} is not below epsilon^2"
    return None


# ---------------------------------------------------------------------------
# coloring-side checkers


def parse_coloring(cert_text: str):
    """(kind, params, coloring) from a counterexample certificate."""
    kind, params, coloring = None, {}, None
    for line in cert_text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        if key == "certificate":
            kind = rest.strip()
        elif key == "coloring":
            rest = rest.strip()
            coloring = tuple(int(c) for c in (rest.split(",") if "," in rest else rest))
        elif key != "leaf":
            params[key] = int(rest)
    return kind, params, coloring


def hj_lines(k: int, m: int):
    """Every combinatorial line of [k]^m as a tuple of k word indices
    (base k, first position most significant)."""
    for moving in product((False, True), repeat=m):
        if not any(moving):
            continue
        free = [i for i in range(m) if not moving[i]]
        for fixed in product(range(k), repeat=len(free)):
            letters = dict(zip(free, fixed))
            pts = []
            for a in range(k):
                idx = 0
                for i in range(m):
                    idx = idx * k + (a if moving[i] else letters[i])
                pts.append(idx)
            yield tuple(pts)


def check_hj_counterexample(k: int, t: int, m: int, coloring) -> str | None:
    if coloring is None or len(coloring) != k**m:
        return "coloring has the wrong length"
    if any(not 1 <= c <= t for c in coloring):
        return "coloring uses a colour outside 1..t"
    for pts in hj_lines(k, m):
        if len({coloring[i] for i in pts}) == 1:
            return f"monochromatic line {pts}"
    return None


def fu_families(r: int, s: int):
    """Every family of unions of s blocks a_1 < ... < a_s of {1..r}, as the
    tuple of union bitmasks."""
    subsets = [m for m in range(1, 1 << r)]

    def extend(blocks):
        if len(blocks) == s:
            yield blocks
            return
        low = blocks[-1].bit_length() if blocks else 0  # max element of the last block
        for m in subsets:
            if m & ((1 << low) - 1) == 0:
                yield from extend(blocks + [m])

    for blocks in extend([]):
        unions = []
        for sel in product((0, 1), repeat=s):
            if any(sel):
                u = 0
                for b, on in zip(blocks, sel):
                    u |= b if on else 0
                unions.append(u)
        yield tuple(unions)


def check_fu_counterexample(r: int, s: int, k: int, coloring) -> str | None:
    if coloring is None or len(coloring) != (1 << r) - 1:
        return "coloring has the wrong length"
    if any(not 1 <= c <= k for c in coloring):
        return "coloring uses a colour outside 1..k"
    for unions in fu_families(r, s):
        if len({coloring[u - 1] for u in unions}) == 1:
            return f"monochromatic union family {unions}"
    return None


def blocks_fs(N: int, r: int, A) -> bool:
    """Naive: no r generators from the complement of A in {1..N} have all
    their finite sums in the complement."""
    C = set(range(1, N + 1)) - set(A)
    for gens in product(sorted(C), repeat=r):
        sums = (sum(g for g, on in zip(gens, sel) if on) for sel in product((0, 1), repeat=r))
        if all(s in C for s in sums if s):
            return False
    return True


def check_fk(r: int, N: int, stdout: str) -> str | None:
    fields = _fields(stdout)
    dens_key = f"fk r={r} N={N}"
    dens_text = fields.get(dens_key, "").replace("minimum blocking density", "").strip()
    wit = fields.get("witness", "").strip("{}")
    try:
        dens = Fraction(dens_text)
        A = [int(t) for t in wit.split(",") if t]
    except ValueError:
        return "no density or witness printed"
    if any(not 1 <= a <= N for a in A) or len(set(A)) != len(A):
        return "witness is not a subset of 1..N"
    if dens != Fraction(len(A), N):
        return "density is not |witness| / N"
    if not blocks_fs(N, r, A):
        return "witness does not block"
    if r == 2 and abs(dens - Fraction(1, 2)) > Fraction(2, N):
        return f"r=2 density {dens_text} is not within 1/2 +- 2/N"
    return None
