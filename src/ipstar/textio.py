"""Line-oriented text formats shared by the CLI and the certificate tooling.

Canonical renderings (frozen; parsers accept exactly these):

* integers and prime-field elements: ``3``
* rationals: ``a/b``, or a bare integer when the denominator is 1
* polynomials over F_p: little-endian coefficient list ``[c0,c1,...]``;
  the zero polynomial is ``[]``
* vectors: ``(x,y)`` with component renderings; one-dimensional vectors
  render as the bare scalar
* index families: ``{1,3,4}`` ascending, ``{}`` when empty
* words: a digit string when the alphabet fits one digit, else
  comma-separated letters
* lines: ``fixed:{2:1} moving:{1,3}``
* subset configurations: ``alpha=[{1},{}] gamma={2}``

System description files and certificates are line oriented: ``#`` starts
a comment, blank lines are ignored, the first content line names the kind.
Certificates round-trip through ``parse_certificate`` and are replayed by
``check_certificate`` using only verification code paths.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    Integers,
    Monomial,
    PolyRing,
    PolynomialMap,
    PrimeField,
    Rationals,
    VectorSpace,
)
from .halesjewett import (
    Line,
    SubsetConfig,
    hj_check_cover,
    hj_coloring_is_counterexample,
)
from .ipsets import (
    ElementSet,
    fu_check_cover,
    fu_coloring_is_counterexample,
)
from .search import CoverLeaf
from .systems import BernoulliSystem, FinitePermSystem, RotationSystem


class TextFormatError(ValueError):
    """Malformed text for one of the documented formats."""


# ---------------------------------------------------------------------------
# scalars


def render_fraction(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def parse_fraction(text: str) -> Fraction:
    text = text.strip()
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise TextFormatError(f"zero denominator in {text!r}")
    except ValueError:
        raise TextFormatError(f"not a rational: {text!r}")


def _parse_int(text: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise TextFormatError(f"not an integer: {text!r}")


# ---------------------------------------------------------------------------
# ring and group elements


def render_element(group, x) -> str:
    if isinstance(group, VectorSpace):
        if group.dim == 1:
            return render_element(group.ring, x[0])
        return "(" + ",".join(render_element(group.ring, c) for c in x) + ")"
    if isinstance(group, PolyRing):
        return "[" + ",".join(str(c) for c in x) + "]"
    if isinstance(group, Rationals):
        return render_fraction(x)
    return str(x)


def _split_top(text: str, sep: str) -> list[str]:
    # split only at depth zero of [], () and {}
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "[({":
            depth += 1
        elif ch in "])}":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def parse_element(group, text: str):
    text = text.strip()
    if isinstance(group, VectorSpace):
        if text.startswith("(") and text.endswith(")"):
            coords = [parse_element(group.ring, p) for p in _split_top(text[1:-1], ",")]
        elif group.dim == 1:
            coords = [parse_element(group.ring, text)]
        else:
            raise TextFormatError(f"expected a coordinate tuple, got {text!r}")
        if len(coords) != group.dim:
            raise TextFormatError(f"expected {group.dim} coordinates in {text!r}")
        return group.element(coords)
    if isinstance(group, PolyRing):
        if not (text.startswith("[") and text.endswith("]")):
            raise TextFormatError(f"expected a coefficient list, got {text!r}")
        body = text[1:-1].strip()
        coeffs = () if not body else tuple(_parse_int(t) for t in body.split(","))
        return group.element(coeffs)
    if isinstance(group, Rationals):
        return parse_fraction(text)
    if isinstance(group, (PrimeField, Integers)):
        return group.element(_parse_int(text))
    raise TextFormatError(f"no element format for {group}")


def _sort_key(group, x):
    """Deterministic order for rendering sets of elements one per line."""
    if isinstance(group, VectorSpace):
        return tuple(_sort_key(group.ring, c) for c in x)
    if isinstance(group, PolyRing):
        return (len(x), x)
    return x


def render_element_lines(group, elements) -> str:
    return "".join(render_element(group, x) + "\n" for x in elements)


def render_element_set(es: ElementSet) -> str:
    members = sorted(es.members, key=lambda x: _sort_key(es.group, x))
    return render_element_lines(es.group, members)


def parse_element_lines(group, text: str) -> list:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(parse_element(group, line))
    return out


# ---------------------------------------------------------------------------
# families, words, lines, configurations


def render_family(alpha) -> str:
    return "{" + ",".join(str(i) for i in sorted(alpha)) + "}"


def parse_family(text: str) -> frozenset:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise TextFormatError(f"expected an index family, got {text!r}")
    body = text[1:-1].strip()
    return frozenset() if not body else frozenset(_parse_int(t) for t in body.split(","))


def render_word(w, k: int) -> str:
    if k <= 9:
        return "".join(str(letter) for letter in w)
    return ",".join(str(letter) for letter in w)


def parse_word(text: str) -> tuple[int, ...]:
    text = text.strip()
    if "," in text:
        return tuple(_parse_int(t) for t in text.split(","))
    if not text.isdigit():
        raise TextFormatError(f"not a word: {text!r}")
    return tuple(int(ch) for ch in text)


def render_line(L: Line) -> str:
    fixed = ",".join(f"{p}:{v}" for p, v in L.fixed)
    return "fixed:{" + fixed + "} moving:" + render_family(L.moving)


def parse_line(text: str) -> Line:
    try:
        fixed_part, moving_part = text.strip().split(" moving:")
    except ValueError:
        raise TextFormatError(f"not a line: {text!r}")
    if not (fixed_part.startswith("fixed:{") and fixed_part.endswith("}")):
        raise TextFormatError(f"not a line: {text!r}")
    body = fixed_part[len("fixed:{") : -1].strip()
    fixed = []
    if body:
        for entry in body.split(","):
            try:
                p, v = entry.split(":")
            except ValueError:
                raise TextFormatError(f"bad fixed entry {entry!r}")
            fixed.append((_parse_int(p), _parse_int(v)))
    moving = parse_family(moving_part)
    try:
        return Line(len(fixed) + len(moving), tuple(fixed), moving)
    except ValueError as exc:
        raise TextFormatError(str(exc))


def render_subset_config(cfg: SubsetConfig) -> str:
    alphas = ",".join(render_family(a) for a in cfg.base)
    return f"alpha=[{alphas}] gamma=" + render_family(cfg.mover)


def parse_subset_config(text: str) -> SubsetConfig:
    try:
        alpha_part, gamma_part = text.strip().split(" gamma=")
    except ValueError:
        raise TextFormatError(f"not a configuration: {text!r}")
    if not (alpha_part.startswith("alpha=[") and alpha_part.endswith("]")):
        raise TextFormatError(f"not a configuration: {text!r}")
    body = alpha_part[len("alpha=[") : -1].strip()
    base = tuple(parse_family(t) for t in _split_top(body, ",")) if body else ()
    try:
        return SubsetConfig(base, parse_family(gamma_part))
    except ValueError as exc:
        raise TextFormatError(str(exc))


# ---------------------------------------------------------------------------
# monomials and polynomial maps
#
# term grammar: [coeff *] variable factors [* weight], factors like u, u^2,
# x1, x2^3; terms joined by +.  The weight is a target vector like (1,0) and
# is required exactly when the target is a vector space.  Constant terms are
# rejected (the maps always send 0 to 0).

_VAR_RE = re.compile(r"^(u|x([1-9][0-9]*))(?:\^([0-9]+))?$")


def _poly_pieces(text: str) -> list[list[str]]:
    terms = []
    for t in _split_top(text, "+"):
        t = t.strip()
        if not t:
            raise TextFormatError(f"empty term in {text!r}")
        factors = [f.strip() for f in _split_top(t, "*")]
        if any(not f for f in factors):
            raise TextFormatError(f"empty factor in term {t!r}")
        terms.append(factors)
    return terms


def _poly_arity(terms) -> int:
    n = 1
    for factors in terms:
        for f in factors:
            mv = _VAR_RE.match(f)
            if mv and mv.group(2):
                n = max(n, int(mv.group(2)))
    return n


def _build_term(ring, n: int, target, factors):
    coeff = ring.one
    exps = [0] * n
    weight = None
    saw_var = False
    for i, f in enumerate(factors):
        mv = _VAR_RE.match(f)
        if mv:
            name, idx_text, exp_text = mv.groups()
            if name == "u" and n != 1:
                raise TextFormatError("'u' names the only variable; use x1..xn here")
            idx = 1 if name == "u" else int(idx_text)
            exps[idx - 1] += int(exp_text) if exp_text else 1
            saw_var = True
        elif i == 0:
            coeff = parse_element(ring, f)
        elif isinstance(target, VectorSpace) and i == len(factors) - 1 and weight is None:
            weight = parse_element(target, f)
        else:
            raise TextFormatError(f"unexpected factor {f!r}")
    if not saw_var:
        raise TextFormatError(f"term {'*'.join(factors)!r} has no variable; constant terms are not supported")
    return Monomial(ring, coeff, tuple(exps)), weight


def parse_monomial(ring, text: str) -> Monomial:
    """One product term; the variable count is the largest index mentioned."""
    terms = _poly_pieces(text)
    if len(terms) != 1:
        raise TextFormatError(f"expected a single term, got {text!r}")
    m, weight = _build_term(ring, _poly_arity(terms), None, terms[0])
    if weight is not None:
        raise TextFormatError("a bare monomial takes no target weight")
    return m


def parse_poly_map(ring, target, text: str) -> PolynomialMap:
    """Sum of terms mapping ring^n into the target group, n inferred."""
    terms = _poly_pieces(text)
    n = _poly_arity(terms)
    built = []
    for factors in terms:
        m, weight = _build_term(ring, n, target, factors)
        if isinstance(target, VectorSpace):
            if weight is None:
                raise TextFormatError(
                    f"term {'*'.join(factors)!r} needs a target weight like (1,0)"
                )
            built.append((m, weight))
        else:
            built.append((m, target.one))
    return PolynomialMap(ring, n, target, tuple(built))


def render_poly_map(phi: PolynomialMap) -> str:
    """The terms as ``parse_poly_map`` reads them: a vector target's weight
    closes each term, a scalar target's weight (always one) is left out."""
    parts = []
    for m, w in phi.terms:
        factors = [] if m.coeff == m.ring.one else [render_element(m.ring, m.coeff)]
        for k, e in enumerate(m.exponents):
            name = "u" if m.n == 1 else f"x{k + 1}"
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if isinstance(phi.target, VectorSpace):
            factors.append(render_element(phi.target, w))
        parts.append("*".join(factors))
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# system description files


def _content_lines(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


def _parse_label(token: str):
    return int(token) if token.lstrip("-").isdigit() else token


def _parse_cycles(no: int, text: str, points) -> dict:
    """One-line cycle notation over the given point labels; omitted points
    stay fixed.  ``()`` is the identity."""
    perm = {x: x for x in points}
    pool = set(points)
    depth = 0
    cycles, cur = [], []
    for ch in text:
        if ch == "(":
            if depth:
                raise TextFormatError(f"line {no}: nested parenthesis in cycles")
            depth, cur = 1, []
        elif ch == ")":
            if not depth:
                raise TextFormatError(f"line {no}: unbalanced parenthesis in cycles")
            depth = 0
            cycles.append([_parse_label(t) for t in "".join(cur).split()])
        elif depth:
            cur.append(ch)
        elif not ch.isspace():
            raise TextFormatError(f"line {no}: cycles must be parenthesized")
    if depth:
        raise TextFormatError(f"line {no}: unbalanced parenthesis in cycles")
    seen = set()
    for cycle in cycles:
        for x in cycle:
            if x not in pool:
                raise TextFormatError(f"line {no}: unknown point {x!r} in cycle")
            if x in seen:
                raise TextFormatError(f"line {no}: point {x!r} repeated across cycles")
            seen.add(x)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            perm[a] = b
    return perm


def _render_cycles(perm: dict, points) -> str:
    index = {x: i for i, x in enumerate(points)}
    seen = set()
    cycles = []
    for x in points:
        if x in seen or perm[x] == x:
            seen.add(x)
            continue
        cycle, cur = [], x
        while cur not in seen:
            seen.add(cur)
            cycle.append(cur)
            cur = perm[cur]
        cycles.append(cycle)
    if not cycles:
        return "()"
    cycles.sort(key=lambda c: index[c[0]])
    return "".join("(" + " ".join(str(v) for v in c) + ")" for c in cycles)


def parse_system_text(text: str):
    """Build a measure system plus its named events from a description file.

    Returns (system, {name: event}).  Raises TextFormatError with the line
    number on the first problem.
    """
    backend = None
    fields: dict = {}
    gen_lines: list = []
    set_lines: list = []
    for no, line in _content_lines(text):
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if backend is None:
            if key != "backend":
                raise TextFormatError(f"line {no}: expected 'backend', got {key!r}")
            if rest not in ("finite-perm", "rotation", "bernoulli"):
                raise TextFormatError(f"line {no}: unknown backend {rest!r}")
            backend = rest
        elif key == "set":
            name, _, body = rest.partition(" ")
            if not name:
                raise TextFormatError(f"line {no}: set needs a name")
            set_lines.append((no, name, body.strip()))
        elif key == "gen":
            gen_lines.append((no, rest))
        elif key in ("p", "points", "weights", "rho", "probs"):
            if key in fields:
                raise TextFormatError(f"line {no}: duplicate {key!r}")
            fields[key] = (no, rest)
        else:
            raise TextFormatError(f"line {no}: unknown key {key!r}")
    if backend is None:
        raise TextFormatError("line 1: empty system description")

    def need(key):
        if key not in fields:
            raise TextFormatError(f"missing required key {key!r} for {backend}")
        return fields[key]

    try:
        if backend == "finite-perm":
            no_p, p_text = need("p")
            p = _parse_int(p_text)
            no_pts, pts_text = need("points")
            points = [_parse_label(t) for t in pts_text.split()]
            if "weights" in fields:
                no_w, w_text = fields["weights"]
                parts = w_text.split()
                if len(parts) != len(points):
                    raise TextFormatError(f"line {no_w}: need one weight per point")
                weights = {x: parse_fraction(t) for x, t in zip(points, parts)}
            else:
                weights = {x: Fraction(1, len(points)) for x in points}
            gens = [_parse_cycles(no, txt, points) for no, txt in gen_lines]
            if not gens:
                raise TextFormatError("finite-perm needs at least one gen line")
            sys = FinitePermSystem(p, points, weights, gens)
        elif backend == "rotation":
            no_r, r_text = need("rho")
            rhos = [parse_fraction(t) for t in r_text.split()]
            sys = RotationSystem(rhos[0] if len(rhos) == 1 else tuple(rhos))
        else:
            no_p, p_text = need("p")
            p = _parse_int(p_text)
            no_q, q_text = need("probs")
            sys = BernoulliSystem(p, [parse_fraction(t) for t in q_text.split()])
    except TextFormatError:
        raise
    except ValueError as exc:
        raise TextFormatError(str(exc))

    events = {}
    for no, name, body in set_lines:
        try:
            events[name] = _parse_event(sys, no, body)
        except TextFormatError:
            raise
        except ValueError as exc:
            raise TextFormatError(f"line {no}: {exc}")
    return sys, events


def _parse_event(sys, no: int, body: str):
    if isinstance(sys, FinitePermSystem):
        return sys.event(_parse_label(t) for t in body.split())
    if isinstance(sys, RotationSystem):
        parts = body.split()
        if len(parts) % 2:
            raise TextFormatError(f"line {no}: intervals need endpoint pairs")
        pairs = [
            (parse_fraction(a), parse_fraction(b))
            for a, b in zip(parts[::2], parts[1::2])
        ]
        return sys.event(pairs)
    constraints = {}
    for entry in body.split():
        coord_text, sep, letters_text = entry.rpartition(":")
        if not sep:
            raise TextFormatError(f"line {no}: cylinder entry {entry!r} needs coord:letters")
        coord = parse_element(sys.ring, coord_text)
        letters = {_parse_int(t) for t in letters_text.split(",")}
        constraints[coord] = letters
    return sys.event(constraints)


def render_system_text(sys, events: dict | None = None) -> str:
    out = [f"backend {sys.label}"]
    if isinstance(sys, FinitePermSystem):
        out.append(f"p {sys.p}")
        out.append("points " + " ".join(str(x) for x in sys.points))
        out.append("weights " + " ".join(render_fraction(sys.weights[x]) for x in sys.points))
        for g in sys.gens:
            out.append("gen " + _render_cycles(g, sys.points))
    elif isinstance(sys, RotationSystem):
        out.append("rho " + " ".join(render_fraction(q) for q in sys.rhos))
    else:
        out.append(f"p {sys.p}")
        out.append("probs " + " ".join(render_fraction(q) for q in sys.base))
    for name in sorted(events or {}):
        out.append(f"set {name} " + _render_event(sys, events[name]))
    return "\n".join(out) + "\n"


def _render_event(sys, event) -> str:
    if isinstance(sys, FinitePermSystem):
        index = {x: i for i, x in enumerate(sys.points)}
        return " ".join(str(x) for x in sorted(event, key=index.__getitem__))
    if isinstance(sys, RotationSystem):
        return " ".join(
            f"{render_fraction(a)} {render_fraction(b)}" for a, b in event.pieces
        )
    return " ".join(
        render_element(sys.ring, coord) + ":" + ",".join(str(l) for l in sorted(letters))
        for coord, letters in event.constraints.items()
    )


def describe_system(sys) -> str:
    if isinstance(sys, FinitePermSystem):
        return f"finite-perm p={sys.p} points={len(sys.points)} gens={sys.n}"
    if isinstance(sys, RotationSystem):
        if sys.n == 1:
            return f"rotation rho={render_fraction(sys.rho)}"
        return "rotation rho=(" + ",".join(render_fraction(q) for q in sys.rhos) + ")"
    return f"bernoulli p={sys.p} probs=" + ",".join(render_fraction(q) for q in sys.base)


# ---------------------------------------------------------------------------
# certificates

_ENUMERATION_NOTES = {
    "hj": "# positions: words over the alphabet 1..k of length m, lexicographic, leftmost most significant",
    "fu": "# positions: non-empty subsets of {1..r} by ascending bitmask",
}

_CERT_PARAMS = {
    "hj-counterexample": ("k", "t", "m"),
    "hj-cover": ("k", "t", "m"),
    "fu-counterexample": ("r", "s", "k"),
    "fu-cover": ("r", "s", "k"),
}


@dataclass(frozen=True)
class Certificate:
    kind: str
    params: tuple  # ((name, int), ...) in the kind's canonical order
    coloring: tuple[int, ...] | None  # counterexample kinds
    leaves: tuple | None  # CoverLeaf sequence, cover kinds

    def param(self, name: str) -> int:
        return dict(self.params)[name]


def _render_colors(colors, n_colors: int) -> str:
    if n_colors <= 9:
        return "".join(str(c) for c in colors)
    return ",".join(str(c) for c in colors)


def _witness_to_text(kind: str, witness) -> str:
    if kind.startswith("hj"):
        return ",".join(str(i) for i in witness)
    return ";".join(render_family(b) for b in witness)


def _witness_from_text(kind: str, text: str):
    if kind.startswith("hj"):
        return tuple(_parse_int(t) for t in text.split(","))
    return tuple(parse_family(t) for t in text.split(";"))


def render_certificate(cert: Certificate) -> str:
    n_colors = cert.param("t") if cert.kind.startswith("hj") else cert.param("k")
    out = [f"certificate {cert.kind}", _ENUMERATION_NOTES[cert.kind[:2]]]
    out.extend(f"{name} {value}" for name, value in cert.params)
    if cert.coloring is not None:
        out.append("coloring " + _render_colors(cert.coloring, n_colors))
    for leaf in cert.leaves or ():
        out.append(
            "leaf "
            + _render_colors(leaf.prefix, n_colors)
            + " "
            + _witness_to_text(cert.kind, leaf.witness)
        )
    return "\n".join(out) + "\n"


def parse_certificate(text: str) -> Certificate:
    kind = None
    params = {}
    coloring = None
    leaves = []
    for no, line in _content_lines(text):
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if kind is None:
            if key != "certificate":
                raise TextFormatError(f"line {no}: expected 'certificate', got {key!r}")
            if rest not in _CERT_PARAMS:
                raise TextFormatError(f"line {no}: unknown certificate kind {rest!r}")
            kind = rest
        elif key in _CERT_PARAMS[kind]:
            params[key] = _parse_int(rest)
            if params[key] < 1:
                raise TextFormatError(f"line {no}: {key} must be at least 1, got {rest!r}")
        elif key == "coloring":
            coloring = parse_word(rest)
        elif key == "leaf":
            prefix_text, _, witness_text = rest.partition(" ")
            if not witness_text:
                raise TextFormatError(f"line {no}: leaf needs a prefix and a witness")
            leaves.append(
                CoverLeaf(parse_word(prefix_text), _witness_from_text(kind, witness_text))
            )
        else:
            raise TextFormatError(f"line {no}: unknown key {key!r}")
    if kind is None:
        raise TextFormatError("line 1: empty certificate")
    missing = [n for n in _CERT_PARAMS[kind] if n not in params]
    if missing:
        raise TextFormatError(f"missing certificate parameters: {', '.join(missing)}")
    if kind.endswith("counterexample") and coloring is None:
        raise TextFormatError("counterexample certificate needs a coloring line")
    return Certificate(
        kind,
        tuple((n, params[n]) for n in _CERT_PARAMS[kind]),
        coloring,
        tuple(leaves) if leaves else None,
    )


def check_certificate(cert: Certificate) -> bool:
    """Replay a certificate using verification-only code paths."""
    values = [v for _name, v in cert.params]
    hj = cert.kind.startswith("hj")
    if cert.kind.endswith("cover"):
        check_cover = hj_check_cover if hj else fu_check_cover
        return check_cover(*values, cert.leaves or ())
    is_counterexample = hj_coloring_is_counterexample if hj else fu_coloring_is_counterexample
    return cert.coloring is not None and is_counterexample(*values, cert.coloring)


def coloring_certificate(family: str, values, outcome) -> Certificate:
    """The certificate of a decided coloring claim: ``family`` is "hj" or
    "fu", ``values`` maps each of the family's parameters to its value."""
    if outcome.kind == "budget_exceeded":
        raise TextFormatError("budget-exceeded outcomes carry no certificate")
    kind = f"{family}-cover" if outcome.kind == "all-colorings-ok" else f"{family}-counterexample"
    params = tuple((name, values[name]) for name in _CERT_PARAMS[kind])
    return Certificate(kind, params, outcome.coloring, outcome.cover)


# ---------------------------------------------------------------------------
# recurrence reports


def report_tree(report, *, generated: str | None = None) -> dict:
    """The stable-schema report: key names and order are frozen."""
    tree: dict = {}
    if generated is not None:
        tree["generated"] = generated
    tree["system"] = describe_system(report.system)
    tree["phi"] = render_poly_map(report.phi)
    tree["epsilon"] = render_fraction(report.epsilon)
    tree["R"] = {
        "members": [
            render_element(report.domain, u)
            for u in report.elements
            if u in report.R.members
        ],
        "exact": report.R.exact,
    }
    tree["classification"] = {
        str(r): {
            "kind": v.kind,
            "window_limited": v.window_limited,
            "witness": None
            if v.witness is None
            else [render_element(report.domain, g) for g in v.witness],
        }
        for r, v in sorted(report.classification.items())
    }
    witness = None
    for r in sorted(report.classification):
        v = report.classification[r]
        if v.kind == "fails" and v.witness is not None:
            witness = [render_element(report.domain, g) for g in v.witness]
            break
    tree["witness"] = witness
    if report.exceptional_density is None:
        tree["exceptional_density"] = None
    else:
        tree["exceptional_density"] = {
            str(n): render_fraction(val)
            for n, val in enumerate(report.exceptional_density.values, start=1)
        }
    tree["bounds"] = {"khintchine": render_fraction(report.khintchine)}
    return tree


def render_report_json(tree: dict) -> str:
    return json.dumps(tree, indent=2) + "\n"


def render_recurrence_csv(report, *, generated: str | None = None) -> str:
    out = io.StringIO()
    if generated is not None:
        out.write(f"# generated: {generated}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["w", "mu_B", "corr", "threshold", "in_R"])
    acting = report.system.acting
    for _u, w, corr, hit in report.rows:
        writer.writerow(
            [
                render_element(acting, w),
                render_fraction(report.mu),
                render_fraction(corr),
                render_fraction(report.threshold),
                "true" if hit else "false",
            ]
        )
    return out.getvalue()
