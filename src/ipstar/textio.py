"""Line-oriented text formats shared by the CLI and the certificate tooling.

Canonical renderings (frozen; parsers accept exactly these):

* prime-field elements: ``3``
* rationals: ``a/b``, or a bare integer when the denominator is 1
* polynomials over F_p: little-endian coefficient list ``[c0,c1,...]``;
  the zero polynomial is ``[]``
* vectors: ``(x,y)`` with component renderings; one-dimensional vectors
  render as the bare scalar
* index families: ``{1,3,4}`` ascending, ``{}`` when empty
* words: a digit string when the alphabet fits one digit, else
  comma-separated letters
* subset configurations, rendered only: ``alpha=[{1},{}] gamma={2}``

System description files, certificates and checkpoints are read by one
record reader, ``_records``: ``#`` starts a comment, blank lines are
ignored, the first content line is ``backend|certificate|checkpoint
<kind>`` and each later line is ``key rest``.  Each kind names the keys it
takes once and the keys that may repeat; a second line of a single key, or
a key the kind does not take, is refused with its line number.
Certificates round-trip through ``parse_certificate`` and are replayed by
``check_certificate`` using only verification code paths; ``_FAMILIES``
holds all that differs between the hj and fu certificate families.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from fractions import Fraction
from functools import cache
from itertools import compress
from operator import add

from .algebra import (
    Monomial,
    PolyRing,
    PolynomialMap,
    PrimeField,
    Rationals,
    VectorSpace,
)
from .halesjewett import (
    SubsetConfig,
    hj_check_cover,
    hj_coloring_is_counterexample,
)
from .ipsets import (
    fu_check_cover,
    fu_coloring_is_counterexample,
)
from .search import CoverLeaf, LeafLog
from .systems import BernoulliSystem, FinitePermSystem, RotationSystem


class TextFormatError(ValueError):
    """Malformed text for one of the documented formats."""


# ---------------------------------------------------------------------------
# scalars


def render_fraction(q) -> str:
    q = q if isinstance(q, Fraction) else Fraction(q)
    return _render_pair((q.numerator, q.denominator))


def _render_pair(q) -> str:
    """The text of a rational given as its (numerator, denominator) pair in
    lowest terms."""
    return str(q[0]) if q[1] == 1 else f"{q[0]}/{q[1]}"


# an exponent of Fraction's text form, which it reads by building 10^e in full
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\Z", re.IGNORECASE)
_MAX_EXPONENT = 4300  # Python's limit on the digits of an int read from text


def parse_fraction(text: str) -> Fraction:
    text = text.strip()
    num, slash, den = text.partition("/")
    try:
        # plain a, -a and a/b in ASCII digits skip Fraction's text parser
        if text.isascii() and num.removeprefix("-").isdigit() and (den.isdigit() or not slash):
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
        exponent = _EXPONENT.search(text)
        # too large an exponent is refused unbuilt, once the text before it reads
        big = exponent is not None and abs(int(exponent[1])) > _MAX_EXPONENT
        q = Fraction(text[: exponent.start()] + "e0" if big else text)
    except ZeroDivisionError:
        raise TextFormatError(f"zero denominator in {text!r}")
    except ValueError:
        raise TextFormatError(f"not a rational: {text!r}")
    if big:
        raise TextFormatError(f"exponent above {_MAX_EXPONENT} in {text!r}")
    return q


def _parse_int(text: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise TextFormatError(f"not an integer: {text!r}")


# ---------------------------------------------------------------------------
# ring and group elements


def _renderer(group, rational):
    # the group's type is resolved once: one plain function per group
    if isinstance(group, VectorSpace):
        coord = _renderer(group.ring, rational)
        if group.dim == 1:
            return lambda x: coord(x[0])
        return lambda x: "(" + ",".join(map(coord, x)) + ")"
    if isinstance(group, PolyRing):
        coeff = cache(str)  # each coefficient's text once per renderer
        return lambda x: "[" + ",".join(map(coeff, x)) + "]"
    if isinstance(group, Rationals):
        return rational
    return str


def element_renderer(group):
    """x -> the canonical text of x, for elements of group."""
    return _renderer(group, render_fraction)


def column_renderer(group):
    """The canonical text of an entry of a return-set report's column
    (``RecurrenceReport``), where each rational coordinate is its
    (numerator, denominator) pair in lowest terms: the same text as
    ``element_renderer`` gives the entry's element."""
    return _renderer(group, _render_pair)


def render_element(group, x) -> str:
    return element_renderer(group)(x)


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
    if isinstance(group, PrimeField):
        return group.element(_parse_int(text))
    raise TextFormatError(f"no element format for {group}")


# ---------------------------------------------------------------------------
# families, words, configurations


def render_family(alpha) -> str:
    return "{" + ",".join(str(i) for i in sorted(alpha)) + "}"


def parse_family(text: str) -> frozenset:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise TextFormatError(f"expected an index family, got {text!r}")
    body = text[1:-1].strip()
    return frozenset() if not body else frozenset(_parse_int(t) for t in body.split(","))


# k <= 9: one digit per letter, mapped in C; a letter past 9 becomes 0xff, which ASCII refuses
_DIGIT_OF = b"0123456789" + b"\xff" * 246
_LETTER_OF = bytes.maketrans(b"0123456789", bytes(range(10)))


def render_word(w, k: int) -> str:
    if k <= 9:
        return bytes(w).translate(_DIGIT_OF).decode("ascii")
    return ",".join(map(str, w))


def parse_word(text: str) -> tuple[int, ...]:
    text = text.strip()
    if "," in text:
        return tuple(_parse_int(t) for t in text.split(","))
    if not (text.isascii() and text.isdigit()):  # str.isdigit alone accepts "²"
        raise TextFormatError(f"not a word: {text!r}")
    return tuple(text.encode().translate(_LETTER_OF))


def render_subset_config(cfg: SubsetConfig) -> str:
    alphas = ",".join(render_family(a) for a in cfg.base)
    return f"alpha=[{alphas}] gamma=" + render_family(cfg.mover)


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
    return _build_term(ring, _poly_arity(terms), None, terms[0])[0]  # no target, no weight


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
# keyed-line files: system descriptions, certificates, checkpoints


def _content_lines(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


def _records(text: str, head: str, noun: str, keys_of):
    """The keyed lines of a system file, certificate or checkpoint.

    The first content line is ``<head> <kind>``; each later line is a key,
    then the rest of the line.  ``keys_of(kind)`` gives the kind's (single
    keys, repeated keys), with None for single keys when the kind takes any
    key, or None for a kind that does not exist (``noun`` names the kind in
    that refusal).  Returns (kind, fields): the head and each single key map
    to their (line number, rest), and each repeated key to the list of its
    lines' pairs.  A second line of a single key, and a key the kind does
    not take, are refused with the line's number.
    """
    lines = _content_lines(text)
    no, line = next(lines, (1, ""))
    key, _, kind = line.partition(" ")
    kind = kind.strip()
    if key != head:
        raise TextFormatError(f"line {no}: expected {head!r}, got {key!r}")
    keys = keys_of(kind)
    if keys is None:
        raise TextFormatError(f"line {no}: unknown {noun} {kind!r}")
    single, repeated = keys
    fields = {head: (no, kind), **{name: [] for name in repeated}}
    for no, line in lines:
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key in repeated:
            fields[key].append((no, rest))
        elif key in fields:
            raise TextFormatError(f"line {no}: duplicate {key!r}")
        elif single is None or key in single:
            fields[key] = (no, rest)
        else:
            raise TextFormatError(f"line {no}: unknown key {key!r} for {kind}")
    return kind, fields


# ---------------------------------------------------------------------------
# system description files


def _parse_label(token: str):
    """ASCII digits with at most one leading minus are an int label; any
    other token is a string label."""
    digits = token[1:] if token.startswith("-") else token
    return int(token) if digits.isascii() and digits.isdigit() else token


def _parse_cycles(no: int, text: str, points, label) -> dict:
    """One-line cycle notation over the given point labels; omitted points
    stay fixed.  ``()`` is the identity."""
    perm = {x: x for x in points}
    pool = set(points)
    cycles = []
    rest = text
    while True:
        outside, opened, rest = rest.partition("(")
        stray = outside.lstrip()
        if stray:
            if stray[0] == ")":
                raise TextFormatError(f"line {no}: unbalanced parenthesis in cycles")
            raise TextFormatError(f"line {no}: cycles must be parenthesized")
        if not opened:
            break
        inside, closed, rest = rest.partition(")")
        if "(" in inside:
            raise TextFormatError(f"line {no}: nested parenthesis in cycles")
        if not closed:
            raise TextFormatError(f"line {no}: unbalanced parenthesis in cycles")
        cycles.append(list(map(label, inside.split())))
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


# each backend's (single keys, repeated keys)
_SYSTEM_KEYS = {
    "finite-perm": (("p", "points", "weights"), ("gen", "set")),
    "rotation": (("rho",), ("set",)),
    "bernoulli": (("p", "probs"), ("set",)),
}


def parse_system_text(text: str):
    """Build a measure system plus its named events from a description file.

    Returns (system, {name: event}).  Raises TextFormatError with the line
    number on the first problem.
    """
    backend, fields = _records(text, "backend", "backend", _SYSTEM_KEYS.get)
    set_lines: dict = {}  # name -> (line number, body)
    for no, rest in fields["set"]:
        name, _, body = rest.partition(" ")
        if not name:
            raise TextFormatError(f"line {no}: set needs a name")
        if name in set_lines:
            raise TextFormatError(f"line {no}: duplicate set {name!r}")
        set_lines[name] = (no, body.strip())

    def need(key):
        if key not in fields:
            raise TextFormatError(f"missing required key {key!r} for {backend}")
        return fields[key][1]

    # the point labels recur in the gen and set lines: each token is read once
    label = cache(_parse_label)
    try:
        if backend == "finite-perm":
            p = _parse_int(need("p"))
            points = list(map(label, need("points").split()))
            if not points:
                raise TextFormatError(f"line {fields['points'][0]}: points needs at least one point")
            if "weights" in fields:
                no_w, w_text = fields["weights"]
                parts = w_text.split()
                if len(parts) != len(points):
                    raise TextFormatError(f"line {no_w}: need one weight per point")
                # each distinct token parsed once, in line order
                weights = dict(zip(points, map(cache(parse_fraction), parts)))
            else:
                weights = dict.fromkeys(points, Fraction(1, len(points)))
            gens = [_parse_cycles(no, txt, points, label) for no, txt in fields["gen"]]
            if not gens:
                raise TextFormatError("finite-perm needs at least one gen line")
            sys = FinitePermSystem(p, points, weights, gens)
        elif backend == "rotation":
            rhos = [parse_fraction(t) for t in need("rho").split()]
            sys = RotationSystem(rhos[0] if len(rhos) == 1 else tuple(rhos))
        else:
            p = _parse_int(need("p"))
            sys = BernoulliSystem(p, [parse_fraction(t) for t in need("probs").split()])
    except TextFormatError:
        raise
    except ValueError as exc:
        raise TextFormatError(str(exc))

    events = {}
    for name, (no, body) in set_lines.items():
        try:
            events[name] = _parse_event(sys, no, body, label)
        except TextFormatError:
            raise
        except ValueError as exc:
            raise TextFormatError(f"line {no}: {exc}")
    return sys, events


def _parse_event(sys, no: int, body: str, label):
    if isinstance(sys, FinitePermSystem):
        return sys.event(map(label, body.split()))
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

Certificate = namedtuple("Certificate", [
    "kind",
    "params",  # ((name, int), ...) in the kind's canonical order
    "coloring",  # counterexample kinds
    "leaves",  # a LeafLog, cover kinds; any sequence of CoverLeaf renders and checks
])

# per certificate family: its parameters in canonical order, the one that
# counts the colours, the comment saying how a coloring's positions are
# listed, the text of one edge a leaf's witness names and its parser, and the
# verification-only replays of a cover's leaves and of a counterexample's
# coloring
_Family = namedtuple("_Family", "params colors note reason_text parse_reason check_cover is_counterexample")

# a certificate kind is "<family>-cover" or "<family>-counterexample"; the
# checks are looked up at call time, so a wrapper bound to their module
# names (as perfbench's tracer binds) is the one called
_FAMILIES = {
    "hj": _Family(
        ("k", "t", "m"), "t",
        "# positions: words over the alphabet 1..k of length m, lexicographic, leftmost most significant",
        lambda line: ",".join(map(str, line)),
        lambda text: tuple(_parse_int(t) for t in text.split(",")),
        lambda *args: hj_check_cover(*args),
        lambda *args: hj_coloring_is_counterexample(*args),
    ),
    "fu": _Family(
        ("r", "s", "k"), "k",
        "# positions: non-empty subsets of {1..r} by ascending bitmask",
        lambda blocks: ";".join(map(render_family, blocks)),
        lambda text: tuple(parse_family(t) for t in text.split(";")),
        lambda *args: fu_check_cover(*args),
        lambda *args: fu_coloring_is_counterexample(*args),
    ),
}


def _certificate_keys(kind: str):
    family, _, shape = kind.partition("-")
    if family not in _FAMILIES or shape not in ("cover", "counterexample"):
        return None
    params = _FAMILIES[family].params
    return (params, ("leaf",)) if shape == "cover" else ((*params, "coloring"), ())


def render_certificate(cert: Certificate) -> str:
    family = _FAMILIES[cert.kind.partition("-")[0]]
    n_colors = dict(cert.params)[family.colors]
    out = [f"certificate {cert.kind}", family.note]
    out.extend(f"{name} {value}" for name, value in cert.params)
    if cert.coloring is not None:
        out.append("coloring " + render_word(cert.coloring, n_colors))
    reason_text = cache(family.reason_text)  # leaves share their edges
    for leaf in cert.leaves or ():
        reasons = " ".join(map(reason_text, leaf.witness))
        out.append(f"leaf {render_word(leaf.prefix, n_colors)} {reasons}")
    return "\n".join(out) + "\n"


def parse_certificate(text: str) -> Certificate:
    kind, fields = _records(text, "certificate", "certificate kind", _certificate_keys)
    family = _FAMILIES[kind.partition("-")[0]]
    missing = [n for n in family.params if n not in fields]
    if missing:
        raise TextFormatError(f"missing certificate parameters: {', '.join(missing)}")
    params = []
    for name in family.params:
        no, rest = fields[name]
        value = _parse_int(rest)
        if value < 1:
            raise TextFormatError(f"line {no}: {name} must be at least 1, got {rest!r}")
        params.append((name, value))
    if kind.endswith("counterexample") and "coloring" not in fields:
        raise TextFormatError("counterexample certificate needs a coloring line")
    coloring = parse_word(fields["coloring"][1]) if "coloring" in fields else None
    leaves = LeafLog()
    # leaves share their edges: each distinct reasons text is parsed once
    reasons_of = cache(lambda text: tuple(map(family.parse_reason, text.split())))
    for no, rest in fields.get("leaf", ()):
        prefix_text, _, reasons_text = rest.partition(" ")
        if not reasons_text:
            raise TextFormatError(f"line {no}: leaf needs a prefix and a witness")
        leaves.append(CoverLeaf(parse_word(prefix_text), reasons_of(reasons_text)))
    return Certificate(kind, tuple(params), coloring, leaves or None)


def check_certificate(cert: Certificate) -> bool:
    """Replay a certificate using verification-only code paths."""
    family = _FAMILIES[cert.kind.partition("-")[0]]
    values = [v for _name, v in cert.params]
    if cert.kind.endswith("cover"):
        return family.check_cover(*values, cert.leaves or ())
    return cert.coloring is not None and family.is_counterexample(*values, cert.coloring)


def coloring_certificate(family: str, values, outcome) -> Certificate:
    """The certificate of a decided coloring claim: ``family`` is "hj" or
    "fu", ``values`` maps each of the family's parameters to its value."""
    if outcome.kind == "budget_exceeded":
        raise TextFormatError("budget-exceeded outcomes carry no certificate")
    kind = f"{family}-cover" if outcome.kind == "all-colorings-ok" else f"{family}-counterexample"
    params = tuple((name, values[name]) for name in _FAMILIES[family].params)
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
    members = compress(report.element_column, report.hits())
    tree["R"] = {
        "members": list(map(column_renderer(report.domain), members)),
        "exact": report.exact,
    }
    render = element_renderer(report.domain)
    classes = {
        str(r): {
            "kind": v.kind,
            "window_limited": report.window_limited(v),
            "witness": None if v.witness is None else list(map(render, v.witness)),
        }
        for r, v in sorted(report.classification.items())
    }
    tree["classification"] = classes
    tree["witness"] = next(  # the lowest failing level's
        (c["witness"] for c in classes.values() if c["kind"] == "fails" and c["witness"] is not None),
        None,
    )
    profile = report.exceptional_density
    tree["exceptional_density"] = None if profile is None else {
        str(n): render_fraction(val) for n, val in enumerate(profile.values, start=1)
    }
    tree["bounds"] = {"khintchine": render_fraction(report.khintchine)}
    return tree


def render_report_json(tree: dict) -> str:
    return json.dumps(tree, indent=2) + "\n"


def render_recurrence_csv(report, *, generated: str | None = None) -> str:
    """The per-element table: a header, then one csv line
    "w,mu_B,corr,threshold,in_R" per element in window order.  Only w's text
    can hold a comma (a vector or a polynomial), and then it is quoted, as
    csv's minimal quoting does; no text holds a quote or a line break."""
    render = column_renderer(report.system.acting)
    mu, threshold = render_fraction(report.mu), render_fraction(report.threshold)
    pairs = report.pairs
    # the pair column keeps every pair alive, so an id names one pair: the
    # line tail of each distinct pair is rendered once
    tails = {
        i: f",{mu},{render_fraction(corr)},{threshold},{'true' if hit else 'false'}\n"
        for i, (corr, hit) in dict(zip(map(id, pairs), pairs)).items()
    }

    def cell(w) -> str:
        text = render(w)
        return f'"{text}"' if "," in text else text

    head = "" if generated is None else f"# generated: {generated}\n"
    lines = map(add, map(cell, report.value_column), map(tails.__getitem__, map(id, pairs)))
    return "".join([head, "w,mu_B,corr,threshold,in_R\n", *lines])
