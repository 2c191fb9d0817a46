"""Canonical renderings, description files, certificates, reports."""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import plain_coloring_search, reference_render_element

from ipstar import cli

from ipstar.algebra import (
    DegreeWindow,
    FullWindow,
    Monomial,
    PolyRing,
    PrimeField,
    RationalWindow,
    Rationals,
    VectorSpace,
    scalar_poly_map,
    window_column,
    window_enumerate,
)
from ipstar.halesjewett import SubsetConfig, _lines_by_last_index, hj_stage
from ipstar.ipsets import _fu_checks_by_position, fu_ramsey_check
from ipstar.recurrence import classify_ipstar, recurrence_set
from ipstar.search import LeafLog
from ipstar.systems import (
    BernoulliSystem,
    FinitePermSystem,
    RotationSystem,
    regular_system,
)
from ipstar.textio import (
    Certificate,
    TextFormatError,
    check_certificate,
    coloring_certificate,
    describe_system,
    element_renderer,
    parse_certificate,
    parse_element,
    parse_family,
    parse_fraction,
    parse_monomial,
    parse_poly_map,
    parse_system_text,
    parse_word,
    render_certificate,
    render_element,
    render_family,
    render_fraction,
    render_poly_map,
    render_recurrence_csv,
    render_report_json,
    render_subset_config,
    render_word,
    report_tree,
    window_texts,
)

F5 = PrimeField(5)
Q = Rationals()
R2 = PolyRing(2)


# ---------------------------------------------------------------------------
# scalars and elements


def test_fraction_rendering():
    assert render_fraction(F(1, 2)) == "1/2"
    assert render_fraction(F(-3)) == "-3"
    assert render_fraction(F(4, 2)) == "2"
    assert parse_fraction("7/3") == F(7, 3)
    assert parse_fraction(" -2 ") == F(-2)
    with pytest.raises(TextFormatError, match="zero denominator"):
        parse_fraction("1/0")
    with pytest.raises(TextFormatError, match="not a rational"):
        parse_fraction("pi")


def _fraction_texts():
    """Rational-looking text: digit runs with signs, slashes, points and
    padding, so that both the digit fast path and Fraction's parser run."""
    digits = st.text("0123456789", min_size=1, max_size=6)
    sign = st.sampled_from(["", "-", "+", "--"])
    pad = st.sampled_from(["", " ", "\t", "  \n"])
    plain = st.builds(lambda s, a: s + a, sign, digits)
    ratio = st.builds(lambda s, a, b: f"{s}{a}/{b}", sign, digits, st.sampled_from(["0", "5", "00", "12"]) | digits)
    decimal = st.builds(lambda s, a, b: f"{s}{a}.{b}", sign, digits, digits)
    odd = st.sampled_from(["0/5", "1/0", "-0", "3/", "/3", "1/-2", "1e3", "\u0661\u0662", "2\u00b2", "1_000", "",
                           "1e4300", "-2.5E-4301", "1e99999", "-/1e9999"])
    body = plain | ratio | decimal | odd | st.text("0123456789-+/. e", max_size=8)
    return st.builds(lambda a, b, c: a + b + c, pad, body, pad)


@settings(max_examples=300, deadline=None)
@given(_fraction_texts())
def test_parse_fraction_agrees_with_fraction(text):
    try:
        expect = F(text)
    except (ValueError, ZeroDivisionError) as e:
        kind = "zero denominator" if isinstance(e, ZeroDivisionError) else "not a rational"
        with pytest.raises(TextFormatError, match=kind):
            parse_fraction(text)
    else:
        # Fraction builds 10^e for an exponent e: past 4300 the text is refused
        _, e, exponent = text.strip().lower().rpartition("e")
        if e and abs(int(exponent)) > 4300:
            with pytest.raises(TextFormatError, match="exponent above 4300"):
                parse_fraction(text)
        else:
            assert parse_fraction(text) == expect


def test_parse_fraction_messages_quote_the_stripped_text():
    for text, message in [
        ("1/0", "zero denominator in '1/0'"),
        (" -7/000 ", "zero denominator in '-7/000'"),
        ("3/", "not a rational: '3/'"),
        ("1/-2", "not a rational: '1/-2'"),
        ("--1", "not a rational: '--1'"),
        ("1e10000000", "exponent above 4300 in '1e10000000'"),  # seconds to build 10^e
        (" 1e-10000000", "exponent above 4300 in '1e-10000000'"),
        ("x1e10000000", "not a rational: 'x1e10000000'"),
    ]:
        with pytest.raises(TextFormatError) as info:
            parse_fraction(text)
        assert str(info.value) == message
    assert parse_fraction(" 0/5 ") == 0 and parse_fraction("-6/4") == F(-3, 2)
    assert parse_fraction("1e4300") == 10**4300 and parse_fraction("-1E-4300") == F(-1, 10**4300)


def test_cycle_notation_errors():
    head = "backend finite-perm\np 2\npoints 0 1 2 3\ngen "
    for cycles, message in [
        ("((0 1)", "nested parenthesis in cycles"),
        ("(0 (1)", "nested parenthesis in cycles"),
        ("(0 1))", "unbalanced parenthesis in cycles"),
        (")(0 1)", "unbalanced parenthesis in cycles"),
        ("(0 1", "unbalanced parenthesis in cycles"),
        ("(0 1)(2", "unbalanced parenthesis in cycles"),
        ("0 1", "cycles must be parenthesized"),
        ("(0 1) 2", "cycles must be parenthesized"),
        ("(0 1)x(", "cycles must be parenthesized"),
        ("(0 9) (", "unbalanced parenthesis in cycles"),  # the brackets come first
        ("(0 9)", "unknown point 9 in cycle"),
        ("(0 1)(1 2)", "point 1 repeated across cycles"),
    ]:
        with pytest.raises(TextFormatError) as info:
            parse_system_text(head + cycles + "\n")
        assert str(info.value) == f"line 4: {message}", cycles
    sys, _ = parse_system_text(head + " ( 0 1 )\t(2 3) \n")
    assert sys.gens[0] == {0: 1, 1: 0, 2: 3, 3: 2}


def test_element_hand_renderings():
    assert render_element(Q, F(1, 2)) == "1/2"
    assert render_element(R2, ()) == "[]"
    assert render_element(R2, (0, 1)) == "[0,1]"
    assert render_element(F5, 3) == "3"
    v = VectorSpace(F5, 2)
    assert render_element(v, (1, 0)) == "(1,0)"
    assert render_element(VectorSpace(F5, 1), (4,)) == "4"


def test_element_roundtrip_randomized():
    rng = random.Random(20260901)
    v2 = VectorSpace(F5, 2)
    vq = VectorSpace(Q, 3)
    poly = lambda: tuple(rng.randrange(2) for _ in range(rng.randrange(5)))  # noqa: E731
    for _ in range(200):
        g = rng.choice(["q", "p", "f", "v", "vq", "vp"])
        if g == "q":
            grp, x = Q, F(rng.randrange(-30, 30), rng.randrange(1, 12))
        elif g == "p":
            grp, x = R2, poly()
        elif g == "f":
            grp, x = F5, rng.randrange(5)
        elif g == "v":
            grp, x = v2, (rng.randrange(5), rng.randrange(5))
        elif g == "vq":
            grp, x = vq, tuple(F(rng.randrange(-9, 9), rng.randrange(1, 5)) for _ in range(3))
        else:
            dim = rng.randrange(1, 4)
            grp, x = VectorSpace(R2, dim), tuple(poly() for _ in range(dim))
        x = grp.element(x)
        assert parse_element(grp, render_element(grp, x)) == x


GROUND_RINGS = [PrimeField(2), F5, PrimeField(7), Q, R2, PolyRing(3)]


def _scalars(ring):
    """Normalised elements of a ground ring: Q's negative, integral and
    non-integral; F_p[t]'s the zero polynomial and coefficient lists."""
    if isinstance(ring, PrimeField):
        return st.integers(0, ring.p - 1)
    if isinstance(ring, Rationals):
        return (st.integers(-50, 50).map(F)
                | st.fractions(-10**6, 10**6, max_denominator=10**4)
                | st.sampled_from([F(0), F(-1, 2), F(-7)]))
    return st.just(()) | st.lists(st.integers(0, ring.p - 1), max_size=7).map(ring.element)


@st.composite
def group_elements(draw):
    """(group, elements): a ground ring or a vector space of dimension 1-3
    over one, and up to eight of its elements, repeats allowed."""
    ring = draw(st.sampled_from(GROUND_RINGS))
    dim = draw(st.sampled_from([None, 1, 2, 3]))
    if dim is None:
        return ring, draw(st.lists(_scalars(ring), min_size=1, max_size=8))
    group = VectorSpace(ring, dim)
    vector = st.tuples(*[_scalars(ring)] * dim).map(group.element)
    return group, draw(st.lists(vector, min_size=1, max_size=8))


@settings(max_examples=300, deadline=None)
@given(group_elements())
def test_element_renderer_matches_the_reference(case):
    # one renderer bound per group renders every element, as a report does
    group, xs = case
    render = element_renderer(group)
    for x in xs:
        text = render(x)
        assert text == reference_render_element(group, x) == render_element(group, x)
        assert parse_element(group, text) == x


WINDOWS = [
    *[(PrimeField(p), FullWindow()) for p in (2, 3, 5, 7)],
    *[(Q, RationalWindow(a, b)) for a, b in [(0, 1), (1, 1), (2, 3), (5, 4)]],
    *[(PolyRing(p), DegreeWindow(d)) for p in (2, 3, 5, 7) for d in range(5 if p < 7 else 4)],
    *[(VectorSpace(PrimeField(p), n), FullWindow()) for p in (2, 5) for n in (1, 2, 3)],
    (VectorSpace(PolyRing(3), 2), DegreeWindow(2)),
    (VectorSpace(Q, 2), RationalWindow(1, 2)),
]


@pytest.mark.parametrize("group, window", WINDOWS, ids=lambda x: str(x))
def test_window_texts_are_the_texts_of_the_listed_elements(group, window):
    # built from the window's structure, the texts must be the per-element
    # renderer's over the window listed in normal form, in window order
    texts = window_texts(group, window, window_column(group, window))
    assert texts == list(map(element_renderer(group), window_enumerate(group, window)))


_JSON_LEAVES = (st.none() | st.booleans() | st.integers(-10**30, 10**30)
                | st.text(max_size=6) | st.sampled_from(["", "1/2", "[0,1]", "(1,2)", 'q"\\\n\u00e9\U0001f600']))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(max_size=5), st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.lists(st.text(max_size=4), max_size=5)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=20,
), max_size=6))
def test_the_report_writer_is_json_dumps_with_indent_2(tree):
    assert render_report_json(tree) == json.dumps(tree, indent=2) + "\n"


def test_element_parse_rejections():
    with pytest.raises(TextFormatError, match="coefficient list"):
        parse_element(R2, "0,1")
    with pytest.raises(TextFormatError, match="coordinates"):
        parse_element(VectorSpace(F5, 2), "(1,2,3)")
    with pytest.raises(TextFormatError, match="not an integer"):
        parse_element(F5, "x")


# ---------------------------------------------------------------------------
# families, words, configs


def test_family_rendering():
    assert render_family(frozenset({3, 1})) == "{1,3}"
    assert render_family(frozenset()) == "{}"
    assert parse_family("{2,4}") == frozenset({2, 4})
    assert parse_family("{}") == frozenset()
    with pytest.raises(TextFormatError):
        parse_family("1,2")


def test_word_rendering():
    assert render_word((1, 2, 1), 2) == "121"
    assert parse_word("121") == (1, 2, 1)
    assert render_word((), 2) == "" and render_word((0, 9), 9) == "09"
    assert parse_word("0123456789") == tuple(range(10))
    for letter in (10, 48, -1):  # no digit of its own; "10" would read back as two letters
        with pytest.raises(ValueError):
            render_word((1, letter), 9)
    assert render_word((10, 2), 12) == "10,2"
    assert parse_word("10,2") == (10, 2)
    for bad in ("1a1", "1\u00b2"):  # a superscript two is a digit to str.isdigit
        with pytest.raises(TextFormatError):
            parse_word(bad)


def test_subset_config_roundtrip():
    # the CLI writes `config:` lines and never reads one back
    cfg = SubsetConfig((frozenset({1}), frozenset()), frozenset({2, 3}))
    assert render_subset_config(cfg) == "alpha=[{1},{}] gamma={2,3}"
    two = SubsetConfig((frozenset({1, 2}), frozenset()), frozenset({3}))
    assert render_subset_config(two) == "alpha=[{1,2},{}] gamma={3}"
    none = SubsetConfig((), frozenset({1}))
    assert render_subset_config(none) == "alpha=[] gamma={1}"


# ---------------------------------------------------------------------------
# system description files


def test_finite_perm_system_roundtrip():
    s = regular_system(5)
    text = "backend finite-perm\np 5\npoints 0 1 2 3 4\nweights 1/5 1/5 1/5 1/5 1/5\ngen (0 1 2 3 4)\nset B 0 1\n"
    sys2, events = parse_system_text(text)
    assert sys2.points == s.points and sys2.gens == s.gens
    assert sys2.weights == s.weights
    assert events == {"B": frozenset({0, 1})}


def test_weights_line_reads_each_token_once_and_reports_the_first_bad_one():
    head = "backend finite-perm\np 2\npoints a b c d\n"
    tail = "gen (a b)(c d)\nset B a c\n"
    sys, events = parse_system_text(head + "weights 1/8 1/8 3/8 3/8\n" + tail)
    assert sys.weights == {"a": F(1, 8), "b": F(1, 8), "c": F(3, 8), "d": F(3, 8)}
    assert sys.weights["a"] is sys.weights["b"]  # one parse per distinct token
    assert sys.measure(events["B"]) == F(1, 2)
    for line, bad in [("1/8 x 1/8 y", "'x'"), ("1/8 1/8 y x", "'y'"), ("1/0 x 1/0 x", "zero denominator")]:
        with pytest.raises(TextFormatError, match=bad):
            parse_system_text(head + f"weights {line}\n" + tail)


def test_finite_perm_multi_cycle_and_default_weights():
    text = """backend finite-perm
p 2
points 0 1 2 3
gen (0 1)(2 3)
gen (0 2)(1 3)
set E 0 3
"""
    sys, events = parse_system_text(text)
    assert sys.gens[0] == {0: 1, 1: 0, 2: 3, 3: 2}
    assert sys.gens[1] == {0: 2, 1: 3, 2: 0, 3: 1}
    assert sys.weights[0] == F(1, 4)  # omitted weights mean uniform
    assert events["E"] == frozenset({0, 3})


def test_identity_generator_is_the_empty_cycle():
    text = "backend finite-perm\np 3\npoints a b c\ngen ()\n"
    sys, _ = parse_system_text(text)
    assert sys.gens[0] == {"a": "a", "b": "b", "c": "c"}


def test_point_labels_are_ints_only_for_ascii_digits_with_one_minus():
    text = "backend finite-perm\np 2\npoints 0 --1 \u00b2 -3\ngen (0 --1)(\u00b2 -3)\nset E --1 \u00b2\n"
    sys, events = parse_system_text(text)
    assert sys.points == (0, "--1", "\u00b2", -3)
    assert sys.gens[0] == {0: "--1", "--1": 0, "\u00b2": -3, -3: "\u00b2"}
    assert events["E"] == frozenset({"--1", "\u00b2"})


def test_rotation_system_roundtrip():
    rot = RotationSystem((F(1, 4), F(1, 6)))
    B = rot.event([(F(0), F(1, 2)), (F(3, 4), F(7, 8))])
    sys2, events = parse_system_text("backend rotation\nrho 1/4 1/6\nset B 0 1/2 3/4 7/8\n")
    assert sys2.rhos == rot.rhos
    assert events == {"B": B}
    assert events["B"].pieces == ((F(0), F(1, 2)), (F(3, 4), F(7, 8)))


def test_bernoulli_system_roundtrip():
    ber = BernoulliSystem(3, [F(1, 2), F(1, 4), F(1, 4)])
    B = ber.event({(): {0, 2}, (0, 1): {1}})
    sys2, events = parse_system_text("backend bernoulli\np 3\nprobs 1/2 1/4 1/4\nset B []:0,2 [0,1]:1\n")
    assert sys2.base == ber.base
    assert events == {"B": B}


def test_system_parse_errors_carry_line_numbers():
    with pytest.raises(TextFormatError, match="line 1: expected 'backend'"):
        parse_system_text("p 5\n")
    with pytest.raises(TextFormatError, match="line 1: unknown backend"):
        parse_system_text("backend torus\n")
    with pytest.raises(TextFormatError, match="line 3: unknown key"):
        parse_system_text("backend rotation\nrho 1/3\nspin 4\n")
    with pytest.raises(TextFormatError, match="line 4: need one weight per point"):
        parse_system_text("backend finite-perm\np 2\npoints 0 1\nweights 1/2\ngen ()\n")
    with pytest.raises(TextFormatError, match="line 4: unknown point"):
        parse_system_text("backend finite-perm\np 2\npoints 0 1\ngen (0 7)\n")
    with pytest.raises(TextFormatError, match="line 3: duplicate"):
        parse_system_text("backend rotation\nrho 1/3\nrho 1/4\n")
    with pytest.raises(TextFormatError, match="missing required key 'probs'"):
        parse_system_text("backend bernoulli\np 2\n")
    with pytest.raises(TextFormatError, match="line 4: nested"):
        parse_system_text("backend finite-perm\np 2\npoints 0 1\ngen ((0 1)\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("backend rotation\nrho 1/7\ngen (0 1)\n", "line 3: unknown key 'gen' for rotation"),
        ("backend rotation\nrho 1/7\np 5\n", "line 3: unknown key 'p' for rotation"),
        (
            "backend finite-perm\np 2\npoints 0 1\ngen (0 1)\nrho 1/3\n",
            "line 5: unknown key 'rho' for finite-perm",
        ),
        (
            "backend bernoulli\np 2\nprobs 1/2 1/2\nweights 1 1\n",
            "line 4: unknown key 'weights' for bernoulli",
        ),
        (
            "backend finite-perm\np 3\npoints 0 1 2\ngen (0 1 2)\nset B 0\nset B 1 2\n",
            "line 6: duplicate set 'B'",
        ),
    ],
    ids=["gen-in-rotation", "p-in-rotation", "rho-in-finite-perm", "weights-in-bernoulli",
         "repeated-set"],
)
def test_system_parse_refuses_foreign_keys_and_repeated_sets(text, message):
    # another backend's key was ignored, and a repeated set replaced the first
    with pytest.raises(TextFormatError, match=message):
        parse_system_text(text)


@pytest.mark.parametrize("points", ["points", "points # c", "points\nweights"])
def test_a_finite_perm_file_without_points_is_refused_at_its_points_line(points):
    # the uniform weight 1/len(points) divided by zero
    text = f"backend finite-perm\np 2\n{points}\ngen ()\n"
    with pytest.raises(TextFormatError, match="line 3: points needs at least one point"):
        parse_system_text(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "line 1: expected 'backend', got ''"),
        ("# only a comment\n\n", "line 1: expected 'backend', got ''"),
        ("backend rotation\nrho 1/7\nbackend rotation\n", "line 3: duplicate 'backend'"),
    ],
)
def test_system_parse_refuses_an_empty_file_and_a_second_head(text, message):
    with pytest.raises(TextFormatError, match=message):
        parse_system_text(text)


def test_describe_system():
    assert describe_system(regular_system(5)) == "finite-perm p=5 points=5 gens=1"
    assert describe_system(RotationSystem(F(1, 7))) == "rotation rho=1/7"
    assert describe_system(RotationSystem((F(1, 2), F(1, 3)))) == "rotation rho=(1/2,1/3)"
    assert describe_system(BernoulliSystem(2, [F(1, 2), F(1, 2)])) == "bernoulli p=2 probs=1/2,1/2"


# ---------------------------------------------------------------------------
# certificates


def test_hj_counterexample_certificate_roundtrip():
    cert = coloring_certificate("hj", {"k": 2, "t": 2, "m": 1}, hj_stage(2, 2, 1))
    text = render_certificate(cert)
    assert "certificate hj-counterexample" in text
    assert "coloring 12" in text
    parsed = parse_certificate(text)
    assert parsed == cert
    assert check_certificate(parsed)


def test_hj_cover_certificate_roundtrip():
    cert = coloring_certificate("hj", {"k": 2, "t": 2, "m": 2}, hj_stage(2, 2, 2))
    parsed = parse_certificate(render_certificate(cert))
    assert parsed == cert
    assert check_certificate(parsed)
    # tampering with a leaf breaks the replay
    bad = Certificate(cert.kind, cert.params, None, cert.leaves[1:])
    assert not check_certificate(bad)


def test_a_cover_renders_the_same_from_its_log_and_from_a_tuple():
    cert = coloring_certificate("hj", {"k": 2, "t": 5, "m": 5}, hj_stage(2, 5, 5))
    assert isinstance(cert.leaves, LeafLog) and len(cert.leaves) > 1
    as_tuple = Certificate(cert.kind, cert.params, None, tuple(cert.leaves))
    text = render_certificate(cert)
    assert render_certificate(as_tuple) == text
    # parsing gives a log again, with equal reason lists parsed into one object
    parsed = parse_certificate(text)
    assert isinstance(parsed.leaves, LeafLog) and parsed == cert
    witnesses = [leaf.witness for leaf in parsed.leaves]
    assert len({id(w) for w in witnesses}) == len(set(witnesses)) < len(witnesses)


def test_fu_certificates_roundtrip():
    counter = coloring_certificate("fu", {"r": 3, "s": 2, "k": 2}, fu_ramsey_check(3, 2, 2))
    parsed = parse_certificate(render_certificate(counter))
    assert parsed == counter
    assert check_certificate(parsed)
    assert parsed.coloring == (1, 1, 2, 1, 2, 2, 1)
    cover = coloring_certificate("fu", {"r": 2, "s": 1, "k": 2}, fu_ramsey_check(2, 1, 2))
    parsed2 = parse_certificate(render_certificate(cover))
    assert parsed2 == cover
    assert check_certificate(parsed2)


def test_a_leaf_lists_its_reasons():
    cert = coloring_certificate("hj", {"k": 2, "t": 5, "m": 5}, hj_stage(2, 5, 5))
    # under the prefix, words 15 and 31 lose colors 1-4 to words 0, 1, 3
    # and 7, are forced to color 5, and the line {15, 31} is monochromatic
    leaf = "\nleaf 12232334 0,15 0,31 1,15 1,31 3,15 3,31 7,15 7,31 15,31\n"
    assert leaf in render_certificate(cert)


@pytest.mark.parametrize(
    "family, values, sha",
    [
        ("hj", (2, 5, 5), "967af3484bff91a984cecfdb26e9a2989ade0c1d5bfe8d38fd0ab5a0b29ba588"),
        ("hj", (2, 4, 4), "3473a15b156b34addf61f89b718ec4701de225f609931615adf29a6a0ef7bc68"),
        ("fu", (7, 2, 2), "2880561b67890f5c84bd5dde73b476127f18e5ca87060b8446702d77df086646"),
        ("fu", (5, 2, 2), "3e1ac05465824f22805981df3499fc6c9e5c068e7fce6db4fcfdcf0df112c789"),
    ],
)
def test_one_edge_cover_certificates_still_check(family, values, sha):
    # the search without propagation writes the covers that certificates
    # held before leaves listed their reasons, byte for byte: each leaf
    # names one monochromatic edge
    if family == "hj":
        k, colors, m = values
        table, names = _lines_by_last_index(k, m), ("k", "t", "m")
    else:
        r, s, colors = values
        table, names = _fu_checks_by_position(r, s), ("r", "s", "k")
    plain = plain_coloring_search(colors, table)
    cert = Certificate(f"{family}-cover", tuple(zip(names, values)), None, plain.cover)
    text = render_certificate(cert)
    assert hashlib.sha256(text.encode()).hexdigest() == sha
    assert check_certificate(parse_certificate(text))


def _check_cli(path) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["--check", str(path)])
    return rc, buf.getvalue()


_LEAF = "leaf 12232334 "
_REASONS = "0,15 0,31 1,15 1,31 3,15 3,31 7,15 7,31 15,31"


@pytest.mark.parametrize(
    "reasons",
    [
        "0,31 1,15 1,31 3,15 3,31 7,15 7,31 15,31",  # a dropped reason
        "15,31 0,31 1,15 1,31 3,15 3,31 7,15 7,31 0,15",  # the first and last swapped
        _REASONS + " 0,1",  # an edge after the conflict
        "0,1 " + _REASONS,  # colored words that disagree: 1 and 2
        "15,31 " + _REASONS,  # two free words
        "0,15 0,31 1,15 1,31 3,15 3,31 7,15 7,31",  # no conflict at the end
        "0,32 " + _REASONS,  # a word past M = 32
    ],
)
def test_check_refuses_tampered_reasons(tmp_path, reasons):
    cert = coloring_certificate("hj", {"k": 2, "t": 5, "m": 5}, hj_stage(2, 5, 5))
    text = render_certificate(cert)
    path = tmp_path / "hj-k2-t5-m5-cover.txt"
    path.write_text(text)
    assert _check_cli(path) == (0, "certificate valid: hj-cover k=2 t=5 m=5\n")
    assert text.count(_LEAF + _REASONS + "\n") == 1
    path.write_text(text.replace(_LEAF + _REASONS, _LEAF + reasons))
    assert _check_cli(path) == (1, "certificate INVALID: hj-cover k=2 t=5 m=5\n")


def test_tampered_coloring_fails_check():
    cert = coloring_certificate("hj", {"k": 2, "t": 2, "m": 1}, hj_stage(2, 2, 1))
    bad = Certificate(cert.kind, cert.params, (1, 1), None)
    assert not check_certificate(bad)


def test_budget_exceeded_outcome_has_no_certificate():
    part = hj_stage(2, 3, 2, budget=1)
    with pytest.raises(TextFormatError, match="no certificate"):
        coloring_certificate("hj", {"k": 2, "t": 3, "m": 2}, part)


def test_certificate_parse_errors():
    with pytest.raises(TextFormatError, match="unknown certificate kind"):
        parse_certificate("certificate magic\n")
    for kind in ("hj", "hj-", "fu-leaf", "k-cover"):
        with pytest.raises(TextFormatError, match=f"line 1: unknown certificate kind '{kind}'"):
            parse_certificate(f"certificate {kind}\nk 2\n")
    with pytest.raises(TextFormatError, match="line 1: expected 'certificate', got ''"):
        parse_certificate("\n# nothing\n")
    with pytest.raises(TextFormatError, match="missing certificate parameters"):
        parse_certificate("certificate hj-cover\nk 2\n")
    with pytest.raises(TextFormatError, match="needs a coloring"):
        parse_certificate("certificate hj-counterexample\nk 2\nt 2\nm 1\n")
    with pytest.raises(TextFormatError, match="leaf needs a prefix"):
        parse_certificate("certificate hj-cover\nk 2\nt 2\nm 2\nleaf 11\n")


@pytest.mark.parametrize(
    "lines, message",
    [
        (["m 5", "m 1", "coloring 12"], "line 5: duplicate 'm'"),
        (["m 1", "coloring 11", "coloring 12"], "line 6: duplicate 'coloring'"),
    ],
)
def test_certificate_parse_refuses_repeated_lines(lines, message):
    # a later line would otherwise overwrite the earlier one
    text = "\n".join(["certificate hj-counterexample", "k 2", "t 2", *lines]) + "\n"
    with pytest.raises(TextFormatError, match=message):
        parse_certificate(text)


@pytest.mark.parametrize(
    "name, line, message",
    [
        ("hj-k2-t2-m1-counterexample.txt", "leaf 2 5,7", "unknown key 'leaf' for hj-counterexample"),
        ("hj-k2-t2-m2-cover.txt", "coloring 1212", "unknown key 'coloring' for hj-cover"),
    ],
)
def test_check_refuses_a_line_of_the_other_kind(tmp_path, capsys, name, line, message):
    # a leaf in a counterexample and a coloring in a cover were read as valid
    assert cli.main(["hj", "k=2", "t=2", "m_max=2", f"output={tmp_path}"]) == 0
    path = tmp_path / name
    text = path.read_text()
    capsys.readouterr()
    assert _check_cli(path)[0] == 0
    path.write_text(text + line + "\n")
    assert _check_cli(path)[0] == 1
    lines = len(text.splitlines()) + 1
    assert f"line {lines}: {message}" in capsys.readouterr().err
    with pytest.raises(TextFormatError, match=f"line {lines}: {message}"):
        parse_certificate(text + line + "\n")


# ---------------------------------------------------------------------------
# reports


def _f5_report(B, eps):
    s = regular_system(5)
    phi = scalar_poly_map(F5, [Monomial(F5, 1, (2,))])
    return classify_ipstar(recurrence_set(s, B, phi, eps, FullWindow()), 2)


def test_report_tree_exact_case():
    tree = report_tree(_f5_report({0, 1}, F(1, 100)))
    assert list(tree) == [
        "system",
        "phi",
        "epsilon",
        "R",
        "classification",
        "witness",
        "exceptional_density",
        "bounds",
    ]
    assert tree["system"] == "finite-perm p=5 points=5 gens=1"
    assert tree["phi"] == "u^2"
    assert tree["epsilon"] == "1/100"
    assert tree["R"] == {"members": ["0", "1", "2", "3", "4"], "exact": True}
    assert tree["classification"]["2"]["kind"] == "holds"
    assert tree["witness"] is None
    assert tree["exceptional_density"] is None
    assert tree["bounds"] == {"khintchine": "2/5"}


def test_report_tree_failing_case_carries_witness():
    tree = report_tree(_f5_report({0}, F(1, 50)))
    assert tree["R"]["members"] == ["0"]
    assert tree["classification"]["2"] == {
        "kind": "fails",
        "window_limited": False,
        "witness": ["1", "1"],
    }
    # top-level witness comes from the first failing r, here r = 1
    assert tree["classification"]["1"]["witness"] == ["1"]
    assert tree["witness"] == ["1"]


def test_report_tree_windowed_density():
    b = BernoulliSystem(2, [F(1, 2), F(1, 2)])
    phi = scalar_poly_map(R2, [Monomial(R2, (1,), (1,))])
    rep = classify_ipstar(recurrence_set(b, {(): {0}}, phi, F(1, 10), DegreeWindow(3)), 2)
    tree = report_tree(rep, generated="T0")
    assert list(tree)[0] == "generated"
    assert tree["exceptional_density"] == {"1": "0", "2": "0", "3": "0"}
    assert tree["R"]["exact"] is False
    text = render_report_json(tree)
    assert text.startswith("{\n  \"generated\": \"T0\",\n")
    assert text.endswith("}\n")


def test_recurrence_csv():
    rep = _f5_report({0, 1}, F(1, 100))
    body = render_recurrence_csv(rep)
    lines = body.splitlines()
    assert lines[0] == "w,mu_B,corr,threshold,in_R"
    assert len(lines) == 6
    assert lines[1] == "0,2/5,2/5,3/20,true"
    assert all(line.endswith("true") for line in lines[1:])
    # deterministic byte for byte; timestamp only on request
    assert render_recurrence_csv(rep) == body
    stamped = render_recurrence_csv(rep, generated="T0")
    assert stamped.splitlines()[0] == "# generated: T0"


def test_recurrence_csv_quotes_vector_exponents():
    pts = [(a, b) for a in range(2) for b in range(2)]
    wts = {x: F(1, 4) for x in pts}
    g1 = {(a, b): ((a + 1) % 2, b) for a, b in pts}
    g2 = {(a, b): (a, (b + 1) % 2) for a, b in pts}
    s = FinitePermSystem(2, pts, wts, [g1, g2])
    F2 = PrimeField(2)
    vec = VectorSpace(F2, 2)
    from ipstar.algebra import PolynomialMap

    phi = PolynomialMap(
        F2,
        2,
        vec,
        ((Monomial(F2, 1, (1, 0)), (1, 0)), (Monomial(F2, 1, (0, 1)), (0, 1))),
    )
    rep = recurrence_set(s, {(0, 0)}, phi, F(1, 2), FullWindow())
    lines = render_recurrence_csv(rep).splitlines()
    assert lines[1].startswith('"(0,0)"')


# ---------------------------------------------------------------------------
# monomial and map text


def test_parse_monomial():
    m = parse_monomial(F5, "u^2")
    assert m == Monomial(F5, 1, (2,))
    assert parse_monomial(Q, "2*u") == Monomial(Q, F(2), (1,))
    assert parse_monomial(Q, "-1/2*u^3") == Monomial(Q, F(-1, 2), (3,))
    # coefficient in the polynomial ring, little-endian
    assert parse_monomial(R2, "[0,1]*u^2") == Monomial(R2, (0, 1), (2,))
    # arity comes from the largest index mentioned
    assert parse_monomial(Q, "x1*x2^2") == Monomial(Q, F(1), (1, 2))
    assert parse_monomial(Q, "x2") == Monomial(Q, F(1), (0, 1))
    # repeated factors multiply out
    assert parse_monomial(Q, "u*u") == Monomial(Q, F(1), (2,))


def test_parse_monomial_rejections():
    with pytest.raises(TextFormatError, match="single term"):
        parse_monomial(Q, "u + u^2")
    with pytest.raises(TextFormatError, match="no variable"):
        parse_monomial(Q, "2")
    with pytest.raises(TextFormatError, match="only variable"):
        parse_monomial(Q, "u*x2")
    with pytest.raises(TextFormatError, match="unexpected factor"):
        parse_monomial(Q, "u*3")
    with pytest.raises(TextFormatError, match="empty term"):
        parse_monomial(Q, "")


def test_parse_poly_map_scalar_target():
    pm = parse_poly_map(F5, F5, "u + 2*u^2")
    assert render_poly_map(pm) == "u + 2*u^2"
    assert pm((3,)) == (3 + 2 * 9) % 5
    volume = parse_poly_map(Q, Q, "x1*x2")
    assert volume((F(2), F(3))) == F(6)


def test_parse_poly_map_vector_target():
    F2 = PrimeField(2)
    vec = VectorSpace(F2, 2)
    pm = parse_poly_map(F2, vec, "u*(1,0) + u^2*(0,1)")
    assert pm.n == 1 and pm.target == vec
    assert pm((1,)) == (1, 1)
    with pytest.raises(TextFormatError, match="needs a target weight"):
        parse_poly_map(F2, vec, "u + u^2*(0,1)")
    # scalar targets take no weight
    with pytest.raises(TextFormatError, match="unexpected factor"):
        parse_poly_map(F5, F5, "u*(1,0)")


POLY_MAPS = [
    (F5, F5, "u + 2*u^2"),
    (Q, Q, "-1/2*x1*x2 + x2^3"),
    (R2, R2, "[0,1]*u^2"),
    (PrimeField(2), VectorSpace(PrimeField(2), 2), "u*(1,0) + u^2*(0,1)"),
    (PrimeField(2), VectorSpace(PrimeField(2), 2), "u*(0,1) + u^2*(1,0)"),
    (Q, VectorSpace(Q, 2), "2*x1*(1/2,0) + x1*x2^3*(0,-1)"),
    (F5, VectorSpace(F5, 1), "u^2*3"),
    (R2, VectorSpace(R2, 2), "u*([1],[0,1])"),
]


@pytest.mark.parametrize("ring, target, text", POLY_MAPS, ids=[c[2] for c in POLY_MAPS])
def test_poly_map_render_parses_back(ring, target, text):
    phi = parse_poly_map(ring, target, text)
    assert render_poly_map(phi) == text
    assert parse_poly_map(ring, target, render_poly_map(phi)) == phi


def test_vector_maps_render_apart():
    vec = VectorSpace(PrimeField(2), 2)
    a = parse_poly_map(PrimeField(2), vec, "u*(1,0) + u^2*(0,1)")
    b = parse_poly_map(PrimeField(2), vec, "u*(0,1) + u^2*(1,0)")
    assert a != b and render_poly_map(a) != render_poly_map(b)
