import random
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ipstar.halesjewett import (
    Line,
    SubsetConfig,
    _lines_by_last_index,
    all_lines,
    all_words,
    config_points,
    find_mono_line,
    first_mono_line,
    hj_check_cover,
    hj_coloring_is_counterexample,
    hj_stage,
    is_line_point_tuple,
    line_points,
    line_to_config,
    mono_config_search,
    psi_decode,
    psi_encode,
    word_subset_tuples,
)
from ipstar.search import ALL_OK, BUDGET_EXCEEDED, coloring_stages


def test_line_invariants():
    with pytest.raises(ValueError):
        Line(2, ((1, 1), (2, 1)), frozenset())  # nothing moves
    with pytest.raises(ValueError):
        Line(2, ((1, 1),), frozenset({1}))  # position 1 both fixed and moving
    with pytest.raises(ValueError):
        Line(3, ((1, 1),), frozenset({2}))  # position 3 unassigned


def test_line_points_examples():
    diag = Line(2, (), frozenset({1, 2}))
    assert line_points(diag, 2) == [(1, 1), (2, 2)]
    L = Line(2, ((2, 1),), frozenset({1}))
    assert line_points(L, 2) == [(1, 1), (2, 1)]
    single = Line(1, (), frozenset({1}))
    assert line_points(single, 3) == [(1,), (2,), (3,)]


def test_all_lines_count_and_distinctness():
    # (k+1)^m - k^m lines; distinct lines have distinct point sets
    for k, m in [(2, 2), (2, 3), (3, 2)]:
        lines = all_lines(k, m)
        assert len(lines) == (k + 1) ** m - k**m
        point_sets = {frozenset(line_points(L, k)) for L in lines}
        assert len(point_sets) == len(lines)
        for L in lines:
            assert len(line_points(L, k)) == k


def test_canonical_line_order():
    lines = all_lines(2, 2)
    keys = [(len(L.moving), tuple(sorted(L.moving)), tuple(v for _, v in L.fixed)) for L in lines]
    assert keys == sorted(keys)
    # singleton moving sets come before the diagonal
    assert lines[0].moving == frozenset({1}) and lines[-1].moving == frozenset({1, 2})


def test_line_points_sit_at_base_plus_multiples_of_step():
    # a word's index is its rank in all_words; a line's points are then
    # base + j*step, and the stage's edge table lists exactly these tuples
    for k, m in [(1, 3), (2, 3), (3, 2), (4, 2)]:
        rank = {w: i for i, w in enumerate(all_words(k, m))}
        assert list(rank.values()) == list(range(k**m))
        expect = []
        for L in all_lines(k, m):
            base = sum((v - 1) * k ** (m - p) for p, v in L.fixed)
            step = sum(k ** (m - p) for p in L.moving)
            idx = tuple(rank[w] for w in line_points(L, k))
            assert idx == tuple(base + j * step for j in range(k))
            expect.append(idx)
        table = _lines_by_last_index(k, m)
        assert sorted(e for edges in table for e, _ in edges) == sorted(expect)
        assert all(max(e) == last for last, edges in enumerate(table) for e, _ in edges)


def test_find_mono_line_constant_coloring():
    L = find_mono_line(2, 2, lambda w: 1)
    assert L == all_lines(2, 2)[0]  # first line in canonical order


def test_find_mono_line_absent():
    assert find_mono_line(2, 1, lambda w: w[0]) is None  # two letters, two colors


def test_find_mono_line_parallel_matches_serial():
    # the (base, step) scan against the first line of all_lines
    rng = random.Random(20260817)
    for _ in range(20):
        table = {w: rng.randrange(1, 3) for w in all_words(2, 3)}
        naive = next(
            (L for L in all_lines(2, 3) if len({table[w] for w in line_points(L, 2)}) == 1),
            None,
        )
        assert find_mono_line(2, 3, table.get) == naive


def _first_mono_reference(k, m, colors):
    """First line of all_lines whose points share a color, or None."""
    rank = {w: i for i, w in enumerate(all_words(k, m))}
    for L in all_lines(k, m):
        if len({colors[rank[w]] for w in line_points(L, k)}) == 1:
            return L
    return None


@st.composite
def _word_colorings(draw):
    k = draw(st.sampled_from([1, 2, 4, 8]))
    m = draw(st.integers(1, 4))
    n = k**m
    kind = draw(st.sampled_from(["few", "many", "line-free"]))
    if kind == "line-free":  # every word its own color
        colors = draw(st.permutations(range(n)))
    else:
        t = draw(st.integers(1, 3)) if kind == "few" else draw(st.integers(4, 4 + 2 * k))
        colors = draw(st.lists(st.integers(0, t - 1), min_size=n, max_size=n))
    return k, m, colors


@settings(max_examples=120, deadline=None)
@given(_word_colorings())
def test_word_index_scan_finds_the_first_mono_line(case):
    k, m, colors = case
    assert first_mono_line(k, m, colors) == _first_mono_reference(k, m, colors)


def test_word_subset_tuples_match_the_encoding():
    for d in (1, 2, 3):
        for r in (1, 2, 3, 4):
            tuples = word_subset_tuples(d, r)
            assert sorted(tuples) == list(range(1 << (d * r)))
            for w, t in zip(all_words(1 << d, r), tuples):
                masks = [t >> (r * (d - i)) & ((1 << r) - 1) for i in range(1, d + 1)]
                sets = tuple(frozenset(j + 1 for j in range(r) if a >> j & 1) for a in masks)
                assert sets == psi_encode(w, d)


def test_every_two_coloring_of_the_square_has_a_line():
    # exhaustive over all 16 colorings of the 4 words
    words = all_words(2, 2)
    for colors in product((1, 2), repeat=4):
        table = dict(zip(words, colors))
        assert find_mono_line(2, 2, table.get) is not None


def hj_stages(k, t, m_max, **kw):
    """The stages m = 1..m_max that decide HJ(k, t), as (m, outcome) pairs."""
    return coloring_stages(range(1, m_max + 1), partial(hj_stage, k, t), **kw)


def hj_value(stages):
    m, out = stages[-1]
    return m if out.kind == ALL_OK else None


def test_hj_2_2():
    stages = hj_stages(2, 2, 3)
    assert hj_value(stages) == oracles.KNOWN_HJ[(2, 2)] == 2
    (_, m1), (_, m2) = stages
    assert m1.kind == "counterexample" and m1.coloring == (1, 2)
    assert m2.kind == "all-colorings-ok"
    assert hj_check_cover(2, 2, 2, m2.cover)
    assert hj_coloring_is_counterexample(2, 2, 1, m1.coloring)


def test_hj_edge_cases():
    assert hj_value(hj_stages(1, 5, 2)) == oracles.KNOWN_HJ[(1, 2)] == 1
    assert hj_value(hj_stages(2, 1, 2)) == oracles.KNOWN_HJ[(2, 1)] == 1


def test_hj_2_3():
    stages = hj_stages(2, 3, 4)
    assert hj_value(stages) == oracles.KNOWN_HJ[(2, 3)] == 3
    # the m = 2 escape is an antichain coloring of the four words
    assert stages[1][1].coloring == (1, 2, 2, 3)


def test_hj_monotone_where_computed():
    one, two, three = (hj_value(hj_stages(*a)) for a in [(1, 2, 3), (2, 2, 3), (2, 3, 4)])
    assert one <= two <= three


def test_hj_absent_below_known_value():
    stages = hj_stages(3, 2, 2)  # known value is 4, far above m_max
    assert hj_value(stages) is None and len(stages) == 2
    for m, st in stages:
        assert st.kind == "counterexample"
        assert hj_coloring_is_counterexample(3, 2, m, st.coloring)


def test_hj_budget_checkpoint_and_resume():
    part = hj_stages(2, 2, 3, budget=3)
    m, last = part[-1]
    assert last.kind == BUDGET_EXCEEDED and last.resume_path is not None
    rest = hj_stages(2, 2, 3, resume=(m, last.resume_path))
    assert hj_value(rest) == 2


def test_hj_counterexample_check_wants_a_full_coloring_in_range():
    assert hj_coloring_is_counterexample(2, 2, 1, (1, 2))
    assert not hj_coloring_is_counterexample(2, 2, 1, (1, 3))  # color 3 of 2
    assert not hj_coloring_is_counterexample(2, 2, 1, (1, 2, 1))  # three words of two
    assert not hj_coloring_is_counterexample(2, 2, 1, (1, 1))  # the only line


def test_cover_tamper_rejected():
    cover = list(hj_stages(2, 2, 2)[-1][1].cover)
    assert hj_check_cover(2, 2, 2, cover)
    assert not hj_check_cover(2, 2, 2, cover[:-1])


def test_is_line_point_tuple_rejects_fakes():
    assert is_line_point_tuple(2, 2, (0, 3))  # the diagonal
    assert not is_line_point_tuple(2, 2, (0, 0))
    assert not is_line_point_tuple(2, 2, (0, 2, 3))
    assert not is_line_point_tuple(2, 2, (1, 2))  # (1,2) vs (2,1): no unison move
    assert is_line_point_tuple(1, 3, (0,))  # one letter: the one word is a line
    assert not is_line_point_tuple(1, 3, (1,))


# ---------------------------------------------------------------------------
# encoding


def test_psi_examples():
    assert psi_encode((2, 3), 2) == (frozenset({1}), frozenset({2}))
    assert psi_encode((1, 1, 1), 2) == (frozenset(), frozenset())
    assert psi_encode((2, 1, 2), 1) == (frozenset({1, 3}),)
    with pytest.raises(ValueError):
        psi_encode((5,), 2)  # letter beyond 2^d


def test_psi_roundtrip_exhaustive():
    for d in (1, 2, 3):
        for r in (1, 2, 3, 4):
            for w in product(range(1, (1 << d) + 1), repeat=r):
                assert psi_decode(psi_encode(w, d), r) == w
            # and the other direction over all subset tuples
            subsets = [frozenset(s) for s in _all_subsets(r)]
            for alphas in product(subsets, repeat=d):
                assert psi_encode(psi_decode(alphas, r), d) == alphas


def _all_subsets(r):
    out = [[]]
    for i in range(1, r + 1):
        out += [s + [i] for s in out]
    return [tuple(s) for s in out]


def test_config_invariants():
    with pytest.raises(ValueError):
        SubsetConfig((frozenset({1}),), frozenset())
    with pytest.raises(ValueError):
        SubsetConfig((frozenset({1}),), frozenset({1, 2}))
    cfg = SubsetConfig((frozenset(), frozenset({3})), frozenset({1, 2}))
    assert cfg.d == 2 and len(config_points(cfg)) == 4


def test_line_to_config_examples():
    L = Line(3, (), frozenset({1, 2, 3}))
    cfg = line_to_config(L, 2)
    assert cfg.base == (frozenset(), frozenset()) and cfg.mover == {1, 2, 3}
    L2 = Line(2, ((1, 2),), frozenset({2}))
    cfg2 = line_to_config(L2, 1)
    assert cfg2.base == (frozenset({1}),) and cfg2.mover == {2}


def test_line_to_config_roundtrip_exhaustive():
    # the induced points are exactly the encodings of the line points
    for d in (1, 2):
        k = 1 << d
        for r in (1, 2, 3):
            for L in all_lines(k, r):
                cfg = line_to_config(L, d)
                pts = [psi_encode(w, d) for w in line_points(L, k)]
                assert config_points(cfg) == pts


def test_mono_config_search_constant():
    cfg = mono_config_search(1, 2, lambda alphas: 1)
    assert cfg is not None


def test_mono_config_search_all_colorings_at_bound():
    # r = 2 is the forcing length for d = 1, two colors: every coloring of
    # the 16 subset-tuples yields a configuration
    subsets = [frozenset(s) for s in _all_subsets(2)]
    domain = [(a,) for a in subsets]
    for colors in product((1, 2), repeat=len(domain)):
        table = dict(zip(domain, colors))
        assert mono_config_search(1, 2, table.get) is not None


def test_mono_config_search_absent_small():
    table = {(frozenset(),): 1, (frozenset({1}),): 2}
    assert mono_config_search(1, 1, table.get) is None


def test_mono_config_search_extension_keeps_success():
    rng = random.Random(9)
    subsets2 = [frozenset(s) for s in _all_subsets(2)]
    subsets3 = [frozenset(s) for s in _all_subsets(3)]
    for _ in range(20):
        table = {(a,): rng.randrange(1, 3) for a in subsets2}
        if mono_config_search(1, 2, table.get) is None:
            continue
        # extend to r = 3 keeping the restriction, new entries random
        big = {(a,): table.get((a,), rng.randrange(1, 3)) for a in subsets3}
        assert mono_config_search(1, 3, big.get) is not None


def test_mono_verdict_agrees_with_direct_line_search():
    rng = random.Random(10)
    subsets = [frozenset(s) for s in _all_subsets(3)]
    for _ in range(30):
        table = {(a,): rng.randrange(1, 3) for a in subsets}
        cfg = mono_config_search(1, 3, table.get)
        words_mono = find_mono_line(2, 3, lambda w: table.get((psi_encode(w, 1)[0],)))
        assert (cfg is None) == (words_mono is None)
        if cfg is not None:
            pts = config_points(cfg)
            assert len({table.get(p) for p in pts}) == 1