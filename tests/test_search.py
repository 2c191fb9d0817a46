import gc
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import plain_coloring_search, stepwise_check_cover_tree, through_first_all_ok

from ipstar import halesjewett
from ipstar.halesjewett import hj_stage
from ipstar.search import (
    ALL_OK,
    BUDGET_EXCEEDED,
    COUNTEREXAMPLE,
    CUT,
    DONE,
    Cut,
    CoverLeaf,
    LeafLog,
    avoids_every_edge,
    check_cover_tree,
    first_hit,
    prefix_search,
    stages,
    universal_coloring_search,
)


def test_first_hit_least_index():
    hits = {17, 40, 3}
    out = first_hit(100, lambda i: i if i in hits else None)
    assert out.status == DONE and out.index == 3 and out.value == 3
    assert out.candidates == 4


def test_first_hit_absent():
    out = first_hit(50, lambda i: None)
    assert out.status == DONE and not out.found and out.candidates == 50


def test_first_hit_budget_and_resume():
    out = first_hit(1000, lambda i: i if i == 700 else None, budget=100)
    assert out.status == BUDGET_EXCEEDED and out.resume_index == 100
    assert out.candidates == 100
    out2 = first_hit(1000, lambda i: i if i == 700 else None, budget=100000, start=out.resume_index)
    assert out2.status == DONE and out2.index == 700


# ---------------------------------------------------------------------------
# universal coloring search

# toy targets, as hyperedge tables: a monochromatic adjacent pair, or any
# two positions of one color (the pigeonhole)
def adjacent_edges(M):
    return [[((p - 1, p), (p - 1, p))] if p else [] for p in range(M)]


def pigeon_edges(M):
    return [[((q, p), (q, p)) for q in range(p)] for p in range(M)]


# verification-only decoders of their witnesses into edge positions
def adjacent_positions(witness):
    a, b = witness
    return witness if 0 <= a and b == a + 1 else None


def pigeon_positions(witness):
    q, p = witness
    return witness if 0 <= q < p else None


def test_counterexample_is_lex_least():
    out = universal_coloring_search(2, adjacent_edges(5))
    assert out.kind == COUNTEREXAMPLE
    assert out.coloring == (1, 2, 1, 2, 1)  # least alternating coloring


def test_all_ok_with_cover():
    # 4 positions, 3 colors, target = repeated color: pigeonhole forces it
    out = universal_coloring_search(3, pigeon_edges(4))
    assert out.kind == ALL_OK
    assert out.cover
    assert check_cover_tree(4, 3, out.cover, pigeon_positions)


def test_not_all_ok_when_room():
    out = universal_coloring_search(3, pigeon_edges(3))
    assert out.kind == COUNTEREXAMPLE
    assert out.coloring == (1, 2, 3)  # canonical rainbow


def test_cover_tree_rejects_tampering():
    out = universal_coloring_search(3, pigeon_edges(4))
    leaves = list(out.cover)
    assert check_cover_tree(4, 3, leaves, pigeon_positions)
    # dropped leaf leaves a gap
    assert not check_cover_tree(4, 3, leaves[1:], pigeon_positions)
    assert not check_cover_tree(4, 3, leaves[:-1], pigeon_positions)
    # corrupt one witness
    bad = leaves.copy()
    bad[0] = CoverLeaf(bad[0].prefix, ((0, 0),))
    assert not check_cover_tree(4, 3, bad, pigeon_positions)
    # corrupt one prefix digit
    bad = leaves.copy()
    p = list(bad[1].prefix)
    p[-1] = p[-1] % 3 + 1
    bad[1] = CoverLeaf(tuple(p), bad[1].witness)
    assert not check_cover_tree(4, 3, bad, pigeon_positions)


def test_a_leaf_lists_the_edges_its_propagation_fired():
    # under (1, 2) positions 2 and 3 lose colors 1 and 2, are forced to 3,
    # and the edge between them is monochromatic
    out = universal_coloring_search(3, pigeon_edges(4))
    assert list(out.cover) == [
        CoverLeaf((1, 1), ((0, 1),)),
        CoverLeaf((1, 2), ((0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
    ]


def triple_edges(M):
    return [[((a, b, p),) * 2 for a, b in combinations(range(p), 2)] for p in range(M)]


def triple_positions(witness):
    # no bound on the positions: check_cover_tree refuses those past M itself
    return witness if len(witness) == 3 and 0 <= witness[0] < witness[1] < witness[2] else None


@pytest.mark.parametrize(
    "tamper",
    [
        lambda r: r[1:],  # a dropped reason: position 2 is never forced
        lambda r: (r[-1], *r[1:-1], r[0]),  # the first and last swapped
        lambda r: (*r, (0, 1, 2)),  # an edge after the conflict
        lambda r: (r[0], (1, 2, 3), *r[1:]),  # colored cells that disagree: 1 and 2
        lambda r: ((0, 2, 3), *r),  # two free cells
        lambda r: r[:-1],  # no conflict at the end
        lambda r: ((0, 1, 5), *r),  # a position past M = 5
    ],
)
def test_cover_tree_rejects_tampered_reasons(tamper):
    # every 2-coloring of 5 positions has a monochromatic triple; under the
    # prefix (1, 1) positions 2, 3, 4 are forced to 2
    leaves = list(universal_coloring_search(2, triple_edges(5)).cover)
    assert check_cover_tree(5, 2, leaves, triple_positions)
    assert leaves[0] == CoverLeaf((1, 1), ((0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 3, 4)))
    bad = [CoverLeaf((1, 1), tamper(leaves[0].witness)), *leaves[1:]]
    assert not check_cover_tree(5, 2, bad, triple_positions)


def test_hj_cover_replay_decodes_each_line_once(monkeypatch):
    # 24 leaves name 72 lines, 31 of them distinct; each is decoded once
    cover = hj_stage(2, 5, 5).cover
    calls = []
    decode = halesjewett.is_line_point_tuple
    monkeypatch.setattr(
        halesjewett, "is_line_point_tuple", lambda *a: calls.append(a) or decode(*a)
    )
    assert halesjewett.hj_check_cover(2, 5, 5, cover)
    assert (len(cover), len(calls), len(set(calls))) == (24, 31, 31)


def test_empty_cover_proves_nothing():
    assert not check_cover_tree(2, 2, [], adjacent_positions)


def test_budget_resume_agrees_with_full_run():
    full = universal_coloring_search(2, adjacent_edges(6))
    assert full.kind == COUNTEREXAMPLE
    part = universal_coloring_search(2, adjacent_edges(6), budget=7)
    assert part.kind == BUDGET_EXCEEDED and part.resume_path is not None
    resumed = universal_coloring_search(2, adjacent_edges(6), resume_path=part.resume_path)
    assert resumed.kind == COUNTEREXAMPLE
    assert resumed.coloring == full.coloring
    assert part.candidates + resumed.candidates == full.candidates


def test_budget_resume_rebuilds_the_cover():
    full = universal_coloring_search(3, pigeon_edges(5))
    assert full.kind == ALL_OK and check_cover_tree(5, 3, full.cover, pigeon_positions)
    for budget in range(1, full.candidates):
        part = universal_coloring_search(3, pigeon_edges(5), budget=budget)
        resumed = universal_coloring_search(3, pigeon_edges(5), resume_path=part.resume_path)
        assert resumed.cover == full.cover
        assert part.candidates + resumed.candidates == full.candidates


def test_resume_path_off_the_frontier_is_refused():
    # (1, 1) is already a pruned leaf, so the search never reaches (1, 1, 1)
    with pytest.raises(ValueError, match="never reached"):
        universal_coloring_search(3, pigeon_edges(4), resume_path=(1, 1, 1))


def test_canonical_counts_against_plain():
    # the canonical colors must agree on the verdict with the search over
    # every coloring, run on the engine with the unrestricted span
    def plain(k, edges_by_last):
        def extend(state, depth, c, colors):
            for _witness, positions in edges_by_last[depth]:
                if all(colors[q] == c for q in positions):
                    return CUT
            return state

        return prefix_search(None, len(edges_by_last), lambda s, d: (1, k + 1), extend)

    for M, k in [(4, 2), (4, 3), (5, 2)]:
        a = universal_coloring_search(k, pigeon_edges(M))
        b = plain(k, pigeon_edges(M))
        assert (a.kind == ALL_OK) == (b.path is None)
        assert a.candidates <= b.candidates


# ---------------------------------------------------------------------------
# the propagating search against the plain one


@st.composite
def hyperedge_tables(draw):
    """(k, table, decode): k of 1-3 colors, up to 12 positions, random
    edges of 2-4 positions and every pair of a random set of up to k + 1
    positions (all k+1 of them leave no coloring free of a monochromatic
    pair), each edge listed under its last position and named by its sorted
    positions; ``decode`` knows exactly these edges."""
    k = draw(st.integers(1, 3))
    M = draw(st.integers(1, 12))
    positions = st.integers(0, M - 1)
    cells = st.sets(positions, min_size=min(2, M), max_size=min(4, M))
    edges = {tuple(sorted(e)) for e in draw(st.lists(cells, max_size=3 * M))}
    clique = sorted(draw(st.sets(positions, max_size=k + 1)))
    edges.update((a, b) for i, a in enumerate(clique) for b in clique[i + 1 :])
    table = [[] for _ in range(M)]
    for e in sorted(edges):
        table[e[-1]].append((e, e))
    return k, table, lambda w: w if w in edges else None


@settings(max_examples=150, deadline=None)
@given(hyperedge_tables(), st.data())
def test_propagation_agrees_with_the_plain_search(problem, data):
    k, table, decode = problem
    M = len(table)
    out = universal_coloring_search(k, table)
    plain = plain_coloring_search(k, table)
    assert (out.kind, out.coloring) == (plain.kind, plain.coloring)
    assert out.candidates <= plain.candidates
    if out.kind == ALL_OK:
        assert check_cover_tree(M, k, out.cover, decode)
        assert check_cover_tree(M, k, plain.cover, decode)  # one-edge leaves
    else:
        assert avoids_every_edge(out.coloring, k, table)
    # a split resumes to the unsplit outcome: at every node count of a small
    # search, and at the ends and ten drawn counts of a large one, since each
    # split replays the search up to its path
    n = out.candidates
    budgets = range(n)
    if n > 300:
        drawn = data.draw(st.lists(st.integers(2, n - 2), min_size=10, max_size=10), label="budgets")
        budgets = sorted({0, 1, n - 1, *drawn})
    for budget in budgets:
        part = universal_coloring_search(k, table, budget=budget)
        assert (part.kind, part.candidates) == (BUDGET_EXCEEDED, budget)
        rest = universal_coloring_search(k, table, resume_path=part.resume_path)
        assert (rest.kind, rest.coloring, rest.cover) == (out.kind, out.coloring, out.cover)
        assert part.candidates + rest.candidates == out.candidates


# ---------------------------------------------------------------------------
# the cover replay against the one that rebuilds its state each step


def _mutated(leaves, M, k, draw):
    """A cover with up to three edits drawn: a leaf whose prefix skips a
    color, jumps ahead, grows (or is padded with color 1 to M positions),
    shrinks or repeats; a leaf dropped, repeated or moved; reasons dropped
    or reordered; the whole cover repeated."""
    leaves = list(leaves)
    for _ in range(draw(st.integers(0, 3), label="edits")):
        if not leaves:
            break
        i = draw(st.integers(0, len(leaves) - 1), label="leaf")
        prefix, reasons = list(leaves[i].prefix), leaves[i].witness
        edit = draw(st.sampled_from([
            "skip", "jump", "grow", "pad", "shrink", "digit", "drop", "repeat", "move",
            "reasons", "reorder", "twice",
        ]), label="edit")
        if not prefix and edit in ("skip", "jump", "shrink", "digit"):
            edit = "grow"
        if edit == "skip":  # a color above every one before it plus one
            j = draw(st.integers(0, len(prefix) - 1))
            prefix[j] = max(prefix[:j], default=0) + 2
        elif edit == "jump":  # the last choice one further
            prefix[-1] += 1
        elif edit == "grow":
            prefix.append(draw(st.integers(1, k + 1)))
        elif edit == "pad":
            prefix += [1] * (M - len(prefix))
        elif edit == "shrink":
            prefix.pop()
        elif edit == "digit":
            prefix[draw(st.integers(0, len(prefix) - 1))] = draw(st.integers(0, k + 1))
        elif edit == "drop":
            del leaves[i]
            continue
        elif edit == "repeat":
            leaves.insert(i, leaves[i])
            continue
        elif edit == "move":
            leaves.insert(draw(st.integers(0, len(leaves) - 1)), leaves.pop(i))
            continue
        elif edit == "reasons":
            reasons = reasons[: draw(st.integers(0, max(len(reasons) - 1, 0)))]
        elif edit == "reorder":
            reasons = tuple(reversed(reasons))
        else:
            leaves += leaves
            continue
        leaves[i] = CoverLeaf(tuple(prefix), reasons)
    return leaves


@settings(max_examples=300, deadline=None)
@given(hyperedge_tables(), st.data())
def test_cover_replay_agrees_with_the_stepwise_replay_on_mutated_covers(problem, data):
    k, table, decode = problem
    M = len(table)
    out = universal_coloring_search(k, table)
    leaves = out.cover if out.kind == ALL_OK else plain_coloring_search(k, pigeon_edges(M)).cover
    decode = decode if out.kind == ALL_OK else pigeon_positions
    if leaves is None:  # M <= k: no cover to mutate
        leaves = [CoverLeaf((1,), ())]
    cover = _mutated(leaves, M, k, data.draw)
    M_, k_ = (data.draw(st.integers(max(n - 1, 1), n + 1), label=n) for n in (M, k))
    assert check_cover_tree(M_, k_, cover, decode) == stepwise_check_cover_tree(M_, k_, cover, decode)


def test_cover_replay_refuses_a_leaf_longer_than_m():
    # with one color, the prefix (1, 1, 1) makes the pair (0, 1)
    # monochromatic, but only a claim over 3 positions has a third one
    leaves = [CoverLeaf((1, 1, 1), ((0, 1),))]
    assert check_cover_tree(3, 1, leaves, adjacent_positions)
    assert stepwise_check_cover_tree(3, 1, leaves, adjacent_positions)
    assert not check_cover_tree(2, 1, leaves, adjacent_positions)
    assert not stepwise_check_cover_tree(2, 1, leaves, adjacent_positions)


# ---------------------------------------------------------------------------
# the prefix search against enumerating every path


@st.composite
def prefix_problems(draw):
    """A random tree: per depth a span that depends on the prefix's state
    (here the prefix itself), a random set of cut prefixes, and witnesses on
    some of the cuts."""
    length = draw(st.integers(1, 4))
    width = draw(st.integers(1, 3))
    lows = draw(st.lists(st.integers(0, 1), min_size=length, max_size=length))
    cut_bits = draw(st.integers(0, 2**30))
    return length, width, lows, cut_bits


def _tree(length, width, lows, cut_bits):
    def span(prefix, depth):
        # the span narrows after a 0 and may be empty
        lo = lows[depth]
        return lo, width + lo - (1 if prefix and prefix[-1] == 0 else 0)

    def cut_at(prefix):
        return cut_bits >> (hash(prefix) % 31) & 1

    def extend(prefix, depth, c, path):
        child = prefix + (c,)
        assert tuple(path[: depth + 1]) == child
        if cut_at(child):
            return Cut(child) if sum(child) % 2 else CUT
        return child

    def nodes(prefix=()):
        # every prefix of the tree in DFS order, as "cut", "inner" or "path"
        lo, hi = span(prefix, len(prefix))
        for c in range(lo, hi):
            child = prefix + (c,)
            if cut_at(child):
                yield "cut", child
            elif len(child) == length:
                yield "path", child
            else:
                yield "inner", child
                yield from nodes(child)

    return span, extend, nodes


@settings(max_examples=200, deadline=None)
@given(prefix_problems(), st.data())
def test_prefix_search_matches_enumerating_every_path(problem, data):
    length, width, lows, cut_bits = problem
    span, extend, nodes = _tree(length, width, lows, cut_bits)
    seen = []  # the nodes up to the first full path
    for kind, prefix in nodes():
        seen.append((kind, prefix))
        if kind == "path":
            break
    out = prefix_search((), length, span, extend)
    assert out.status == DONE and out.candidates == len(seen)
    assert out.path == (seen[-1][1] if seen and seen[-1][0] == "path" else None)
    witnessed = [p for kind, p in seen if kind == "cut" and sum(p) % 2]
    assert [leaf.prefix for leaf in out.leaves] == witnessed
    assert [leaf.witness for leaf in out.leaves] == witnessed
    # a split anywhere resumes to the same outcome and the same total
    budget = data.draw(st.integers(0, out.candidates))
    part = prefix_search((), length, span, extend, budget=budget)
    if budget == out.candidates:
        assert part == out
        return
    assert (part.status, part.candidates) == (BUDGET_EXCEEDED, budget)
    rest = prefix_search((), length, span, extend, resume_path=part.resume_path)
    assert (rest.status, rest.path, rest.leaves) == (DONE, out.path, out.leaves)
    assert part.candidates + rest.candidates == out.candidates


def test_prefix_search_tries_choices_in_order_and_counts_each_node():
    seen = []

    def extend(state, depth, c, path):
        seen.append(tuple(path[: depth + 1]))
        return CUT if c == 0 else state

    out = prefix_search(None, 2, lambda s, d: (0, 2), extend)
    assert seen == [(0,), (1,), (1, 0), (1, 1)]
    assert (out.path, out.candidates, out.leaves) == ((1, 1), 4, ())


# ---------------------------------------------------------------------------
# monochromatic-hyperedge claims and their stages


def test_avoids_every_edge_wants_a_full_coloring_in_range():
    edges = adjacent_edges(3)
    assert avoids_every_edge((1, 2, 1), 2, edges)
    assert not avoids_every_edge((1, 1, 2), 2, edges)  # a monochromatic pair
    assert not avoids_every_edge((1, 2, 3), 2, edges)  # color 3 of 2
    assert not avoids_every_edge((1, 2), 2, edges)  # two positions of three


def test_cover_tree_checks_each_leaf_edge():
    # one-edge leaves, as the search without propagation writes them
    out = plain_coloring_search(2, pigeon_edges(3))
    assert out.kind == ALL_OK
    assert check_cover_tree(3, 2, out.cover, pigeon_positions)
    assert not check_cover_tree(3, 2, out.cover, lambda w: None)  # names no edge
    # position 2 lies past the first leaf's prefix
    bad = [CoverLeaf(out.cover[0].prefix, ((0, 2),)), *out.cover[1:]]
    assert not check_cover_tree(3, 2, bad, pigeon_positions)
    # (0, 1) is not monochromatic under the second leaf's prefix (1, 2, 1)
    bad = [out.cover[0], CoverLeaf(out.cover[1].prefix, ((0, 1),)), *out.cover[2:]]
    assert not check_cover_tree(3, 2, bad, pigeon_positions)


def test_coloring_stages_stop_at_the_first_all_ok_stage():
    def run(n, **kw):
        return universal_coloring_search(2, pigeon_edges(n), **kw)

    done = through_first_all_ok(stages(range(1, 6), run))
    assert [(n, out.kind) for n, out in done] == [
        (1, COUNTEREXAMPLE),
        (2, COUNTEREXAMPLE),
        (3, ALL_OK),
    ]


def test_coloring_stages_yield_each_stage_as_it_ends():
    def run(n, **kw):
        if n == 3:
            raise ValueError("stage 3 refused")
        return universal_coloring_search(2, adjacent_edges(n), **kw)

    staged = stages([1, 2, 3], run)
    assert [(n, out.kind) for n, out in (next(staged), next(staged))] == [
        (1, COUNTEREXAMPLE),
        (2, COUNTEREXAMPLE),
    ]
    with pytest.raises(ValueError, match="stage 3 refused"):
        next(staged)


def test_coloring_stages_share_one_budget_and_resume_one_stage():
    def run(n, **kw):
        return universal_coloring_search(2, adjacent_edges(n), **kw)

    full = through_first_all_ok(stages([1, 2, 3, 4], run))
    assert [out.kind for _, out in full] == [COUNTEREXAMPLE] * 4
    spent = full[0][1].candidates + full[1][1].candidates
    # the first two stages use up the budget, so stage 3 gets none
    part = through_first_all_ok(stages([1, 2, 3, 4], run, budget=spent))
    n, last = part[-1]
    assert (n, last.kind, last.candidates) == (3, BUDGET_EXCEEDED, 0)
    rest = through_first_all_ok(stages([1, 2, 3, 4], run, resume=(n, last.resume_path)))
    assert rest == full[2:]
    # a budget that ends inside stage 3
    part = through_first_all_ok(stages([1, 2, 3, 4], run, budget=spent + 2))
    n, last = part[-1]
    assert (n, last.kind, last.candidates) == (3, BUDGET_EXCEEDED, 2)
    rest = through_first_all_ok(stages([1, 2, 3, 4], run, resume=(n, last.resume_path)))
    assert [m for m, _ in rest] == [3, 4] and rest[1] == full[3]
    assert last.candidates + rest[0][1].candidates == full[2][1].candidates


def test_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        universal_coloring_search(2, adjacent_edges(0))
    with pytest.raises(ValueError):
        first_hit(10, lambda i: None, start=-1)
    with pytest.raises(ValueError):
        universal_coloring_search(2, adjacent_edges(3), resume_path=(3,))
    with pytest.raises(ValueError, match="bad resume path"):
        prefix_search(None, 2, lambda s, d: (0, 2), lambda s, d, c, p: s, resume_path=(0, 0, 0))


# ---------------------------------------------------------------------------
# the leaf log


choices = st.integers(0, 3) | st.integers(-(2**63), 2**63 - 1)
cover_leaves = st.builds(CoverLeaf, st.lists(choices, max_size=5).map(tuple), st.integers(0, 3))


@settings(max_examples=200, deadline=None)
@given(st.lists(cover_leaves, max_size=8), cover_leaves, st.data())
def test_leaf_log_reads_as_the_list_of_its_leaves(leaves, extra, data):
    log = LeafLog(leaves)
    assert len(log) == len(leaves) and list(log) == leaves
    assert all(a.witness is b.witness for a, b in zip(log, leaves))
    assert log == leaves and log == tuple(leaves) and log == LeafLog(leaves)
    for other in ([*leaves, extra], leaves[:-1] + [extra]):
        assert (log == other) == (leaves == other)
    if leaves:
        i = data.draw(st.integers(-len(leaves), len(leaves) - 1))
        assert log[i] == leaves[i]
    cut = data.draw(st.slices(len(leaves)))
    assert log[cut] == leaves[cut]
    log.append(extra)
    assert log == [*leaves, extra]


def _traced(call):
    """(result, memory held after the call, peak during it) in bytes, for a
    call warmed by one untraced run."""
    call()
    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
        gc.collect()  # empties the interpreter's free lists, which count as held
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return out, held, peak


def test_a_counterexample_stage_stays_small_while_it_searches():
    # stage m=3 of hj k=4 t=2 colours up to 64 positions, forcing most of them
    out, _held, peak = _traced(lambda: hj_stage(4, 2, 3))
    assert out.kind == COUNTEREXAMPLE
    assert peak < 1 << 20


def test_a_cover_is_held_in_a_few_bytes_a_leaf():
    out, held, _peak = _traced(lambda: hj_stage(2, 5, 5))
    assert out.kind == ALL_OK and len(out.cover) == 24
    assert held < 200 << 10
