import pytest

from ipstar.search import (
    ALL_OK,
    BUDGET_EXCEEDED,
    COUNTEREXAMPLE,
    DONE,
    CoverLeaf,
    avoids_every_edge,
    check_cover_tree,
    coloring_stages,
    first_hit,
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


def test_first_hit_checkpoint_cadence():
    seen = []
    first_hit(10, lambda i: None, checkpoint_cb=lambda nxt, ex: seen.append((nxt, ex)), checkpoint_interval=4)
    assert seen == [(4, 4), (8, 8)]


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
    bad[0] = CoverLeaf(bad[0].prefix, (0, 0))
    assert not check_cover_tree(4, 3, bad, pigeon_positions)
    # corrupt one prefix digit
    bad = leaves.copy()
    p = list(bad[2].prefix)
    p[-1] = p[-1] % 3 + 1
    bad[2] = CoverLeaf(tuple(p), bad[2].witness)
    assert not check_cover_tree(4, 3, bad, pigeon_positions)


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


def test_dfs_checkpoint_cadence():
    seen = []
    universal_coloring_search(
        2, adjacent_edges(6), checkpoint_cb=lambda path, ex: seen.append(ex), checkpoint_interval=5
    )
    assert seen and all(ex % 5 == 0 for ex in seen)


def test_canonical_counts_against_plain():
    # canonical mode must agree on the verdict with the unrestricted search
    for M, k in [(4, 2), (4, 3), (5, 2)]:
        a = universal_coloring_search(k, pigeon_edges(M), canonical=True)
        b = universal_coloring_search(k, pigeon_edges(M), canonical=False)
        assert a.kind == b.kind
        assert a.candidates <= b.candidates


# ---------------------------------------------------------------------------
# monochromatic-hyperedge claims and their stages


def test_avoids_every_edge_wants_a_full_coloring_in_range():
    edges = adjacent_edges(3)
    assert avoids_every_edge((1, 2, 1), 2, edges)
    assert not avoids_every_edge((1, 1, 2), 2, edges)  # a monochromatic pair
    assert not avoids_every_edge((1, 2, 3), 2, edges)  # color 3 of 2
    assert not avoids_every_edge((1, 2), 2, edges)  # two positions of three


def test_cover_tree_checks_each_leaf_edge():
    out = universal_coloring_search(2, pigeon_edges(3))
    assert out.kind == ALL_OK
    assert check_cover_tree(3, 2, out.cover, pigeon_positions)
    assert not check_cover_tree(3, 2, out.cover, lambda w: None)  # names no edge
    # position 2 lies past the first leaf's prefix
    bad = [CoverLeaf(out.cover[0].prefix, (0, 2)), *out.cover[1:]]
    assert not check_cover_tree(3, 2, bad, pigeon_positions)
    # (0, 1) is not monochromatic under the second leaf's prefix (1, 2, 1)
    bad = [out.cover[0], CoverLeaf(out.cover[1].prefix, (0, 1)), *out.cover[2:]]
    assert not check_cover_tree(3, 2, bad, pigeon_positions)


def test_coloring_stages_stop_at_the_first_all_ok_stage():
    def run(n, **kw):
        return universal_coloring_search(2, pigeon_edges(n), **kw)

    stages = coloring_stages(range(1, 6), run)
    assert [(n, out.kind) for n, out in stages] == [
        (1, COUNTEREXAMPLE),
        (2, COUNTEREXAMPLE),
        (3, ALL_OK),
    ]


def test_coloring_stages_share_one_budget_and_resume_one_stage():
    def run(n, **kw):
        return universal_coloring_search(2, adjacent_edges(n), **kw)

    full = coloring_stages([1, 2, 3, 4], run)
    assert [out.kind for _, out in full] == [COUNTEREXAMPLE] * 4
    spent = full[0][1].candidates + full[1][1].candidates
    # the first two stages use up the budget, so stage 3 gets none
    part = coloring_stages([1, 2, 3, 4], run, budget=spent)
    n, last = part[-1]
    assert (n, last.kind, last.candidates) == (3, BUDGET_EXCEEDED, 0)
    assert coloring_stages([1, 2, 3, 4], run, resume=(n, last.resume_path)) == full[2:]
    # a budget that ends inside stage 3
    part = coloring_stages([1, 2, 3, 4], run, budget=spent + 2)
    n, last = part[-1]
    assert (n, last.kind, last.candidates) == (3, BUDGET_EXCEEDED, 2)
    rest = coloring_stages([1, 2, 3, 4], run, resume=(n, last.resume_path))
    assert [m for m, _ in rest] == [3, 4] and rest[1] == full[3]
    assert last.candidates + rest[0][1].candidates == full[2][1].candidates


def test_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        universal_coloring_search(2, adjacent_edges(0))
    with pytest.raises(ValueError):
        first_hit(10, lambda i: None, start=-1)
    with pytest.raises(ValueError):
        universal_coloring_search(2, adjacent_edges(3), resume_path=(3,))
