import pytest

from ipstar.search import (
    BUDGET_EXCEEDED,
    DONE,
    CoverLeaf,
    check_cover_tree,
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

# toy target: a monochromatic adjacent pair (positions p, p+1 equal color)
def adjacent_accept(colors, pos):
    if pos >= 1 and colors[pos] == colors[pos - 1]:
        return (pos - 1, pos)
    return None


def adjacent_verify(prefix, witness):
    a, b = witness
    return b == a + 1 and b < len(prefix) and prefix[a] == prefix[b]


def pigeon_accept(colors, pos):
    # any earlier position with the same color
    for q in range(pos):
        if colors[q] == colors[pos]:
            return (q, pos)
    return None


def pigeon_verify(prefix, witness):
    q, p = witness
    return q < p < len(prefix) and prefix[q] == prefix[p]


def test_counterexample_is_lex_least():
    out = universal_coloring_search(5, 2, adjacent_accept)
    assert out.status == DONE and out.all_ok is False
    assert out.counterexample == (1, 2, 1, 2, 1)  # least alternating coloring


def test_all_ok_with_cover():
    # 4 positions, 3 colors, target = repeated color: pigeonhole forces it
    out = universal_coloring_search(4, 3, pigeon_accept)
    assert out.status == DONE and out.all_ok is True
    assert out.cover
    assert check_cover_tree(4, 3, out.cover, pigeon_verify)


def test_not_all_ok_when_room():
    out = universal_coloring_search(3, 3, pigeon_accept)
    assert out.all_ok is False
    assert out.counterexample == (1, 2, 3)  # canonical rainbow


def test_cover_tree_rejects_tampering():
    out = universal_coloring_search(4, 3, pigeon_accept)
    leaves = list(out.cover)
    assert check_cover_tree(4, 3, leaves, pigeon_verify)
    # dropped leaf leaves a gap
    assert not check_cover_tree(4, 3, leaves[1:], pigeon_verify)
    assert not check_cover_tree(4, 3, leaves[:-1], pigeon_verify)
    # corrupt one witness
    bad = leaves.copy()
    bad[0] = CoverLeaf(bad[0].prefix, (0, 0))
    assert not check_cover_tree(4, 3, bad, pigeon_verify)
    # corrupt one prefix digit
    bad = leaves.copy()
    p = list(bad[2].prefix)
    p[-1] = p[-1] % 3 + 1
    bad[2] = CoverLeaf(tuple(p), bad[2].witness)
    assert not check_cover_tree(4, 3, bad, pigeon_verify)


def test_empty_cover_proves_nothing():
    assert not check_cover_tree(2, 2, [], adjacent_verify)


def test_budget_resume_agrees_with_full_run():
    full = universal_coloring_search(6, 2, adjacent_accept, want_cover=False)
    assert full.all_ok is False
    part = universal_coloring_search(6, 2, adjacent_accept, budget=7, want_cover=False)
    assert part.status == BUDGET_EXCEEDED and part.resume_path is not None
    resumed = universal_coloring_search(
        6, 2, adjacent_accept, want_cover=False, resume_path=part.resume_path
    )
    assert resumed.status == DONE
    assert resumed.counterexample == full.counterexample
    assert part.candidates + resumed.candidates == full.candidates


def test_budget_resume_rebuilds_the_cover():
    full = universal_coloring_search(5, 3, pigeon_accept)
    assert full.all_ok and check_cover_tree(5, 3, full.cover, pigeon_verify)
    for budget in range(1, full.candidates):
        part = universal_coloring_search(5, 3, pigeon_accept, budget=budget)
        resumed = universal_coloring_search(5, 3, pigeon_accept, resume_path=part.resume_path)
        assert resumed.cover == full.cover
        assert part.candidates + resumed.candidates == full.candidates


def test_resume_path_off_the_frontier_is_refused():
    # (1, 1) is already a pruned leaf, so the search never reaches (1, 1, 1)
    with pytest.raises(ValueError, match="never reached"):
        universal_coloring_search(4, 3, pigeon_accept, resume_path=(1, 1, 1))


def test_dfs_checkpoint_cadence():
    seen = []
    universal_coloring_search(
        6, 2, adjacent_accept, checkpoint_cb=lambda path, ex: seen.append(ex), checkpoint_interval=5
    )
    assert seen and all(ex % 5 == 0 for ex in seen)


def test_canonical_counts_against_plain():
    # canonical mode must agree on the verdict with the unrestricted search
    for M, k in [(4, 2), (4, 3), (5, 2)]:
        a = universal_coloring_search(M, k, pigeon_accept, canonical=True, want_cover=False)
        b = universal_coloring_search(M, k, pigeon_accept, canonical=False, want_cover=False)
        assert a.all_ok == b.all_ok
        assert a.candidates <= b.candidates


def test_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        universal_coloring_search(0, 2, adjacent_accept)
    with pytest.raises(ValueError):
        first_hit(10, lambda i: None, start=-1)
    with pytest.raises(ValueError):
        universal_coloring_search(3, 2, adjacent_accept, resume_path=(3,))
