"""Property tests of the fk-density branch and bound.

``fk_density_experiment`` is one depth-first search over x = 1..N on a
table of minimal sum-set edges, bounded by the least blocking set found so
far.  The references here share nothing with it but the edge table: the
per-size search in ``oracles.py`` (the search this one replaced), the
2^N-subset oracle and the brute-force blocking test over ``product``, the
lex-least blocking set of a size found by ``combinations``, and for r = 2
the largest sum-free subset of {1..N}, which has ceil(N/2) elements when
x + x counts as a sum (Cameron and Erdos, 1990).
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ipstar import ipsets
from ipstar.ipsets import (
    BUDGET_EXCEEDED,
    DONE,
    _fk_edges_by_last,
    fk_blocks,
    fk_density_experiment,
)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 9))
def test_minimum_and_lex_least_witness_match_brute_force(r, N):
    res = fk_density_experiment(r, N)
    assert res.status == DONE and res.value == oracles.naive_fk_min_density(r, N)
    size = len(res.witness)
    assert res.value == Fraction(size, N)
    subsets = combinations(range(1, N + 1), size)
    least = next(A for A in subsets if oracles.naive_fk_blocks(r, N, A))
    assert res.witness == frozenset(least)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(1, 20))
def test_value_and_witness_match_the_per_size_search(r, N):
    res = fk_density_experiment(r, N)
    size, witness, _nodes = oracles.per_size_fk_search(r, N, _fk_edges_by_last(r, N))
    assert (res.value, res.witness) == (Fraction(size, N), witness)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 40))
def test_r2_is_the_sum_free_closed_form(N):
    assert fk_density_experiment(2, N).value == Fraction(N // 2, N)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(1, 12), st.data())
def test_budget_stops_after_exactly_b_nodes_and_resume_completes(r, N, data):
    whole = fk_density_experiment(r, N)
    b = data.draw(st.integers(0, whole.candidates + 1), label="budget")
    part = fk_density_experiment(r, N, budget=b)
    if b >= whole.candidates:
        assert part == whole
        return
    assert part.status == BUDGET_EXCEEDED and part.candidates == b
    assert part.value is None and part.witness is None
    # resumed at its path, the search needs exactly the nodes the split left
    rest = fk_density_experiment(r, N, budget=whole.candidates - b, resume_path=part.resume_path)
    assert (rest.status, rest.value, rest.witness) == (DONE, whole.value, whole.witness)
    assert rest.candidates == whole.candidates - b


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.integers(1, 10), st.data())
def test_fk_blocks_matches_brute_force(r, N, data):
    A = data.draw(st.sets(st.integers(1, N)), label="A")
    assert fk_blocks(r, N, A) == oracles.naive_fk_blocks(r, N, A)


def _tuples(r, N):
    """Every nondecreasing r-tuple of positive ints with total at most N."""
    level = [()]
    for left in range(r, 0, -1):
        level = [t + (g,) for t in level for g in range(t[-1] if t else 1, (N - sum(t)) // left + 1)]
    return level


def _sums(t):
    return {sum(c) for k in range(1, len(t) + 1) for c in combinations(t, k)}


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_edge_table_holds_every_distinct_sum_set_under_its_largest_element(r):
    for N in range(1, 25):
        edges = {frozenset(_sums(t)) for t in _tuples(r, N)}
        table = _fk_edges_by_last(r, N)
        listed = [(x, frozenset(y for y in range(N + 1) if e >> y & 1))
                  for x, es in enumerate(table) for e in es]
        assert len(listed) == len(edges) and {e for _x, e in listed} == edges, N
        assert all(max(e) == x for x, e in listed), N
        assert all([e.bit_count() for e in es] == sorted(e.bit_count() for e in es) for es in table)


@pytest.mark.parametrize("r, N", [(1, 10), (2, 10), (3, 12), (4, 20)])
def test_edge_table_is_refused_exactly_when_its_tuples_pass_the_cap(r, N, monkeypatch):
    tuples = len(_tuples(r, N))  # N < 64: each edge is one machine word
    monkeypatch.setattr(ipsets, "SIZE_CAP", tuples)
    assert any(_fk_edges_by_last(r, N))
    monkeypatch.setattr(ipsets, "SIZE_CAP", tuples - 1)
    with pytest.raises(ValueError, match=f"fk r={r} N={N} has more than {tuples - 1} generator tuples"):
        _fk_edges_by_last(r, N)


def test_r3_n30():
    # beyond the reach of the subset brute force; agrees with a separate
    # branch-and-bound over the largest set C free of 3-generator families
    res = fk_density_experiment(3, 30)
    assert res.value == Fraction(3, 10)
    assert res.witness == frozenset(range(2, 19, 2))
    assert res.candidates == 1052


def test_r3_n42():
    # the value and witness that the search without the packing bound
    # reaches in 5,128,312 nodes
    res = fk_density_experiment(3, 42)
    assert res.value == Fraction(13, 42)
    assert res.witness == frozenset({1, 2, 3, 4, *range(10, 19)})
    assert res.candidates == 1718


@pytest.mark.parametrize(
    "r, N, nodes",
    [(2, 16, 108), (2, 17, 126), (2, 18, 128), (3, 12, 106), (2, 24, 248)],
)
def test_node_counts(r, N, nodes):
    # the search's work as a machine-independent count; more nodes with the
    # same answer means a prune was lost
    assert fk_density_experiment(r, N).candidates == nodes


def test_a_witness_that_does_not_block_is_refused(monkeypatch):
    # with no edges the search would call the empty set blocking
    monkeypatch.setattr(ipsets, "_fk_edges_by_last", lambda r, N: [[] for _ in range(N + 1)])
    with pytest.raises(RuntimeError, match="non-blocking"):
        fk_density_experiment(2, 6)
