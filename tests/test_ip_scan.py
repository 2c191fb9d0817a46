"""Differential tests of the pruned IP_r scans, and of budget splits on
every search that runs on ``prefix_search``.

``contains_ip_r`` and ``is_ip_r_star`` scan only nondecreasing generator
tuples from their pools (sorted S, or S's complement in its window) and skip whole
blocks of them once a prefix's sums decide the outcome.  The reference
below is the full probe-per-index scan they replaced: decode each index
lexicographically, rebuild the tuple's finite sums from scratch, and let
``first_hit`` find the least hit.  Both must agree on the verdict and the witness.  A budget counts
search nodes, so a scan split by a budget and resumed at its path must give
the unsplit outcome, as must the coloring claim (fk-density's split is
tested in ``test_fk_search.py``).  One scan to level r decides every level
d <= r on the way, so its levels are checked against the reference at each d.
"""

from dataclasses import replace
from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ipstar.algebra import (
    DegreeWindow,
    FullWindow,
    PolyRing,
    PrimeField,
    RationalWindow,
    Rationals,
    VectorSpace,
    window_enumerate,
)
from ipstar.halesjewett import hj_stage
from ipstar.ipsets import contains_ip_r, finite_sums, fu_ramsey_check, is_ip_r_star
from ipstar.search import BUDGET_EXCEEDED, first_hit

MAX_TUPLES = 1500  # keeps the reference scan cheap

AMBIENTS = [
    *[(PrimeField(p), FullWindow()) for p in (2, 3, 5, 7)],
    (VectorSpace(PrimeField(2), 2), FullWindow()),
    (Rationals(), RationalWindow(1, 2)),
    *[(PolyRing(p), DegreeWindow(d)) for p in (2, 3) for d in (1, 2)],
]
EXACT = [a for a in AMBIENTS if isinstance(a[1], FullWindow)]

SETTINGS = settings(max_examples=150, deadline=None)


def _tuple_at(pool, r, index):
    # mixed-radix decode, coordinate 1 most significant
    digits = []
    for _ in range(r):
        index, d = divmod(index, len(pool))
        digits.append(pool[d])
    return tuple(reversed(digits))


def reference_contains_ip_r(group, S, r):
    pool = sorted(S)

    def probe(i):
        tup = _tuple_at(pool, r, i)
        return tup if finite_sums(group, tup) <= S else None

    return first_hit(len(pool) ** r, probe)


def reference_is_ip_r_star(group, window, S, r):
    elems = window_enumerate(group, window)
    ambient = set(elems)
    exact = isinstance(window, FullWindow)

    def probe(i):
        tup = _tuple_at(elems, r, i)
        sums = finite_sums(group, tup)
        if not exact and not sums <= ambient:
            return None
        return tup if not (sums & S) else None

    return first_hit(len(elems) ** r, probe)


def dual_scan(group, window, S, r, **kw):
    """``is_ip_r_star`` on S's complement in the window, in window order."""
    pool = [x for x in window_enumerate(group, window) if x not in S]
    return is_ip_r_star(group, pool, r, **kw)


@st.composite
def instances(draw, ambients=AMBIENTS):
    """(group, window, S, r): S any subset of a small window, r up to what
    the reference scan can afford."""
    group, window = draw(st.sampled_from(ambients))
    elems = window_enumerate(group, window)
    picks = draw(st.lists(st.booleans(), min_size=len(elems), max_size=len(elems)))
    S = frozenset(x for x, keep in zip(elems, picks) if keep)
    r_max = 1
    while len(elems) ** (r_max + 1) <= MAX_TUPLES and r_max < 4:
        r_max += 1
    r = draw(st.integers(1, r_max))
    return group, window, S, r


@SETTINGS
@given(instances())
def test_is_ip_r_star_matches_probe_per_index_scan(inst):
    want = reference_is_ip_r_star(*inst)
    v = dual_scan(*inst)
    assert (v.kind, v.witness) == ("fails" if want.found else "holds", want.value)


@SETTINGS
@given(instances())
def test_contains_ip_r_matches_probe_per_index_scan(inst):
    group, _window, S, r = inst
    assert contains_ip_r(group, S, r) == reference_contains_ip_r(group, S, r).value


@SETTINGS
@given(instances(EXACT))
def test_exact_scans_match_naive_oracle(inst):
    group, window, S, r = inst
    elems = window_enumerate(group, window)
    ok, first = oracles.naive_meets_every_ip_r(group, S, r, elems)
    v = dual_scan(*inst)
    assert (v.kind, v.witness) == (("holds", None) if ok else ("fails", first))
    # all sums land in S exactly when they all avoid S's complement
    ok, first = oracles.naive_meets_every_ip_r(group, set(elems) - S, r, sorted(elems))
    assert contains_ip_r(group, S, r) == (None if ok else first)


def _levels(v, r):
    return {d: (u.kind, u.witness) for d, u in v.levels(r).items()}


@SETTINGS
@given(instances())
def test_one_scan_decides_every_level_below_it(inst):
    # level d fails with the first tuple of length d the scan reached, and
    # that witness is exact even in a window: its sums avoid S everywhere
    group, window, S, r = inst
    want = {}
    for d in range(1, r + 1):
        ref = reference_is_ip_r_star(group, window, S, d)
        want[d] = ("fails", ref.value) if ref.found else ("holds", None)
    v = dual_scan(*inst)
    assert _levels(v, r) == want
    assert (v.kind, v.witness) == want[r]


@SETTINGS
@given(instances(), st.data())
def test_levels_of_a_split_scan_resume_to_the_unsplit_levels(inst, data):
    r = inst[3]
    full = dual_scan(*inst)
    budget = data.draw(st.integers(0, max(full.candidates - 1, 0)), label="budget")
    part = dual_scan(*inst, budget=budget)
    if part.kind != BUDGET_EXCEEDED:  # a scan of 0 nodes
        assert part == full
        return
    levels, whole = _levels(part, r), _levels(full, r)
    # the levels reached so far are final, the next one ran out of budget
    top = max(levels)
    assert levels[top][0] == BUDGET_EXCEEDED
    assert {d: levels[d] for d in range(1, top)} == {d: whole[d] for d in range(1, top)}
    rest = dual_scan(*inst, resume_path=part.resume_path)
    assert _levels(rest, r) == whole


def _davenport(group):
    """n(p - 1) for F_p^n: any n(p - 1) + 1 elements have a non-empty
    zero-sum subset."""
    if isinstance(group, VectorSpace):
        return group.dim * (group.ring.p - 1)
    return group.p - 1


@SETTINGS
@given(instances(EXACT))
def test_scan_depth_is_at_most_the_davenport_bound(inst):
    # with 0 in S, every FS(g_1..g_D) of D = n(p - 1) + 1 generators holds 0,
    # so level D holds and the scan reaches depth n(p - 1) at most
    group, window, S, _ = inst
    bound = _davenport(group)
    v = dual_scan(group, window, S | {group.zero}, bound + 1)
    assert v.holds and len(v.prefixes) <= bound


def _split_and_resume(search, data):
    """Run ``search`` whole, then split by a drawn budget and resumed at the
    split's path with the rest of the budget; both must give one outcome,
    and the split must stop after exactly its budget of nodes."""
    full = search()
    budget = data.draw(st.integers(0, full.candidates), label="budget")
    part = search(budget=budget)
    if budget == full.candidates:
        assert part == full
        return
    assert (part.kind, part.candidates) == (BUDGET_EXCEEDED, budget)
    rest = search(budget=full.candidates - budget, resume_path=part.resume_path)
    assert rest == replace(full, candidates=rest.candidates)
    assert part.candidates + rest.candidates == full.candidates


@SETTINGS
@given(instances(), st.data())
def test_budget_split_then_resume_gives_unsplit_outcome(inst, data):
    _split_and_resume(lambda **kw: dual_scan(*inst, **kw), data)


COLORING_CLAIMS = [
    *[partial(hj_stage, k, t, m) for k, t, m in [(2, 2, 2), (3, 2, 2), (2, 3, 3), (2, 2, 3)]],
    *[partial(fu_ramsey_check, r, s, k) for r, s, k in [(4, 2, 2), (5, 2, 2), (3, 2, 3)]],
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(COLORING_CLAIMS), st.data())
def test_coloring_claim_split_then_resume_gives_unsplit_outcome(claim, data):
    # cover leaves included: the resumed search rebuilds those before the split
    _split_and_resume(claim, data)

