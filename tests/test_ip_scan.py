"""Differential tests of the pruned IP_r scans.

``contains_ip_r`` and ``is_ip_r_star`` skip whole blocks of generator tuples
once a prefix's sums decide the outcome.  The reference below is the
probe-per-index scan they replaced: decode each index lexicographically,
rebuild the tuple's finite sums from scratch, and let ``first_hit`` find the
least hit.  Both must agree on the witness, the candidate count and the
resume index, for every budget and start.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ipstar.algebra import (
    DegreeWindow,
    FullWindow,
    IntegerWindow,
    Integers,
    PolyRing,
    PrimeField,
    RationalWindow,
    Rationals,
    VectorSpace,
    window_enumerate,
)
from ipstar.ipsets import ElementSet, contains_ip_r, finite_sums, is_ip_r_star
from ipstar.search import BUDGET_EXCEEDED, first_hit

MAX_TUPLES = 1500  # keeps the reference scan cheap

AMBIENTS = [
    *[(PrimeField(p), FullWindow()) for p in (2, 3, 5, 7)],
    (VectorSpace(PrimeField(2), 2), FullWindow()),
    *[(Integers(), IntegerWindow(b)) for b in (0, 1, 2, 3)],
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


def reference_contains_ip_r(S, r, pool, budget=None, start=0):
    def probe(i):
        tup = _tuple_at(pool, r, i)
        return tup if finite_sums(S.group, tup).members <= S.members else None

    return first_hit(len(pool) ** r, probe, budget=budget, start=start)


def reference_is_ip_r_star(S, r, budget=None, start=0):
    elems = window_enumerate(S.group, S.window)
    ambient = set(elems)

    def probe(i):
        tup = _tuple_at(elems, r, i)
        sums = finite_sums(S.group, tup).members
        if not S.exact and not sums <= ambient:
            return None
        return tup if not (sums & S.members) else None

    return first_hit(len(elems) ** r, probe, budget=budget, start=start)


def _star_view(out):
    if out.status == BUDGET_EXCEEDED:
        return "budget_exceeded", None, out.candidates, out.resume_index
    kind = "fails" if out.found else "holds"
    return kind, out.value, out.candidates, out.resume_index


def _star_scan(S, r, pool, **kw):
    v = is_ip_r_star(S, r, **kw)
    return v.kind, v.witness, v.candidates, v.resume_index


def _contains_scan(S, r, pool, **kw):
    res = contains_ip_r(S, r, pool, **kw)
    return res.status, res.witness, res.candidates, res.resume_index


@st.composite
def instances(draw, ambients=AMBIENTS):
    """(S, r, pool) with the pool either the window itself or an explicit
    sequence of window elements, repeats and non-members allowed."""
    group, window = draw(st.sampled_from(ambients))
    elems = window_enumerate(group, window)
    picks = draw(st.lists(st.booleans(), min_size=len(elems), max_size=len(elems)))
    S = ElementSet(group, {x for x, keep in zip(elems, picks) if keep}, window)
    pool = draw(st.one_of(st.just(elems), st.lists(st.sampled_from(elems), max_size=6)))
    r_max = 1
    while len(elems) ** (r_max + 1) <= MAX_TUPLES and r_max < 4:
        r_max += 1
    r = draw(st.integers(1, r_max))
    return S, r, list(pool)


@st.composite
def budgets_and_starts(draw, count):
    budget = draw(st.one_of(st.none(), st.integers(0, count + 2)))
    start = draw(st.integers(0, count))
    return budget, start


@SETTINGS
@given(instances(), st.data())
def test_is_ip_r_star_matches_probe_per_index_scan(inst, data):
    S, r, _pool = inst
    count = len(window_enumerate(S.group, S.window)) ** r
    budget, start = data.draw(budgets_and_starts(count))
    got = _star_scan(S, r, None, budget=budget, start=start)
    assert got == _star_view(reference_is_ip_r_star(S, r, budget, start))
    assert is_ip_r_star(S, r, budget=0).window_limited == (not S.exact)


@SETTINGS
@given(instances(), st.data())
def test_contains_ip_r_matches_probe_per_index_scan(inst, data):
    S, r, pool = inst
    budget, start = data.draw(budgets_and_starts(len(pool) ** r))
    want = reference_contains_ip_r(S, r, pool, budget, start)
    assert _contains_scan(S, r, pool, budget=budget, start=start) == (
        want.status,
        want.value,
        want.candidates,
        want.resume_index,
    )


@SETTINGS
@given(instances(EXACT))
def test_exact_scans_match_naive_oracle(inst):
    S, r, _pool = inst
    elems = window_enumerate(S.group, S.window)
    ok, first = oracles.naive_meets_every_ip_r(S.group, S.members, r, elems)
    v = is_ip_r_star(S, r)
    assert (v.kind, v.witness) == (("holds", None) if ok else ("fails", first))
    # all sums land in S exactly when they all avoid S's complement
    ok, first = oracles.naive_meets_every_ip_r(S.group, set(elems) - S.members, r, elems)
    assert contains_ip_r(S, r, FullWindow()).witness == (None if ok else first)


@SETTINGS
@given(instances(), st.data())
def test_budget_split_then_resume_gives_unsplit_outcome(inst, data):
    S, r, pool = inst
    for scan in (_star_scan, _contains_scan):
        full = scan(S, r, pool)
        budget = data.draw(st.integers(0, max(full[2], 1)))
        first = scan(S, r, pool, budget=budget)
        if first[3] is None:  # finished inside the budget
            assert first == full
            continue
        assert first[2] == budget
        rest = scan(S, r, pool, start=first[3])
        assert rest[:2] == full[:2]
        assert first[2] + rest[2] == full[2]
