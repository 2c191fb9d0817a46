import random
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ipstar.algebra import (
    Integers,
    Monomial,
    PolyRing,
    PolynomialMap,
    PrimeField,
    RationalWindow,
    Rationals,
    VectorSpace,
)
from ipstar.ipsets import (
    BUDGET_EXCEEDED,
    BlockExample,
    contains_ip_r,
    example_a,
    example_a_checks,
    finite_sums,
    finite_unions,
    fk_density_experiment,
    fk_odds_certificate,
    fu_check_cover,
    fu_coloring_is_counterexample,
    fu_ramsey_check,
    is_ip_r_star,
    mask_to_set,
    set_to_mask,
    subset_folds,
)
from ipstar import ipsets
from ipstar.recurrence import classify_ipstar, recurrence_set
from ipstar.systems import RotationSystem
from ipstar.textio import report_tree
from ipstar.search import CoverLeaf, prefix_search, stages
from oracles import family_order, through_first_all_ok

Z = Integers()
F5 = PrimeField(5)


def test_mask_roundtrip():
    for m in range(1, 64):
        assert set_to_mask(mask_to_set(m)) == m
    assert family_order(3) == [
        frozenset(s) for s in [{1}, {2}, {1, 2}, {3}, {1, 3}, {2, 3}, {1, 2, 3}]
    ]


# ---------------------------------------------------------------------------
# the subset fold

FOLD_GROUPS = [Rationals(), PrimeField(5), PolyRing(3), VectorSpace(Rationals(), 2)]


def _raw_element(group):
    """Values that ``group.element`` turns into elements of group."""
    ints = st.integers(-20, 20)
    if isinstance(group, PolyRing):
        return st.lists(ints, max_size=4)
    if isinstance(group, VectorSpace):
        return st.tuples(*[st.fractions(-5, 5, max_denominator=6)] * group.dim)
    return ints


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_subset_folds_sums_match_the_naive_oracle(data):
    group = data.draw(st.sampled_from(FOLD_GROUPS))
    gens = [group.element(x) for x in data.draw(st.lists(_raw_element(group), max_size=5))]
    folds = subset_folds(group.add, group.zero, gens)
    assert len(folds) == 1 << len(gens) and folds[0] == group.zero
    assert {mask_to_set(m): v for m, v in enumerate(folds) if m} == oracles.naive_subset_sums(
        group, gens
    )


def _per_mask(op, unit, items):
    out = []
    for mask in range(1 << len(items)):
        acc = unit
        for i, x in enumerate(items):
            if mask >> i & 1:
                acc = op(acc, x)
        out.append(acc)
    return out


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_subset_folds_products_and_unions_match_a_per_mask_fold(data):
    ring = data.draw(st.sampled_from(FOLD_GROUPS[:3]))
    gens = [ring.element(x) for x in data.draw(st.lists(_raw_element(ring), max_size=5))]
    assert subset_folds(ring.mul, ring.one, gens) == _per_mask(ring.mul, ring.one, gens)
    blocks = data.draw(st.lists(st.frozensets(st.integers(1, 9)), max_size=5))
    assert subset_folds(frozenset.union, frozenset(), blocks) == _per_mask(
        frozenset.union, frozenset(), blocks
    )


@given(st.integers(1, 7), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_fu_table_matches_the_naive_families(r, s):
    table = ipsets._fu_checks_by_position(r, s)
    position = {a: i for i, a in enumerate(oracles.naive_subsets_of(r))}
    naive = [set() for _ in table]
    for blocks, unions in oracles.naive_fu_families(r, s):
        naive[position[frozenset().union(*blocks)]].add(
            (blocks, tuple(position[u] for u in unions))
        )
    assert len(table) == (1 << r) - 1
    for pos, entries in enumerate(table):
        assert len(entries) == len(set(entries)) and set(entries) == naive[pos]
        assert all(positions[-1] == pos for _, positions in entries)


# ---------------------------------------------------------------------------
# finite sums


def test_finite_sums_doubled_generator():
    assert finite_sums(Z, (16, 16)) == {16, 32}
    # the canonical map behind it: the sum over {1, 2} is 32
    assert subset_folds(Z.add, Z.zero, (16, 16))[0b11] == 32


def test_finite_sums_binary():
    assert finite_sums(Z, (1, 2, 4)) == set(range(1, 8))


def test_finite_sums_wraps_mod_p():
    assert finite_sums(F5, (2, 3)) == {2, 3, 0}


def test_finite_sums_against_oracle():
    rng = random.Random(20260816)
    for _ in range(200):
        r = rng.randrange(1, 5)
        gens = tuple(rng.randrange(-20, 21) for _ in range(r))
        fs = finite_sums(Z, gens)
        naive = oracles.naive_subset_sums(Z, gens)
        assert fs == set(naive.values())
        assert len(fs) <= (1 << r) - 1
        # the canonical map (index set alpha) -> sum, in family order
        assert dict(zip(family_order(r), subset_folds(Z.add, Z.zero, gens)[1:])) == naive
        # permutation invariance
        shuffled = list(gens)
        rng.shuffle(shuffled)
        assert finite_sums(Z, tuple(shuffled)) == fs
        # dilation covariance
        a = rng.randrange(-5, 6)
        assert finite_sums(Z, tuple(a * g for g in gens)) == {a * v for v in fs}


def test_finite_sums_distinctness_edge():
    assert len(finite_sums(Z, (1, 2, 4))) == 7  # all sums distinct
    assert len(finite_sums(Z, (1, 1))) == 2  # collapse


FS_GROUPS = [
    (Z, st.integers(-20, 20)),
    (F5, st.integers(-7, 7)),
    (Rationals(), st.fractions(-3, 3, max_denominator=4)),
    (PolyRing(2), st.lists(st.integers(0, 1), max_size=3).map(tuple)),  # trailing zeros too
    (VectorSpace(F5, 2), st.tuples(st.integers(0, 4), st.integers(0, 4))),
]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FS_GROUPS).flatmap(
    lambda ge: st.tuples(st.just(ge[0]), st.lists(ge[1], min_size=1, max_size=10))))
def test_finite_sums_fold_matches_the_naive_set(case):
    # folded into a set one generator at a time; the oracle sums every
    # non-empty subset on its own
    group, gens = case
    assert finite_sums(group, gens) == oracles.naive_fs_set(group, gens)


def test_finite_sums_of_a_repeated_generator_fold_linearly():
    # 22 equal generators have 22 distinct sums; a list of all 2^22 - 1
    # subset sums would take over 4 million additions (and tens of MB)
    adds = []

    class CountingZ(Integers):
        def add(self, a, b):
            adds.append(1)
            return a + b

    assert finite_sums(CountingZ(), (3,) * 22) == {3 * j for j in range(1, 23)}
    # the j-th generator adds to the j - 1 sums so far and to zero
    assert len(adds) == sum(range(1, 23))


# ---------------------------------------------------------------------------
# finite unions


def test_finite_unions_small():
    assert set(finite_unions([{1}, {2}])) == {frozenset({1}), frozenset({2}), frozenset({1, 2})}
    assert set(finite_unions([{1}, {2, 3}])) == {
        frozenset({1}),
        frozenset({2, 3}),
        frozenset({1, 2, 3}),
    }


def test_finite_unions_three_blocks():
    out = finite_unions([{1, 2}, {4}, {6}])
    assert len(out) == 7
    assert frozenset({1, 2, 4, 6}) in out


def test_finite_unions_rejects_disorder():
    with pytest.raises(ValueError, match="out of order"):
        finite_unions([{2}, {1, 3}])
    with pytest.raises(ValueError):
        finite_unions([{1}, set()])


# ---------------------------------------------------------------------------
# IP_r containment and the dual verdict


def _complement(S):
    """S's complement in F_5, in window order: the pool of the dual scan."""
    return [x for x in range(5) if x not in S]


def test_contains_ip_r_block_values():
    assert contains_ip_r(Z, {16, 32, 256}, 2) == (16, 16)


def test_contains_ip_r_repeats_allowed():
    assert contains_ip_r(Z, {1, 2}, 2) == (1, 1)


def test_contains_ip_r_absent():
    assert contains_ip_r(F5, {2, 3}, 2) is None


def test_contains_ip_r_matches_oracle():
    # a tuple's sums all land in S exactly when they all avoid the complement
    S = {0, 1, 4}
    ok, first = oracles.naive_meets_every_ip_r(F5, _complement(S), 3, range(5))
    assert not ok and contains_ip_r(F5, S, 3) == first


def test_ip_star_squares_mod5():
    S = {0, 1, 4}
    v = is_ip_r_star(F5, _complement(S), 2)
    assert v.kind == "holds"
    ok, bad = oracles.naive_meets_every_ip_r(F5, S, 2, range(5))
    assert ok


def test_ip_star_zero_only_fails():
    v = is_ip_r_star(F5, _complement({0}), 2)
    assert v.kind == "fails" and v.witness == (1, 1)
    ok, bad = oracles.naive_meets_every_ip_r(F5, {0}, 2, range(5))
    assert not ok and bad == (1, 1)


def test_ip_star_full_group_holds():
    for r in (1, 2, 3):
        assert is_ip_r_star(F5, [], r).kind == "holds"


def test_ip_star_monotone_in_r():
    # holds at r' implies holds at every larger r: extra generators only
    # grow the family of sums a counterexample must dodge
    rng = random.Random(11)
    for _ in range(40):
        pool = _complement({x for x in range(5) if rng.random() < 0.6})
        if is_ip_r_star(F5, pool, 1).holds:
            assert all(is_ip_r_star(F5, pool, r).holds for r in (2, 3))
        if is_ip_r_star(F5, pool, 2).holds:
            assert is_ip_r_star(F5, pool, 3).holds


def test_ip_star_agreement_with_oracle_random():
    rng = random.Random(12)
    for _ in range(60):
        members = {x for x in range(5) if rng.random() < 0.5}
        v = is_ip_r_star(F5, _complement(members), 2)
        ok, bad = oracles.naive_meets_every_ip_r(F5, members, 2, range(5))
        assert v.holds == ok
        if not ok:
            assert v.witness == bad


def test_ip_star_windowed_is_labeled():
    # S is the whole window rat 3 3, so its complement there is empty; the
    # scan knows no window, and the report that holds one labels the "holds"
    assert is_ip_r_star(Z, [], 2).kind == "holds"
    whole_circle = RotationSystem(Fraction(1, 7)), [(0, 1)]
    Q = Rationals()
    u = PolynomialMap(Q, 1, Q, ((Monomial(Q, 1, (1,)), 1),))
    rep = recurrence_set(*whole_circle, u, Fraction(1, 10), RationalWindow(3, 3))
    assert rep.R == {Fraction(a, b) for a in range(-3, 4) for b in (1, 2, 3)}
    tree = report_tree(classify_ipstar(rep, 2))
    assert tree["classification"]["2"] == {"kind": "holds", "window_limited": True, "witness": None}
    # rat n n lies in rat 3 3 for n <= 3
    assert tree["exceptional_density"] == dict.fromkeys("123", "0")


def test_ip_star_windowed_witness_keeps_sums_inside():
    S = {-3, -2, -1, 0, 3}
    v = is_ip_r_star(Z, [x for x in range(-3, 4) if x not in S], 2)
    assert v.kind == "fails" and v.witness == (1, 1)
    sums = finite_sums(Z, v.witness)
    assert sums <= set(range(-3, 4)) and not (sums & S)


def test_ip_star_windowed_skips_escaping_sums():
    # only candidate against {-3..2} is the all-3 tuple, whose pair sum 6
    # leaves the window, so it cannot serve as a witness at r = 2
    assert is_ip_r_star(Z, [3], 1).kind == "fails"  # witness (3,), sums stay inside
    assert is_ip_r_star(Z, [3], 2).kind == "holds"


# ---------------------------------------------------------------------------
# coloring claim over F_r


def test_fu_trivial_cases():
    assert fu_ramsey_check(1, 1, 2).kind == "all-colorings-ok"
    assert fu_ramsey_check(3, 1, 3).kind == "all-colorings-ok"  # singletons are mono
    assert fu_ramsey_check(2, 2, 1).kind == "all-colorings-ok"  # one color
    assert fu_ramsey_check(1, 2, 1).kind == "counterexample"  # no 2-block family fits


def test_fu_r3_counterexample_is_size_parity():
    res = fu_ramsey_check(3, 2, 2)
    assert res.kind == "counterexample"
    assert res.coloring == (1, 1, 2, 1, 2, 2, 1)
    by_set = dict(zip(family_order(3), res.coloring))
    for alpha, c in by_set.items():
        assert c == (1 if len(alpha) % 2 == 1 else 2)
    assert fu_coloring_is_counterexample(3, 2, 2, res.coloring)
    assert not fu_coloring_is_counterexample(3, 2, 1, res.coloring)  # color 2 of 1
    assert not fu_coloring_is_counterexample(3, 2, 2, res.coloring[:-1])
    assert oracles.naive_coloring_avoids_fu(3, 2, by_set)


def test_fu_r2_counterexample():
    res = fu_ramsey_check(2, 2, 2)
    assert res.coloring == (1, 1, 2)


def fu_stages(s, k, r_limit=10, **kw):
    """The stages r = 1..r_limit that find the least universal r."""
    return through_first_all_ok(
        stages(range(1, r_limit + 1), lambda r, **opts: fu_ramsey_check(r, s, k, **opts), **kw)
    )


def test_fu_minimal_r_is_five_with_replayable_cover():
    stages = fu_stages(2, 2)
    r_star, final = stages[-1]
    assert r_star == 5
    assert final.kind == "all-colorings-ok"
    assert fu_check_cover(5, 2, 2, final.cover)
    # tampering is caught
    broken = list(final.cover)
    del broken[len(broken) // 2]
    assert not fu_check_cover(5, 2, 2, broken)


def test_fu_monotone_in_r():
    assert fu_ramsey_check(6, 2, 2).kind == "all-colorings-ok"


def test_fu_counterexamples_validate_against_oracle():
    for r in (2, 3, 4):
        res = fu_ramsey_check(r, 2, 2)
        assert res.kind == "counterexample"
        by_set = dict(zip(family_order(r), res.coloring))
        assert oracles.naive_coloring_avoids_fu(r, 2, by_set)


def test_fu_budget_and_resume():
    part = fu_ramsey_check(5, 2, 2, budget=100)
    assert part.kind == "budget_exceeded" and part.resume_path
    rest = fu_ramsey_check(5, 2, 2, resume_path=part.resume_path)
    assert rest.kind == "all-colorings-ok"


def test_fu_cover_leaves_need_s_blocks():
    # one block is trivially monochromatic, so a 1-block witness at the first
    # position would "prove" a claim that has a counterexample
    assert fu_ramsey_check(6, 3, 2).kind == "counterexample"
    forged = [CoverLeaf((1,), ((frozenset({1}),),))]
    assert not fu_check_cover(6, 3, 2, forged)
    assert fu_check_cover(6, 1, 2, forged)  # for s = 1 it is the true cover


def test_a_set_of_fewer_than_s_elements_asks_for_no_split(monkeypatch):
    # combinations(pool, n) allocates its n indices before it finds that n
    # exceeds the pool, so a huge s ended in a MemoryError
    real = ipsets.combinations

    def bounded(pool, n):
        pool = tuple(pool)
        if n > len(pool):
            raise AssertionError(f"asked for {n} of {len(pool)} items")
        return real(pool, n)

    monkeypatch.setattr(ipsets, "combinations", bounded)
    assert ipsets._fu_checks_by_position(4, 6) == [[]] * 15
    res = fu_ramsey_check(4, 6, 2)
    assert res.kind == "counterexample" and res.coloring == (1,) * 15
    assert fu_coloring_is_counterexample(4, 6, 2, res.coloring)
    assert ipsets._fu_checks_by_position(3, 3)[-1]  # {1,2,3} still splits into 3 blocks


def test_a_claim_over_the_position_cap_is_refused_before_its_table():
    assert ipsets._position_count(20) == (1 << 20) - 1
    for r in (21, 10**8):
        message = f"fu r={r} has 2^{r} - 1 positions, more than the cap of 1048576"
        for check in (lambda: fu_ramsey_check(r, 2, 2), lambda: fu_check_cover(r, 2, 2, ()),
                      lambda: fu_coloring_is_counterexample(r, 2, 2, (1,))):
            with pytest.raises(ValueError, match=re.escape(message)):
                check()


# ---------------------------------------------------------------------------
# density floor


def test_fk_r2_n4():
    res = fk_density_experiment(2, 4)
    assert res.value == Fraction(1, 2)
    assert res.witness == {1, 2}  # least blocking set in (size, lex) order
    assert res.value == oracles.naive_fk_min_density(2, 4)


def test_fk_r1_needs_everything():
    res = fk_density_experiment(1, 5)
    assert res.value == 1 and res.witness == frozenset(range(1, 6))


def test_fk_against_oracle_small():
    for N in (3, 5, 6):
        assert fk_density_experiment(2, N).value == oracles.naive_fk_min_density(2, N)
    assert fk_density_experiment(3, 6).value == oracles.naive_fk_min_density(3, 6)


def test_fk_nonincreasing_in_r():
    vals = [fk_density_experiment(r, 6).value for r in (1, 2, 3)]
    assert vals[0] >= vals[1] >= vals[2]


def test_fk_odds_certificate():
    for N in (4, 8):
        A, value, valid = fk_odds_certificate(N)
        assert valid and value == Fraction(N // 2, N)
        assert fk_density_experiment(2, N).value <= value


def test_fk_budget():
    res = fk_density_experiment(2, 12, budget=10)
    assert res.status == BUDGET_EXCEEDED and res.value is None


# ---------------------------------------------------------------------------
# block example


def test_example_a_small():
    ex = example_a(2)
    assert ex.members == {4, 16, 32}
    assert ex.blocks == ((1, (4,)), (2, (16, 32)))
    ex3 = example_a(3)
    assert {256, 512, 768} <= ex3.members


def test_example_a_cross_probe():
    ex = example_a(2)
    assert 4 + 16 not in ex.members


def test_example_a_checks_pass():
    checks = example_a_checks(example_a(3))
    assert checks == {"in_block_fs": True, "cross_block_free": True, "fs_depth": True}


def test_example_a_checks_catch_damage():
    ex = example_a(3)
    # graft a cross-block sum into the member set: check must now fail
    damaged = BlockExample(ex.r_max, ex.blocks, ex.members | {4 + 16, 4 + 16 + 16, 16})
    # block_of() ignores the stray members; cross sums 20 and 36 now inside
    assert not example_a_checks(damaged)["cross_block_free"]


def test_example_a_checks_node_count(monkeypatch):
    # cross_block_free scans nondecreasing 3-tuples: the first search, 225 of
    # the 359 prefix-search nodes example_a(5) takes; fs_depth takes one scan
    # per block
    nodes = []

    def counting(*args, **kwargs):
        out = prefix_search(*args, **kwargs)
        nodes.append(out.candidates)
        return out

    monkeypatch.setattr(ipsets, "prefix_search", counting)
    assert all(example_a_checks(example_a(5)).values())
    assert (nodes[0], sum(nodes)) == (225, 359)


def reference_example_a_checks(ex):
    # the brute force the pruned scans replaced: every tuple via product
    def has_family(vals, r):
        return any(oracles.naive_fs_set(Z, t) <= set(vals) for t in product(vals, repeat=r))

    cross = [
        t
        for t in product(sorted(ex.members), repeat=3)
        if len({ex.block_of(v) for v in t}) > 1 and oracles.naive_fs_set(Z, t) <= ex.members
    ]
    return {
        "in_block_fs": all(
            oracles.naive_fs_set(Z, (vals[0],) * r) == set(vals) for r, vals in ex.blocks
        ),
        "cross_block_free": not cross,
        "fs_depth": all(
            has_family(vals, r) and not has_family(vals, r + 1) for r, vals in ex.blocks
        ),
    }


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 3), st.data())
def test_example_a_checks_match_the_brute_force_on_damaged_examples(r_max, data):
    ex = example_a(r_max)
    blocks = []
    for r, vals in ex.blocks:
        edit = data.draw(st.sampled_from(["keep", "drop", "grow"]))
        if edit == "drop" and len(vals) > 1:
            vals = vals[:-1]
        elif edit == "grow":
            vals = vals + (vals[-1] + vals[0],)
        blocks.append((r, vals))
    members = {v for _, vals in blocks for v in vals}
    strays = sorted({1} | {a + b for a in ex.members for b in ex.members} - members)
    members |= data.draw(st.sets(st.sampled_from(strays), max_size=4))
    if data.draw(st.booleans()):  # graft the sums of a (possibly cross-block) family
        gens = data.draw(st.lists(st.sampled_from(sorted(members)), min_size=3, max_size=3))
        members |= oracles.naive_fs_set(Z, gens)
    members -= data.draw(st.sets(st.sampled_from(sorted(members)), max_size=2))
    damaged = BlockExample(r_max, tuple(blocks), frozenset(members))
    assert example_a_checks(damaged) == reference_example_a_checks(damaged)
