"""Finite-sums and finite-unions combinatorics.

Subset conventions, frozen for determinism:

* an index set alpha is a bitmask inside the tables (bit i-1 encodes i) and
  a frozenset of positive integers only in witnesses and results; the family
  F_r of all non-empty subsets of {1..r} is enumerated by ascending bitmask,
  i.e. {1}, {2}, {1,2}, {3}, {1,3}, {2,3}, {1,2,3}, ...
* ``subset_folds`` gives every subset sum, product and union, in ascending
  mask order, each folded over its items in ascending index order
* generator tuples are nondecreasing tuples of positions in a pool, scanned
  lexicographically with coordinate 1 most significant; the pool is sorted
  S (``contains_ip_r``) or the sequence the caller passes as S's complement
  in its window, in window order (``is_ip_r_star``), and a tuple qualifies
  when all its finite sums lie in the pool
* sets of group elements are plain collections with no ambient attached:
  the scans take S or its complement as given, and ``finite_sums``
  returns a frozenset of the sums; whether a complement is taken in the
  whole group, and so what a "holds" claims, is the caller's to say
* block sequences alpha_1 < ... < alpha_s require max(alpha_i) < min(alpha_{i+1})

Generators may repeat and may be zero: the finite-sums definition places no
restriction, so FS(1,1) = {1,2} is a legitimate witness and FS(0,...,0) = {0}
forces 0 into every set with a "meets every r-generator finite-sums family"
verdict.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from fractions import Fraction
from functools import cache
from itertools import combinations, islice
from math import comb, floor, log10

from .algebra import SIZE_CAP, Integers, power_over_cap
from .search import (
    BUDGET_EXCEEDED,
    CUT,
    DONE,
    ColoringOutcome,
    avoids_every_edge,
    check_cover_tree,
    prefix_search,
    universal_coloring_search,
)

# ---------------------------------------------------------------------------
# index-set plumbing


def mask_to_set(mask: int) -> frozenset[int]:
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def set_to_mask(alpha) -> int:
    mask = 0
    for i in alpha:
        if i < 1:
            raise ValueError(f"index sets contain positive integers only, got {i}")
        mask |= 1 << (i - 1)
    return mask


def subset_folds(op, unit, items) -> list:
    """op folded over every subset of items, indexed by mask (bit i for
    items[i]): entry m is op(...op(op(unit, a), b)..., z) over the items of
    m in ascending index order, and entry 0 is the unit."""
    out = [unit]
    for x in items:
        out += [op(v, x) for v in out]
    return out


# ---------------------------------------------------------------------------
# finite sums and unions


def finite_sums(group, gens) -> frozenset:
    """The set of the sums of the non-empty subsets of gens, folded into a
    set one generator at a time: FS(P + g) = FS(P) | {g} | (FS(P) + g), so
    equal sums collapse as they arise; r equal generators hold r sums, not
    a list of 2^r - 1."""
    gens = tuple(gens)
    if not gens:
        raise ValueError("need at least one generator")
    add, zero = group.add, group.zero
    sums: set = set()
    for g in gens:
        sums |= {add(s, g) for s in sums} | {add(zero, g)}
    return frozenset(sums)


def finite_unions(alphas) -> tuple[frozenset[int], ...]:
    """The 2^s - 1 unions of ordered blocks alpha_1 < ... < alpha_s."""
    alphas = [frozenset(a) for a in alphas]
    if not alphas or any(not a for a in alphas):
        raise ValueError("blocks must be non-empty")
    for a, b in zip(alphas, alphas[1:]):
        if max(a) >= min(b):
            raise ValueError(f"blocks out of order: max {max(a)} >= min {min(b)}")
    return tuple(subset_folds(frozenset.union, frozenset(), alphas)[1:])


# ---------------------------------------------------------------------------
# IP_r detection and the dual verdict


def _first_fs_tuple(group, pool, r: int, budget=None, resume_path=None):
    """The first nondecreasing d-tuple of pool positions, lexicographically,
    whose finite sums all lie in the pool, for each depth d = 1..r one
    ``prefix_search`` reaches; its path holds the positions and its state is
    (sums, last position).  Returns the outcome and those tuples of elements.

    Prefixes of a qualifying tuple qualify, and the search reaches the uncut
    prefixes of each length in lexicographic order, so the first it reaches
    at depth d is the first qualifying d-tuple.  Permuting the generators
    keeps their finite sums, so each is also the first among all d-tuples.
    A prefix's sums grow incrementally, FS(P + g) = FS(P) | {g} | FS(P) + g,
    and only the new ones are tested; a prefix with a sum outside the pool
    rules out every tuple that extends it.
    """
    add = group.add
    inside = frozenset(pool)
    firsts: list[tuple] = []

    def span(state, depth):
        return state[1], len(pool)

    def extend(state, depth, i, path):
        sums, g = state[0], pool[i]
        new = {g}
        new.update([add(s, g) for s in sums])
        if not new <= inside:
            return CUT
        if len(firsts) == depth:  # the first uncut prefix of this length
            firsts.append(tuple(pool[j] for j in path[: depth + 1]))
        return sums | new, i

    out = prefix_search((frozenset(), 0), r, span, extend, budget=budget, resume_path=resume_path)
    return out, tuple(firsts)


def contains_ip_r(group, S, r: int) -> tuple | None:
    """The first generator tuple from sorted S whose finite sums all lie in
    S, or None: the witness of the scan with S as its pool."""
    return is_ip_r_star(group, sorted(S), r).witness


class IpStarVerdict(namedtuple("IpStarVerdict", [
    "kind",  # "holds" | "fails" | "budget_exceeded"
    "witness",  # failing generator tuple (its sums avoid S)
    "candidates",  # prefix-search nodes
    "resume_path",  # positions in the complement, nondecreasing
    "prefixes",  # the failing witness of every level the search reached
], defaults=(None, 0, None, ()))):
    __slots__ = ()

    @property
    def holds(self) -> bool:
        return self.kind == "holds"

    def levels(self, r: int) -> dict[int, IpStarVerdict]:
        """The verdicts of levels 1..r read off this search to level r: level
        d fails with the d-prefix the search reached, the levels above hold
        (if it finished) or the first of them ran out of budget."""
        out = {
            d: IpStarVerdict("fails", w, self.candidates)
            for d, w in enumerate(self.prefixes, 1)
        }
        if self.kind != "fails":
            top = r if self.holds else len(out) + 1
            out.update(dict.fromkeys(range(len(out) + 1, top + 1), self._replace(prefixes=())))
        return out


def is_ip_r_star(
    group, complement, r: int, *, budget: int | None = None, resume_path=None
) -> IpStarVerdict:
    """Does a set S meet every r-generator finite-sums family?

    By duality, S is IP*_r exactly when its complement holds no IP_r set,
    so the scan's pool is ``complement``, S's complement in its window as a
    sequence in window order, and its first tuple is the failing witness;
    the scan decides every level below r on the way (``levels``).  A
    witness's sums all lie in the pool, so they stay in the window and
    avoid S: where S is exact on its window, they avoid S everywhere.  A
    "holds" says only that no tuple keeps its sums in the pool; it decides
    the claim when the window is the whole group, and the caller, which
    holds the window, says which.  An r over ``SIZE_CAP`` is refused before
    the scan allocates its r levels.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if power_over_cap(r, 1) is not None:
        raise ValueError(f"an IP_r scan to r={r} has more levels than the cap of {SIZE_CAP}")
    out, firsts = _first_fs_tuple(group, complement, r, budget, resume_path)
    if out.path is not None:
        return IpStarVerdict("fails", firsts[-1], out.candidates, prefixes=firsts)
    kind = "holds" if out.status == DONE else "budget_exceeded"
    return IpStarVerdict(kind, None, out.candidates, out.resume_path, firsts)


# ---------------------------------------------------------------------------
# the finite coloring claim over F_r


def _position_count(r: int) -> int:
    """2^r - 1, the positions of F_r, refused over ``SIZE_CAP`` before the
    power is taken.  The cap is a power of two, so 2^r - 1 exceeds it
    exactly when 2^r does."""
    if power_over_cap(2, r) is not None:
        raise ValueError(f"fu r={r} has 2^{r} - 1 positions, more than the cap of {SIZE_CAP}")
    return (1 << r) - 1


def _fu_checks_by_position(r: int, s: int):
    """The hyperedge table of the claim: for each position (mask order), the
    splits completed there as (blocks, union_positions), where
    union_positions index every union of the blocks and the last one is the
    position itself.  Positions run over F_r in ascending bitmask order, so
    the set with mask m sits at position m - 1.  The blocks of a split of m
    are runs of m's bits; each distinct block mask becomes a frozenset once.
    The table is refused unbuilt over ``SIZE_CAP`` splits: a set of j
    elements has C(j-1, s-1), summed exactly once r passes the position
    cap."""
    positions = _position_count(r)
    splits = sum(comb(r, j) * comb(j - 1, s - 1) for j in range(1, r + 1))
    if power_over_cap(splits, 1) is not None:
        raise ValueError(f"fu r={r} s={s} has {splits} splits, more than the cap of {SIZE_CAP}")
    block_set = cache(mask_to_set)
    table = []
    for alpha in range(1, positions + 1):
        bits = [1 << i for i in range(r) if alpha >> i & 1]
        entries = []
        # fewer elements than blocks have no split; combinations would still
        # allocate its s - 1 indices
        for cuts in combinations(range(1, len(bits)), s - 1) if s <= len(bits) else ():
            bounds = (0, *cuts, len(bits))
            blocks = [sum(bits[a:b]) for a, b in zip(bounds, bounds[1:])]
            unions = subset_folds(int.__or__, 0, blocks)[1:]
            entries.append((tuple(map(block_set, blocks)), tuple(u - 1 for u in unions)))
        table.append(entries)
    return table


def fu_ramsey_check(
    r: int,
    s: int,
    k: int,
    *,
    budget: int | None = None,
    resume_path: tuple[int, ...] | None = None,
) -> ColoringOutcome:
    """Either every k-coloring of F_r contains monochromatic ordered blocks
    alpha_1 < ... < alpha_s with all their unions in one color, or there is a
    coloring with none; the search returns the least such coloring (base-k
    digit order over ascending bitmasks, colors canonicalized by first use).

    Monotone in r (restricting a coloring of F_{r+1} to F_r preserves
    families), so ``search.stages`` over r = 1, 2, ... finds the least r
    with the all-colorings verdict.
    """
    if r < 1 or s < 1 or k < 1:
        raise ValueError("r, s, k must all be >= 1")
    table = _fu_checks_by_position(r, s)
    return universal_coloring_search(k, table, budget=budget, resume_path=resume_path)


def _union_positions(r: int, s: int, blocks):
    """Verification-only: the positions of every union of s ordered blocks
    inside {1..r}, or None when the blocks are not such a family."""
    if len(blocks) != s:
        return None
    try:
        unions = finite_unions(blocks)
    except ValueError:
        return None
    if any(not u <= frozenset(range(1, r + 1)) for u in unions):
        return None
    return [set_to_mask(u) - 1 for u in unions]  # F_r is in ascending bitmask order


def fu_coloring_is_counterexample(r: int, s: int, k: int, coloring: tuple[int, ...]) -> bool:
    """Verification-only check that a full k-coloring of F_r has no
    monochromatic s-block union family."""
    # a wrong length is refused before the table over F_r is built
    return len(coloring) == _position_count(r) and avoids_every_edge(
        coloring, k, _fu_checks_by_position(r, s)
    )


def fu_check_cover(r: int, s: int, k: int, cover) -> bool:
    positions = _position_count(r)
    return check_cover_tree(positions, k, cover, lambda blocks: _union_positions(r, s, blocks))


# ---------------------------------------------------------------------------
# density floor experiment


FkResult = namedtuple("FkResult", [
    "r",
    "N",
    "status",  # DONE or BUDGET_EXCEEDED
    "value",  # min |A|/N over blocking sets A
    "witness",  # a minimum blocking set
    "candidates",  # search nodes
    "resume_path",  # where a BUDGET_EXCEEDED search restarts
], defaults=(None,))


def fk_blocks(r: int, N: int, A) -> bool:
    """Verification-only: no r generators from C = {1..N} - A keep every
    subset sum in C.  ``contains_ip_r`` scans nondecreasing tuples of sorted C
    and refuses a generator as soon as a new sum leaves C; it shares nothing
    with the search's edge table.  When r > N every set blocks, with no
    scan: r generators from {1..N} sum to more than N."""
    return r > N or contains_ip_r(Integers(), set(range(1, N + 1)) - set(A), r) is None


def _fk_edges_by_last(r: int, N: int) -> list[list[int]]:
    """The search's hyperedges: the distinct subset-sum sets of the
    nondecreasing r-tuples with total at most N, as bitmasks (bit x stands
    for x), each listed under its largest element, the tuple's total, fewest
    elements first.  Non-minimal sets stay: one never cuts a node that the
    smaller set inside it has not cut already, at or before its own last
    element.  Each edge is a mask of up to N + 1 bits, 1 + N // 64 machine
    words, and a level of prefixes is listed only up to ``SIZE_CAP`` words
    of them: every prefix extends to a tuple of its own (repeat its last
    generator), so a level over the cap means the tuples are over it too."""
    most = SIZE_CAP // (1 + N // 64)
    level = [(0, 1, 0)]  # (sums of the prefix, least next generator, its total)
    for left in range(r, 0, -1):
        level = list(islice((
            (sums | 1 << g | sums << g, g, total + g)
            for sums, low, total in level
            for g in range(low, (N - total) // left + 1)
        ), most + 1))
        if len(level) > most:
            raise ValueError(
                f"fk r={r} N={N} has more than {most} generator tuples, whose {N + 1}-bit "
                f"edges exceed the cap of {SIZE_CAP} words"
            )
        if not level:
            break
    by_last: list[list[int]] = [[] for _ in range(N + 1)]
    for edge in sorted({sums for sums, _, _ in level}, key=int.bit_count):
        by_last[edge.bit_length() - 1].append(edge)
    return by_last


def fk_density_experiment(
    r: int, N: int, *, budget: int | None = None, resume_path=None
) -> FkResult:
    """min |A|/N over A subseteq {1..N} whose complement contains no full
    finite-sums family of r generators, by one branch and bound.  A
    ``prefix_search`` places x = 1..N, trying "x in A" (choice 0) before "x
    in C" (choice 1).  "x in C" is cut when an edge ending at x lies wholly
    in C; "x in A" once A would be as large as the least blocking set found
    so far.  A full path is recorded as that set and cut.  The search meets
    full paths in lexicographic order and records only strictly smaller
    sets, so the last one recorded is the least blocking set in (size,
    lexicographic) order.  A search resumed at ``resume_path`` rebuilds that
    set while it replays the nodes before the path.
    """
    if r < 1 or N < 1:
        raise ValueError("r and N must be >= 1")
    edges_by_last = _fk_edges_by_last(r, N)
    best = [N + 1, None]  # the least blocking set so far: its size and path

    def extend(state, depth, choice, path):
        # state: (C, |A|); bit x of C stands for x
        C, size = state
        if choice == 0:
            size += 1
            if size >= best[0]:
                return CUT
        else:
            x = depth + 1
            C |= 1 << x
            for e in edges_by_last[x]:
                if e & C == e:
                    return CUT
        if depth + 1 < N:
            return C, size
        best[:] = size, path[:]
        return CUT

    out = prefix_search(
        (0, 0), N, lambda state, depth: (0, 2), extend, budget=budget, resume_path=resume_path
    )
    if out.status == BUDGET_EXCEEDED:
        return FkResult(r, N, BUDGET_EXCEEDED, None, None, out.candidates, out.resume_path)
    # A = {1..N} always blocks, so some full path was recorded
    size, path = best
    witness = frozenset(x for x, c in enumerate(path, 1) if c == 0)
    if not fk_blocks(r, N, witness):
        raise RuntimeError(f"fk search returned a non-blocking set {sorted(witness)}")
    return FkResult(r, N, DONE, Fraction(size, N), witness, out.candidates)


def fk_odds_certificate(N: int) -> tuple[frozenset, Fraction, bool]:
    """The even numbers as a blocking set for r = 2: their complement (the
    odds) is sum-free, since odd + odd is even.  Returns (A, |A|/N, valid)."""
    A = frozenset(x for x in range(1, N + 1) if x % 2 == 0)
    return A, Fraction(len(A), N), fk_blocks(2, N, A)


# ---------------------------------------------------------------------------
# the doubly-exponential block example


class BlockExample(namedtuple("BlockExample", [
    "r_max",
    "blocks",  # (r, tuple of values i * 2^(2^r), i = 1..r) per r
    "members",
])):
    __slots__ = ()

    def block_of(self, x: int) -> int | None:
        for r, vals in self.blocks:
            if x in vals:
                return r
        return None


def example_a(r_max: int) -> BlockExample:
    """Blocks r = 1..r_max of the values i * 2^(2^r), i = 1..r; refused unbuilt
    when 2^(2^r_max) has over ``SIZE_CAP`` bits, or r_max * 2^(2^r_max) more
    digits than Python's int-to-text limit allows (counted by logarithms)."""
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    if power_over_cap(2, r_max) is not None:
        raise ValueError(f"example-a r_max={r_max}: 2^(2^{r_max}) has more than {SIZE_CAP} bits")
    digits = floor(log10(r_max) + (1 << r_max) * log10(2)) + 1
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0 where no limit is set
    if limit and digits > limit:
        raise ValueError(
            f"example-a r_max={r_max}: its largest value has {digits} digits, "
            f"more than the limit of {limit} for integer text"
        )
    blocks = []
    members = set()
    for r in range(1, r_max + 1):
        c = 1 << (1 << r)  # 2^(2^r)
        vals = tuple(i * c for i in range(1, r + 1))
        blocks.append((r, vals))
        members.update(vals)
    return BlockExample(r_max, tuple(blocks), frozenset(members))


def example_a_checks(ex: BlockExample) -> dict[str, bool]:
    """The three companion checks, each decided exhaustively by pruned scans
    over generator tuples.

    in_block_fs: block r equals the finite sums of r copies of its base value.
    cross_block_free: no 3-generator tuple mixing two blocks keeps all its
    sums inside the set.  Permuting the generators keeps both conditions,
    so only nondecreasing tuples of the sorted set are scanned.
    fs_depth: within block r the deepest full finite-sums family has exactly
    r generators, so one scan to depth r + 1 reaches depth r and no further.
    """
    members = ex.members
    pool = sorted(members)

    def extend(state, n, i, path):
        # state: (sums, blocks, last position) of the n generators so far;
        # the third generator must bring a second block
        sums, blocks, _ = state
        g = pool[i]
        new = {g, *(s + g for s in sums)}
        blocks = blocks | {ex.block_of(g)}
        if new <= members and (n < 2 or len(blocks) > 1):
            return sums | new, blocks, i
        return CUT

    start = (frozenset(), frozenset(), 0)
    mixed = prefix_search(start, 3, lambda s, d: (s[2], len(pool)), extend)
    in_block = depth = True
    Z = Integers()
    for r, vals in ex.blocks:  # vals ascend
        in_block = in_block and finite_sums(Z, (vals[0],) * r) == frozenset(vals)
        depth = depth and len(_first_fs_tuple(Z, vals, r + 1)[1]) == r
    return {"in_block_fs": in_block, "cross_block_free": mixed.path is None, "fs_depth": depth}
