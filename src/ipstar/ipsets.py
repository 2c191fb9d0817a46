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

from collections import namedtuple
from fractions import Fraction
from functools import cache
from itertools import combinations, islice
from math import comb, floor, log10
from sys import get_int_max_str_digits

from .algebra import SIZE_CAP, Integers, power_over_cap
from .search import (
    BUDGET_EXCEEDED,
    CUT,
    DONE,
    ColoringOutcome,
    check_cover_tree,
    prefix_search,
    universal_coloring_search,
)

# ---------------------------------------------------------------------------
# index-set plumbing


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
# finite sums


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


# ---------------------------------------------------------------------------
# IP_r detection and the dual verdict


def _first_fs_tuple(group, pool, r: int, budget=None, resume_path=None, admit=None):
    """The first nondecreasing d-tuple of pool positions, lexicographically,
    whose finite sums all lie in the pool, for each depth d = 1..r one
    ``prefix_search`` reaches; its path holds the positions and its state is
    (sums, last position).  Returns the outcome and those tuples of elements.
    ``admit(depth, path)``, when given, is one more rule, tested after the
    sums: a prefix it refuses is cut, and the tuples qualify under both.

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
        if not new <= inside or admit is not None and not admit(depth, path):
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
    kind = "holds" if out.status == DONE else BUDGET_EXCEEDED
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


def _refuse_over_split_cap(r: int, s: int) -> None:
    """Refuse a claim of over ``SIZE_CAP`` splits: a set of j elements has
    C(j-1, s-1), summed exactly once r passes the position cap."""
    splits = sum(comb(r, j) * comb(j - 1, s - 1) for j in range(1, r + 1))
    if power_over_cap(splits, 1) is not None:
        raise ValueError(f"fu r={r} s={s} has {splits} splits, more than the cap of {SIZE_CAP}")


def _fu_checks_by_position(r: int, s: int):
    """The hyperedge table of the claim: for each position (mask order), the
    splits completed there as (blocks, union_positions), where
    union_positions index every union of the blocks, in ``subset_folds``
    order, and the last one is the position itself.  Positions run over F_r
    in ascending bitmask order, so the set with mask m sits at position
    m - 1.  The blocks of a split of m are runs of m's bits: the first is
    the lowest j bits of m, for j ascending, and a split of the rest into
    s - 1 runs follows it.  The splits of each (rest, runs) pair are built
    once, and each distinct block mask becomes a frozenset once.  The table
    is refused unbuilt over the position or the split cap."""
    positions = _position_count(r)
    _refuse_over_split_cap(r, s)

    @cache
    def block_set(mask: int) -> frozenset[int]:  # built on the set of its lower bits
        top = mask.bit_length()
        return block_set(mask ^ 1 << top - 1) | {top} if mask else frozenset()

    @cache
    def runs(rest: int, t: int):
        # the splits of rest's bits into t runs, as table entries whose
        # unions are the first run, then for each union p of the later
        # runs, p and p with the first run; the runs are disjoint, so a
        # union's mask, and so its position, is a sum
        if t == 1:
            return [((block_set(rest),), (rest - 1,))]
        out = []
        first = 0
        while rest.bit_count() >= t:
            low = rest & -rest
            first |= low
            rest ^= low
            head = block_set(first)
            for blocks, unions in runs(rest, t - 1):
                both = [v for p in unions for v in (p, p + first)]
                out.append(((head, *blocks), (first - 1, *both)))
        return out

    return [runs(alpha, s) for alpha in range(1, positions + 1)]


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
    inside {1..r}, in ``subset_folds`` order, or None when the blocks are
    not such a family.  On masks, a block precedes the next one when it is
    below the next one's lowest bit."""
    if len(blocks) != s or not blocks or any(not 1 <= i <= r for b in blocks for i in b):
        return None
    masks = [set_to_mask(b) for b in blocks]
    if not all(masks) or any(a >= b & -b for a, b in zip(masks, masks[1:])):
        return None
    return [u - 1 for u in subset_folds(int.__or__, 0, masks)[1:]]  # F_r in ascending mask order


def fu_coloring_is_counterexample(r: int, s: int, k: int, coloring: tuple[int, ...]) -> bool:
    """Verification-only check that a full k-coloring of F_r has no
    monochromatic s-block union family.  The families are listed here,
    apart from the search's table: those of union mask U are the cuts of
    U's bits, lowest first, into s runs, and their unions the masks u that
    ``subset_folds`` ORs from the runs, the set of mask u at position u - 1."""
    if len(coloring) != _position_count(r):  # before the splits are counted
        return False
    _refuse_over_split_cap(r, s)
    if any(not 1 <= c <= k for c in coloring):
        return False
    for union in range(1, len(coloring) + 1) if s <= r else ():  # no s blocks fit when s > r
        lows = [union & (2 << i) - 1 for i in range(union.bit_length() - 1) if union >> i & 1]
        for cuts in combinations(lows, s - 1):  # where each run but the last ends
            ends = (0, *cuts, union)
            runs = [b ^ a for a, b in zip(ends, ends[1:])]
            if len({coloring[u - 1] for u in subset_folds(int.__or__, 0, runs)[1:]}) == 1:
                return False
    return True


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
    in C" (choice 1).  "x in C" is cut when an edge ending at x misses A,
    so lies wholly in C.  Either child is cut by a packing bound (the
    matching bound of LP duality, used as the bounding step of Land and
    Doig, Econometrica 1960): the live edges, those that miss A and reach
    past x, are taken in one fixed order (size, then value) and kept
    greedily while their parts above x are pairwise disjoint; each kept
    edge needs an element of A of its own, so a prefix is cut once |A| plus
    their number reaches the size of the least blocking set found so far.
    The edges are scanned only where the elements above x could make that
    many.  The table is kept once, not per prefix, so memory stays that of
    the edge table.
    A full path is recorded as that set and cut.  The search meets full
    paths in lexicographic order and records only strictly smaller sets,
    and no cut subtree holds a strictly smaller one, so the last one
    recorded is the least blocking set in (size, lexicographic) order.  A
    search resumed at ``resume_path`` rebuilds that set while it replays
    the nodes before the path.
    """
    if r < 1 or N < 1:
        raise ValueError("r and N must be >= 1")
    edges_by_last = _fk_edges_by_last(r, N)
    edges = sorted((e for es in edges_by_last for e in es), key=lambda e: (e.bit_count(), e))
    best = [N + 1, None]  # the least blocking set so far: its size and path

    def extend(state, depth, choice, path):
        # state: (A, |A|); bit x of A stands for x
        A, size = state
        x = depth + 1
        if choice == 0:
            A |= 1 << x
            size += 1
        elif any(not e & A for e in edges_by_last[x]):  # an edge ending at x lies in C
            return CUT
        room = best[0] - size  # the elements A may still take
        if room <= 0:
            return CUT
        if x == N:
            best[:] = size, path[:]
            return CUT
        if room <= N - x:  # the packing keeps at most one edge per element above x
            used = 0
            for e in edges:
                above = e >> x + 1
                if above and not (above & used or e & A):
                    used |= above
                    room -= 1
                    if not room:
                        return CUT
        return A, size

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
    limit = get_int_max_str_digits()  # 0 when the limit is switched off
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
    so one scan of the sorted set, admitting a third generator only when
    the three span two blocks, finds no full tuple.
    fs_depth: within block r the deepest full finite-sums family has exactly
    r generators, so one scan to depth r + 1 reaches depth r and no further.
    """
    pool = sorted(ex.members)

    def mixed(depth, path):
        return depth < 2 or len({ex.block_of(pool[i]) for i in path[:3]}) > 1

    Z = Integers()
    cross_free = _first_fs_tuple(Z, pool, 3, admit=mixed)[0].path is None
    in_block = depth = True
    for r, vals in ex.blocks:  # vals ascend
        in_block = in_block and finite_sums(Z, (vals[0],) * r) == frozenset(vals)
        depth = depth and len(_first_fs_tuple(Z, vals, r + 1)[1]) == r
    return {"in_block_fs": in_block, "cross_block_free": cross_free, "fs_depth": depth}
