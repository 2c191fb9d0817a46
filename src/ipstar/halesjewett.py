"""Words, combinatorial lines, monochromatic-line search, and the bit-pattern
encoding from words over a power-of-two alphabet to tuples of index sets.

Frozen conventions:

* words are tuples of letters 1..k over positions 1..m; the canonical word
  order is lexicographic with position 1 most significant, so the index of a
  word is the big-endian base-k value of (letters - 1)
* lines are ordered by (moving-set size ascending, moving set lexicographic,
  fixed letters lexicographic in position order)
* on word indices a line is a pair (base, step): step is the sum of k^(m-p)
  over the moving positions p, base is the index of the point with moving
  letter 1, and the points are base + j*step for j = 0..k-1.  Within one
  moving set, base ascending is fixed letters lexicographic
* bit i of the encoding is worth 2^(i-1): bit 1 is least significant

Two line scans return the first monochromatic line, one engine
(``_first_line``) on two layouts of the color table.  ``first_mono_line``
reads a table in word order, over any alphabet; it serves
``find_mono_line`` and ``mono_config_search``.  ``first_mono_subset_line``
reads the cover table of the constructive search in the order that builds
it, by subset tuple (a_1..a_d), with no reordering into word order.  In
either layout letter v at position p adds a fixed offset to a word's
index, so the points of a line are its base plus the offsets of its
moving letter.  The engine packs the table into one int with a
fixed-width lane per word, finds the lines of a moving set with many of
them with a few shifts, XORs and masks over all lanes (a zero-lane test
that keeps carries inside their lane), and tests the bases of a set with
few lines one at a time, on their first two points first.  Either way the
line returned is the first in the canonical order above.
"""

from __future__ import annotations

import sys
from array import array
from functools import partial
from itertools import combinations, compress, product
from operator import eq, itemgetter
from struct import pack

from .algebra import SIZE_CAP, Value, power_over_cap
from .search import ColoringOutcome, check_cover_tree, universal_coloring_search


def all_words(k: int, m: int) -> list[tuple[int, ...]]:
    return [w for w in product(range(1, k + 1), repeat=m)]


class Line(Value):
    """A combinatorial line: fixed positions with their letters, and a
    non-empty moving set swept through the alphabet in unison.  ``fixed``
    holds the (position, letter) pairs sorted by position."""

    __slots__ = _fields = ("m", "fixed", "moving")

    def __init__(self, m: int, fixed: tuple, moving: frozenset[int]):
        fixed = tuple(sorted((int(p), int(v)) for p, v in fixed))
        moving = frozenset(int(p) for p in moving)
        if not moving:
            raise ValueError("moving set must be non-empty")
        positions = {p for p, _ in fixed} | moving
        if len(fixed) + len(moving) != m or positions != set(range(1, m + 1)):
            raise ValueError("fixed and moving parts must partition the positions")
        self._init(m, fixed, moving)


def line_points(L: Line, k: int) -> list[tuple[int, ...]]:
    """The k words of the line, in moving-letter order 1..k."""
    base = dict(L.fixed)
    out = []
    for letter in range(1, k + 1):
        out.append(tuple(base[p] if p in base else letter for p in range(1, L.m + 1)))
    return out


def is_line_point_tuple(k: int, m: int, indices) -> bool:
    """Verification-only: do these word indices, in order, list the points of
    some line?  Used when replaying certificates.  They do when they are
    base + j * step below k^m, step > 0 with base-k digits 0 and 1 (the
    moving positions) and base with digit 0 on them."""
    if len(indices) != k:
        return False
    if k == 1:  # one letter: the one word is a line
        return 0 <= indices[0] < k**m
    base, step = indices[0], indices[1] - indices[0]
    if base < 0 or step <= 0 or indices[-1] >= k**m:
        return False
    if tuple(indices) != tuple(range(base, base + k * step, step)):
        return False
    while step:
        step, s = divmod(step, k)
        base, b = divmod(base, k)
        if s > 1 or s and b:
            return False
    return True


def _bases(k: int, m: int, moving) -> list[int]:
    """Ascending indices of the words with letter 1 on the moving positions
    (counted from 0): the bases of the moving set's lines."""
    bases = [0]
    for p in range(m):
        if p not in moving:
            weight = k ** (m - 1 - p)
            bases = [b + j * weight for b in bases for j in range(k)]
    return bases


def _line_families(k: int, m: int):
    """The moving sets in canonical line order, each as (its positions
    counted from 0, its step); its lines' bases are ``_bases``."""
    for size in range(1, m + 1):
        for moving in combinations(range(m), size):
            yield moving, sum(k ** (m - 1 - p) for p in moving)


# array typecode per lane width in bytes; "I" wins over "L" where both are 4
_LANE_TYPES = {array(t).itemsize: t for t in "LIH"}


def _wide_lanes(width: int, values=()) -> array:
    # one struct.pack of the list, in native order: cheaper than
    # array(typecode, list), which converts the list item by item
    return array(_LANE_TYPES[width], pack(f"={len(values)}{'HI'[width // 4]}", *values))


def lanes(top: int):
    """The constructor of a flat table of ints in 0..top, in the narrowest
    lanes that hold top: a ``bytearray`` of 1-byte lanes, an ``array`` of
    2- or 4-byte lanes (from a list), or a ``list`` from 2^32 on.  Called
    with no argument it gives an empty table, which ``+=`` extends at C
    level."""
    if top < 1 << 8:
        return bytearray
    if top >= 1 << 32:
        return list
    return partial(_wide_lanes, 2 if top < 1 << 16 else 4)


def _lane_table(colors):
    """The colors as a table of lanes (``lanes``): a table of lanes is kept
    as it is; colors of 2^32 or more are first renumbered densely in order
    of appearance, which keeps equality and so every line."""
    if isinstance(colors, (bytearray, array)):
        return colors
    top = max(colors)
    if top >= 1 << 32:
        index: dict = {}
        colors = [index.setdefault(c, len(index)) for c in colors]
        top = len(index) - 1
    return lanes(top)(colors)


def _packed(table) -> tuple[int, int, int, int]:
    """(lane width in bits, the table as one int, the top bit of every
    lane, every lane's other bits): lane i holds table[i], little-endian."""
    width, n = 8 * memoryview(table).itemsize, len(table)
    if sys.byteorder == "big" and width > 8:
        table = array(table.typecode, table)
        table.byteswap()
    high = int.from_bytes((bytes(width // 8 - 1) + b"\x80") * n, "little")
    return width, int.from_bytes(table, "little"), high, ((1 << width * n) - 1) ^ high


def _base_lanes(layout, moving, width: int) -> int:
    """The top bit of every base lane of the moving set: the lanes whose
    digits (``_first_line``'s layout) are 0 on every moving position.  A
    one-lane block grows digit by digit from the least significant one,
    repeated radix times on a fixed position's digit and followed by zero
    lanes on a moving one."""
    block = bytes(width // 8 - 1) + b"\x80"
    for radix, p, _weight in layout:
        block = block + bytes((radix - 1) * len(block)) if p in moving else block * radix
    return int.from_bytes(block, "little")


def _first_line(k: int, m: int, layout, table) -> Line | None:
    """First line (canonical order) whose points share a color, or None.
    ``table`` lists the colors of the k^m words as ints >= 0, as a table of
    lanes (``lanes``) or any sequence, which is packed first, in the order
    that ``layout`` gives: a word's index has one mixed-radix digit per
    entry (radix, position, weight) of the layout, least significant first,
    and its letters (from 0) are the sums of digit * weight over their
    position's digits.  So letter v at position p adds a fixed offset, and
    the k points of the line with moving positions M and base t (the point
    with moving letter 1) are t plus the offsets of v over M, v = 0..k-1.

    A moving set with many lines is tested on all of them at once, on the
    table packed into one int, one fixed-width lane per word (``_packed``):
    joining each v to its parent v & (v - 1), the XOR table
    X = C ^ (C >> (difference of their offsets) lanes) is zero in lane b
    exactly where the two points of the line based at b agree, once shifted
    down by the parent's offset.  The OR of those k-1 tables is zero
    exactly in the lanes of the bases of monochromatic lines, and in some
    lanes that are no base; the zero lanes are found without carries
    crossing lanes as the top bits of (((Y & LO) + LO) | Y) & HI, flipped,
    HI being every lane's top bit and LO its other bits.  Lane 0 is a base,
    and the least word; any other zero lane is kept only if it has no
    moving digit (``_base_lanes``), and the least word among those is the
    least base.  Lanes the shifts fill with zeros lie past every base's
    last point, so they never reach the result.  Such a test costs O(k^m)
    lane bytes, so it runs only where the set has at least one line per 16
    such bytes.  A sparser set tests its bases one by one in word order, on
    their first two points first: the bases below its last few free
    positions are listed per set from the per-position offsets, and the
    block of offsets over those last positions, at most 2^8 of them, is
    built once per call and read below each such base by one C-level
    gather."""
    table = _lane_table(table)
    width, packed, high, low = _packed(table)
    n = len(table)
    offsets, place = [[0] * k for _ in range(m)], 1  # of letter v at position p
    for radix, p, weight in layout:
        for v in range(k):
            offsets[p][v] += v // weight % radix * place
        place *= radix
    blocks, span = {}, next((j for j in range(8, 0, -1) if k**j <= 1 << 8), 1)  # positions per block

    def letters(t: int) -> list[int]:
        """The letters, from 0, of the word at index t."""
        out = [0] * m
        for radix, p, weight in layout:
            t, digit = divmod(t, radix)
            out[p] += digit * weight
        return out

    def dense(moving, points) -> int | None:
        xors, y = {}, 0
        for v in range(1, k):
            parent = v & (v - 1)
            diff = points[v] - points[parent]
            if diff not in xors:
                xors[diff] = packed ^ (packed >> width * diff)
            y |= xors[diff] >> width * points[parent]
        lines = (((y & low) + low) | y) & high ^ high
        if not lines or lines & 1 << width - 1:
            return 0 if lines else None
        lines &= _base_lanes(layout, moving, width)
        flags, bases = lines.to_bytes(n * width // 8, "little"), []
        at = flags.find(0x80)
        while at >= 0:
            bases.append(at // (width // 8))
            at = flags.find(0x80, at + 1)
        return min(bases, key=letters, default=None)

    def sparse(free, points) -> int | None:
        cut = max(0, len(free) - span)
        tail = tuple(free[cut:])
        if tail not in blocks:
            block = [0]
            for p in tail:
                block = [b + o for b in block for o in offsets[p]]
            blocks[tail] = block, itemgetter(*block)
        block, gather = blocks[tail]
        heads = [0]
        for p in free[:cut]:
            heads = [h + o for h in heads for o in offsets[p]]
        second, rest = points[1], points[2:]
        # most lines already differ on their first two points
        return next((h + b for h in heads
                     for b in compress(block, map(eq, gather(view[h:]), gather(view[h + second:])))
                     if all(table[h + b + o] == table[h + b] for o in rest)), None)

    with memoryview(table) as view:
        for moving, _step in _line_families(k, m):
            points = [sum(offsets[p][v] for p in moving) for v in range(k)]
            free = [p for p in range(m) if p not in moving]
            if free and 16 * k ** len(free) < n * width // 8:
                base = sparse(free, points)
            else:
                base = dense(moving, points)
            if base is not None:
                word = letters(base)
                fixed = tuple((p + 1, word[p] + 1) for p in free)
                return Line(m, fixed, frozenset(p + 1 for p in moving))
    return None


def first_mono_line(k: int, m: int, colors) -> Line | None:
    """First line (canonical order) whose points share a color, or None.
    ``colors`` lists the color of every word by word index, as ints >= 0:
    one base-k digit per position, position 1 most significant."""
    return _first_line(k, m, [(k, p, 1) for p in reversed(range(m))], colors)


def first_mono_subset_line(d: int, r: int, table) -> Line | None:
    """First line (canonical order) over the 2^d-letter alphabet at r
    positions whose points share a color, or None.  ``table`` lists the
    color of every word in subset-tuple order: by the number
    sum_i a_i * 2^(r*(d-i)) of its masks (a_1..a_d) under ``psi_encode``,
    bit j of a mask being position j+1.  So bit b of the index is bit
    i = d-1 - b // r (from 0) of the letter at position b % r (from 0),
    and the points of a line are its base plus the sums of the shifted
    masks S_i = M << r*(d-1-i) over the bits i of v (``_first_line``)."""
    return _first_line(1 << d, r, [(2, b % r, 1 << d - 1 - b // r) for b in range(d * r)], table)


def find_mono_line(k: int, m: int, coloring):
    """First line (canonical order) whose points share a color, or None.
    ``coloring`` maps a word tuple to its color, any hashable value."""
    index: dict = {}
    return first_mono_line(k, m, [index.setdefault(coloring(w), len(index)) for w in all_words(k, m)])


# ---------------------------------------------------------------------------
# Hales-Jewett stages: does every t-coloring of k^m words make a line
# monochromatic?  ``search.stages`` over m = 1, 2, ... finds HJ(k, t).


def _word_count(k: int, m: int) -> int:
    """k^m, the words of stage m, refused over ``SIZE_CAP`` before the
    power is taken."""
    if power_over_cap(k, m) is not None:
        raise ValueError(f"hj k={k} m={m} has {k}^{m} words, more than the cap of {SIZE_CAP}")
    return k**m


def _refuse_over_line_cap(k: int, m: int, words: int) -> None:
    """Refuse a stage of over ``SIZE_CAP`` lines: (k+1)^m - k^m, the words
    over k+1 letters, the extra one marking the moving positions, less
    those with none."""
    total = power_over_cap(k + 1, m)  # a str names a power over 10^18, far over the cap
    if isinstance(total, str) or total is not None and power_over_cap(total - words, 1) is not None:
        raise ValueError(f"hj k={k} m={m} has {k + 1}^{m} - {k}^{m} lines, more than the cap of {SIZE_CAP}")


def _lines_by_last_index(k: int, m: int) -> list[list[tuple]]:
    """The hyperedge table of the stage: each line as (point indices,
    point indices), listed under its largest point index; refused unbuilt
    over the word or the line cap."""
    words = _word_count(k, m)
    _refuse_over_line_cap(k, m, words)
    table = [[] for _ in range(words)]
    for moving, step in _line_families(k, m):
        for b in _bases(k, m, moving):
            idx = tuple(range(b, b + k * step, step))
            table[idx[-1]].append((idx, idx))
    return table


def hj_stage(
    k: int,
    t: int,
    m: int,
    *,
    budget: int | None = None,
    resume_path=None,
) -> ColoringOutcome:
    """Decide whether every t-coloring of the m-position word space over a
    k-letter alphabet contains a monochromatic line.  Colorings list the
    colors of the words in canonical word order; a cover leaf lists its
    reasons as lines, each named by its point indices."""
    if k < 1 or t < 1 or m < 1:
        raise ValueError("k, t, m must be >= 1")
    table = _lines_by_last_index(k, m)
    return universal_coloring_search(t, table, budget=budget, resume_path=resume_path)


def hj_check_cover(k: int, t: int, m: int, cover) -> bool:
    words = _word_count(k, m)
    return check_cover_tree(words, t, cover, lambda w: w if is_line_point_tuple(k, m, w) else None)


def hj_coloring_is_counterexample(k: int, t: int, m: int, coloring) -> bool:
    """Verification-only: a full t-coloring with no monochromatic line.  The
    lines are listed here, apart from the search's table: one per word
    over the letters 0..k with at least one k, which marks the moving
    positions.  Its point j puts letter j on them, and a word's index is
    its big-endian base-k value, so the points are base + j * step."""
    if len(coloring) != _word_count(k, m):  # before the lines are counted
        return False
    _refuse_over_line_cap(k, m, len(coloring))
    if any(not 1 <= c <= t for c in coloring):
        return False
    for marks in product(range(k + 1), repeat=m):
        base = step = 0
        for a in marks:
            base, step = base * k + a % k, step * k + (a == k)
        if step and len({coloring[base + j * step] for j in range(k)}) == 1:
            return False
    return True


# ---------------------------------------------------------------------------
# the bit-pattern encoding into index-set tuples


def psi_encode(w: tuple[int, ...], d: int) -> tuple[frozenset[int], ...]:
    """Word over alphabet 1..2^d -> (alpha_1..alpha_d): position j joins
    alpha_i when bit i (worth 2^(i-1)) of w(j) - 1 is set."""
    if any(not 1 <= letter <= (1 << d) for letter in w):
        raise ValueError(f"letters must lie in 1..{1 << d}")
    return tuple(
        frozenset(j + 1 for j, letter in enumerate(w) if (letter - 1) >> (i - 1) & 1)
        for i in range(1, d + 1)
    )


class SubsetConfig(Value):
    """d base index sets plus a mover disjoint from all of them; the induced
    points are (alpha_1 + eta_1, ..., alpha_d + eta_d) over eta_i in
    {nothing, mover}.  ``base`` holds alpha_1..alpha_d as frozensets, which
    may be empty."""

    __slots__ = _fields = ("base", "mover")

    def __init__(self, base: tuple, mover: frozenset[int]):
        base = tuple(frozenset(a) for a in base)
        mover = frozenset(mover)
        if not mover:
            raise ValueError("mover must be non-empty")
        for a in base:
            if a & mover:
                raise ValueError("mover must be disjoint from every base set")
        self._init(base, mover)

    @property
    def d(self) -> int:
        return len(self.base)


def line_to_config(L: Line, d: int) -> SubsetConfig:
    """mover = the moving set; base sets from the encoding of the point with
    moving letter 1 (its moving positions carry no bits).  The 2^d induced
    points are then exactly the encodings of the line's points."""
    first = line_points(L, 1 << d)[0]
    return SubsetConfig(psi_encode(first, d), frozenset(L.moving))


def mono_config_search(d: int, r: int, coloring):
    """Compose the coloring with the encoding, hunt a monochromatic line over
    the 2^d-letter alphabet, and map it back; None when no line exists."""
    L = find_mono_line(1 << d, r, lambda w: coloring(psi_encode(w, d)))
    return None if L is None else line_to_config(L, d)
