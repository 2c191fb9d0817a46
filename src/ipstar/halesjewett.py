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

The line scan (``first_mono_line``) compares whole color tables at once:
the colors are packed into one int with a fixed-width lane per word, and a
moving set's lines are found with a few shifts, XORs and masks over all
lanes (a zero-lane test that keeps carries inside their lane).  That costs
the same for every moving set, so only the sets with many lines are
scanned that way; the rest test their bases one at a time.

The encoding side keeps, per (d, r), the subset-tuple number of every word
in word order (``word_subset_tuples``, an immutable tuple) and one
``operator.itemgetter`` over it (``word_gather``), so a color table indexed
by subset tuple reaches word order in one C-level gather.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import cache
from itertools import combinations, product
from operator import itemgetter

from .algebra import SIZE_CAP, power_over_cap
from .search import (
    ColoringOutcome,
    avoids_every_edge,
    check_cover_tree,
    universal_coloring_search,
)


def all_words(k: int, m: int) -> list[tuple[int, ...]]:
    return [w for w in product(range(1, k + 1), repeat=m)]


@dataclass(frozen=True)
class Line:
    """A combinatorial line: fixed positions with their letters, and a
    non-empty moving set swept through the alphabet in unison."""

    m: int
    fixed: tuple  # ((position, letter), ...) sorted by position
    moving: frozenset[int]

    def __post_init__(self):
        fixed = tuple(sorted((int(p), int(v)) for p, v in self.fixed))
        moving = frozenset(int(p) for p in self.moving)
        object.__setattr__(self, "fixed", fixed)
        object.__setattr__(self, "moving", moving)
        if not moving:
            raise ValueError("moving set must be non-empty")
        positions = {p for p, _ in fixed} | moving
        if len(fixed) + len(moving) != self.m or positions != set(range(1, self.m + 1)):
            raise ValueError("fixed and moving parts must partition the positions")


def line_points(L: Line, k: int) -> list[tuple[int, ...]]:
    """The k words of the line, in moving-letter order 1..k."""
    base = dict(L.fixed)
    out = []
    for letter in range(1, k + 1):
        out.append(tuple(base[p] if p in base else letter for p in range(1, L.m + 1)))
    return out


def is_line_point_tuple(k: int, m: int, indices) -> bool:
    """Verification-only: do these word indices, in order, list the points of
    some line?  Used when replaying certificates."""
    if len(indices) != k or len(set(indices)) != k:
        return False
    words = []
    for idx in indices:
        if not 0 <= idx < k**m:
            return False
        letters = []
        for _ in range(m):
            idx, d = divmod(idx, k)
            letters.append(d + 1)
        words.append(tuple(reversed(letters)))
    moving = {p for p in range(m) if len({w[p] for w in words}) > 1}
    if not moving:
        return k == 1  # one letter: the only word lies on every line
    for letter, w in enumerate(words, start=1):
        if any(w[p] != letter for p in moving):
            return False
    fixed = {p: words[0][p] for p in range(m) if p not in moving}
    return all(w[p] == v for w in words for p, v in fixed.items())


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
_LANE_TYPES = {array(t).itemsize: t for t in "LIHB"}


def _packed(colors) -> tuple[int, int]:
    """(lane width in bits, the colors as one int): color i sits in lane i,
    little-endian, in the narrowest of 1, 2 or 4 bytes that holds the
    largest color.  Colors of 2^32 or more are first renumbered densely in
    order of appearance, which keeps equality and so every line."""
    try:
        return 8, int.from_bytes(bytes(colors), "little")
    except ValueError:  # a color of 256 or more
        top = max(colors)
    if top >= 1 << 32:
        index: dict = {}
        colors = [index.setdefault(c, len(index)) for c in colors]
        top = len(index) - 1
    width = 2 if top < 1 << 16 else 4
    lanes = array(_LANE_TYPES[width], colors)
    if sys.byteorder == "big":
        lanes.byteswap()
    return 8 * width, int.from_bytes(lanes.tobytes(), "little")


def _base_lanes(k: int, m: int, moving, width: int) -> int:
    """The top bit of every base lane of the moving set: a one-lane block
    grows position by position from the least significant one, repeated k
    times on a fixed position and followed by zero lanes on a moving one."""
    block = bytes(width // 8 - 1) + b"\x80"
    for p in reversed(range(m)):
        block = block + bytes((k - 1) * len(block)) if p in moving else block * k
    return int.from_bytes(block, "little")


def first_mono_line(k: int, m: int, colors) -> Line | None:
    """First line (canonical order) whose points share a color, or None.
    ``colors`` lists the color of every word by word index, as ints >= 0.

    The colors are packed into one int, one fixed-width lane per word
    (``_packed``), so one moving set of step s is tested on all its lines
    at once: X = C ^ (C >> s lanes) is zero exactly in the lanes b where
    colors[b] == colors[b + s], found without carries crossing lanes as
    the top bits of ~(((X & LO) + LO) | X), LO being every lane's low
    bits.  The k-1 shifted copies of that test, ANDed with the top bits of
    the set's base lanes, leave the monochromatic lines, and the lowest
    set bit is the least base.  Lanes the shift fills with zeros lie past
    every base's last point, so they never reach the result.  Such a scan
    costs O(k^m) lane bytes per moving set, so it runs only where the set
    has at least one line per 16 such bytes: k^m/16 lines at one-byte lanes,
    k^m/4 at four.  The sparser sets filter their bases one by one on their
    first two points instead."""
    n = k**m
    width, packed = _packed(colors)
    high = int.from_bytes((bytes(width // 8 - 1) + b"\x80") * n, "little")
    low = ((1 << width * n) - 1) ^ high
    for moving, step in _line_families(k, m):
        if 16 * k ** (m - len(moving)) >= n * width // 8:  # dense
            x = packed ^ (packed >> width * step)
            same = ~(((x & low) + low) | x) & high
            lines = _base_lanes(k, m, moving, width)
            for j in range(k - 1):
                lines &= same >> width * step * j
            b = ((lines & -lines).bit_length() - 1) // width if lines else None
        else:
            # most lines already differ on their first two points
            pairs = (b for b in _bases(k, m, moving) if colors[b] == colors[b + step])
            mono = (b for b in pairs if all(colors[b + j * step] == colors[b] for j in range(2, k)))
            b = next(mono, None)
        if b is not None:
            letters = [b // k ** (m - 1 - p) % k + 1 for p in range(m)]
            fixed = tuple((p + 1, letters[p]) for p in range(m) if p not in moving)
            return Line(m, fixed, frozenset(p + 1 for p in moving))
    return None


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


def _lines_by_last_index(k: int, m: int) -> list[list[tuple]]:
    """The hyperedge table of the stage: each line as (point indices,
    point indices), listed under its largest point index.  It is refused
    unbuilt over ``SIZE_CAP`` lines: (k+1)^m - k^m, the words over k+1
    letters, the extra one marking the moving positions, less those with
    none."""
    words = _word_count(k, m)
    total = power_over_cap(k + 1, m)  # a str names a power over 10^18, far over the cap
    if isinstance(total, str) or total is not None and power_over_cap(total - words, 1) is not None:
        raise ValueError(f"hj k={k} m={m} has {k + 1}^{m} - {k}^{m} lines, more than the cap of {SIZE_CAP}")
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


def _line_positions(k: int, m: int, witness):
    indices = tuple(witness)
    return indices if is_line_point_tuple(k, m, indices) else None


def hj_check_cover(k: int, t: int, m: int, cover) -> bool:
    return check_cover_tree(_word_count(k, m), t, cover, lambda w: _line_positions(k, m, w))


def hj_coloring_is_counterexample(k: int, t: int, m: int, coloring) -> bool:
    """Verification-only: a full t-coloring with no monochromatic line."""
    # a wrong length is refused before the k^m-entry table is built
    return len(coloring) == _word_count(k, m) and avoids_every_edge(
        coloring, t, _lines_by_last_index(k, m)
    )


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


@dataclass(frozen=True)
class SubsetConfig:
    """d base index sets plus a mover disjoint from all of them; the induced
    points are (alpha_1 + eta_1, ..., alpha_d + eta_d) over eta_i in
    {nothing, mover}."""

    base: tuple  # (alpha_1..alpha_d) as frozensets, may be empty sets
    mover: frozenset[int]

    def __post_init__(self):
        base = tuple(frozenset(a) for a in self.base)
        mover = frozenset(self.mover)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "mover", mover)
        if not mover:
            raise ValueError("mover must be non-empty")
        for a in base:
            if a & mover:
                raise ValueError("mover must be disjoint from every base set")

    @property
    def d(self) -> int:
        return len(self.base)


def line_to_config(L: Line, d: int) -> SubsetConfig:
    """mover = the moving set; base sets from the encoding of the point with
    moving letter 1 (its moving positions carry no bits).  The 2^d induced
    points are then exactly the encodings of the line's points."""
    first = line_points(L, 1 << d)[0]
    return SubsetConfig(psi_encode(first, d), frozenset(L.moving))


@cache
def word_subset_tuples(d: int, r: int) -> tuple[int, ...]:
    """For each word index over the 2^d-letter alphabet, the number
    sum_i a_i * 2^(r*(d-i)) of its subset masks (a_1..a_d) under ``psi_encode``,
    where bit j of a mask is index j+1 and sits at word position j+1.
    Built once per (d, r) as an outer sum of per-position offset tables: a
    letter v at position p (counted from 0) contributes the bits of v - 1
    shifted to p, and position 0 is outermost, as in the word order.  The
    tuple is shared by every caller."""
    letter_bits = [sum(1 << r * (d - 1 - i) for i in range(d) if v >> i & 1) for v in range(1 << d)]
    out = [0]
    for p in range(r):
        offsets = [bits << p for bits in letter_bits]
        out = [a + b for a in out for b in offsets]
    return tuple(out)


@cache
def word_gather(d: int, r: int) -> itemgetter:
    """cells -> the tuple (cells[t] for t in word_subset_tuples(d, r)): a
    table indexed by subset tuple, read in word order by one C-level
    gather.  Built once per (d, r) over the shared tuple, which costs about
    40 bytes per word (a pointer and its int): 0.7 MB at 2^14 words, 40 MB
    at 2^20."""
    return itemgetter(*word_subset_tuples(d, r))


def mono_config_search(d: int, r: int, coloring):
    """Compose the coloring with the encoding, hunt a monochromatic line over
    the 2^d-letter alphabet, and map it back; None when no line exists."""
    L = find_mono_line(1 << d, r, lambda w: coloring(psi_encode(w, d)))
    return None if L is None else line_to_config(L, d)
