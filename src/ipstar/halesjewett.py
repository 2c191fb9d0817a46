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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .ipsets import subset_folds
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


def all_lines(k: int, m: int) -> list[Line]:
    """Every line of the m-position word space, in canonical order."""
    out = []
    positions = list(range(1, m + 1))
    for size in range(1, m + 1):
        for moving in combinations(positions, size):
            rest = [p for p in positions if p not in moving]
            for letters in product(range(1, k + 1), repeat=len(rest)):
                out.append(Line(m, tuple(zip(rest, letters)), frozenset(moving)))
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


def _line_families(k: int, m: int):
    """The lines in canonical order, one moving set at a time: (moving
    positions counted from 0, step, bases ascending)."""
    weights = [k ** (m - p) for p in range(1, m + 1)]
    for size in range(1, m + 1):
        for moving in combinations(range(m), size):
            bases = [0]
            for p in range(m):
                if p not in moving:
                    bases = [b + j * weights[p] for b in bases for j in range(k)]
            yield moving, sum(weights[p] for p in moving), bases


def first_mono_line(k: int, m: int, colors) -> Line | None:
    """First line (canonical order) whose points share a color, or None.
    ``colors`` lists the color of every word by word index."""
    for moving, step, bases in _line_families(k, m):
        # most lines already differ on their first two points
        pairs = bases if k == 1 else [b for b in bases if colors[b] == colors[b + step]]
        for b in pairs:
            if all(colors[b + j * step] == colors[b] for j in range(2, k)):
                letters = [b // k ** (m - 1 - p) % k + 1 for p in range(m)]
                fixed = tuple((p + 1, letters[p]) for p in range(m) if p not in moving)
                return Line(m, fixed, frozenset(p + 1 for p in moving))
    return None


def find_mono_line(k: int, m: int, coloring):
    """First line (canonical order) whose points share a color, or None.
    ``coloring`` maps a word tuple to its color."""
    return first_mono_line(k, m, [coloring(w) for w in all_words(k, m)])


# ---------------------------------------------------------------------------
# Hales-Jewett stages: does every t-coloring of k^m words make a line
# monochromatic?  ``search.stages`` over m = 1, 2, ... finds HJ(k, t).


def _lines_by_last_index(k: int, m: int) -> list[list[tuple]]:
    """The hyperedge table of the stage: each line as (point indices,
    point indices), listed under its largest point index."""
    table = [[] for _ in range(k**m)]
    for _moving, step, bases in _line_families(k, m):
        for b in bases:
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
    return check_cover_tree(k**m, t, cover, lambda w: _line_positions(k, m, w))


def hj_coloring_is_counterexample(k: int, t: int, m: int, coloring) -> bool:
    """Verification-only: a full t-coloring with no monochromatic line."""
    # a wrong length is refused before the k^m-entry table is built
    return len(coloring) == k**m and avoids_every_edge(coloring, t, _lines_by_last_index(k, m))


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


def psi_decode(alphas, r: int) -> tuple[int, ...]:
    """Inverse of psi_encode for index sets inside {1..r}."""
    alphas = [frozenset(a) for a in alphas]
    if any(not a <= set(range(1, r + 1)) for a in alphas):
        raise ValueError("index sets must lie inside {1..r}")
    out = []
    for j in range(1, r + 1):
        val = 0
        for i, alpha in enumerate(alphas, start=1):
            if j in alpha:
                val |= 1 << (i - 1)
        out.append(val + 1)
    return tuple(out)


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


def config_points(cfg: SubsetConfig) -> list[tuple[frozenset[int], ...]]:
    """The 2^d induced points, ordered to match the line points (the point
    with pattern bits of ell-1 sits at moving letter ell)."""
    def move(point, i):  # base set i takes the mover
        return (*point[:i], point[i] | cfg.mover, *point[i + 1 :])

    return subset_folds(move, tuple(cfg.base), range(cfg.d))


def line_to_config(L: Line, d: int) -> SubsetConfig:
    """mover = the moving set; base sets from the encoding of the point with
    moving letter 1 (its moving positions carry no bits).  The 2^d induced
    points are then exactly the encodings of the line's points."""
    first = line_points(L, 1 << d)[0]
    return SubsetConfig(psi_encode(first, d), frozenset(L.moving))


def word_subset_tuples(d: int, r: int) -> list[int]:
    """For each word index over the 2^d-letter alphabet, the number
    sum_i a_i * 2^(r*(d-i)) of its subset masks (a_1..a_d) under ``psi_encode``,
    where bit j of a mask is index j+1 and sits at word position j+1."""
    k = 1 << d
    letter_bits = [sum(1 << r * (d - 1 - i) for i in range(d) if v >> i & 1) for v in range(k)]
    out = [0]
    for p in range(r):
        out = [t + (letter_bits[v] << p) for t in out for v in range(k)]
    return out


def mono_config_search(d: int, r: int, coloring):
    """Compose the coloring with the encoding, hunt a monochromatic line over
    the 2^d-letter alphabet, and map it back; None when no line exists."""
    L = find_mono_line(1 << d, r, lambda w: coloring(psi_encode(w, d)))
    return None if L is None else line_to_config(L, d)
