"""Deterministic budgeted search primitives shared by the combinatorial modules.

Two engines:

* ``first_hit`` scans an indexed candidate space for the least index whose
  probe returns a value.
* ``prefix_search`` is a depth-first search over prefixes of choices, cut
  where a problem's ``extend`` refuses a prefix; it returns the first full
  path, and the cuts that name a witness as a replayable cover.  Three
  problems run on it: the generator-tuple scans of ``ipsets`` (IP_r
  verdicts, the fk blocking test, the block example), the fk-density branch
  and bound over x = 1..N, and ``universal_coloring_search``, which decides "every
  k-coloring of M positions makes a hyperedge monochromatic" from a table
  of hyperedges, with forced moves by unit propagation: it either emits a
  pruning certificate (a cover tree whose leaves list the edges that refute
  them) or returns the least counterexample coloring in base-k order.

A cover is a ``LeafLog``: the witnessed cuts in DFS order, each stored as
a delta against the one before it.  Leaf i's prefix is leaf i-1's prefix
cut to ``keep`` choices, followed by a short tail; ``keep`` is the lowest
depth the DFS backed up to between the two cuts, which the engine tracks as
it backs up, so a leaf costs a few array entries and a reference to its
witness (for a coloring cover, the tuple of its reasons), whatever its
depth.  Whole prefixes are rebuilt, leaf by leaf, only when a cover is
read: rendered as a certificate or replayed by ``check_cover_tree``, the
one place that knows which prefixes a cover must list.

``stages`` is the one loop over ascending stages of a search: HJ word
lengths m and finite-union sizes r run on it, under one budget shared by
every stage.

Budgets count examined candidates: scan probes, or prefix-search nodes (one
per ``extend`` call).  Exhausting a budget is a first-class outcome carrying
resume information, an index or a path, never an exception.  A staged
search resumes at (stage, path).
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from collections.abc import Sequence
from functools import cache

from .algebra import SIZE_CAP

DONE = "done"
BUDGET_EXCEEDED = "budget_exceeded"


class ScanOutcome(namedtuple("ScanOutcome", [
    "status",  # DONE or BUDGET_EXCEEDED
    "index",  # least hit index, None if absent or budget ran out
    "value",  # probe payload at the hit index
    "candidates",  # candidates examined by this call
    "resume_index",  # where to restart after BUDGET_EXCEEDED
])):
    __slots__ = ()

    @property
    def found(self) -> bool:
        return self.index is not None


def first_hit(
    count: int,
    probe,
    *,
    budget: int | None = None,
    start: int = 0,
) -> ScanOutcome:
    """Least index in [start, count) where probe(i) returns non-None.

    The budget fixes the examined range up front, so the resume index of an
    exhausted scan is ``start + budget``.
    """
    if start < 0 or start > count:
        raise ValueError(f"start {start} outside [0, {count}]")
    end = count if budget is None else min(count, start + max(budget, 0))
    examined = 0
    for i in range(start, end):
        val = probe(i)
        examined += 1
        if val is not None:
            return ScanOutcome(DONE, i, val, examined, None)
    if end < count:
        return ScanOutcome(BUDGET_EXCEEDED, None, None, examined, end)
    return ScanOutcome(DONE, None, None, examined, None)


# ---------------------------------------------------------------------------
# the prefix search
#
# A problem is a tree of prefixes: ``span(state, depth)`` gives the choices
# lo..hi-1 open at that depth below a prefix with that state, and
# ``extend(state, depth, choice, path)`` returns the state of the prefix
# extended by the choice, or a ``Cut`` when no full path starts with it.
# ``path[:depth + 1]`` holds the extended prefix during the call.


class Cut:
    """What ``extend`` returns for a refused prefix; one that names a
    witness becomes a cover leaf."""

    __slots__ = ("witness",)

    def __init__(self, witness=None):
        self.witness = witness


CUT = Cut()


class CoverLeaf(namedtuple("CoverLeaf", "prefix witness")):
    """One pruned DFS branch: the prefix assignment and what its cut named;
    in a coloring cover, the tuple of edges that refutes the prefix.  A
    ``LeafLog`` stores none; it builds one per leaf as it is read."""

    __slots__ = ()


class LeafLog(Sequence):
    """An append-only sequence of ``CoverLeaf``, delta-encoded.

    Leaf i's prefix, of ``lengths[i]`` choices, is leaf i-1's prefix cut to
    ``keeps[i]`` choices followed by leaf i's tail; the tails are stored one
    after another in ``tails``.  The witnesses are kept by reference, so
    equal witnesses stay one object.  Reading the log (iteration, indexing,
    equality) rebuilds the prefixes in order; an index or a slice costs a
    pass over the log.  It compares equal to a tuple, list or log of the
    same leaves.
    """

    __slots__ = ("_keeps", "_lengths", "_tails", "_witnesses", "_last")

    def __init__(self, leaves=()):
        self._keeps = array("I")
        self._lengths = array("I")
        self._tails = array("q")
        self._witnesses: list = []
        self._last: list[int] = []  # the last leaf's prefix
        for leaf in leaves:
            self.append(leaf)

    def append_delta(self, keep: int, tail, witness) -> None:
        """Append the leaf whose prefix is the last one's first ``keep``
        choices followed by ``tail``."""
        last = self._last
        del last[keep:]
        last.extend(tail)
        self._keeps.append(keep)
        self._lengths.append(len(last))
        self._tails.extend(tail)
        self._witnesses.append(witness)

    def append(self, leaf: CoverLeaf) -> None:
        prefix, last = list(leaf.prefix), self._last
        keep = min(len(last), len(prefix))
        while last[:keep] != prefix[:keep]:  # from the longest shared length down
            keep -= 1
        self.append_delta(keep, prefix[keep:], leaf.witness)

    def __len__(self) -> int:
        return len(self._witnesses)

    def __iter__(self):
        prefix: list[int] = []
        start = 0
        tails = self._tails
        for keep, length, witness in zip(self._keeps, self._lengths, self._witnesses):
            del prefix[keep:]
            end = start + length - keep
            prefix.extend(tails[start:end])
            start = end
            yield CoverLeaf(tuple(prefix), witness)

    def __getitem__(self, index):
        leaves = list(self)
        return LeafLog(leaves[index]) if isinstance(index, slice) else leaves[index]

    def __eq__(self, other):
        if not isinstance(other, (LeafLog, tuple, list)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"LeafLog({list(self)!r})"


PrefixOutcome = namedtuple("PrefixOutcome", [
    "status",  # DONE or BUDGET_EXCEEDED
    "path",  # the first full path, None if absent or budget ran out
    "leaves",  # a LeafLog: the witnessed cuts before the search stopped, in DFS order
    "candidates",  # nodes charged by this call
    "resume_path",  # where a BUDGET_EXCEEDED search restarts
], defaults=(None,))


def prefix_search(
    root,
    length: int,
    span,
    extend,
    *,
    budget: int | None = None,
    resume_path: tuple[int, ...] | None = None,
) -> PrefixOutcome:
    """Depth-first search, choices in ascending order, for the first path of
    ``length`` choices none of whose prefixes is cut.

    Each ``extend`` call is one node.  The budget caps the nodes; an
    exhausted search returns the path of the node it did not try, and a
    search resumed there first replays the DFS from the root up to that
    node, uncharged, to rebuild the cover leaves before it.
    """
    if resume_path is not None and not 0 < len(resume_path) <= length:
        raise ValueError(f"bad resume path {resume_path!r}")
    if budget is not None:
        budget = max(budget, 0)
    replay = tuple(resume_path) if resume_path else None  # path still ahead of the replay
    path = [0] * length
    states = [root] * length  # states[d], ends[d]: the state and span end below path[:d]
    ends = [0] * length
    leaves = LeafLog()
    low = 0  # the lowest depth backed up to since the last leaf
    nodes = depth = 0
    state = root
    c, end = span(root, 0)
    while True:
        if c >= end:  # every choice at this depth is tried: back up
            depth -= 1
            if depth < 0:
                if replay is not None:
                    raise _off_frontier(resume_path)
                return PrefixOutcome(DONE, None, leaves, nodes)
            if depth < low:
                low = depth
            c, end, state = path[depth] + 1, ends[depth], states[depth]
            continue
        if replay is not None:
            if depth + 1 == len(replay) and c == replay[-1] and tuple(path[:depth]) == replay[:-1]:
                replay = None  # caught up: charge every node from here on
        if replay is None:
            if nodes == budget:
                resume = tuple(path[:depth]) + (c,)
                return PrefixOutcome(BUDGET_EXCEEDED, None, leaves, nodes, resume)
            nodes += 1
        path[depth] = c
        child = extend(state, depth, c, path)
        if child.__class__ is Cut:
            if child.witness is not None:
                # path[:low] is unchanged since the last leaf
                leaves.append_delta(low, path[low : depth + 1], child.witness)
                low = depth
            c += 1
        elif depth + 1 < length:
            states[depth], ends[depth] = state, end
            depth += 1
            state = child
            c, end = span(child, depth)
        else:
            if replay is not None:
                raise _off_frontier(resume_path)
            return PrefixOutcome(DONE, tuple(path), leaves, nodes)


def _off_frontier(resume_path) -> ValueError:
    return ValueError(f"resume path {resume_path!r} is never reached by this search")


# ---------------------------------------------------------------------------
# universal coloring claims
#
# Hales-Jewett stages and finite-union Ramsey checks are one claim: every
# k-coloring of M indexed positions makes some hyperedge monochromatic.  A
# problem supplies only its hyperedge table ``edges_by_last``: for each
# position, the (witness, positions) pairs of the hyperedges whose last
# position it is.

ALL_OK = "all-colorings-ok"
COUNTEREXAMPLE = "counterexample"


ColoringOutcome = namedtuple("ColoringOutcome", [
    "kind",  # ALL_OK, COUNTEREXAMPLE or BUDGET_EXCEEDED
    "coloring",  # the least counterexample
    "cover",  # a LeafLog or None: the cover tree proving ALL_OK
    "candidates",
    "resume_path",  # where a BUDGET_EXCEEDED search restarts
], defaults=(None,))


def universal_coloring_search(
    k: int,
    edges_by_last,
    *,
    budget: int | None = None,
    resume_path: tuple[int, ...] | None = None,
) -> ColoringOutcome:
    """Decide whether every k-coloring of the M = len(edges_by_last)
    positions makes some hyperedge monochromatic.

    A ``prefix_search`` over the colors of positions 0..M-1, with forward
    checking and unit propagation (Davis, Logemann and Loveland, 1962).
    Every position keeps a domain, the colors still open to it.  When the
    colored positions of an edge share color c and exactly one position q
    is free, q loses c; a position left with one color is forced to it,
    which propagates further.  A position left with no color, or an edge
    made monochromatic, is a conflict.  A child is cut when its color has
    left the position's domain, or when coloring it propagates to a
    conflict; propagation removes only colorings that make an edge
    monochromatic, so the tree keeps its shape and every canonical child is
    still one node.

    Color c is only tried at a position if colors 1..c-1 already appear
    earlier in the prefix; the claim is color-permutation invariant, so it
    transfers to all colorings.  The counterexample returned is the least
    avoiding coloring in this canonical base-k order (any avoider can be
    relabeled to start with color 1).

    All-ok claims come with a cover tree: the cut prefixes in DFS order,
    each with its reasons, the edges whose unit propagation from that prefix
    reaches the conflict, in the order they fired, the conflict edge last.
    ``check_cover_tree`` replays them using only verification logic.
    """
    M = len(edges_by_last)
    if M < 1 or k < 1:
        raise ValueError("need M >= 1 positions and k >= 1 colors")
    _check_color_table(M, k)
    witnesses, cells = [], []
    on = [[] for _ in range(M)]  # on[q]: the edges through position q
    for edges in edges_by_last:
        for witness, positions in edges:
            for q in positions:
                on[q].append(len(cells))
            witnesses.append(witness)
            cells.append(positions)
    color = [0] * M  # 0 while free
    domain = [(1 << k) - 1] * M  # bit c - 1 set while color c is open
    removal = [0] * (M * k)  # removal[q * k + c - 1]: the event that took c from q
    events: list[tuple[int, int, int]] = []  # (edge, position, color), in firing order
    colored: list[int] = []  # positions colored by a choice or forced, in order

    # The search state of a prefix is (largest color in it, len(events),
    # len(colored)) after its propagation.  prefix_search calls ``extend``
    # in DFS order, so undoing the two trails to the parent's lengths
    # restores the parent's domains and colors.
    def span(state, depth):
        return 1, min(k, state[0] + 1) + 1

    def extend(state, depth, c, path):
        top, n_events, n_colored = state
        while len(events) > n_events:
            _e, q, b = events.pop()
            domain[q] |= 1 << (b - 1)
        while len(colored) > n_colored:
            color[colored.pop()] = 0
        top = c if c > top else top
        if not domain[depth] >> (c - 1) & 1:  # ruled out by an earlier edge
            e = events[removal[depth * k + c - 1]][0]
            return Cut(_reasons(depth, cells[e], e))
        if color[depth]:  # forced to c already
            return top, n_events, n_colored
        color[depth] = c
        colored.append(depth)
        i = n_colored
        while i < len(colored):  # grows as positions are forced
            x = colored[i]
            i += 1
            b = color[x]
            bit = 1 << (b - 1)
            for e in on[x]:
                free = -1
                for q in cells[e]:
                    if not color[q]:
                        if free >= 0:
                            break
                        free = q
                    elif color[q] != b:
                        break
                else:
                    if free < 0:  # monochromatic
                        return Cut(_reasons(depth, cells[e], e))
                    left = domain[free]
                    if left & bit:
                        left ^= bit
                        domain[free] = left
                        removal[free * k + b - 1] = len(events)
                        events.append((e, free, b))
                        if not left:  # emptied: the edge of its last removal ends the list
                            return Cut(_reasons(depth, (free,)))
                        if not left & (left - 1):  # one color left: forced
                            color[free] = left.bit_length()
                            colored.append(free)
        return top, len(events), len(colored)

    def _reasons(depth, conflict_cells, last=None):
        """The reasons of a conflict under the prefix path[:depth + 1]: the
        edges of the events that took colors from the positions past the
        prefix among ``conflict_cells``, each after the events it needs, in
        firing order, then the edge ``last``.  Positions in the prefix are
        colored by the prefix itself."""
        todo = [j for y in conflict_cells if y > depth for j in _forcing(y)]
        need = set()
        while todo:
            i = todo.pop()
            if i not in need:
                need.add(i)
                e, q, _b = events[i]
                todo.extend(j for y in cells[e] if y > depth and y != q for j in _forcing(y))
        order = [events[i][0] for i in sorted(need)]
        if last is not None:
            order.append(last)
        return tuple(witnesses[e] for e in order)

    def _forcing(y):
        # the events that took every color but its own from position y
        # (forced, or emptied and colorless)
        return [removal[y * k + b - 1] for b in range(1, k + 1) if b != color[y]]

    out = prefix_search((0, 0, 0), M, span, extend, budget=budget, resume_path=resume_path)
    if out.status == BUDGET_EXCEEDED:
        return ColoringOutcome(BUDGET_EXCEEDED, None, None, out.candidates, out.resume_path)
    if out.path is not None:
        return ColoringOutcome(COUNTEREXAMPLE, out.path, None, out.candidates)
    return ColoringOutcome(ALL_OK, None, out.leaves, out.candidates)


def _check_color_table(M: int, k: int) -> None:
    """Refuse M positions in k colors when the M * k (position, color)
    entries of a search's or a replay's tables exceed 2 * ``SIZE_CAP``: two
    colors, the least that splits anything, of as many positions as the
    other caps admit."""
    if M * k > 2 * SIZE_CAP:
        raise ValueError(
            f"{M} positions in {k} colors make more (position, color) entries "
            f"than twice the cap of {SIZE_CAP}"
        )


def check_cover_tree(M: int, k: int, leaves, edge_positions) -> bool:
    """Replay a cover tree and confirm it proves the all-colorings claim.

    Checks (a) every leaf's reasons refute its prefix, where the caller's
    verification-only ``edge_positions(witness)`` decodes each reason into
    the positions of its hyperedge, or None when it names none, and (b) the
    leaves, in order, are exactly the pruned frontier of the canonical DFS,
    so no full coloring escapes.  Uses no search code.  M * k over twice
    ``SIZE_CAP`` is refused before any leaf is read.
    """
    _check_color_table(M, k)

    @cache  # each distinct witness once; a position outside 0..M-1 names no edge
    def decode(witness):
        positions = edge_positions(witness)
        return None if positions is None or any(not 0 <= q < M for q in positions) else positions

    state: list[int] = [1]
    tops: list[int] = [1]  # tops[i]: the largest color in state[: i + 1]
    for leaf in leaves:
        prefix = tuple(leaf.prefix)
        # the leaf extends the state leftward (always color 1), up to M positions
        n = len(state)
        if len(prefix) > M or prefix[:n] != tuple(state) or prefix[n:].count(1) != len(prefix) - n:
            return False
        tops += [tops[-1] if tops else 1] * (len(prefix) - n)
        state += [1] * (len(prefix) - n)
        if not _refutes(k, prefix, leaf.witness, decode):
            return False
        while state:
            last = state.pop()
            tops.pop()
            top = tops[-1] if tops else 0
            if last < min(k, top + 1):  # canonical: no color skipped
                state.append(last + 1)
                tops.append(max(top, last + 1))
                break
    return not state


def _refutes(k: int, prefix, reasons, decode) -> bool:
    """Replay the reasons of one leaf from its prefix coloring: each edge
    has its colored positions in one color and at most one free position,
    which loses that color and takes the one color left when only one is
    left.  Only the last edge, and it must, ends in a conflict: the edge
    is monochromatic or its free position has no color left."""
    n = len(prefix)  # positions below n take their color from the prefix
    forced: dict[int, int] = {}  # the colors that reasons forced on positions past it
    left: dict[int, set] = {}  # the colors open to each free position an edge reached
    for i, witness in enumerate(reasons, 1):
        positions = decode(witness)
        if positions is None:
            return False
        free, shades = set(), set()
        for q in positions:
            c = prefix[q] if q < n else forced.get(q)
            if c is None:
                free.add(q)
            else:
                shades.add(c)
        if len(shades) != 1 or len(free) > 1:
            return False
        if free:
            (q,) = free
            (c,) = shades
            open_ = left.setdefault(q, set(range(1, k + 1)))
            if c not in open_:
                return False
            open_.discard(c)
            if len(open_) == 1:
                forced[q] = min(open_)
            if open_:
                continue
        return i == len(reasons)  # a conflict, which only the last edge may reach
    return False


def stages(stages, run_stage, *, budget: int | None = None, resume=None):
    """Run a search at each stage in ascending order, yielding (stage,
    outcome) as each stage ends; the run ends after an outcome that ran out
    of budget, and a caller that has what it needs stops drawing.

    ``run_stage(n, budget=..., resume_path=...)`` searches stage n and
    returns an outcome with ``candidates`` and ``resume_path``, the latter
    set only when the budget ran out.  The budget caps the candidates of all
    stages together: a stage gets what the stages before it left, so one
    that starts with nothing left exceeds the budget after 0 candidates.
    ``resume = (n, path)`` skips the stages before n, and only stage n
    resumes from the path.
    """
    path = None
    if resume is not None:
        start, path = resume
        stages = [n for n in stages if n >= start]
    for n in stages:
        res = run_stage(n, budget=budget, resume_path=path)
        yield n, res
        if res.resume_path is not None:
            return
        path = None
        if budget is not None:
            budget -= res.candidates
