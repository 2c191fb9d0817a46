"""Deterministic budgeted search primitives shared by the combinatorial modules.

Three engines:

* ``first_hit`` scans an indexed candidate space for the least index whose
  probe returns a value.
* ``first_tuple`` scans the r-tuples over a pool in lexicographic order for
  the least one whose every prefix is admitted by an incremental ``extend``.
  A refused prefix skips its whole block of tuples at once; the outcome
  (hit, candidates, resume index) is the one a probe-per-tuple ``first_hit``
  scan of the same predicate would return.
* ``universal_coloring_search`` is a pruned depth-first search over all
  k-colorings of M indexed positions, given a table of hyperedges.  It
  either proves "every coloring makes a hyperedge monochromatic" and emits
  a replayable pruning certificate (a cover tree), or returns the least
  counterexample coloring in base-k order.  ``coloring_stages`` decides
  such claims at ascending stages under one budget.

Budgets count examined candidates (scan probes, DFS color assignments).
Exhausting a budget is a first-class outcome carrying resume information,
never an exception.  Long runs invoke a checkpoint callback every
``CHECKPOINT_INTERVAL`` candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

CHECKPOINT_INTERVAL = 1 << 20

DONE = "done"
BUDGET_EXCEEDED = "budget_exceeded"


@dataclass(frozen=True)
class ScanOutcome:
    status: str  # DONE or BUDGET_EXCEEDED
    index: int | None  # least hit index, None if absent or budget ran out
    value: object  # probe payload at the hit index
    candidates: int  # candidates examined by this call
    resume_index: int | None  # where to restart after BUDGET_EXCEEDED

    @property
    def found(self) -> bool:
        return self.index is not None


def first_hit(
    count: int,
    probe,
    *,
    budget: int | None = None,
    start: int = 0,
    checkpoint_cb=None,
    checkpoint_interval: int = CHECKPOINT_INTERVAL,
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
        if checkpoint_cb is not None and examined % checkpoint_interval == 0:
            checkpoint_cb(i + 1, examined)
    if end < count:
        return ScanOutcome(BUDGET_EXCEEDED, None, None, examined, end)
    return ScanOutcome(DONE, None, None, examined, None)


def first_tuple(
    pool,
    r: int,
    extend,
    root,
    *,
    budget: int | None = None,
    start: int = 0,
) -> ScanOutcome:
    """Least index in [start, len(pool)**r) of an r-tuple over the pool whose
    prefixes are all admitted by ``extend``; the hit's value is the tuple.

    Tuples are numbered lexicographically by pool position, coordinate 1 most
    significant.  ``extend(state, x)`` returns the state of the current prefix
    extended by x (``root`` is the empty prefix's state), or None when no
    tuple starting with the extended prefix can be a hit.  The tuples of a
    refused block still count as examined, so candidates, the budget and the
    resume index mean exactly what they mean for ``first_hit``.
    """
    n = len(pool)
    count = n**r
    if start < 0 or start > count:
        raise ValueError(f"start {start} outside [0, {count}]")
    end = count if budget is None else min(count, start + max(budget, 0))
    index = start
    if index < end:
        digits = []
        rest = start
        for _ in range(r):
            rest, d = divmod(rest, n)
            digits.append(d)
        digits.reverse()
        states = [root] * r  # states[j]: state of the prefix digits[:j]
        j = 0
        while True:
            state = extend(states[j], pool[digits[j]])
            if state is not None:
                if j + 1 == r:
                    tup = tuple(pool[d] for d in digits)
                    return ScanOutcome(DONE, index, tup, index - start + 1, None)
                j += 1
                states[j] = state
                continue
            # skip the rest of the block below the refused prefix digits[:j+1]
            size = n ** (r - 1 - j)
            index += size - index % size
            if index >= end:
                break
            while digits[j] == n - 1:
                j -= 1
            digits[j] += 1
            digits[j + 1 :] = [0] * (r - 1 - j)
    if end < count:
        return ScanOutcome(BUDGET_EXCEEDED, None, None, end - start, end)
    return ScanOutcome(DONE, None, None, end - start, None)


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


@dataclass(frozen=True)
class CoverLeaf:
    """One pruned DFS branch: the prefix assignment and the target it forced."""

    prefix: tuple[int, ...]
    witness: object


@dataclass(frozen=True)
class ColoringOutcome:
    kind: str  # ALL_OK, COUNTEREXAMPLE or BUDGET_EXCEEDED
    coloring: tuple[int, ...] | None  # the least counterexample
    cover: tuple[CoverLeaf, ...] | None  # the cover tree proving ALL_OK
    candidates: int
    resume_path: tuple[int, ...] | None = None  # where a BUDGET_EXCEEDED search restarts


def _allowed_max(prefix, k: int, canonical: bool) -> int:
    # canonical mode: a color may appear only after all smaller colors have
    if not canonical:
        return k
    return min(k, (max(prefix) if prefix else 0) + 1)


def _mono_witness(colors, c: int, edges):
    # the witness of the first edge whose positions all have color c
    for witness, positions in edges:
        if all(colors[q] == c for q in positions):
            return witness
    return None


def universal_coloring_search(
    k: int,
    edges_by_last,
    *,
    canonical: bool = True,
    budget: int | None = None,
    checkpoint_cb=None,
    checkpoint_interval: int = CHECKPOINT_INTERVAL,
    resume_path: tuple[int, ...] | None = None,
) -> ColoringOutcome:
    """Decide whether every k-coloring of the M = len(edges_by_last)
    positions makes some hyperedge monochromatic.

    A branch is cut the moment the color just assigned completes a
    monochromatic hyperedge, so only the edges listed under that position
    are looked at.

    With ``canonical`` set, color c is only tried at a position if colors
    1..c-1 already appear earlier; the claim is color-permutation invariant,
    so it transfers to all colorings.  For k = 2 the counterexample returned
    is the least avoiding coloring in base-k order (any avoider can be
    relabeled to start with color 1).

    All-ok claims come with a cover tree: the pruned prefixes in DFS order,
    each with the witness of the first edge, in table order, it made
    monochromatic.  ``check_cover_tree`` replays them using only
    verification logic.  A resumed search first replays the DFS from the
    root up to ``resume_path``, uncharged, to rebuild the leaves before it.
    """
    M = len(edges_by_last)
    if M < 1 or k < 1:
        raise ValueError("need M >= 1 positions and k >= 1 colors")
    if resume_path and (len(resume_path) > M or any(c < 1 or c > k for c in resume_path)):
        raise ValueError(f"bad resume path {resume_path!r}")
    colors = [0] * M
    leaves: list[CoverLeaf] = []
    examined = 0
    replay = tuple(resume_path) if resume_path else None  # path still ahead of the replay
    depth = 0
    pending = 1

    while True:
        # about to try color `pending` at position `depth`
        if replay is not None:
            if (
                depth + 1 == len(replay)
                and pending == replay[-1]
                and tuple(colors[:depth]) == replay[:-1]
            ):
                replay = None  # caught up: charge every node from here on
        elif budget is not None and examined >= budget:
            resume = tuple(colors[:depth]) + (pending,)
            return ColoringOutcome(BUDGET_EXCEEDED, None, None, examined, resume)
        colors[depth] = pending
        if replay is None:
            examined += 1
            if checkpoint_cb is not None and examined % checkpoint_interval == 0:
                checkpoint_cb(tuple(colors[: depth + 1]), examined)
        witness = _mono_witness(colors, pending, edges_by_last[depth])
        if witness is not None:
            leaves.append(CoverLeaf(tuple(colors[: depth + 1]), witness))
        elif depth + 1 < M:
            depth += 1
            pending = 1
            continue
        else:
            if replay is not None:
                raise _off_frontier(resume_path)
            return ColoringOutcome(COUNTEREXAMPLE, tuple(colors), None, examined)
        # advance: increment with carry in the canonical-allowed digit ranges
        while True:
            last = colors[depth]
            if last < _allowed_max(colors[:depth], k, canonical):
                pending = last + 1
                break
            depth -= 1
            if depth < 0:
                if replay is not None:
                    raise _off_frontier(resume_path)
                return ColoringOutcome(ALL_OK, None, tuple(leaves), examined)


def _off_frontier(resume_path) -> ValueError:
    return ValueError(f"resume path {resume_path!r} is never reached by this search")


def check_cover_tree(M: int, k: int, leaves, edge_positions, *, canonical: bool = True) -> bool:
    """Replay a cover tree and confirm it proves the all-colorings claim.

    Checks (a) every leaf's witness names a hyperedge that its prefix colors
    in one color, where the caller's verification-only
    ``edge_positions(witness)`` decodes the witness into the positions of
    that hyperedge, or None when it names none, and (b) the leaves, in
    order, are exactly the pruned frontier of the canonical DFS, so no full
    coloring escapes.  Uses no search code.
    """
    state: list[int] = [1]
    for leaf in leaves:
        prefix = tuple(leaf.prefix)
        # descend leftward (always color 1) until the pruned prefix is reached
        while tuple(state) != prefix:
            if len(state) >= M:
                return False
            state.append(1)
        positions = edge_positions(leaf.witness)
        if positions is None or max(positions) >= len(prefix):
            return False
        if len({prefix[q] for q in positions}) != 1:
            return False
        while state:
            last = state.pop()
            if last < _allowed_max(state, k, canonical):
                state.append(last + 1)
                break
    return not state


def avoids_every_edge(coloring, k: int, edges_by_last) -> bool:
    """Verification-only: is this a full coloring of the positions, in colors
    1..k, with no monochromatic hyperedge?"""
    if len(coloring) != len(edges_by_last) or any(not 1 <= c <= k for c in coloring):
        return False
    return all(
        len({coloring[q] for q in positions}) > 1
        for edges in edges_by_last
        for _witness, positions in edges
    )


def coloring_stages(stages, run_stage, *, budget: int | None = None, resume=None):
    """Decide the claim at each stage in ascending order, up to and including
    the first stage that is not a counterexample; returns (stage, outcome)
    pairs.

    ``run_stage(n, budget=..., resume_path=...)`` decides stage n.  The
    budget caps the candidates of all stages together: a stage gets what the
    stages before it left, so one that starts with nothing left exceeds the
    budget after 0 candidates.  ``resume = (n, path)`` skips the stages
    before n, and only stage n resumes from the path.
    """
    path = None
    if resume is not None:
        start, path = resume
        stages = [n for n in stages if n >= start]
    out = []
    for n in stages:
        res = run_stage(n, budget=budget, resume_path=path)
        out.append((n, res))
        if res.kind != COUNTEREXAMPLE:
            break
        path = None
        if budget is not None:
            budget -= res.candidates
    return out
