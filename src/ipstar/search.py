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
  k-colorings of M indexed positions.  It either proves "every coloring
  contains a target" and emits a replayable pruning certificate (a cover
  tree), or returns the least counterexample coloring in base-k order.

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


@dataclass(frozen=True)
class CoverLeaf:
    """One pruned DFS branch: the prefix assignment and the target it forced."""

    prefix: tuple[int, ...]
    witness: object


@dataclass(frozen=True)
class UniversalOutcome:
    status: str  # DONE or BUDGET_EXCEEDED
    all_ok: bool | None  # None when budget exceeded
    counterexample: tuple[int, ...] | None
    cover: tuple[CoverLeaf, ...] | None
    candidates: int
    resume_path: tuple[int, ...] | None


def _allowed_max(prefix, k: int, canonical: bool) -> int:
    # canonical mode: a color may appear only after all smaller colors have
    if not canonical:
        return k
    return min(k, (max(prefix) if prefix else 0) + 1)


def universal_coloring_search(
    M: int,
    k: int,
    accept,
    *,
    canonical: bool = True,
    budget: int | None = None,
    want_cover: bool = True,
    checkpoint_cb=None,
    checkpoint_interval: int = CHECKPOINT_INTERVAL,
    resume_path: tuple[int, ...] | None = None,
) -> UniversalOutcome:
    """Decide whether every k-coloring of positions 0..M-1 contains a target.

    ``accept(colors, pos)`` sees the assignment colors[0..pos] (later entries
    stale) and returns a witness for a target completed at ``pos``, or None.
    Branches are cut the moment a witness appears, so accept only ever needs
    to look at structures whose last position is ``pos``.

    With ``canonical`` set, color c is only tried at a position if colors
    1..c-1 already appear earlier; targets must be color-permutation
    invariant for the claim to transfer to all colorings.  For k = 2 the
    counterexample returned is the least avoiding coloring in base-k order
    (any avoider can be relabeled to start with color 1).

    All-ok claims come with a cover tree: the pruned prefixes in DFS order,
    each with its witness.  ``check_cover_tree`` replays them using only
    verification logic.  A resumed search that wants the cover first replays
    the DFS from the root up to ``resume_path``, uncharged, to rebuild the
    leaves before it; without a cover it starts at the path directly.
    """
    if M < 1 or k < 1:
        raise ValueError("need M >= 1 positions and k >= 1 colors")
    colors = [0] * M
    leaves: list[CoverLeaf] = []
    examined = 0
    replay = None  # resume path still ahead of an uncharged cover replay

    if resume_path:
        if len(resume_path) > M or any(c < 1 or c > k for c in resume_path):
            raise ValueError(f"bad resume path {resume_path!r}")
    if resume_path and not want_cover:
        depth = len(resume_path) - 1
        colors[: len(resume_path)] = resume_path
        pending = resume_path[-1]
    else:
        replay = tuple(resume_path) if resume_path else None
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
            return UniversalOutcome(BUDGET_EXCEEDED, None, None, None, examined, resume)
        colors[depth] = pending
        if replay is None:
            examined += 1
            if checkpoint_cb is not None and examined % checkpoint_interval == 0:
                checkpoint_cb(tuple(colors[: depth + 1]), examined)
        witness = accept(colors, depth)
        if witness is not None:
            if want_cover:
                leaves.append(CoverLeaf(tuple(colors[: depth + 1]), witness))
        elif depth + 1 < M:
            depth += 1
            pending = 1
            continue
        else:
            if replay is not None:
                raise _off_frontier(resume_path)
            return UniversalOutcome(DONE, False, tuple(colors), None, examined, None)
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
                cover = tuple(leaves) if want_cover else None
                return UniversalOutcome(DONE, True, None, cover, examined, None)


def _off_frontier(resume_path) -> ValueError:
    return ValueError(f"resume path {resume_path!r} is never reached by this search")


def check_cover_tree(M: int, k: int, leaves, verify_witness, *, canonical: bool = True) -> bool:
    """Replay a cover tree and confirm it proves the all-colorings claim.

    Checks (a) every leaf's witness is a target monochromatic under its own
    prefix, via the caller's verification-only ``verify_witness(prefix,
    witness)``, and (b) the leaves, in order, are exactly the pruned frontier
    of the canonical DFS, so no full coloring escapes.  Uses no search code.
    """
    state: list[int] = [1]
    for leaf in leaves:
        prefix = tuple(leaf.prefix)
        # descend leftward (always color 1) until the pruned prefix is reached
        while tuple(state) != prefix:
            if len(state) >= M:
                return False
            state.append(1)
        if not verify_witness(prefix, leaf.witness):
            return False
        while state:
            last = state.pop()
            if last < _allowed_max(state, k, canonical):
                state.append(last + 1)
                break
    return not state
