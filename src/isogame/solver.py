"""Exact evaluation of the isolation game by null-window tests over a
table of value bounds.

The game value of a state depends only on the marked set and whose turn it
is. The search never computes a value directly: it answers "is the value
at most ``k``?" (Knuth & Moore 1975; Plaat et al. 1996, MTD(f)). The
minimizer (Dominator) passes when some successor passes at ``k - 1``, the
maximizer (Staller) when every successor does, so the first decisive child
ends the test. The table maps ``(marked_mask, minimizer_to_move)`` to
``(lo, hi)`` bounds on the exact value; a pass sets ``hi = k``, a fail
sets ``lo = k + 1``, and a test the bounds already decide is answered from
the table. The value is the least ``k`` whose test passes, counting up
from 0.

A test skips the moves a neighbour's move dominates. Let ``s_v`` be the
unmarked part of ``N[v]``. If ``s_x`` lies inside ``s_y``, the child of
``y`` contains the child of ``x``, since closure is monotone, and by the
paper's Continuation Principle a larger marked set never leaves a longer
game. So Dominator skips ``x`` when a neighbour ``y`` has ``s_x`` inside
``s_y``, and Staller skips ``x`` when a neighbour ``y`` has a non-empty
``s_y`` inside ``s_x`` (a ``y`` whose ``N[y]`` is fully marked is no
move). Of equal sets only the lowest vertex is tried, so every chain of
skips ends at a move that is tried and at least as good. Each test keeps
its answer; it only visits and stores fewer children. Optimal moves and
principal lines are read with one test per child over every legal move,
lowest vertex first, so ties break toward the lowest vertex index and
lines are reproducible and the same as without the skip. The root closes
over the whole graph and each child only around its move, through one
``rules.closer`` per search context, which is exact because its parent
was closed. ``solve_both`` runs its two starts in one search context:
they share the bounds table and the closure memo.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import StateSpaceBudgetExceeded, TerminalState
from .graph import Graph, as_mask, encode_graph6, mask_list, mask_of
from .graph import require_inside
from .rules import ForbiddenFamily, MarkState, closer
from .rules import close_marks  # noqa: F401  (perfbench wraps solver.close_marks)

DEFAULT_MEMO_CAP = 1 << 24

T = TypeVar("T")
#: ``optimal_children(marked, dom_to_move, value)`` of one search context
OptimalChildren = Callable[[int, bool, int], Iterator[tuple[int, int]]]


class Mover(enum.Enum):
    DOMINATOR = "D"
    STALLER = "S"

    @property
    def other(self) -> "Mover":
        return Mover.STALLER if self is Mover.DOMINATOR else Mover.DOMINATOR


@dataclass(frozen=True)
class GameResult:
    """Total moves under optimal play, one optimal first move, and a full
    optimal line. ``best_move`` is None exactly when the state is terminal."""

    value: int
    best_move: int | None
    principal_line: tuple[int, ...]


@lru_cache(maxsize=1)
def _move_table(g: Graph) -> tuple[tuple, tuple]:
    """Staller's and Dominator's move rows, indexed by ``dom_to_move``.
    The row of vertex x holds what playing x marks, N[x]; where closure
    can act, N[N[x]]; and one mask triple ``(inside, outside, legal)`` per
    neighbour y. Within the unmarked part, y's move dominates x's when
    ``inside`` is empty and ``outside`` and ``legal`` are not: for
    Dominator s_x lies in s_y, for Staller s_y lies in s_x and is no
    empty set, and for y > x the two sets differ, so of equal sets only
    the lowest vertex is tried. The rows depend on the graph alone, so
    the last table is kept for the next start on the same graph."""
    full = g.full_mask
    closed = g.closed
    stall_rows, dom_rows = [], []
    for x, hit in enumerate(closed):
        near, stall, dom, rest = hit, [], [], g.adj[x]
        while rest:
            low = rest & -rest
            y = low.bit_length() - 1
            ny = closed[y]
            near |= ny
            stall.append((ny & ~hit, full if y < x else hit & ~ny, ny))
            dom.append((hit & ~ny, full if y < x else ny & ~hit, full))
            rest ^= low
        stall_rows.append((hit, near, tuple(stall)))
        dom_rows.append((hit, near, tuple(dom)))
    return tuple(stall_rows), tuple(dom_rows)


def _search(
    g: Graph,
    fam: ForbiddenFamily,
    marks: int,
    dom_to_move: bool,
    table: dict[tuple[int, bool], tuple[int, int]],
    closures: dict[int, int],
    memo_cap: int,
    read: Callable[[int, int, OptimalChildren], T],
) -> T:
    """One solve's context: close ``marks``, count the value of that state
    up from 0, and return ``read(closed marks, value, optimal_children)``.
    ``at_most`` and ``optimal_children`` share one move table, the bounds
    ``table`` and the ``closures`` memo (mask -> its closure). Both dicts
    hold only for this ``g`` and ``fam``; several starts may share them.
    ``at_most`` calls itself through its closure cell, a reference cycle,
    so the cell is cleared once ``read`` returns and the context is freed
    then rather than by the cyclic garbage collector; ``optimal_children``
    is good only inside ``read``."""
    full = g.full_mask
    moves = _move_table(g)
    # every move marks a new vertex, so a live state lasts 1..n moves
    default = (1, g.n)
    close = closer(g, fam, closures, memo_cap)
    marked = close(require_inside(g, marks, "marks"), full)

    def at_most(marked: int, dom_to_move: bool, k: int) -> bool:
        if marked == full:
            return k >= 0
        key = (marked, dom_to_move)
        bounds = table.get(key)
        lo, hi = default if bounds is None else bounds
        if hi <= k:
            return True
        if lo > k:
            return False
        # Dominator passes if some child does, Staller if every child does,
        # so the first child whose answer equals ``dom_to_move`` decides
        passed = not dom_to_move
        unmarked = full & ~marked
        for hit, near, rivals in moves[dom_to_move]:
            if not hit & unmarked:
                continue
            for inside, outside, legal in rivals:
                if not inside & unmarked and outside & unmarked and legal & unmarked:
                    break  # a neighbour's move dominates this one
            else:
                if at_most(
                    close(marked | hit, near), not dom_to_move, k - 1
                ) is dom_to_move:
                    passed = dom_to_move
                    break
        if bounds is None and len(table) >= memo_cap:
            raise StateSpaceBudgetExceeded(
                f"transposition table exceeded {memo_cap} entries"
            )
        table[key] = (lo, k) if passed else (k + 1, hi)
        return passed

    def optimal_children(marked: int, dom_to_move: bool, value: int) -> Iterator:
        """Yield ``(move, successor)`` for each optimal move, lowest vertex
        first. After a Dominator move every child is worth at least
        ``value - 1``, after a Staller move at most that, so one test per
        child tells whether it attains the value."""
        for x, (hit, near, _) in enumerate(moves[dom_to_move]):
            if hit & ~marked:
                closed = close(marked | hit, near)
                if (
                    at_most(closed, False, value - 1)
                    if dom_to_move
                    else not at_most(closed, True, value - 2)
                ):
                    yield x, closed

    try:
        value = 0
        while not at_most(marked, dom_to_move, value):
            value += 1
        return read(marked, value, optimal_children)
    finally:
        del at_most


def optimal_moves(
    g: Graph,
    fam: ForbiddenFamily,
    state: MarkState,
    mover: Mover,
    *,
    memo_cap: int = DEFAULT_MEMO_CAP,
) -> int:
    """Mask of every playable vertex whose successor attains the optimum,
    after closing the state's marks."""
    dom = mover is Mover.DOMINATOR

    def every_move(marked: int, value: int, optimal_children: OptimalChildren) -> int:
        if marked == g.full_mask:
            raise TerminalState("no moves from a fully marked graph")
        return mask_of(x for x, _ in optimal_children(marked, dom, value))

    return _search(g, fam, state.marked, dom, {}, {}, memo_cap, every_move)


def solve(
    g: Graph,
    fam: ForbiddenFamily,
    start_player: Mover,
    initial_marks: int | Iterable[int] = 0,
    *,
    memo_cap: int = DEFAULT_MEMO_CAP,
    memo: dict | None = None,
    closures: dict | None = None,
) -> GameResult:
    """Close the initial marks, find the value, and read the principal line
    with one test per child. A shared ``memo`` (the bounds table) amortizes
    several starts on one graph and family; entries only ever tighten, so
    reuse is safe. ``closures`` is the search-mode closure memo, shared
    the same way and only on the same graph and family."""
    dom = start_player is Mover.DOMINATOR

    def principal_line(
        marked: int, value: int, optimal_children: OptimalChildren
    ) -> GameResult:
        line, to_move = [], dom
        for left in range(value, 0, -1):
            move, marked = next(optimal_children(marked, to_move, left))
            line.append(move)
            to_move = not to_move
        return GameResult(value, line[0] if line else None, tuple(line))

    return _search(
        g, fam, as_mask(initial_marks), dom,
        {} if memo is None else memo,
        {} if closures is None else closures,
        memo_cap, principal_line,
    )


def solve_both(
    g: Graph,
    fam: ForbiddenFamily,
    initial_marks: int | Iterable[int] = 0,
    *,
    memo_cap: int = DEFAULT_MEMO_CAP,
) -> tuple[GameResult, GameResult]:
    """Dominator-start and Staller-start results sharing one search context:
    one bounds table and one closure memo. The marks are read once, so a
    one-shot iterable serves both starts."""
    marks = as_mask(initial_marks)
    shared = {"memo_cap": memo_cap, "memo": {}, "closures": {}}
    d = solve(g, fam, Mover.DOMINATOR, marks, **shared)
    s = solve(g, fam, Mover.STALLER, marks, **shared)
    return d, s


def result_record(
    g: Graph,
    fam: ForbiddenFamily,
    start_player: Mover,
    initial_marks: int | Iterable[int],
    result: GameResult,
) -> dict:
    """The documented JSON shape for one solved instance."""
    return {
        "graph": encode_graph6(g),
        "family": fam.tag,
        "start": start_player.value,
        "initial_marks": mask_list(as_mask(initial_marks)),
        "value": result.value,
        "best_move": result.best_move,
        "principal_line": list(result.principal_line),
    }
