"""Exact minimax evaluation of the isolation game with a transposition table.

The game value of a state depends only on the marked set and whose turn it
is, so the table is keyed by ``(marked_mask, minimizer_to_move)``. The
minimizer (Dominator) takes the minimum over successors, the maximizer
(Staller) the maximum, and ties break toward the lowest vertex index so
principal lines are reproducible across runs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import StateSpaceBudgetExceeded, TerminalState
from .graph import Graph, as_mask, encode_graph6, mask_list
from .rules import ForbiddenFamily, MarkState, close_marks, initial_closure

DEFAULT_MEMO_CAP = 1 << 26


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


def _search(
    g: Graph,
    fam: ForbiddenFamily,
    memo: dict[tuple[int, bool], tuple[int, int | None]],
    memo_cap: int,
) -> Callable[[int, bool], tuple[int, int | None]]:
    """Bind the recursive evaluator over one graph/family/table triple."""
    closed = g.closed
    full = g.full_mask

    def value_of(marked: int, dom_to_move: bool) -> tuple[int, int | None]:
        key = (marked, dom_to_move)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if marked == full:
            result = (0, None)
        else:
            best = -1
            best_move = -1
            unmarked = full & ~marked
            for x in range(g.n):
                if not closed[x] & unmarked:
                    continue
                child = close_marks(g, fam, marked | closed[x])
                v = value_of(child, not dom_to_move)[0]
                if best_move < 0 or (v < best if dom_to_move else v > best):
                    best = v
                    best_move = x
            result = (1 + best, best_move)
        if len(memo) >= memo_cap:
            raise StateSpaceBudgetExceeded(
                f"transposition table exceeded {memo_cap} entries"
            )
        memo[key] = result
        return result

    return value_of


def _principal_line(
    g: Graph,
    fam: ForbiddenFamily,
    marked: int,
    mover: Mover,
    memo: dict[tuple[int, bool], tuple[int, int | None]],
) -> tuple[int, ...]:
    line = []
    dom = mover is Mover.DOMINATOR
    while True:
        _, move = memo[(marked, dom)]
        if move is None:
            return tuple(line)
        line.append(move)
        marked = close_marks(g, fam, marked | g.closed[move])
        dom = not dom


def game_value(
    g: Graph,
    fam: ForbiddenFamily,
    start: MarkState,
    mover: Mover,
    *,
    memo_cap: int = DEFAULT_MEMO_CAP,
    memo: dict | None = None,
) -> GameResult:
    """Evaluate a closed state exactly.

    A shared ``memo`` may be passed in to amortize several starts on the
    same graph and family; entries are write-once, so reuse is safe.
    """
    if memo is None:
        memo = {}
    evaluate = _search(g, fam, memo, memo_cap)
    dom = mover is Mover.DOMINATOR
    value, move = evaluate(start.marked, dom)
    return GameResult(value, move, _principal_line(g, fam, start.marked, mover, memo))


def optimal_moves(
    g: Graph,
    fam: ForbiddenFamily,
    state: MarkState,
    mover: Mover,
    *,
    memo_cap: int = DEFAULT_MEMO_CAP,
) -> int:
    """Mask of every playable vertex whose successor attains the optimum."""
    if state.is_terminal:
        raise TerminalState("no moves from a fully marked graph")
    memo: dict = {}
    evaluate = _search(g, fam, memo, memo_cap)
    dom = mover is Mover.DOMINATOR
    target = evaluate(state.marked, dom)[0] - 1
    out = 0
    unmarked = state.unmarked
    for x in range(g.n):
        if not g.closed[x] & unmarked:
            continue
        child = close_marks(g, fam, state.marked | g.closed[x])
        if evaluate(child, not dom)[0] == target:
            out |= 1 << x
    return out


def solve(
    g: Graph,
    fam: ForbiddenFamily,
    start_player: Mover,
    initial_marks: int | Iterable[int] = 0,
    *,
    memo_cap: int = DEFAULT_MEMO_CAP,
    memo: dict | None = None,
) -> GameResult:
    """Close the initial marks, then evaluate the game from scratch."""
    state = initial_closure(g, fam, as_mask(initial_marks))
    return game_value(g, fam, state, start_player, memo_cap=memo_cap, memo=memo)


def solve_both(
    g: Graph,
    fam: ForbiddenFamily,
    initial_marks: int | Iterable[int] = 0,
    *,
    memo_cap: int = DEFAULT_MEMO_CAP,
) -> tuple[GameResult, GameResult]:
    """Dominator-start and Staller-start results sharing one table."""
    memo: dict = {}
    d = solve(g, fam, Mover.DOMINATOR, initial_marks, memo_cap=memo_cap, memo=memo)
    s = solve(g, fam, Mover.STALLER, initial_marks, memo_cap=memo_cap, memo=memo)
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
