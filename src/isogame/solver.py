"""Exact minimax evaluation of the isolation game with a transposition table.

The game value of a state depends only on the marked set and whose turn it
is, so the table maps ``(marked_mask, minimizer_to_move)`` to the value
alone. The minimizer (Dominator) takes the minimum over successors, the
maximizer (Staller) the maximum. Full minimax stores every child of a stored
state, so optimal moves and principal lines are read back from the table,
ties broken toward the lowest vertex index so lines are reproducible. The
root's marks are closed in full; each child is closed only around its move
(``rules.close_near``), which is exact because its parent was closed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .errors import StateSpaceBudgetExceeded, TerminalState
from .graph import Graph, as_mask, closed_neighborhood, encode_graph6, mask_list, mask_of
from .rules import ForbiddenFamily, MarkState, close_marks, close_near

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


def _move_table(g: Graph) -> list[tuple[int, int]]:
    """Per vertex ``x``: what playing it marks, ``N[x]``, and where a
    component can go quiet as a result, ``N[N[x]]``."""
    return [(hit, closed_neighborhood(g, hit)) for hit in g.closed]


def _search(
    g: Graph,
    fam: ForbiddenFamily,
    moves: list[tuple[int, int]],
    memo: dict[tuple[int, bool], int],
    memo_cap: int,
) -> Callable[[int, bool], int]:
    """Bind the recursive evaluator over one graph, family, move table and
    value table. The marked sets it is called on must be closed."""
    full = g.full_mask

    def value_of(marked: int, dom_to_move: bool) -> int:
        key = (marked, dom_to_move)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if marked == full:
            result = 0
        else:
            best = -1
            unmarked = full & ~marked
            for hit, near in moves:
                if not hit & unmarked:
                    continue
                v = value_of(close_near(g, fam, marked | hit, near), not dom_to_move)
                if best < 0 or (v < best if dom_to_move else v > best):
                    best = v
            result = 1 + best
        if len(memo) >= memo_cap:
            raise StateSpaceBudgetExceeded(
                f"transposition table exceeded {memo_cap} entries"
            )
        memo[key] = result
        return result

    return value_of


def _optimal_children(
    g: Graph,
    fam: ForbiddenFamily,
    moves: list[tuple[int, int]],
    memo: dict,
    marked: int,
    dom_to_move: bool,
) -> Iterator[tuple[int, int]]:
    """Yield ``(move, successor)`` for every optimal move from a solved
    state, lowest vertex first. Only reads the table."""
    target = memo[(marked, dom_to_move)] - 1
    for x, (hit, near) in enumerate(moves):
        if hit & ~marked:
            child = close_near(g, fam, marked | hit, near)
            if memo[(child, not dom_to_move)] == target:
                yield x, child


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
    marked = close_marks(g, fam, state.marked)
    if marked == g.full_mask:
        raise TerminalState("no moves from a fully marked graph")
    moves = _move_table(g)
    memo: dict = {}
    dom = mover is Mover.DOMINATOR
    _search(g, fam, moves, memo, memo_cap)(marked, dom)
    return mask_of(x for x, _ in _optimal_children(g, fam, moves, memo, marked, dom))


def solve(
    g: Graph,
    fam: ForbiddenFamily,
    start_player: Mover,
    initial_marks: int | Iterable[int] = 0,
    *,
    memo_cap: int = DEFAULT_MEMO_CAP,
    memo: dict | None = None,
) -> GameResult:
    """Close the initial marks, evaluate the game, and read the principal
    line back from the table. A shared ``memo`` amortizes several starts on
    one graph and family; entries are write-once, so reuse is safe."""
    if memo is None:
        memo = {}
    marked = close_marks(g, fam, as_mask(initial_marks))
    moves = _move_table(g)
    dom = start_player is Mover.DOMINATOR
    value = _search(g, fam, moves, memo, memo_cap)(marked, dom)
    line = []
    for _ in range(value):
        move, marked = next(_optimal_children(g, fam, moves, memo, marked, dom))
        line.append(move)
        dom = not dom
    return GameResult(value, line[0] if line else None, tuple(line))


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
