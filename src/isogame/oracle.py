"""Deliberately naive reference computations used as ground truth.

Everything here trades speed for independence: isolation numbers come from
subset enumeration, each set tested by the pattern matcher on all of
G - N[S] (the definition, not the closure's per-component absorption),
and game values from unmemoized tree recursion. The game oracle shares
the rulebook (marking closure, move legality and marking updates) but
nothing from the solver's search; like the solver, it closes a start's
marks before playing from it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .errors import BudgetExceeded, TerminalState
from .graph import Graph, as_mask, closed_neighborhood, mask_of
from .rules import (
    ForbiddenFamily,
    MarkState,
    close_marks,
    contains_pattern,
    initial_closure,
    updated_marks,
)
from .solver import Mover

MAX_SUBSET_ORDER = 24
MAX_NAIVE_ORDER = 7


def is_isolating(g: Graph, fam: ForbiddenFamily, s: int | Iterable[int]) -> bool:
    """True when G - N[s] contains no family pattern as a subgraph.

    Computed directly from the definition (no marking machinery), so it
    serves as the independent end-of-game check.
    """
    rest = g.full_mask & ~closed_neighborhood(g, as_mask(s))
    return not any(contains_pattern(g, rest, p) for p in fam.patterns)


@dataclass(frozen=True)
class IsolationCertificate:
    witness: tuple[int, ...]
    size: int


def isolation_number(g: Graph, fam: ForbiddenFamily) -> IsolationCertificate:
    """Minimum isolating set by increasing-cardinality exhaustion.

    The first success is the lexicographically least witness of minimum
    size, because itertools.combinations emits in lexicographic order.
    """
    if g.n > MAX_SUBSET_ORDER:
        raise BudgetExceeded(
            f"subset search capped at order {MAX_SUBSET_ORDER}, got {g.n}"
        )
    for size in range(g.n + 1):
        for combo in combinations(range(g.n), size):
            if is_isolating(g, fam, mask_of(combo)):
                return IsolationCertificate(combo, size)
    raise AssertionError("the full vertex set always isolates")


def naive_game_value(
    g: Graph, fam: ForbiddenFamily, start: MarkState, mover: Mover
) -> int:
    """Game value by tree recursion from the closed start; order capped at 7."""
    if g.n > MAX_NAIVE_ORDER:
        raise BudgetExceeded(
            f"naive recursion capped at order {MAX_NAIVE_ORDER}, got {g.n}"
        )
    full = g.full_mask

    def recurse(marked: int, dom_to_move: bool) -> int:
        if marked == full:
            return 0
        branch = min if dom_to_move else max
        return 1 + branch(
            recurse(updated_marks(g, fam, marked, x), not dom_to_move)
            for x in range(g.n)
            if g.closed[x] & ~marked
        )

    return recurse(close_marks(g, fam, start.marked), mover is Mover.DOMINATOR)


def naive_best_moves(
    g: Graph, fam: ForbiddenFamily, start: MarkState, mover: Mover
) -> int:
    """Mask of optimal moves from the closed start per the naive recursion."""
    marked = close_marks(g, fam, start.marked)
    if marked == g.full_mask:
        raise TerminalState("no moves from a fully marked graph")
    dom = mover is Mover.DOMINATOR
    results = {}
    for x in range(g.n):
        if g.closed[x] & ~marked:
            child = MarkState(g, updated_marks(g, fam, marked, x))
            results[x] = naive_game_value(g, fam, child, mover.other)
    target = min(results.values()) if dom else max(results.values())
    return mask_of(x for x, v in results.items() if v == target)


def random_playout(
    g: Graph,
    fam: ForbiddenFamily,
    rng: random.Random,
    initial_marks: int = 0,
) -> tuple[list[int], MarkState]:
    """Play uniformly random legal moves to the end; returns (moves, state)."""
    state = initial_closure(g, fam, initial_marks)
    played: list[int] = []
    while not state.is_terminal:
        options = [x for x in range(g.n) if g.closed[x] & state.unmarked]
        x = rng.choice(options)
        played.append(x)
        state = MarkState(g, updated_marks(g, fam, state.marked, x))
    return played, state
