"""Deliberately naive reference computations used as ground truth.

Everything here trades speed for independence: isolation numbers come from
subset enumeration, each set tested by the pattern matcher on all of
G - N[S] (the definition, not the closure's per-component absorption),
and game values from one retrograde table over every mark set. The game
oracle shares the rulebook (marking closure, move legality and marking
updates) but nothing from the solver's search; like the solver, it
closes a start's marks before playing from it.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations
from typing import Iterable

from .errors import BudgetExceeded, TerminalState
from .graph import Graph, as_mask, closed_neighborhood, mask_of, read_only, require_inside
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
MAX_NAIVE_ORDER = 16


def is_isolating(g: Graph, fam: ForbiddenFamily, s: int | Iterable[int]) -> bool:
    """True when G - N[s] contains no family pattern as a subgraph.

    Computed directly from the definition (no marking machinery), so it
    serves as the independent end-of-game check.
    """
    rest = g.full_mask & ~closed_neighborhood(g, as_mask(s))
    return not any(contains_pattern(g, rest, p) for p in fam.patterns)


class IsolationCertificate:
    """A least isolating set and its size."""

    __slots__ = ("witness", "size")
    witness: tuple[int, ...]
    size: int

    def __init__(self, witness: tuple[int, ...], size: int) -> None:
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "size", size)

    __setattr__ = __delattr__ = read_only

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not IsolationCertificate:
            return NotImplemented
        return self.witness == other.witness and self.size == other.size

    def __hash__(self) -> int:
        return hash((self.witness, self.size))

    def __repr__(self) -> str:
        return f"IsolationCertificate(witness={self.witness!r}, size={self.size!r})"

    def __reduce__(self):
        return IsolationCertificate, (self.witness, self.size)


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


@lru_cache(maxsize=1)
def game_values(g: Graph, fam: ForbiddenFamily) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Dominator- and Staller-to-move values of every mark set, indexed by
    mask, by retrograde analysis. An open set copies its closure; a closed
    set reads, for each move x, its own set plus N[x], whose entry holds
    the closed child's value. Both are strict supersets, so larger masks:
    one downward pass fills every entry from filled ones."""
    if g.n > MAX_NAIVE_ORDER:
        raise BudgetExceeded(f"game table capped at order {MAX_NAIVE_ORDER}, got {g.n}")
    dom, stal = [0] * (g.full_mask + 1), [0] * (g.full_mask + 1)
    for marked in range(g.full_mask - 1, -1, -1):
        closed = close_marks(g, fam, marked)
        if closed != marked:
            dom[marked], stal[marked] = dom[closed], stal[closed]
            continue
        children = [marked | g.closed[x] for x in range(g.n) if g.closed[x] & ~marked]
        dom[marked] = 1 + min(stal[c] for c in children)
        stal[marked] = 1 + max(dom[c] for c in children)
    return tuple(dom), tuple(stal)


def naive_game_value(
    g: Graph, fam: ForbiddenFamily, start: MarkState, mover: Mover
) -> int:
    """Game value of the closed start, read from :func:`game_values`."""
    require_inside(g, start.marked, "marks")
    return game_values(g, fam)[mover is Mover.STALLER][start.marked]


def naive_best_moves(
    g: Graph, fam: ForbiddenFamily, start: MarkState, mover: Mover
) -> int:
    """Mask of optimal moves from the closed start per :func:`game_values`."""
    marked = close_marks(g, fam, start.marked)
    if marked == g.full_mask:
        raise TerminalState("no moves from a fully marked graph")
    dom = mover is Mover.DOMINATOR
    after = game_values(g, fam)[dom]  # the other player's row: they move next
    results = {x: after[marked | g.closed[x]] for x in range(g.n) if g.closed[x] & ~marked}
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
