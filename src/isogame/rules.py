"""Forbidden-family semantics, marking closure, and move legality.

Every pattern is a connected graph with at least one vertex (the family
rejects any other), so G - N[S] holds a pattern exactly when one of its
components does. A component is *quiet* when it holds no pattern; quiet
components are dead for the rest of the game, so their vertices are
absorbed into the marked set. A vertex is playable exactly when its
closed neighborhood still has an unmarked vertex, and a move on ``x``
marks ``N[x]`` plus every component that goes quiet as a result. The
marked set is kept closed, so every unmarked component is live before a
move, and a move on ``x`` can only quiet the components that meet
``N[N[x]]``: any other has no neighbor in ``N[x]``.

All closure runs through :func:`closer`, which reads the family's mode
once per search context and returns ``close(marked, near)``: absorb the
quiet components that meet ``near``. That equals full closure whenever
every unmarked component that misses ``near`` is live, as for any marks
with ``near`` the whole graph (:func:`close_marks`), or for a closed
set's child ``closed | N[x]`` with ``near = N[N[x]]``. With K2 or P3 as
the smallest pattern (edge or pair mode), a component is quiet iff it has
fewer than 2 or 3 vertices, since every connected graph on 2 vertices
holds K2 and every one on 3 or more holds P3. So one loop reads it from
unmarked degrees alone, a few bit operations per vertex of ``near``, and
keeps no memo: an entry per child would cost more memory than the lookup
saves time.

Every other family, the empty one included, is in subgraph-search mode,
where closure depends only on the graph, the family and the pre-closure
mask. There ``close`` owns the *closure memo*, which maps a vertex mask
to its :func:`close_marks`. It looks the pre-closure mask up first; on a
miss it grows the components that meet ``near``, reads or stores each
component C's verdict as the closure of ``full ^ C`` (the whole graph
exactly when C is quiet), then stores the result. So each distinct
component is searched once, and each child closed once, however many
states and tests reach it. A pre-closure entry is valid only under the
precondition above, which the solver meets: its root closes over the
whole graph and every child from a closed parent. ``solve_both`` shares
the memo between its two starts, and ``memo_cap`` bounds it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable

from .errors import BadSpec, IllegalMove, PatternTooLarge, StateSpaceBudgetExceeded
from .families import make_family
from .graph import Graph, as_mask, component_of, is_connected, iter_mask, require_inside
from .graph import components  # noqa: F401  (perfbench wraps rules.components)

MAX_PATTERN_ORDER = 6

# Patterns are connected, so K1, K2 and P3 decide how absorption is computed:
#   "none"  - K1 is a pattern, so no component is ever quiet
#   "edge"  - K2 is a pattern: quiet <=> singleton component
#   "pair"  - P3 but neither K1 nor K2: quiet <=> at most two vertices
#   "search"- every other family, the empty one included, decided per
#             component by subgraph search
_MODE_NONE, _MODE_EDGE, _MODE_PAIR, _MODE_SEARCH = "none", "edge", "pair", "search"


@dataclass(frozen=True)
class ForbiddenFamily:
    """A set of small connected pattern graphs; components avoiding all of
    them are absorbed. Patterns are capped at order 6 (containment-search
    budget)."""

    patterns: tuple[Graph, ...]
    tag: str
    mode: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for p in self.patterns:
            if p.n > MAX_PATTERN_ORDER:
                raise PatternTooLarge(
                    f"pattern of order {p.n} exceeds {MAX_PATTERN_ORDER}"
                )
            # absorbing whole quiet components meets the definition only
            # when no pattern can straddle two of them
            if not p.n or not is_connected(p):
                edges = ",".join(f"{u}-{v}" for u, v in p.edges())
                raise BadSpec(f"forbidden pattern custom:{p.n}:{edges} must be a "
                              "connected graph with at least one vertex")
        orders = {p.n for p in self.patterns}
        if 1 in orders:
            mode = _MODE_NONE
        elif 2 in orders:
            mode = _MODE_EDGE
        elif any(p.n == 3 and p.num_edges == 2 for p in self.patterns):
            mode = _MODE_PAIR
        else:
            mode = _MODE_SEARCH
        object.__setattr__(self, "mode", mode)


#: The pattern names ``--forbidden`` reads besides family specs.
_PATTERN_NAMES = {"K1": "complete:1", "K2": "complete:2", "P3": "path:3"}


def parse_forbidden(text: str) -> ForbiddenFamily:
    """Parse the CLI forbidden-family spec: one or more patterns separated
    by ``;``, each a family spec (see :mod:`isogame.families`) or one of the
    names ``K1``, ``K2`` and ``P3`` (``complete:1``, ``complete:2`` and
    ``path:3``). The family's tag is a lone name in upper case, else the
    text as given. Each pattern must be connected and of order at most 6.
    """
    text = text.strip()
    specs = [_PATTERN_NAMES.get(chunk.strip().upper(), chunk) for chunk in text.split(";")]
    tag = text.upper() if text.upper() in _PATTERN_NAMES else text
    return ForbiddenFamily(tuple(map(make_family, specs)), tag)


def single_vertex_family() -> ForbiddenFamily:
    return parse_forbidden("K1")


def single_edge_family() -> ForbiddenFamily:
    return parse_forbidden("K2")


def three_path_family() -> ForbiddenFamily:
    return parse_forbidden("P3")


def contains_pattern(g: Graph, within: int, pattern: Graph) -> bool:
    """True when g[within] contains the pattern as a (not necessarily
    induced) subgraph. The order-0 pattern is contained in everything."""
    if pattern.n > MAX_PATTERN_ORDER:
        raise PatternTooLarge(f"pattern of order {pattern.n} exceeds {MAX_PATTERN_ORDER}")
    require_inside(g, within, "vertices")
    k = pattern.n
    if within.bit_count() < k:
        return False
    order = _matching_order(pattern)
    assigned = [-1] * k
    used = 0

    def extend(i: int) -> bool:
        nonlocal used
        if i == k:
            return True
        p = order[i]
        want = pattern.degree(p)
        earlier = pattern.adj[p]
        cands = within & ~used
        for j in range(i):
            q = order[j]
            if earlier >> q & 1:
                cands &= g.adj[assigned[q]]
        for v in iter_mask(cands):
            # a host vertex short of p's degree inside ``within`` cannot carry p
            if (g.adj[v] & within).bit_count() < want:
                continue
            assigned[p] = v
            used |= 1 << v
            if extend(i + 1):
                return True
            used &= ~(1 << v)
            assigned[p] = -1
        return False

    # ``extend`` calls itself through its closure cell; clearing the cell
    # frees the matcher now instead of in the cyclic garbage collector
    try:
        return extend(0)
    finally:
        del extend


@lru_cache(maxsize=None)
def _matching_order(pattern: Graph) -> tuple[int, ...]:
    """Pattern vertices ordered so each one touches an earlier vertex when
    its component allows it, highest degree first. Keeps the backtracking
    anchored instead of placing floaters early; built once per pattern,
    since closure searches the same few patterns."""
    remaining = set(range(pattern.n))
    order: list[int] = []
    placed_mask = 0
    while remaining:
        anchored = [v for v in remaining if pattern.adj[v] & placed_mask]
        pool = anchored if anchored else sorted(remaining)
        v = max(pool, key=lambda u: (pattern.degree(u), -u))
        order.append(v)
        placed_mask |= 1 << v
        remaining.remove(v)
    return tuple(order)


def is_forbidden_component(g: Graph, comp: int, fam: ForbiddenFamily) -> bool:
    """True when the component contains no pattern of the family, i.e. it is
    quiet and will be absorbed. Vacuously true for the empty family."""
    require_inside(g, comp, "vertices")
    return not any(contains_pattern(g, comp, p) for p in fam.patterns)


def close_marks(g: Graph, fam: ForbiddenFamily, marked: int) -> int:
    """Absorb every quiet component of the unmarked part into ``marked``.

    One pass suffices: removing a whole component leaves the remaining
    components untouched, so no new quiet component can appear. Marks
    outside the graph raise, since no closure or move can reach them.
    """
    require_inside(g, marked, "marks")
    # a fresh memo holds at most one entry per component plus the result
    return closer(g, fam, {}, g.n + 1)(marked, g.full_mask)


def closer(
    g: Graph, fam: ForbiddenFamily, closures: dict[int, int], cap: int
) -> Callable[[int, int], int]:
    """Return ``close(marked, near)`` for one search context on ``g`` and
    ``fam``, exact under the precondition in the module docstring. With K2
    or P3 as the smallest pattern, a component is quiet iff it has fewer
    than 2 or 3 vertices, which unmarked degrees decide in one loop over
    ``near``. In subgraph-search mode it reads and fills the closure memo
    ``closures`` and raises StateSpaceBudgetExceeded rather than store a
    key beyond ``cap`` entries; other modes leave it alone."""
    adj = g.adj
    mode = fam.mode
    if mode == _MODE_NONE:
        return lambda marked, near: marked
    if mode != _MODE_SEARCH:
        pairs = mode == _MODE_PAIR

        def close(marked: int, near: int) -> int:
            # quiet <=> a vertex with no unmarked neighbor, or in pair mode
            # two vertices that are each other's only unmarked neighbor;
            # ``near`` lies inside the graph, so ``near & ~marked`` is the
            # unmarked part of it
            unmarked = ~marked
            extra = 0
            rest = near & unmarked
            while rest:
                low = rest & -rest
                nb = adj[low.bit_length() - 1] & unmarked
                if not nb:
                    extra |= low
                elif pairs and not nb & (nb - 1) and not adj[nb.bit_length() - 1] & unmarked & ~low:
                    extra |= low | nb
                    rest &= ~nb
                rest ^= low
            return marked | extra

        return close
    full = g.full_mask

    def store(key: int, closed: int) -> int:
        # a result's key is already held when its one component was stored
        if len(closures) >= cap and key not in closures:
            raise StateSpaceBudgetExceeded(f"closure memo exceeded {cap} entries")
        closures[key] = closed
        return closed

    def close(marked: int, near: int) -> int:
        out = closures.get(marked)
        if out is not None:
            return out
        # grow only the components that meet ``near``, one seed at a time
        active = full & ~marked
        out = marked
        seeds = near & active
        while seeds:
            comp = component_of(g, seeds & -seeds, active)
            others = full ^ comp
            closed = closures.get(others)
            if closed is None:
                closed = store(others, full if is_forbidden_component(g, comp, fam) else others)
            if closed == full:
                out |= comp
            seeds &= ~comp
        return store(marked, out)

    return close


@dataclass(frozen=True)
class MarkState:
    """A graph with a closed marked set. Build via :func:`initial_closure`
    or :func:`apply_move`; direct construction skips the closure."""

    graph: Graph
    marked: int

    @property
    def is_terminal(self) -> bool:
        return self.marked == self.graph.full_mask

    @property
    def unmarked(self) -> int:
        return self.graph.full_mask & ~self.marked


def initial_closure(g: Graph, fam: ForbiddenFamily, a: int | Iterable[int]) -> MarkState:
    """State with A marked plus every quiet component of G - A absorbed.

    Inputs whose unmarked part still has quiet components are normalized by
    absorption rather than rejected.
    """
    return MarkState(g, close_marks(g, fam, as_mask(a)))


def playable(state: MarkState) -> int:
    """Mask of playable vertices: those with an unmarked closed neighbor.
    The family is already baked into the closed marked set."""
    g = state.graph
    un = state.unmarked
    out = 0
    for v in range(g.n):
        if g.closed[v] & un:
            out |= 1 << v
    return out


def is_playable(state: MarkState, x: int) -> bool:
    """True when ``x`` is a vertex of the graph with an unmarked closed
    neighbor; False for any ``x`` outside ``0..n-1``."""
    g = state.graph
    return 0 <= x < g.n and bool(g.closed[x] & state.unmarked)


def updated_marks(g: Graph, fam: ForbiddenFamily, marked: int, x: int) -> int:
    """Marked set after playing ``x``: N[x] joins, then quiet components are
    absorbed. Assumes ``x`` is playable for ``marked``."""
    return close_marks(g, fam, marked | g.closed[x])


def apply_move(state: MarkState, fam: ForbiddenFamily, x: int) -> MarkState:
    """Play ``x``; raises IllegalMove when ``x`` is not a vertex of the
    graph or its neighborhood is fully marked."""
    n = state.graph.n
    if not 0 <= x < n:
        raise IllegalMove(f"vertex {x} out of range for order {n}")
    if not is_playable(state, x):
        raise IllegalMove(f"vertex {x} has no unmarked closed neighbor")
    return MarkState(state.graph, updated_marks(state.graph, fam, state.marked, x))
