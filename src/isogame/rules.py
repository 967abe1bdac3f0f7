"""Forbidden-family semantics, marking closure, and move legality.

A component is *quiet* for a family when it contains none of the family's
patterns as a subgraph; quiet components are dead for the rest of the game,
so their vertices are absorbed into the marked set. A vertex is playable
exactly when its closed neighborhood still has an unmarked vertex, and a
move on ``x`` marks ``N[x]`` plus every component that goes quiet as a
result. The marked set is kept closed at all times: quiet components are
re-absorbed from scratch after every change, which costs a few word
operations at order <= 63 and rules out stale-component bugs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .errors import BadSpec, IllegalMove, PatternTooLarge
from .graph import Graph, as_mask, build_graph, components, iter_mask, mask_list

MAX_PATTERN_ORDER = 6

# Family structure determines how absorption is computed:
#   "none"  - some pattern has order <= 1, so no component is ever quiet
#   "all"   - empty family: every component is vacuously quiet
#   "edge"  - a single-edge pattern is present: quiet <=> singleton component
#   "search"- general case, decided per component by subgraph search
_MODE_NONE, _MODE_ALL, _MODE_EDGE, _MODE_SEARCH = "none", "all", "edge", "search"


@dataclass(frozen=True)
class ForbiddenFamily:
    """A set of small pattern graphs; components avoiding all of them are
    absorbed. Patterns are capped at order 6 (containment-search budget)."""

    patterns: tuple[Graph, ...]
    tag: str
    mode: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for p in self.patterns:
            if p.n > MAX_PATTERN_ORDER:
                raise PatternTooLarge(
                    f"pattern of order {p.n} exceeds {MAX_PATTERN_ORDER}"
                )
        if not self.patterns:
            mode = _MODE_ALL
        elif any(p.n <= 1 for p in self.patterns):
            mode = _MODE_NONE
        elif any(p.n == 2 and p.num_edges == 1 for p in self.patterns):
            mode = _MODE_EDGE
        else:
            mode = _MODE_SEARCH
        object.__setattr__(self, "mode", mode)


def single_vertex_family() -> ForbiddenFamily:
    return ForbiddenFamily((build_graph(1, []),), "K1")


def single_edge_family() -> ForbiddenFamily:
    return ForbiddenFamily((build_graph(2, [(0, 1)]),), "K2")


def three_path_family() -> ForbiddenFamily:
    return ForbiddenFamily((build_graph(3, [(0, 1), (1, 2)]),), "P3")


_NAMED_FAMILIES = {
    "K1": single_vertex_family,
    "K2": single_edge_family,
    "P3": three_path_family,
}


def parse_forbidden(text: str) -> ForbiddenFamily:
    """Parse the CLI family spec: ``K1``, ``K2``, ``P3``, or one or more
    ``custom:<order>:<edge list>`` patterns separated by ``;``."""
    text = text.strip()
    named = _NAMED_FAMILIES.get(text.upper())
    if named is not None:
        return named()
    patterns = []
    for chunk in text.split(";"):
        parts = chunk.strip().split(":")
        if parts[0].lower() != "custom" or len(parts) < 2:
            raise BadSpec(
                f"unknown forbidden-family spec {chunk!r}; "
                "use K1, K2, P3 or custom:n:edges"
            )
        try:
            n = int(parts[1])
        except ValueError:
            raise BadSpec(f"bad pattern order in {chunk!r}") from None
        edges = []
        if len(parts) > 2 and parts[2]:
            for token in parts[2].split(","):
                u, _, v = token.partition("-")
                try:
                    edges.append((int(u), int(v)))
                except ValueError:
                    raise BadSpec(f"bad edge token {token!r}") from None
        patterns.append(build_graph(n, edges))
    return ForbiddenFamily(tuple(patterns), text)


def contains_pattern(g: Graph, within: int, pattern: Graph) -> bool:
    """True when g[within] contains the pattern as a (not necessarily
    induced) subgraph. The order-0 pattern is contained in everything."""
    if pattern.n > MAX_PATTERN_ORDER:
        raise PatternTooLarge(f"pattern of order {pattern.n} exceeds {MAX_PATTERN_ORDER}")
    k = pattern.n
    if k == 0:
        return True
    avail = mask_list(within)
    if len(avail) < k:
        return False
    if pattern.num_edges == 0:
        return True  # k distinct vertices suffice
    # host degrees inside the induced subgraph, for degree pruning
    host_deg = {v: (g.adj[v] & within).bit_count() for v in avail}
    pat_deg = sorted((pattern.degree(i) for i in range(k)), reverse=True)
    top = sorted(host_deg.values(), reverse=True)[:k]
    if any(t < p for t, p in zip(top, pat_deg)):
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
            if host_deg[v] < want:
                continue
            assigned[p] = v
            used |= 1 << v
            if extend(i + 1):
                return True
            used &= ~(1 << v)
            assigned[p] = -1
        return False

    return extend(0)


def _matching_order(pattern: Graph) -> list[int]:
    """Pattern vertices ordered so each one touches an earlier vertex when
    its component allows it, highest degree first. Keeps the backtracking
    anchored instead of placing floaters early."""
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
    return order


def is_forbidden_component(g: Graph, comp: int, fam: ForbiddenFamily) -> bool:
    """True when the component contains no pattern of the family, i.e. it is
    quiet and will be absorbed. Vacuously true for the empty family."""
    return not any(contains_pattern(g, comp, p) for p in fam.patterns)


def close_marks(g: Graph, fam: ForbiddenFamily, marked: int) -> int:
    """Absorb every quiet component of the unmarked part into ``marked``.

    One pass suffices: removing a whole component leaves the remaining
    components untouched, so no new quiet component can appear.
    """
    full = g.full_mask
    active = full & ~marked
    if not active:
        return marked
    mode = fam.mode
    if mode == _MODE_NONE:
        return marked
    if mode == _MODE_ALL:
        return full
    if mode == _MODE_EDGE:
        extra = 0
        rest = active
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            if not g.adj[v] & active:
                extra |= low
            rest ^= low
        return marked | extra
    out = marked
    for comp in components(g, active):
        if is_forbidden_component(g, comp, fam):
            out |= comp
    return out


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
    return bool(state.graph.closed[x] & state.unmarked)


def updated_marks(g: Graph, fam: ForbiddenFamily, marked: int, x: int) -> int:
    """Marked set after playing ``x``: N[x] joins, then quiet components are
    absorbed. Assumes ``x`` is playable for ``marked``."""
    return close_marks(g, fam, marked | g.closed[x])


def apply_move(state: MarkState, fam: ForbiddenFamily, x: int) -> MarkState:
    """Play ``x``; raises IllegalMove when its neighborhood is fully marked."""
    if not is_playable(state, x):
        raise IllegalMove(f"vertex {x} has no unmarked closed neighbor")
    return MarkState(state.graph, updated_marks(state.graph, fam, state.marked, x))
