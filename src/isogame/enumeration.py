"""Small-graph catalogs: canonical forms, connected graphs, and trees.

Connected graphs are generated one order at a time: every connected graph
on ``k+1`` vertices arises from a connected graph on ``k`` vertices by
attaching a new vertex to a nonempty subset, and deduplicating the
children by canonical form yields exactly one representative per
isomorphism class. Most children are dropped before they are
canonicalised, in the spirit of McKay's canonical construction path
("Isomorph-free exhaustive generation", J. Algorithms 26, 1998): a child
goes on only when no non-cut vertex of it has a larger invariant
``(degree, sorted neighbour degrees)`` than the new vertex. No class is
lost:

1. Every connected graph C has a non-cut vertex w whose invariant is the
   largest among its non-cut vertices (C has at least one non-cut vertex).
2. C - w is connected, so its catalog representative P yields a copy of C
   in which the new vertex plays w.
3. The invariant and being a cut vertex do not depend on labels, so that
   copy passes the test.

At order 8 the test cuts the children canonicalised from 108,331 to
17,598.

The canonical form is the lexicographically smallest column-major
upper-triangle encoding over vertex orderings that respect an iterated
degree-refinement coloring. The coloring is label-independent, so two
graphs share a canonical form exactly when they are isomorphic; the
refinement keeps the ordering search near-linear for the vast majority of
small graphs. Refinement cannot split twins (vertices whose neighborhoods
agree apart from each other), so at each position the search tries one
vertex per twin class, and a star or a complete graph is placed in a
single order.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from itertools import product
from typing import Iterator

from .errors import BadSpec, BudgetExceeded, OrderTooLarge
from .graph import Graph, iter_mask, mask_list

MAX_ENUM_ORDER = 8

#: Labeled trees are listed up to this order: n^(n-2) of them, 262,144 at 8.
MAX_PRUEFER_ORDER = 8

#: Connected graph counts by order, a frozen cross-check for the catalog.
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}

#: Non-isomorphic tree counts by order (OEIS A000055).
TREE_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106,
    11: 235, 12: 551, 13: 1301, 14: 3159, 15: 7741, 16: 19320,
}

#: Tree classes are built up to the last order with a frozen count; order
#: 17 already takes about 30 s to build.
MAX_TREE_ORDER = max(TREE_COUNTS)


def _refined_colors(n: int, adj: tuple[int, ...]) -> list[int]:
    """Iterated neighbor-degree refinement; colors are invariant ranks."""
    nbrs = [mask_list(a) for a in adj]
    colors = [a.bit_count() for a in adj]
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in nbrs[v]))) for v in range(n)
        ]
        ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
        fresh = [ranking[s] for s in sigs]
        if fresh == colors:
            return colors
        colors = fresh


def _canonical_perm(n: int, adj: tuple[int, ...]) -> list[int]:
    """Vertex order realizing the canonical (minimal) adjacency encoding.

    Backtracks over color-respecting placements; ``smaller`` tracks whether
    the current prefix is already strictly below the best known key, which
    prunes the search to the few orderings that can still win.
    """
    if n == 1:
        return [0]
    colors = _refined_colors(n, adj)
    cells: dict[int, list[int]] = {}
    for v in range(n):
        cells.setdefault(colors[v], []).append(v)
    pos_color = sorted(colors)

    best: list[int] | None = None
    best_perm: list[int] | None = None
    cur = [0] * n
    placed: list[int] = []
    used = 0

    def place(p: int, smaller: bool) -> bool:
        # Returns True when the best key was replaced somewhere below, so
        # the caller can drop its stale strictly-smaller flag: the new best
        # shares the entire current prefix.
        nonlocal best, best_perm, used
        if p == n:
            if best is None or smaller:
                best = cur[:]
                best_perm = placed[:]
                return True
            return False
        updated = False
        sm = smaller
        tried: list[int] = []
        for v in cells[pos_color[p]]:
            bit = 1 << v
            if used & bit:
                continue
            row = adj[v]
            # swapping two unplaced twins is an automorphism that fixes the
            # prefix, so a twin of a vertex tried here can only repeat its keys
            if tried and any(row & ~(1 << u) == adj[u] & ~bit for u in tried):
                continue
            tried.append(v)
            block = 0
            for q, u in enumerate(placed):
                block |= (row >> u & 1) << q
            if best is not None and not sm:
                if block > best[p]:
                    continue
                child_smaller = block < best[p]
            else:
                child_smaller = sm
            cur[p] = block
            placed.append(v)
            used |= bit
            if place(p + 1, child_smaller):
                updated = True
                sm = False
            placed.pop()
            used &= ~bit
        return updated

    place(0, False)
    assert best_perm is not None
    return best_perm


def canonical_form(g: Graph) -> tuple[int, ...]:
    """Adjacency masks of the canonically relabeled graph (an iso-invariant key)."""
    perm = _canonical_perm(g.n, g.adj)
    inv = [0] * g.n
    for pos, v in enumerate(perm):
        inv[v] = pos
    out = [0] * g.n
    for pos, v in enumerate(perm):
        for u in iter_mask(g.adj[v]):
            out[pos] |= 1 << inv[u]
    return tuple(out)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return g.n == h.n and canonical_form(g) == canonical_form(h)


def _is_cut_vertex(adj: list[int], w: int) -> bool:
    """True when removing ``w`` disconnects the (connected) graph ``adj``.
    It reads the child's adjacency list, so the children the test drops
    (most of them) never build a ``Graph`` for ``graph.component_of``."""
    rest = (1 << len(adj)) - 1 & ~(1 << w)
    reached = frontier = rest & -rest
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        fresh = adj[low.bit_length() - 1] & rest & ~reached
        reached |= fresh
        frontier |= fresh
    return reached != rest


def _new_vertex_wins(adj: list[int]) -> bool:
    """True when no non-cut vertex of ``adj`` has a larger invariant
    ``(degree, sorted neighbour degrees)`` than the last vertex."""
    v = len(adj) - 1
    deg = [a.bit_count() for a in adj]
    top = deg[v]
    mine = None
    # degrees decide most comparisons; neighbour degrees only break ties
    for w in range(v):
        if deg[w] < top:
            continue
        if deg[w] == top:
            if mine is None:
                mine = sorted([deg[u] for u in range(v) if adj[v] >> u & 1])
            if sorted([deg[u] for u in range(v + 1) if adj[w] >> u & 1]) <= mine:
                continue
        if not _is_cut_vertex(adj, w):
            return False
    return True


@lru_cache(maxsize=None)
def _connected_catalog(n: int) -> tuple[Graph, ...]:
    if n == 1:
        return (Graph(1, (0,)),)
    seen: set[tuple[int, ...]] = set()
    new_bit = 1 << (n - 1)
    for parent in _connected_catalog(n - 1):
        for attach in range(1, new_bit):
            adj = [
                a | new_bit if attach >> v & 1 else a
                for v, a in enumerate(parent.adj)
            ]
            adj.append(attach)
            if _new_vertex_wins(adj):
                seen.add(canonical_form(Graph(n, tuple(adj))))
    return tuple(Graph(n, a) for a in sorted(seen))


def enumerate_connected(n: int) -> Iterator[Graph]:
    """One canonical representative per isomorphism class of connected graphs.

    Capped at order 8; the level catalogs are cached, so repeated sweeps
    over the same orders are free after the first pass.
    """
    if not 1 <= n <= MAX_ENUM_ORDER:
        raise OrderTooLarge(f"connected enumeration supports 1..{MAX_ENUM_ORDER}, got {n}")
    yield from _connected_catalog(n)


# --- trees ---------------------------------------------------------------


def tree_from_pruefer(n: int, seq: tuple[int, ...]) -> Graph:
    """Decode a Pruefer sequence of length n-2 into its labeled tree."""
    if n == 1:
        return Graph(1, (0,))
    if n == 2:
        return Graph(2, (2, 1))
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    adj = [0] * n
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        adj[leaf] |= 1 << x
        adj[x] |= 1 << leaf
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    adj[u] |= 1 << v
    adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def _require_tree_order(n: int, cap: int, what: str) -> None:
    if n < 1:
        raise BadSpec(f"{what} need an order of at least 1, got {n}")
    if n > cap:
        raise BudgetExceeded(f"{what} capped at order {cap}, got {n}")


def all_trees(n: int) -> Iterator[Graph]:
    """Every labeled tree on n vertices via Pruefer sequences (n^(n-2) of
    them, not deduplicated by isomorphism). The order is checked at the
    call, before any tree is built: below 1 it raises BadSpec, above 8
    BudgetExceeded."""
    _require_tree_order(n, MAX_PRUEFER_ORDER, "labeled trees (family alltrees)")
    if n <= 2:
        return iter((tree_from_pruefer(n, ()),))
    return (tree_from_pruefer(n, seq) for seq in product(range(n), repeat=n - 2))


def _tree_centers(g: Graph) -> list[int]:
    # peel leaves until one or two vertices remain
    alive = g.full_mask
    deg = [g.degree(v) for v in range(g.n)]
    count = g.n
    while count > 2:
        drop = [v for v in iter_mask(alive) if deg[v] <= 1]
        for v in drop:
            alive &= ~(1 << v)
            count -= 1
            for u in iter_mask(g.adj[v] & alive):
                deg[u] -= 1
    return mask_list(alive)


def _rooted_code(g: Graph, root: int, parent: int) -> str:
    kids = sorted(
        _rooted_code(g, u, root) for u in iter_mask(g.adj[root]) if u != parent
    )
    return "(" + "".join(kids) + ")"


def tree_code(g: Graph) -> str:
    """Canonical code of a free tree (center-rooted, children sorted)."""
    return min(_rooted_code(g, c, -1) for c in _tree_centers(g))


@lru_cache(maxsize=None)
def tree_classes(n: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class of trees on n vertices.

    Built by leaf augmentation: every tree on k+1 vertices is a tree on k
    vertices plus a leaf, so growing every class by a leaf at every vertex
    and deduplicating by tree code is exhaustive. The order is checked at
    the call: below 1 it raises BadSpec, above 16 BudgetExceeded.
    """
    _require_tree_order(n, MAX_TREE_ORDER, "tree classes")
    if n == 1:
        return (Graph(1, (0,)),)
    out: dict[str, Graph] = {}
    for parent in tree_classes(n - 1):
        for v in range(parent.n):
            adj = list(parent.adj)
            adj[v] |= 1 << parent.n
            adj.append(1 << v)
            candidate = Graph(n, tuple(adj))
            out.setdefault(tree_code(candidate), candidate)
    return tuple(out[k] for k in sorted(out))
