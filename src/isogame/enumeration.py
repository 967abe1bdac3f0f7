"""Small-graph catalogs: canonical forms, connected graphs, and trees.

Connected graphs are generated one order at a time: every connected graph
on ``k+1`` vertices arises from a connected graph on ``k`` vertices by
attaching a new vertex to a nonempty subset, and deduplicating the
children by canonical form yields exactly one representative per
isomorphism class. Most children are never built, in the spirit of
McKay's canonical construction path ("Isomorph-free exhaustive
generation", J. Algorithms 26, 1998).

First, a parent P tries only the least attachment mask in each orbit of
its automorphism group. An automorphism of P that maps one mask onto
another, extended by fixing the new vertex, is an isomorphism between the
two children, so the other masks of an orbit only repeat a class. The
generators come from the parent's own canonical search, twin swaps too.

Second, a child goes on to ``canonical_form`` only when no non-cut vertex
of it has a larger invariant ``(degree, sorted neighbour degrees)`` than
the new vertex. No class is lost:

1. Every connected graph C has a non-cut vertex w whose invariant is the
   largest among its non-cut vertices (C has at least one non-cut vertex).
2. C - w is connected, so its catalog representative P yields a copy of C
   in which the new vertex plays w, and the least mask of that copy's
   orbit yields an isomorphic child with the new vertex in the same place.
3. The invariant and being a cut vertex do not depend on labels, so that
   child passes the test.

The test is set up once per parent, from its degrees and the components
of P - w for each vertex w. Over orders 1..8 the orbits cut the children
tried from 116,146 to 71,300 and the test passes 13,033 of them on to
``canonical_form`` (11,987 at order 8), against 19,296 with the test
alone; 996 parents each run one automorphism search.

The canonical form is the lexicographically smallest column-major
upper-triangle encoding over vertex orderings that respect an iterated
degree-refinement coloring. The coloring is label-independent, so two
graphs share a canonical form exactly when they are isomorphic; the
refinement splits most small graphs into many cells, which keeps the
ordering search short for them. Refinement cannot split twins (vertices
whose neighborhoods agree apart from each other), so at each position the
search tries one vertex per twin class, and a star or a complete graph is
placed in a single order. Nothing else prunes by automorphisms, so a
graph that refinement leaves in one large cell without twins (a long
cycle, say) takes exponential time.

``vertex_orbit_leaders`` finds vertex orbits for the solver's root by
individualisation and re-refinement (McKay and Piperno, "Practical graph
isomorphism, II", J. Symbolic Comput. 60, 2014). It needs no minimal key,
so it re-refines after each individualisation and descends once per
vertex, at most n**2 refinements on any graph; the canonical form does
not use it.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from itertools import product
from typing import Callable, Iterator

from .errors import BadSpec, BudgetExceeded, OrderTooLarge
from .graph import Graph, components, iter_mask, mask_list

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


def _refined_colors(
    n: int, adj: tuple[int, ...], colors: list[int] | None = None
) -> list[int]:
    """Iterated neighbor-degree refinement; colors are invariant ranks.

    A vertex's signature is one int, its color above a base-``2**width``
    count of its neighbors per color (color 0 in the top digit), negated.
    Every vertex of one color has one degree, so among them a smaller
    signature is exactly a smaller sorted tuple of neighbor colors.

    The refinement starts from the degrees, or from ``colors`` (values in
    ``range(n)``) when given; the result refines that start, and its ranks
    keep the start's color order. A start cell may mix degrees, which only
    the first round compares, by their neighbor counts per color.
    """
    nbrs = [mask_list(a) for a in adj]
    if colors is None:
        colors = [a.bit_count() for a in adj]
    width = n.bit_length()
    shift = width * n
    digit = [1 << width * (n - 1 - c) for c in range(n)]
    while True:
        sigs = [
            (colors[v] << shift) - sum([digit[colors[u]] for u in nbrs[v]])
            for v in range(n)
        ]
        ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
        fresh = [ranking[s] for s in sigs]
        # a discrete coloring cannot split further
        if fresh == colors or len(ranking) == n:
            return fresh
        colors = fresh


def _canonical_perm(
    n: int, adj: tuple[int, ...], automorphisms: list[list[int]] | None = None
) -> list[int]:
    """Vertex order realizing the canonical (minimal) adjacency encoding.

    Backtracks over color-respecting placements; ``smaller`` tracks whether
    the current prefix is already strictly below the best known key, which
    prunes the search to the few orderings that can still win.

    Given a list, it also collects automorphisms (``perm[v]`` is the image
    of ``v``): each leaf that ties the final best key maps the best order
    onto its own, and each twin the search skips adds its swap with the
    tried twin, once. Together they generate the whole automorphism group.
    """
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
    # skipped twin -> the tried twin it repeats; no new best key drops it
    twins: dict[int, int] = {}

    def place(p: int, smaller: bool) -> bool:
        # Returns True when the best key was replaced somewhere below, so
        # the caller can drop its stale strictly-smaller flag: the new best
        # shares the entire current prefix.
        nonlocal best, best_perm, used
        if p == n:
            if best is None or smaller:
                best = cur[:]
                best_perm = placed[:]
                if automorphisms is not None:
                    automorphisms.clear()
                return True
            if automorphisms is not None:
                # not smaller at a leaf means every block tied: cur == best
                image = [0] * n
                for v, u in zip(best_perm, placed):
                    image[v] = u
                automorphisms.append(image)
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
            if tried and any(row & ~(1 << (twin := u)) == adj[u] & ~bit for u in tried):
                twins.setdefault(v, twin)
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

    try:
        place(0, False)
    finally:
        del place
    assert best_perm is not None
    if automorphisms is not None:
        for v, u in twins.items():
            swap = list(range(n))
            swap[u], swap[v] = v, u
            automorphisms.append(swap)
    return best_perm


def canonical_form(g: Graph) -> tuple[int, ...]:
    """Adjacency masks of the canonically relabeled graph (an iso-invariant key).

    The search prunes only twins, not automorphisms, so it is exponential
    on vertex-transitive graphs: ``cycle:12`` takes about 0.15 s and
    ``cycle:14`` about 1.5 s (single runs, CPython 3.11, 2 shared CPUs).
    """
    perm = _canonical_perm(g.n, g.adj)
    bit = [0] * g.n
    for pos, v in enumerate(perm):
        bit[v] = 1 << pos
    out = []
    for v in perm:
        row, relabeled = g.adj[v], 0
        while row:
            low = row & -row
            relabeled |= bit[low.bit_length() - 1]
            row ^= low
        out.append(relabeled)
    return tuple(out)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return g.n == h.n and canonical_form(g) == canonical_form(h)


def _orbit_leaders(k: int, adj: tuple[int, ...]) -> list[int]:
    """The least nonempty vertex mask in each orbit of the graph's
    automorphism group, ascending."""
    gens: list[list[int]] = []
    _canonical_perm(k, adj, gens)
    size = 1 << k
    images = []
    for gen in gens:
        image = [0] * size
        for m in range(1, size):
            low = m & -m
            image[m] = image[m ^ low] | 1 << gen[low.bit_length() - 1]
        images.append(image)
    # flood each orbit from its least mask; a finite group's orbit is
    # closed under its generators alone
    reached = bytearray(size)
    leaders = []
    for m in range(1, size):
        if reached[m]:
            continue
        leaders.append(m)
        reached[m] = 1
        stack = [m]
        while stack:
            x = stack.pop()
            for image in images:
                y = image[x]
                if not reached[y]:
                    reached[y] = 1
                    stack.append(y)
    return leaders


def _individualised(colors: list[int], v: int) -> list[int]:
    """``colors`` (dense ranks) with ``v`` alone in its color and the rest
    of its cell one rank above it. With two or more vertices in v's cell
    the ranks stay dense and below n, as ``_refined_colors`` needs."""
    c = colors[v]
    return [x + (x > c or x == c and u != v) for u, x in enumerate(colors)]


def _leaf(n: int, adj: tuple[int, ...], colors: list[int], v: int) -> list[int]:
    """The vertices in color order of a discrete coloring below ``colors``:
    individualise ``v`` and refine, then the least vertex of the first cell
    with two or more vertices, until every cell is a single vertex."""
    while True:
        colors = _refined_colors(n, adj, _individualised(colors, v))
        size = [0] * n
        for c in colors:
            size[c] += 1
        target = next((c for c in range(n) if size[c] > 1), None)
        if target is None:
            order = [0] * n
            for u, c in enumerate(colors):
                order[c] = u
            return order
        v = colors.index(target)


def _is_automorphism(adj: tuple[int, ...], perm: list[int]) -> bool:
    """True when ``perm`` (``perm[v]`` the image of v) preserves every
    adjacency."""
    for u, row in enumerate(adj):
        image = 0
        while row:
            low = row & -row
            image |= 1 << perm[low.bit_length() - 1]
            row ^= low
        if image != adj[perm[u]]:
            return False
    return True


def vertex_orbit_leaders(g: Graph, fixed: int = 0) -> tuple[int, ...]:
    """The least vertex of each orbit, ascending, of a group of
    automorphisms of g that map the vertex set ``fixed`` onto itself.

    Refinement from the coloring that separates ``fixed`` gives cells that
    each hold whole orbits. In a cell, each vertex not yet joined to a
    smaller one is individualised, refined and carried down to one
    discrete coloring (``_leaf``); the map between its leaf and the leaf
    of an earlier vertex of the cell, color by color, joins the two
    orbits, with every cycle of the map, once ``_is_automorphism`` accepts
    it. Refinement and individualisation keep the color order, so color i
    of either leaf lies in the same start cell, and the map fixes
    ``fixed`` as a set. Only checked automorphisms join orbits, so the
    orbits are those of a subgroup of the stabiliser of ``fixed``, never
    coarser than the true ones; a descent that misses an automorphism only
    leaves an orbit split. A cell's first vertex descends only once a
    second one needs it, so a cell of one vertex never descends.
    """
    n, adj = g.n, g.adj
    base = _refined_colors(n, adj, [fixed >> v & 1 for v in range(n)])
    root = list(range(n))  # union-find forest; each root is its class's least

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    cells: dict[int, list[int]] = {}
    for v in range(n):
        cells.setdefault(base[v], []).append(v)
    for cell in cells.values():
        first, leaves = None, []
        for v in cell:
            if find(v) != v:
                continue
            if first is None:
                first = v
                continue
            if not leaves:
                leaves.append(_leaf(n, adj, base, first))
            leaf = _leaf(n, adj, base, v)
            for ref in leaves:
                perm = [0] * n
                for a, b in zip(ref, leaf):
                    perm[a] = b
                if _is_automorphism(adj, perm):
                    for a, b in enumerate(perm):
                        a, b = find(a), find(b)
                        root[max(a, b)] = min(a, b)
                    break
            else:
                leaves.append(leaf)
    return tuple(v for v in range(n) if find(v) == v)


def _deletion_test(parent: Graph) -> Callable[[int], bool]:
    """The test for the children P + v of ``parent``: given the attachment
    mask, True when no non-cut vertex of the child has a larger invariant
    ``(degree, sorted neighbour degrees)`` than the new vertex v.

    A parent vertex w is a cut vertex of the child exactly when the
    attachment misses a component of P - w: v joins the components it
    touches, and with no component (P a single vertex) nothing is cut.
    """
    k = parent.n
    deg = [a.bit_count() for a in parent.adj]
    nbrs = [mask_list(a) for a in parent.adj]
    full = parent.full_mask
    parts = [components(parent, full & ~(1 << w)) for w in range(k)]
    # a child degree is at most the parent degree plus one, so the walk
    # stops at the first w too small to beat v; any order gives one verdict
    order = sorted(range(k), key=lambda w: -deg[w])

    def new_vertex_wins(attach: int) -> bool:
        top = attach.bit_count()
        mine = None
        for w in order:
            if deg[w] + 1 < top:
                break
            hit = attach >> w & 1
            d = deg[w] + hit
            if d < top:
                continue
            if d == top:
                # degrees decide most comparisons; neighbour degrees only
                # break ties
                if mine is None:
                    mine = sorted([deg[u] + 1 for u in iter_mask(attach)])
                theirs = [deg[u] + (attach >> u & 1) for u in nbrs[w]]
                if hit:
                    theirs.append(top)
                theirs.sort()
                if theirs <= mine:
                    continue
            if all(c & attach for c in parts[w]):
                return False
        return True

    return new_vertex_wins


@lru_cache(maxsize=None)
def _connected_catalog(n: int) -> tuple[Graph, ...]:
    if n == 1:
        return (Graph(1, (0,)),)
    seen: set[tuple[int, ...]] = set()
    new_bit = 1 << (n - 1)
    for parent in _connected_catalog(n - 1):
        wins = _deletion_test(parent)
        for attach in _orbit_leaders(n - 1, parent.adj):
            if wins(attach):
                adj = [
                    a | new_bit if attach >> v & 1 else a
                    for v, a in enumerate(parent.adj)
                ]
                adj.append(attach)
                seen.add(canonical_form(Graph(n, tuple(adj))))
    return tuple(Graph(n, a) for a in sorted(seen))


def enumerate_connected(n: int) -> Iterator[Graph]:
    """One canonical representative per isomorphism class of connected graphs.

    Capped at order 8, which is checked at the call; the level catalogs are
    built at the first ``next()`` and cached, so repeated sweeps over the
    same orders are free after the first pass.
    """
    if not 1 <= n <= MAX_ENUM_ORDER:
        raise OrderTooLarge(f"connected enumeration supports 1..{MAX_ENUM_ORDER}, got {n}")

    def catalog() -> Iterator[Graph]:
        yield from _connected_catalog(n)

    return catalog()


# --- trees ---------------------------------------------------------------


def tree_from_pruefer(n: int, seq: tuple[int, ...]) -> Graph:
    """Decode a Pruefer sequence of length n-2 into its labeled tree."""
    if n == 1:
        return Graph(1, (0,))
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
