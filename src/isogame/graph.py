"""Bitmask graphs, vertex-set algebra, and the graph6 reader/writer.

Vertices are integers ``0..n-1`` with ``n <= 63``, so every vertex set fits
in a single machine word: a set is a plain ``int`` whose bit ``v`` stands
for vertex ``v``. All set algebra is exact integer bit twiddling, and masks
double as hashable state keys for the game solver.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import BadEdge, IsolationGameError, MalformedGraph6, OrderTooLarge

MAX_ORDER = 63


def mask_of(vertices: Iterable[int]) -> int:
    """Pack vertex indices into a bitmask; a negative index raises."""
    m = 0
    for v in vertices:
        if v < 0:
            raise IsolationGameError(f"negative vertex {v}")
        m |= 1 << v
    return m


def iter_mask(mask: int) -> Iterator[int]:
    """Yield the vertices of a mask in ascending order. A negative int has
    infinitely many set bits, so it raises instead of never ending."""
    if mask < 0:
        raise IsolationGameError(f"negative vertex mask {mask}")
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_list(mask: int) -> list[int]:
    return list(iter_mask(mask))


def as_mask(vertices: int | Iterable[int]) -> int:
    """Accept either a ready-made mask or an iterable of vertex indices."""
    if isinstance(vertices, int):
        if vertices < 0:
            raise IsolationGameError(f"negative vertex mask {vertices}")
        return vertices
    return mask_of(vertices)


def require_inside(g: Graph, mask: int, what: str) -> int:
    """Return ``mask`` when it is a vertex set of ``g``; raise, naming the
    vertices outside it, when it is not (a negative int never is)."""
    outside = mask & ~g.full_mask
    if outside:
        bad = mask_list(outside) if mask > 0 else f"mask {mask}"
        raise IsolationGameError(f"{what} {bad} out of range for order {g.n}")
    return mask


def read_only(self, name: str, *value) -> None:
    """``__setattr__`` and ``__delattr__`` of the immutable value types,
    which set their slots once, in ``__init__``, through
    ``object.__setattr__``."""
    raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")


_set = object.__setattr__


class Graph:
    """Immutable undirected graph on vertices ``0..n-1``.

    ``adj[v]`` is the neighbor mask of ``v`` (never including ``v``), and
    ``closed[v] = adj[v] | 1 << v`` is precomputed because closed
    neighborhoods drive every game-rule computation. ``label`` names the
    graph; equality and hashing ignore it.
    """

    __slots__ = ("n", "adj", "label", "closed")
    n: int
    adj: tuple[int, ...]
    label: str | None
    closed: tuple[int, ...]

    def __init__(self, n: int, adj: tuple[int, ...], label: str | None = None) -> None:
        _set(self, "n", n)
        _set(self, "adj", adj)
        _set(self, "label", label)
        _set(self, "closed", tuple(a | (1 << v) for v, a in enumerate(adj)))

    __setattr__ = __delattr__ = read_only

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Graph:
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n!r}, adj={self.adj!r}, label={self.label!r})"

    def __reduce__(self):
        return Graph, (self.n, self.adj, self.label)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted (u, v) pairs with u < v."""
        out = []
        for v in range(self.n):
            higher = self.adj[v] >> (v + 1)
            for w in iter_mask(higher):
                out.append((v, v + 1 + w))
        return out

    @property
    def num_edges(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)


def build_graph(n: int, edges: Iterable[tuple[int, int]], label: str | None = None) -> Graph:
    """Build a graph from an edge list; duplicates collapse, pairs symmetrize.

    Raises OrderTooLarge for n > 63 and BadEdge for loops or out-of-range
    endpoints.
    """
    if n < 0 or n > MAX_ORDER:
        raise OrderTooLarge(f"order {n} outside 0..{MAX_ORDER}")
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise BadEdge(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise BadEdge(f"edge ({u},{v}) out of range for order {n}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj), label)


def disjoint_union(g: Graph, h: Graph, label: str | None = None) -> Graph:
    """Disjoint union; h's vertices are shifted up by g.n."""
    if g.n + h.n > MAX_ORDER:
        raise OrderTooLarge(f"union order {g.n + h.n} exceeds {MAX_ORDER}")
    adj = list(g.adj) + [a << g.n for a in h.adj]
    return Graph(g.n + h.n, tuple(adj), label)


def closed_neighborhood(g: Graph, s: int | Iterable[int]) -> int:
    """N[s]: s together with every neighbor of a member of s."""
    s = require_inside(g, as_mask(s), "vertices")
    out = s
    for v in iter_mask(s):
        out |= g.closed[v]
    return out


def components(g: Graph, active: int | Iterable[int]) -> list[int]:
    """Connected components of the induced subgraph g[active], as masks.

    Ordered by smallest member so downstream reports are reproducible.
    """
    active = require_inside(g, as_mask(active), "vertices")
    out = []
    remaining = active
    while remaining:
        comp = component_of(g, remaining & -remaining, active)
        out.append(comp)
        remaining &= ~comp
    return out


def component_of(g: Graph, seed: int, active: int) -> int:
    """The component of g[active] that holds ``seed``, a one-vertex mask
    inside ``active``, grown by breadth-first search."""
    adj = g.adj
    comp = frontier = seed
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        nxt &= active & ~comp
        comp |= nxt
        frontier = nxt
    return comp


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    return len(components(g, g.full_mask)) == 1


# --- graph6 ------------------------------------------------------------
#
# Standard header-less format: the order is one character for n <= 62 and
# '~' plus three characters (18 bits) above that; then the upper triangle
# of the adjacency matrix in column-major order, 6 bits per character,
# each character offset by 63. Padding bits must be zero.


def _order_bytes(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    return "~" + "".join(chr((n >> s & 0x3F) + 63) for s in (12, 6, 0))


def encode_graph6(g: Graph) -> str:
    """Write a graph as one graph6 record."""
    chunks = [_order_bytes(g.n)]
    bits = 0
    nbits = 0
    for col in range(1, g.n):
        for row in range(col):
            bits = bits << 1 | (g.adj[row] >> col & 1)
            nbits += 1
            if nbits == 6:
                chunks.append(chr(bits + 63))
                bits = nbits = 0
    if nbits:
        bits <<= 6 - nbits
        chunks.append(chr(bits + 63))
    return "".join(chunks)


def parse_graph6(text: str, label: str | None = None) -> Graph:
    """Parse one graph6 record (printable ASCII 63..126, no header)."""
    text = text.strip()
    if not text:
        raise MalformedGraph6("empty record")
    if any(not (63 <= ord(c) <= 126) for c in text):
        raise MalformedGraph6(f"character outside graph6 range in {text!r}")
    if text[0] == "~":
        if len(text) < 4 or text[1] == "~":
            raise MalformedGraph6("unsupported or truncated order encoding")
        n = 0
        for c in text[1:4]:
            n = n << 6 | (ord(c) - 63)
        body = text[4:]
    else:
        n = ord(text[0]) - 63
        body = text[1:]
    if n > MAX_ORDER:
        raise OrderTooLarge(f"graph6 order {n} exceeds {MAX_ORDER}")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise MalformedGraph6(
            f"expected {(nbits + 5) // 6} body characters for order {n}, got {len(body)}"
        )
    stream = 0
    for c in body:
        stream = stream << 6 | (ord(c) - 63)
    total = 6 * len(body)
    if nbits < total and stream & ((1 << (total - nbits)) - 1):
        raise MalformedGraph6("nonzero padding bits")
    adj = [0] * n
    pos = total - 1
    for col in range(1, n):
        for row in range(col):
            if stream >> pos & 1:
                adj[row] |= 1 << col
                adj[col] |= 1 << row
            pos -= 1
    return Graph(n, tuple(adj), label)
