"""Named graph families and the textual family-spec mini-language.

Specs use the ``tag:params`` form accepted by the CLI: ``path:n``,
``cycle:n``, ``complete:n``, ``star:r``, ``hgraph``, ``gstar:<base spec>``,
``gtriangles:n``, ``ftriangles:n:k``, ``gh:n``, ``alltrees:n``, and
``custom:n:u-v,u-v,...``.
"""

from __future__ import annotations

from typing import Callable, Iterator

from .enumeration import all_trees
from .errors import BadEdge, BadSpec, OrderTooLarge
from .graph import MAX_ORDER, Graph, build_graph

#: Edges of the 12-vertex gadget graph ("hgraph"): four triangles linked so
#: that both game values equal 5. Vertex v_i of the drawing is index i-1.
H_GRAPH_EDGES = [
    (0, 1), (0, 2), (0, 3), (1, 2),
    (3, 4), (3, 5), (4, 5), (4, 9),
    (5, 6), (6, 7), (6, 8), (7, 8),
    (9, 10), (9, 11), (10, 11),
]


def path_graph(n: int) -> Graph:
    if n < 1:
        raise BadSpec("path order must be positive")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)], f"path:{n}")


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise BadSpec("cycle order must be at least 3")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return build_graph(n, edges, f"cycle:{n}")


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise BadSpec("complete-graph order must be positive")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return build_graph(n, edges, f"complete:{n}")


def star_graph(r: int) -> Graph:
    """Star with r leaves (order r + 1, center 0)."""
    if r < 1:
        raise BadSpec("star leaf count must be positive")
    return build_graph(r + 1, [(0, i) for i in range(1, r + 1)], f"star:{r}")


def h_graph() -> Graph:
    return build_graph(12, H_GRAPH_EDGES, "hgraph")


def g_star(base: Graph) -> Graph:
    """Attach a private 7-vertex path to every base vertex, identifying the
    base vertex with the path center. Order is 7 * |base|."""
    if base.n < 1:
        raise BadSpec("gstar base must have at least one vertex")
    n = 7 * base.n
    if n > MAX_ORDER:
        raise BadSpec(f"gstar order {n} exceeds {MAX_ORDER}")
    edges = base.edges()
    for i in range(base.n):
        p = base.n + 6 * i  # six private path vertices: p..p+5
        edges += [
            (p, p + 1), (p + 1, p + 2), (p + 2, i),
            (i, p + 3), (p + 3, p + 4), (p + 4, p + 5),
        ]
    return build_graph(n, edges, f"gstar:{base.label or base.n}")


def g_triangles(n: int) -> Graph:
    """n disjoint triangles {v_i, x_i, y_i} with a clique on the v_i."""
    if n < 1:
        raise BadSpec("gtriangles count must be positive")
    if 3 * n > MAX_ORDER:
        raise BadSpec(f"gtriangles order {3 * n} exceeds {MAX_ORDER}")
    edges = []
    for i in range(n):
        v, x, y = 3 * i, 3 * i + 1, 3 * i + 2
        edges += [(v, x), (v, y), (x, y)]
    edges += [(3 * i, 3 * j) for i in range(n) for j in range(i + 1, n)]
    return build_graph(3 * n, edges, f"gtriangles:{n}")


def f_triangles(n: int, k: int) -> Graph:
    """g_triangles(n) with the x_i y_i edge removed for i = 1..k."""
    if k < 1 or k > n:
        raise BadSpec(f"ftriangles requires 1 <= k <= n, got k={k}, n={n}")
    g = g_triangles(n)
    dropped = {(3 * i + 1, 3 * i + 2) for i in range(k)}
    edges = [e for e in g.edges() if e not in dropped]
    return build_graph(3 * n, edges, f"ftriangles:{n}:{k}")


def g_h(n: int) -> Graph:
    """Chain of n private hgraph copies: v_4 of copy i is identified with
    vertex i of the path P_n, so the order is 12n.
    """
    if n < 1:
        raise BadSpec("gh copy count must be positive")
    if 12 * n > MAX_ORDER:
        raise BadSpec(f"gh order {12 * n} exceeds {MAX_ORDER}")
    edges = []
    for i in range(n):
        off = 12 * i
        edges += [(off + u, off + v) for u, v in H_GRAPH_EDGES]
    # v_4 of copy i is index 12*i + 3; consecutive copies are joined there
    edges += [(12 * i + 3, 12 * i + 15) for i in range(n - 1)]
    return build_graph(12 * n, edges, f"gh:{n}")


#: hgraph/gh marks may be given as drawing names: v1..v12 -> 0..11.
def vertex_name_to_index(name: str) -> int:
    name = name.strip()
    if name.startswith("v") and name[1:].isdigit():
        index = int(name[1:]) - 1
    else:
        index = int(name)
    if index < 0:
        raise BadSpec(f"vertex name {name!r} is out of range; names start at v1 or 0")
    return index


#: Every tag whose fields are all integers: its builder and the names of its
#: fields, in order. A spec gives at most that many fields. ``alltrees``
#: names a sequence of graphs, so only :func:`iter_family` builds it.
_INT_TAGS: dict[str, tuple[Callable[..., Graph | Iterator[Graph]], tuple[str, ...]]] = {
    "path": (path_graph, ("order",)),
    "cycle": (cycle_graph, ("order",)),
    "complete": (complete_graph, ("order",)),
    "star": (star_graph, ("leaf count",)),
    "hgraph": (h_graph, ()),
    "gtriangles": (g_triangles, ("triangle count",)),
    "ftriangles": (f_triangles, ("triangle count", "k")),
    "gh": (g_h, ("copy count",)),
    "alltrees": (all_trees, ("order",)),
}


def _split(text: str) -> tuple[str, list[str]]:
    tag, *args = text.strip().split(":")
    return tag.lower(), args


def _at_most(text: str, tag: str, args: list[str], most: int) -> None:
    if len(args) > most:
        raise BadSpec(
            f"family spec {text.strip()!r} gives {len(args)} field(s) after "
            f"the tag, but {tag} takes at most {most}"
        )


def _ints(text: str, tag: str, args: list[str], names: tuple[str, ...]) -> list[int]:
    """The spec's fields as integers, one per name; a field beyond the
    names, a missing one or a non-integer one is an error."""
    _at_most(text, tag, args, len(names))
    out = []
    for i, what in enumerate(names):
        try:
            out.append(int(args[i]))
        except (IndexError, ValueError):
            raise BadSpec(f"family {tag!r} needs an integer {what}") from None
    return out


def _parse_edge_list(text: str) -> list[tuple[int, int]]:
    if not text:
        return []
    edges = []
    for token in text.split(","):
        u, _, v = token.partition("-")
        try:
            edges.append((int(u), int(v)))
        except ValueError:
            raise BadSpec(f"bad edge token {token!r}") from None
    return edges


def _make(text: str, if_sequence: str) -> Graph:
    """Build the single graph a spec names; ``if_sequence`` is the error
    text for a spec that names a sequence."""
    tag, args = _split(text)
    if tag == "gstar":
        if not args:
            raise BadSpec("gstar needs a base spec, e.g. gstar:complete:1")
        return g_star(_make(":".join(args), "gstar base must be a single graph"))
    if tag == "custom":
        _at_most(text, tag, args, 2)
        (n,) = _ints(text, tag, args[:1], ("order",))
        edges = _parse_edge_list(args[1] if len(args) > 1 else "")
        try:
            return build_graph(n, edges, ":".join([tag, *args]))
        except (BadEdge, OrderTooLarge) as exc:
            raise BadSpec(f"bad custom graph: {exc}") from exc
    if tag not in _INT_TAGS:
        raise BadSpec(f"unknown family tag {tag!r}")
    build, names = _INT_TAGS[tag]
    if tag == "alltrees":
        _at_most(text, tag, args, len(names))
        raise BadSpec(if_sequence)
    return build(*_ints(text, tag, args, names))


def make_family(spec: str) -> Graph:
    """Build the single graph named by a family spec.

    ``alltrees`` denotes a sequence, not one graph; use :func:`iter_family`.
    """
    return _make(spec, "family 'alltrees' is a sequence; use iter_family")


def iter_family(spec: str) -> Iterator[Graph]:
    """Yield the graph(s) a spec denotes; single-graph tags yield exactly one."""
    tag, args = _split(spec)
    if tag == "alltrees":
        build, names = _INT_TAGS[tag]
        yield from build(*_ints(spec, tag, args, names))
    else:
        yield make_family(spec)
