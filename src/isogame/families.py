"""Named graph families and the textual family-spec mini-language.

Specs use the ``tag:params`` form accepted by the CLI: ``path:n``,
``cycle:n``, ``complete:n``, ``star:r``, ``hgraph``, ``gstar:<base spec>``,
``gtriangles:n``, ``ftriangles:n:k``, ``gh:n``, ``alltrees:n``, and
``custom:n:u-v,u-v,...``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

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
        return int(name[1:]) - 1
    return int(name)


@dataclass(frozen=True)
class FamilySpec:
    """Parsed family spec: a tag plus its raw argument fields."""

    tag: str
    args: tuple[str, ...] = ()

    def __str__(self) -> str:
        return ":".join((self.tag,) + self.args)


_SCALAR_TAGS = {
    "path", "cycle", "complete", "star", "hgraph",
    "gstar", "gtriangles", "ftriangles", "gh", "custom",
}


#: Most fields a tag takes after itself; unlisted tags take one. gstar's
#: fields are a base spec, which is checked when that spec is parsed.
_MAX_FIELDS = {"hgraph": 0, "ftriangles": 2, "custom": 2}


def parse_family_spec(text: str) -> FamilySpec:
    parts = text.strip().split(":")
    tag = parts[0].lower()
    if tag not in _SCALAR_TAGS and tag != "alltrees":
        raise BadSpec(f"unknown family tag {tag!r}")
    args = tuple(parts[1:])
    most = _MAX_FIELDS.get(tag, 1)
    if tag != "gstar" and len(args) > most:
        raise BadSpec(
            f"family spec {text.strip()!r} gives {len(args)} field(s) after "
            f"the tag, but {tag} takes at most {most}"
        )
    return FamilySpec(tag, args)


def _int_arg(spec: FamilySpec, idx: int, what: str) -> int:
    try:
        return int(spec.args[idx])
    except (IndexError, ValueError):
        raise BadSpec(f"family {spec.tag!r} needs an integer {what}") from None


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


def make_family(spec: FamilySpec | str) -> Graph:
    """Build the single graph named by a family spec.

    ``alltrees`` denotes a sequence, not one graph; use :func:`iter_family`.
    """
    if isinstance(spec, str):
        spec = parse_family_spec(spec)
    tag = spec.tag
    if tag == "path":
        return path_graph(_int_arg(spec, 0, "order"))
    if tag == "cycle":
        return cycle_graph(_int_arg(spec, 0, "order"))
    if tag == "complete":
        return complete_graph(_int_arg(spec, 0, "order"))
    if tag == "star":
        return star_graph(_int_arg(spec, 0, "leaf count"))
    if tag == "hgraph":
        return h_graph()
    if tag == "gstar":
        if not spec.args:
            raise BadSpec("gstar needs a base spec, e.g. gstar:complete:1")
        base_spec = parse_family_spec(":".join(spec.args))
        if base_spec.tag == "alltrees":
            raise BadSpec("gstar base must be a single graph")
        return g_star(make_family(base_spec))
    if tag == "gtriangles":
        return g_triangles(_int_arg(spec, 0, "triangle count"))
    if tag == "ftriangles":
        return f_triangles(_int_arg(spec, 0, "triangle count"), _int_arg(spec, 1, "k"))
    if tag == "gh":
        return g_h(_int_arg(spec, 0, "copy count"))
    if tag == "custom":
        n = _int_arg(spec, 0, "order")
        edges = _parse_edge_list(spec.args[1] if len(spec.args) > 1 else "")
        try:
            return build_graph(n, edges, str(spec))
        except (BadEdge, OrderTooLarge) as exc:
            raise BadSpec(f"bad custom graph: {exc}") from exc
    raise BadSpec(f"family {tag!r} is a sequence; use iter_family")


def iter_family(spec: FamilySpec | str) -> Iterator[Graph]:
    """Yield the graph(s) a spec denotes; scalar tags yield exactly one."""
    if isinstance(spec, str):
        spec = parse_family_spec(spec)
    if spec.tag == "alltrees":
        n = _int_arg(spec, 0, "order")
        if n < 1:
            raise BadSpec(f"family alltrees order must be positive, got {n}")
        yield from all_trees(n)
    else:
        yield make_family(spec)
