import pytest

from isogame import (
    BadSpec,
    are_isomorphic,
    complete_graph,
    components,
    cycle_graph,
    f_triangles,
    g_h,
    g_star,
    g_triangles,
    h_graph,
    iter_family,
    make_family,
    path_graph,
    star_graph,
    vertex_name_to_index,
)
from isogame.families import _INT_TAGS
from isogame.graph import build_graph, mask_of


def test_standard_family_shapes():
    assert path_graph(5).num_edges == 4
    assert cycle_graph(6).num_edges == 6
    assert complete_graph(5).num_edges == 10
    star = star_graph(4)
    assert star.n == 5 and star.degree(0) == 4


def test_standard_family_preconditions():
    with pytest.raises(BadSpec):
        path_graph(0)
    with pytest.raises(BadSpec):
        cycle_graph(2)
    with pytest.raises(BadSpec):
        star_graph(0)


def test_h_graph_shape():
    h = h_graph()
    assert h.n == 12
    assert h.num_edges == 15
    # four triangle blocks: degrees are 2 or 3 only
    assert sorted(h.degree(v) for v in range(12)) == [2] * 6 + [3] * 6


def test_g_triangles_counts():
    g = g_triangles(3)
    assert g.n == 9
    assert g.num_edges == 12  # 3 triangles * 3 + clique on 3 hubs


def test_f_triangles_removes_exactly_k_edges():
    for k in (1, 2, 3):
        assert f_triangles(3, k).num_edges == 12 - k
    with pytest.raises(BadSpec):
        f_triangles(3, 4)
    with pytest.raises(BadSpec):
        f_triangles(3, 0)


def test_f_triangles_full_cut_leaves_order_three_pieces():
    n = 4
    g = f_triangles(n, n)
    hubs = [3 * i for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            assert g.has_edge(hubs[i], hubs[j]), "clique edges stay intact"
    # dropping the clique edges leaves n pieces of order 3 each
    trimmed = build_graph(
        g.n, [e for e in g.edges() if not (e[0] in hubs and e[1] in hubs)]
    )
    parts = components(trimmed, trimmed.full_mask)
    assert len(parts) == n
    assert all(p.bit_count() == 3 for p in parts)


def test_g_star_orders_and_p7_case():
    assert g_star(complete_graph(1)).n == 7
    assert g_star(complete_graph(2)).n == 14
    assert g_star(path_graph(3)).n == 21
    assert are_isomorphic(g_star(complete_graph(1)), path_graph(7))
    with pytest.raises(BadSpec):
        g_star(path_graph(10))  # order 70 exceeds the vertex-word limit


def test_g_h_orders_and_base_identification():
    assert are_isomorphic(g_h(1), h_graph())
    two = g_h(2)
    assert two.n == 24
    assert two.has_edge(3, 15)  # the two gadget anchors are joined
    with pytest.raises(BadSpec):
        g_h(6)


def test_spec_language_round_trip():
    assert make_family("ftriangles:3:2").num_edges == 10
    assert make_family("cycle:6").n == 6
    assert make_family("gstar:complete:2").n == 14
    assert make_family("custom:4:0-1,1-2,2-3").edges() == path_graph(4).edges()
    assert make_family("hgraph").n == 12


def test_spec_language_errors():
    with pytest.raises(BadSpec):
        make_family("blob:3")
    with pytest.raises(BadSpec):
        make_family("path:x")
    # a sequence spec needs iter_family, and gets one message as the whole
    # spec and as a gstar base (test_rules checks it as a pattern)
    sequence = "^'alltrees:4' names a sequence of graphs, not one graph$"
    for spec in ("alltrees:4", "gstar:alltrees:4", "gstar:gstar:alltrees:4"):
        with pytest.raises(BadSpec, match=sequence):
            make_family(spec)
    # "gstar:" splits into one empty field, which names no base either
    for spec in ("gstar", "gstar:", "gstar::complete:1"):
        with pytest.raises(BadSpec, match="gstar needs a base spec"):
            make_family(spec)
    with pytest.raises(BadSpec):
        make_family("custom:3:0-9")
    # a field the tag does not take is an error, never silently dropped
    one_too_many = [":".join([tag, *["1"] * (len(names) + 1)])
                     for tag, (_, names) in _INT_TAGS.items()]
    for spec in one_too_many + ["path:6:99", "hgraph:5", "cycle:6:x", "gh:1:2",
                                "ftriangles:3:2:1", "custom:3:0-1:junk",
                                "gstar:complete:1:9", "alltrees:4:1"]:
        with pytest.raises(BadSpec, match="family spec"):
            list(iter_family(spec))


def test_iter_family_alltrees():
    trees = list(iter_family("alltrees:4"))
    assert len(trees) == 16
    assert all(t.n == 4 and t.num_edges == 3 for t in trees)
    assert [g.n for g in iter_family("path:5")] == [5]


def test_vertex_names():
    assert vertex_name_to_index("v4") == 3
    assert vertex_name_to_index("7") == 7
    assert vertex_name_to_index(" v12 ") == 11
    for name in ("v0", "-1"):
        with pytest.raises(BadSpec, match="out of range"):
            vertex_name_to_index(name)
    # a name of neither form is a spec error, not a bare ValueError
    for name in ("x", "v+3", "v", "", "v1.5", "3-4"):
        with pytest.raises(BadSpec, match="neither a drawing name like v1 nor an integer"):
            vertex_name_to_index(name)


def test_h_graph_matches_drawing_edge_list():
    # spot-check adjacency against the drawing: v1-v2, v5-v10, v6-v7
    h = h_graph()
    assert h.has_edge(0, 1) and h.has_edge(4, 9) and h.has_edge(5, 6)
    assert not h.has_edge(0, 9)
    assert mask_of([1, 2, 3]) == h.adj[0]
