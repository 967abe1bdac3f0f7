import pytest
from hypothesis import given
from hypothesis import strategies as st

from isogame import (
    BadEdge,
    IsolationGameError,
    Mover,
    OrderTooLarge,
    as_mask,
    build_graph,
    closed_neighborhood,
    complete_graph,
    components,
    cycle_graph,
    disjoint_union,
    initial_closure,
    iter_mask,
    mask_list,
    mask_of,
    path_graph,
    single_edge_family,
    solve,
)
from strategies import graphs_with_masks


def test_mask_round_trip():
    assert mask_of([0, 3, 5]) == 0b101001
    assert mask_list(0b101001) == [0, 3, 5]
    assert list(iter_mask(0)) == []


def test_negative_masks_raise():
    # a negative int has infinitely many set bits; walking it never ends
    with pytest.raises(IsolationGameError, match="negative vertex mask -1"):
        mask_list(-1)
    with pytest.raises(IsolationGameError, match="negative vertex mask -5"):
        list(iter_mask(-5))
    with pytest.raises(IsolationGameError, match="negative vertex mask -1"):
        as_mask(-1)
    # an index list is checked too: 1 << -1 would be a bare ValueError
    g = path_graph(5)
    k2 = single_edge_family()
    with pytest.raises(IsolationGameError, match="negative vertex -1"):
        mask_of([-1])
    with pytest.raises(IsolationGameError, match="negative vertex -1"):
        solve(g, k2, Mover.DOMINATOR, [-1])
    with pytest.raises(IsolationGameError, match="negative vertex -2"):
        closed_neighborhood(g, [-2])
    with pytest.raises(IsolationGameError, match="negative vertex -1"):
        initial_closure(g, k2, [-1])


def test_build_graph_is_p4():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.degree(0) == 1 and g.degree(1) == 2


def test_build_graph_single_vertex():
    g = build_graph(1, [])
    assert g.n == 1 and g.num_edges == 0


def test_build_graph_collapses_duplicates_and_symmetrizes():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1), (2, 1)])
    assert g.num_edges == 2
    assert g.has_edge(1, 0) and g.has_edge(1, 2)


def test_build_graph_rejects_bad_input():
    with pytest.raises(OrderTooLarge, match="order 64 outside 0..63"):
        build_graph(64, [])
    with pytest.raises(BadEdge):
        build_graph(3, [(1, 1)])
    with pytest.raises(BadEdge):
        build_graph(3, [(0, 3)])


def test_order_63_is_allowed():
    g = build_graph(63, [(0, 62)])
    assert g.has_edge(62, 0)


def test_components_examples():
    p4 = path_graph(4)
    assert components(p4, mask_of([2, 3])) == [mask_of([2, 3])]
    assert components(p4, mask_of([0, 2])) == [mask_of([0]), mask_of([2])]
    c6 = cycle_graph(6)
    assert components(c6, c6.full_mask) == [c6.full_mask]


def test_closed_neighborhood_examples():
    p4 = path_graph(4)
    assert closed_neighborhood(p4, mask_of([1])) == mask_of([0, 1, 2])
    assert closed_neighborhood(p4, 0) == 0
    k5 = complete_graph(5)
    assert closed_neighborhood(k5, mask_of([0])) == k5.full_mask


def test_disjoint_union_shifts_second_block():
    g = disjoint_union(complete_graph(3), path_graph(2))
    assert g.n == 5
    assert g.num_edges == 4
    assert g.has_edge(3, 4) and not g.has_edge(2, 3)


def test_disjoint_union_rejects_a_union_past_the_order_cap():
    with pytest.raises(OrderTooLarge, match="union order 64 exceeds 63"):
        disjoint_union(path_graph(61), path_graph(3))
    assert disjoint_union(path_graph(60), path_graph(3)).n == 63


@given(graphs_with_masks(max_n=7))
def test_components_partition_active_set(gm):
    g, active = gm
    parts = components(g, active)
    union = 0
    for part in parts:
        assert part & union == 0, "parts must be disjoint"
        union |= part
    assert union == active
    # no edge of g[active] may cross two parts
    for part in parts:
        for v in iter_mask(part):
            assert g.adj[v] & active & ~part == 0


@given(graphs_with_masks(max_n=7), st.integers(0, (1 << 7) - 1))
def test_closed_neighborhood_monotone(gm, extra):
    g, s = gm
    t = (s | extra) & g.full_mask
    ns = closed_neighborhood(g, s)
    assert s & ~ns == 0, "s is inside N[s]"
    assert ns & ~closed_neighborhood(g, t) == 0, "monotone under set growth"
