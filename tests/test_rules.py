"""Rulebook checks: pattern containment, closure, legality, and the
order-independence of marking.

The containment oracle here tries every injective placement of the pattern
by brute force, and the legality oracle recomputes playability from the
raw definition (a vertex must dominate someone in a live component of the
graph minus the played set's closed neighborhood).
"""

from itertools import permutations
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from isogame import (
    IllegalMove,
    PatternTooLarge,
    apply_move,
    build_graph,
    close_marks,
    closed_neighborhood,
    complete_graph,
    components,
    contains_pattern,
    cycle_graph,
    disjoint_union,
    enumerate_connected,
    h_graph,
    initial_closure,
    is_forbidden_component,
    is_playable,
    mask_list,
    mask_of,
    parse_forbidden,
    path_graph,
    playable,
    single_edge_family,
    single_vertex_family,
    three_path_family,
)
from isogame.graph import iter_mask
from isogame.rules import ForbiddenFamily, MarkState
from strategies import graphs, graphs_with_masks

K1 = single_vertex_family()
K2 = single_edge_family()
P3 = three_path_family()
ALL_FAMS = (K1, K2, P3)


def brute_contains(g, within, pattern):
    hosts = mask_list(within)
    if pattern.n > len(hosts):
        return False
    for image in permutations(hosts, pattern.n):
        if all(
            g.has_edge(image[u], image[v])
            for u in range(pattern.n)
            for v in range(u + 1, pattern.n)
            if pattern.has_edge(u, v)
        ):
            return True
    return False


def test_contains_pattern_examples():
    c6 = cycle_graph(6)
    assert not contains_pattern(c6, c6.full_mask, complete_graph(3))
    assert contains_pattern(c6, c6.full_mask, path_graph(3))
    p4 = path_graph(4)
    assert not contains_pattern(p4, mask_of([0]), complete_graph(2))
    assert contains_pattern(p4, p4.full_mask, build_graph(0, []))
    # two disjoint edges fit in a path of four
    two_edges = build_graph(4, [(0, 1), (2, 3)])
    assert contains_pattern(p4, p4.full_mask, two_edges)
    assert not contains_pattern(path_graph(3), path_graph(3).full_mask, two_edges)


def test_contains_pattern_order_cap():
    with pytest.raises(PatternTooLarge):
        contains_pattern(complete_graph(8), 255, complete_graph(7))


@given(graphs(max_n=6), graphs(max_n=4), st.integers(0, 63))
def test_contains_pattern_matches_brute_force(g, pattern, within_bits):
    within = within_bits & g.full_mask
    assert contains_pattern(g, within, pattern) == brute_contains(g, within, pattern)


def test_is_forbidden_component_basics():
    p4 = path_graph(4)
    assert is_forbidden_component(p4, mask_of([0]), K2)
    assert not is_forbidden_component(p4, mask_of([0, 1]), K2)
    assert not is_forbidden_component(p4, mask_of([0]), K1)
    empty = ForbiddenFamily((), "empty")
    assert is_forbidden_component(p4, mask_of([0, 1]), empty)


def test_initial_closure_examples():
    lonely = disjoint_union(complete_graph(3), build_graph(1, []))
    assert initial_closure(lonely, K2, 0).marked == mask_of([3])
    assert initial_closure(path_graph(4), K2, 0).marked == 0
    h = h_graph()
    state = initial_closure(h, K2, mask_of([3]))
    assert state.marked == mask_of([3])
    # independent check: both sides of v4 keep an edge, so nothing else marks
    for comp in components(h, h.full_mask & ~mask_of([3])):
        assert any(h.adj[v] & comp for v in iter_mask(comp))


def test_initial_closure_normalizes_invalid_markings():
    p4 = path_graph(4)
    state = initial_closure(p4, K2, mask_of([0, 1, 2]))
    assert state.marked == p4.full_mask  # the stranded endpoint is absorbed


def test_empty_family_marks_everything():
    g = cycle_graph(5)
    assert initial_closure(g, ForbiddenFamily((), "empty"), 0).is_terminal


def test_apply_move_examples():
    p4 = path_graph(4)
    state = initial_closure(p4, K2, 0)
    assert apply_move(state, K2, 1).marked == p4.full_mask
    c6 = cycle_graph(6)
    state = initial_closure(c6, K2, 0)
    assert apply_move(state, K2, 0).marked == closed_neighborhood(c6, mask_of([0]))
    state = initial_closure(p4, K1, 0)
    assert apply_move(state, K1, 1).marked == mask_of([0, 1, 2])


def test_apply_move_rejects_unplayable():
    p4 = path_graph(4)
    done = apply_move(initial_closure(p4, K2, 0), K2, 1)
    with pytest.raises(IllegalMove):
        apply_move(done, K2, 1)


def test_playable_examples():
    p4 = path_graph(4)
    assert playable(initial_closure(p4, K2, 0)) == p4.full_mask
    assert playable(MarkState(p4, p4.full_mask)) == 0


def raw_playable(g, fam, played):
    """Playability from the definition: x must dominate a vertex lying in a
    component of G - N[played] that still contains a pattern."""
    dominated = closed_neighborhood(g, mask_of(played))
    live = 0
    for comp in components(g, g.full_mask & ~dominated):
        if not is_forbidden_component(g, comp, fam):
            live |= comp
    return mask_of(x for x in range(g.n) if g.closed[x] & live)


def test_playability_matches_raw_definition_along_random_games():
    rng = Random(11)
    pool = [g for n in range(2, 7) for g in enumerate_connected(n)]
    for trial in range(150):
        g = rng.choice(pool)
        fam = ALL_FAMS[trial % 3]
        state = initial_closure(g, fam, 0)
        played = []
        while not state.is_terminal:
            assert playable(state) == raw_playable(g, fam, played)
            options = [x for x in range(g.n) if is_playable(state, x)]
            x = rng.choice(options)
            played.append(x)
            state = apply_move(state, fam, x)
        assert raw_playable(g, fam, played) == 0


def test_moves_strictly_grow_marks():
    rng = Random(3)
    for g in enumerate_connected(6):
        fam = K2
        state = initial_closure(g, fam, 0)
        while not state.is_terminal:
            options = [x for x in range(g.n) if is_playable(state, x)]
            nxt = apply_move(state, fam, rng.choice(options))
            assert nxt.marked & ~state.marked, "each move marks something new"
            state = nxt


def test_two_move_order_independence_small():
    for n in range(2, 5):
        for g in enumerate_connected(n):
            for fam in ALL_FAMS:
                start = initial_closure(g, fam, 0)
                for x in range(g.n):
                    if not is_playable(start, x):
                        continue
                    after_x = apply_move(start, fam, x)
                    for y in range(g.n):
                        if not is_playable(after_x, y) or not is_playable(start, y):
                            continue
                        after_y = apply_move(start, fam, y)
                        if not is_playable(after_y, x):
                            continue
                        assert (
                            apply_move(after_x, fam, y).marked
                            == apply_move(after_y, fam, x).marked
                        )


def test_final_marks_equal_direct_closure_of_play_set():
    rng = Random(23)
    pool = [g for n in range(2, 7) for g in enumerate_connected(n)]
    for trial in range(200):
        g = rng.choice(pool)
        fam = ALL_FAMS[trial % 3]
        state = initial_closure(g, fam, 0)
        played = 0
        while not state.is_terminal:
            options = [x for x in range(g.n) if is_playable(state, x)]
            x = rng.choice(options)
            played |= 1 << x
            state = apply_move(state, fam, x)
            direct = close_marks(g, fam, closed_neighborhood(g, played))
            assert state.marked == direct


@given(graphs_with_masks(max_n=7))
def test_closure_is_idempotent(gm):
    g, marks = gm
    for fam in ALL_FAMS:
        once = close_marks(g, fam, marks)
        assert close_marks(g, fam, once) == once


def test_fast_absorption_paths_match_generic_search():
    # force the generic per-component search and compare with the
    # structure-specialized paths for the same families
    rng = Random(5)
    pool = [g for n in range(1, 7) for g in enumerate_connected(n)]
    for fam in (K1, K2):
        generic = ForbiddenFamily(fam.patterns, fam.tag)
        object.__setattr__(generic, "mode", "search")
        for _ in range(120):
            g = rng.choice(pool)
            marks = rng.randrange(g.full_mask + 1)
            assert close_marks(g, fam, marks) == close_marks(g, generic, marks)


def test_parse_forbidden_specs():
    assert parse_forbidden("K1").tag == "K1"
    assert parse_forbidden("k2").patterns[0].num_edges == 1
    assert parse_forbidden("P3") == three_path_family()
    fam = parse_forbidden("custom:3:0-1,1-2;custom:2:0-1")
    assert len(fam.patterns) == 2
    assert fam.patterns[0].n == 3
    from isogame import BadSpec

    with pytest.raises(BadSpec):
        parse_forbidden("K9")
    with pytest.raises(PatternTooLarge):
        parse_forbidden("custom:7:" + ",".join(f"{i}-{i+1}" for i in range(6)))


def test_pattern_order_six_is_accepted():
    fam = parse_forbidden("custom:6:0-1,1-2,2-3,3-4,4-5")
    g = path_graph(7)
    assert not is_forbidden_component(g, g.full_mask, fam)
    assert is_forbidden_component(path_graph(5), path_graph(5).full_mask, fam)
