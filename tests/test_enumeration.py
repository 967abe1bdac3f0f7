"""Catalog checks against brute-force oracles.

The connected-count oracle enumerates every labeled graph on n vertices,
keeps the connected ones, and canonicalizes by minimizing over all n!
permutations — no shared code with the library's refined search.
"""

import gc
import time
from itertools import combinations, permutations
from random import Random

import pytest

from isogame import (
    BadSpec,
    BudgetExceeded,
    OrderTooLarge,
    all_trees,
    are_isomorphic,
    canonical_form,
    cycle_graph,
    enumerate_connected,
    is_connected,
    make_family,
    path_graph,
    tree_classes,
)
from isogame import enumeration
from isogame.enumeration import (
    CONNECTED_COUNTS, MAX_PRUEFER_ORDER, MAX_TREE_ORDER, TREE_COUNTS, tree_code
)
from isogame.graph import Graph


def _perm_key(n, adj, perm):
    out = []
    for col in range(1, n):
        for row in range(col):
            out.append(adj[perm[row]] >> perm[col] & 1)
    return tuple(out)


def _brute_connected_classes(n):
    """Canonical keys of all connected graphs on n vertices, by full n! search."""
    pairs = list(combinations(range(n), 2))
    perms = list(permutations(range(n)))
    keys = set()
    for bits in range(1 << len(pairs)):
        adj = [0] * n
        for i, (u, v) in enumerate(pairs):
            if bits >> i & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        # inline reachability check, independent of the library
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for u in range(n):
                if adj[v] >> u & 1 and u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) != n:
            continue
        keys.add(min(_perm_key(n, adj, p) for p in perms))
    return keys


@pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21)])
def test_connected_counts_match_brute_force(n, count):
    oracle = _brute_connected_classes(n)
    assert len(oracle) == count
    catalog = list(enumerate_connected(n))
    assert len(catalog) == count
    # the library canonical forms must induce the same classes
    assert len({canonical_form(g) for g in catalog}) == count


def test_connected_counts_frozen_to_order_eight():
    for n in range(1, 9):
        assert sum(1 for _ in enumerate_connected(n)) == CONNECTED_COUNTS[n]


def _dedup_oracle_levels(n_max):
    """Adjacency tuples of every catalog order 1..n_max, sorted, built by
    canonicalising every child of the last level: no pre-filter."""
    level = [(0,)]
    yield level
    for n in range(2, n_max + 1):
        bit = 1 << (n - 1)
        seen = set()
        for adj in level:
            for attach in range(1, bit):
                child = [a | bit if attach >> v & 1 else a for v, a in enumerate(adj)]
                seen.add(canonical_form(Graph(n, (*child, attach))))
        level = sorted(seen)
        yield level


def test_catalog_matches_the_plain_dedup_oracle():
    # the invariant test before canonical_form must lose no class and
    # change no representative
    for n, level in enumerate(_dedup_oracle_levels(7), start=1):
        assert [g.adj for g in enumerate_connected(n)] == level, n


def test_catalog_canonicalises_only_the_children_that_pass_the_test(monkeypatch):
    # one uncached build per order from the cached order below it; the
    # plain dedup canonicalises 0, 1, 3, 14, 90, 651 and 7,056 children
    # here, the invariant test over every attachment 0, 1, 3, 8, 34, 175
    # and 1,477, and over one attachment per orbit of Aut(parent) only
    # these
    enumeration._connected_catalog(6)
    calls = []
    monkeypatch.setattr(
        enumeration, "canonical_form", lambda g: calls.append(g) or canonical_form(g)
    )
    per_order = []
    for n in range(1, 8):
        before = len(calls)
        assert len(enumeration._connected_catalog.__wrapped__(n)) == CONNECTED_COUNTS[n]
        per_order.append(len(calls) - before)
    assert per_order == [0, 1, 2, 6, 21, 114, 902]
    assert len(calls) == 1046


def _automorphisms(k, adj):
    """Every automorphism of the graph, by trying all k! permutations."""
    return [
        perm for perm in permutations(range(k))
        if all(_image(adj[v], perm) == adj[perm[v]] for v in range(k))
    ]


def _image(mask, perm):
    return sum(1 << perm[u] for u in range(len(perm)) if mask >> u & 1)


def _small_connected_graphs():
    """Every connected class of order <= 6, as catalogued and relabeled."""
    rng = Random(11)
    for n in range(1, 7):
        for g in enumerate_connected(n):
            yield g
            yield _relabeled(g, rng)


def _generated_group(n, gens):
    """Every product of the generators, closed from the identity."""
    group = {tuple(range(n))}
    stack = list(group)
    while stack:
        perm = stack.pop()
        for gen in gens:
            product = tuple(gen[v] for v in perm)
            if product not in group:
                group.add(product)
                stack.append(product)
    return group


def test_reported_generators_are_automorphisms():
    # the leaf ties and the twin swaps the search reports must generate
    # the whole group, not just automorphisms with the right mask orbits
    for g in _small_connected_graphs():
        gens = []
        perm = enumeration._canonical_perm(g.n, g.adj, gens)
        assert perm == enumeration._canonical_perm(g.n, g.adj)
        for gen in gens:
            assert sorted(gen) == list(range(g.n))
            assert all(_image(g.adj[v], gen) == g.adj[gen[v]] for v in range(g.n))
        assert len(_generated_group(g.n, gens)) == len(_automorphisms(g.n, g.adj))


def test_canonical_search_leaves_nothing_for_the_cyclic_collector():
    # the ordering search calls itself through a closure cell and clears it
    # when it returns, so a canonical form or a catalog build frees its
    # search by reference counting instead of leaving it until gc runs
    graphs = [g for n in range(1, 8) for g in enumerate_connected(n)]
    gc.collect()
    gc.disable()
    try:
        for g in graphs:
            canonical_form(g)
        assert gc.collect() == 0
        enumeration._connected_catalog.__wrapped__(8)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_orbit_leaders_are_the_orbit_minima():
    for g in _small_connected_graphs():
        group = _automorphisms(g.n, g.adj)
        minima = sorted({
            min(_image(m, perm) for perm in group) for m in range(1, 1 << g.n)
        })
        assert enumeration._orbit_leaders(g.n, g.adj) == minima


def _is_cut_vertex(adj, w):
    rest = (1 << len(adj)) - 1 & ~(1 << w)
    reached = frontier = rest & -rest
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        fresh = adj[low.bit_length() - 1] & rest & ~reached
        reached |= fresh
        frontier |= fresh
    return reached != rest


def _new_vertex_wins(adj):
    """The child-by-child test: no non-cut vertex of ``adj`` has a larger
    ``(degree, sorted neighbour degrees)`` than the last vertex."""
    v = len(adj) - 1
    deg = [a.bit_count() for a in adj]

    def invariant(w):
        return deg[w], sorted(deg[u] for u in range(v + 1) if adj[w] >> u & 1)

    return not any(
        invariant(w) > invariant(v) and not _is_cut_vertex(adj, w) for w in range(v)
    )


def test_deletion_test_matches_the_child_by_child_oracle():
    # every attachment of every parent: children of orders 2..7
    for k in range(1, 7):
        for parent in enumerate_connected(k):
            wins = enumeration._deletion_test(parent)
            bit = 1 << k
            for attach in range(1, bit):
                child = [a | bit if attach >> v & 1 else a for v, a in enumerate(parent.adj)]
                assert wins(attach) == _new_vertex_wins([*child, attach]), (parent, attach)


def _sorted_tuple_colors(n, adj):
    """Refinement with each signature a (color, sorted neighbour colors) tuple."""
    colors = [a.bit_count() for a in adj]
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in range(n) if adj[v] >> u & 1)))
            for v in range(n)
        ]
        ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
        fresh = [ranking[s] for s in sigs]
        if fresh == colors:
            return colors
        colors = fresh


@pytest.mark.parametrize("spec", ["gh:2", "cycle:24", "path:23", "hgraph", "gstar:complete:2"])
def test_refined_colors_match_the_sorted_tuple_reference_on_families(spec):
    g = _relabeled(make_family(spec), Random(5))
    assert enumeration._refined_colors(g.n, g.adj) == _sorted_tuple_colors(g.n, g.adj)


def test_refined_colors_match_the_sorted_tuple_reference_to_order_eight():
    rng = Random(13)
    for n in range(1, 9):
        for g in enumerate_connected(n):
            h = _relabeled(g, rng)
            assert enumeration._refined_colors(h.n, h.adj) == _sorted_tuple_colors(h.n, h.adj)


def test_refined_colors_from_a_starting_coloring_refine_it():
    # the degrees as a start give the default result; any other start is
    # refined in its own color order, so a cell never crosses a start cell
    rng = Random(17)
    for g in _small_connected_graphs():
        n, adj = g.n, g.adj
        assert enumeration._refined_colors(n, adj, [a.bit_count() for a in adj]) == (
            enumeration._refined_colors(n, adj)
        )
        start = [rng.randrange(2) for _ in range(n)]
        colors = enumeration._refined_colors(n, adj, start)
        assert all(
            start[u] <= start[v] for u in range(n) for v in range(n) if colors[u] <= colors[v]
        )
        assert enumeration._refined_colors(n, adj, colors) == colors


def _stabiliser_orbits(n, group, fixed):
    stab = [perm for perm in group if _image(fixed, perm) == fixed]
    return {frozenset(perm[v] for perm in stab) for v in range(n)}


def test_vertex_orbit_leaders_match_brute_force():
    # the group of all k! permutations that are automorphisms, restricted
    # to those that fix the set: no fixed vertex, or one
    for g in _small_connected_graphs():
        group = _automorphisms(g.n, g.adj)
        for fixed in [0, *(1 << v for v in range(g.n))]:
            orbits = _stabiliser_orbits(g.n, group, fixed)
            want = tuple(sorted(min(orbit) for orbit in orbits))
            assert enumeration.vertex_orbit_leaders(g, fixed) == want, (g.adj, fixed)


def test_vertex_orbit_leaders_are_never_coarser_than_the_orbits():
    # every true orbit of the set stabiliser holds a leader, so one move
    # per leader reaches every orbit; the group is the closure of the
    # canonical search's generators, which generate Aut(G) (tested above)
    rng = Random(19)
    graphs = [_relabeled(g, rng) for g in enumerate_connected(7)]
    graphs += [_relabeled(make_family(spec), rng) for spec in ("gh:2", "hgraph", "gstar:complete:2")]
    for g in graphs:
        gens = []
        enumeration._canonical_perm(g.n, g.adj, gens)
        group = _generated_group(g.n, gens)
        fixed_sets = [0, *(1 << v for v in range(min(g.n, 7)))]
        fixed_sets += [rng.randrange(1 << g.n) for _ in range(3)]
        for fixed in fixed_sets:
            leaders = set(enumeration.vertex_orbit_leaders(g, fixed))
            assert all(orbit & leaders for orbit in _stabiliser_orbits(g.n, group, fixed))


@pytest.mark.parametrize("spec, count", [("cycle:24", 1), ("path:23", 12), ("gh:2", 6)])
def test_vertex_orbit_leaders_on_relabelled_families(spec, count):
    g = _relabeled(make_family(spec), Random(23))
    leaders = enumeration.vertex_orbit_leaders(g)
    assert len(leaders) == count
    assert list(leaders) == sorted(leaders)


def test_catalog_members_are_connected_and_distinct():
    seen = set()
    for g in enumerate_connected(6):
        assert is_connected(g)
        key = canonical_form(g)
        assert key not in seen
        seen.add(key)


def _relabeled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    adj = [0] * g.n
    for v in range(g.n):
        for u in range(g.n):
            if g.adj[v] >> u & 1:
                adj[perm[v]] |= 1 << perm[u]
    return Graph(g.n, tuple(adj))


def test_catalog_graphs_are_their_own_canonical_forms():
    # the catalog stores canonical forms, so relabelling one is the identity
    for n in range(1, 9):
        for g in enumerate_connected(n):
            assert canonical_form(g) == g.adj


def test_canonical_form_is_relabeling_invariant():
    rng = Random(7)
    for g in list(enumerate_connected(5)) + list(enumerate_connected(6))[:40]:
        shuffled = _relabeled(g, rng)
        assert canonical_form(shuffled) == canonical_form(g)
        assert are_isomorphic(shuffled, g)


@pytest.mark.parametrize("spec", ["star:12", "complete:12"])
def test_canonical_form_is_fast_on_large_twin_classes(spec):
    # without twin pruning the placement search tries every order of each
    # twin class: star:10 took about 25 s and complete:9 about 2 s
    g = make_family(spec)
    t0 = time.perf_counter()
    key = canonical_form(g)
    assert time.perf_counter() - t0 < 1.0
    assert canonical_form(_relabeled(g, Random(3))) == key


def test_enumeration_rejects_out_of_range_orders():
    # raised by the call itself, like all_trees and tree_classes
    with pytest.raises(OrderTooLarge, match="connected enumeration supports 1..8, got 9"):
        enumerate_connected(9)
    with pytest.raises(OrderTooLarge, match="got 0"):
        enumerate_connected(0)


def test_enumeration_builds_the_catalog_at_the_first_next(monkeypatch):
    # a consumer that times next() (perfbench's layer trace) sees the build
    built = []
    monkeypatch.setattr(enumeration, "_connected_catalog", lambda n: built.append(n) or ())
    catalog = enumerate_connected(5)
    assert built == []
    assert list(catalog) == [] and built == [5]


def test_all_trees_counts_and_shape():
    for n in range(1, 7):
        trees = list(all_trees(n))
        expected = 1 if n <= 2 else n ** (n - 2)
        assert len(trees) == expected
        for t in trees[:50]:
            assert t.num_edges == n - 1
            assert is_connected(t)


def test_all_trees_is_capped_at_the_call():
    # raised by the call itself, not by the first next()
    with pytest.raises(BudgetExceeded, match="capped at order 8"):
        all_trees(MAX_PRUEFER_ORDER + 1)


@pytest.mark.parametrize("n", [0, -3])
@pytest.mark.parametrize("build", [all_trees, tree_classes])
def test_tree_orders_below_one_fail_at_the_call(build, n):
    # a package error, not an IndexError from an empty leaf heap or a
    # recursion that never reaches order 1
    with pytest.raises(BadSpec, match=rf"order of at least 1, got {n}"):
        build(n)


def test_tree_classes_are_capped_at_the_call():
    # the cap is the last order with a frozen count, checked before any
    # smaller order is built
    assert MAX_TREE_ORDER == max(TREE_COUNTS) == 16
    with pytest.raises(BudgetExceeded, match="capped at order 16, got 17"):
        tree_classes(MAX_TREE_ORDER + 1)


def test_tree_classes_match_pruefer_dedup_oracle():
    for n in range(1, 8):
        oracle_codes = {tree_code(t) for t in all_trees(n)}
        classes = tree_classes(n)
        assert len(classes) == len(oracle_codes) == TREE_COUNTS[n]
        assert {tree_code(t) for t in classes} == oracle_codes


def test_tree_classes_frozen_counts_to_order_twelve():
    for n in range(1, 13):
        assert len(tree_classes(n)) == TREE_COUNTS[n]


def test_paths_and_cycles_are_not_isomorphic():
    assert not are_isomorphic(path_graph(6), cycle_graph(6))
    assert are_isomorphic(path_graph(6), path_graph(6))
