"""Catalog checks against brute-force oracles.

The connected-count oracle enumerates every labeled graph on n vertices,
keeps the connected ones, and canonicalizes by minimizing over all n!
permutations — no shared code with the library's refined search.
"""

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


def test_connected_counts_frozen_to_order_seven():
    for n in range(1, 8):
        assert sum(1 for _ in enumerate_connected(n)) == CONNECTED_COUNTS[n]


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
    with pytest.raises(OrderTooLarge):
        list(enumerate_connected(9))
    with pytest.raises(OrderTooLarge):
        list(enumerate_connected(0))


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
