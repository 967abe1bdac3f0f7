from random import Random

import pytest

from isogame import (
    BudgetExceeded,
    Mover,
    close_marks,
    complete_graph,
    cycle_graph,
    encode_graph6,
    enumerate_connected,
    initial_closure,
    is_isolating,
    isolation_number,
    mask_of,
    naive_game_value,
    parse_forbidden,
    path_graph,
    random_playout,
    single_edge_family,
    single_vertex_family,
    three_path_family,
    updated_marks,
)
from isogame.oracle import game_values

K1 = single_vertex_family()
K2 = single_edge_family()
P3 = three_path_family()


def test_is_isolating_examples():
    p5 = path_graph(5)
    assert is_isolating(p5, K2, mask_of([2]))
    assert not is_isolating(p5, K2, 0)
    c6 = cycle_graph(6)
    for v in range(6):
        assert not is_isolating(c6, K1, mask_of([v]))


def test_is_isolating_shares_nothing_with_the_closure_rules(monkeypatch):
    # the reference tests the definition on all of G - N[S], so it still
    # answers when the closure's per-component verdict and split are gone
    import isogame.oracle as oracle
    import isogame.rules as rules

    def unavailable(*args):
        raise AssertionError("closure rules used by the reference")

    # the names must exist in rules, so a rename cannot leave them unstubbed
    for name in ("is_forbidden_component", "components", "closer"):
        monkeypatch.setattr(rules, name, unavailable)
        monkeypatch.setattr(oracle, name, unavailable, raising=False)
    assert isolation_number(cycle_graph(6), K2).size == 2
    assert isolation_number(path_graph(7), K1).size == 3


def test_isolation_number_examples():
    assert isolation_number(path_graph(5), K2).size == 1
    assert isolation_number(cycle_graph(6), K2).size == 2
    assert isolation_number(complete_graph(7), K1).size == 1
    assert isolation_number(complete_graph(1), K2).size == 0


def test_certificate_is_minimal_and_lexicographically_least():
    for g in enumerate_connected(5):
        for fam in (K1, K2):
            cert = isolation_number(g, fam)
            assert is_isolating(g, fam, mask_of(cert.witness))
            # nothing smaller works, and nothing lexicographically earlier
            # of the same size works either
            from itertools import combinations

            for smaller in range(cert.size):
                assert not any(
                    is_isolating(g, fam, mask_of(c))
                    for c in combinations(range(g.n), smaller)
                )
            for combo in combinations(range(g.n), cert.size):
                if combo == cert.witness:
                    break
                assert not is_isolating(g, fam, mask_of(combo))


def test_naive_game_values():
    p4 = path_graph(4)
    assert naive_game_value(p4, K2, initial_closure(p4, K2, 0), Mover.DOMINATOR) == 1
    assert naive_game_value(p4, K2, initial_closure(p4, K2, 0), Mover.STALLER) == 2
    p3 = path_graph(3)
    assert naive_game_value(p3, K1, initial_closure(p3, K1, 0), Mover.DOMINATOR) == 1


def recursive_value(g, fam, marked, dom_to_move):
    """Unmemoised tree recursion from a closed mark set: the oracle the
    retrograde table replaced, kept as the table's reference."""
    if marked == g.full_mask:
        return 0
    branch = min if dom_to_move else max
    return 1 + branch(
        recursive_value(g, fam, updated_marks(g, fam, marked, x), not dom_to_move)
        for x in range(g.n)
        if g.closed[x] & ~marked
    )


def test_table_matches_the_recursion_at_every_mark_set():
    # every mark set of every connected graph of order <= 5, closed or not,
    # under each mode of closure
    compared = 0
    for fam in (K1, K2, P3, parse_forbidden("complete:3;path:4")):
        for n in range(1, 6):
            for g in enumerate_connected(n):
                table = game_values(g, fam)
                for m in range(1 << n):
                    closed = close_marks(g, fam, m)
                    for row, dom_to_move in enumerate((True, False)):
                        where = (encode_graph6(g), fam.tag, m, dom_to_move)
                        assert table[row][m] == recursive_value(g, fam, closed, dom_to_move), where
                        compared += 1
    assert compared == 6320


def test_naive_budget():
    g = path_graph(17)
    with pytest.raises(BudgetExceeded):
        naive_game_value(g, K2, initial_closure(g, K2, 0), Mover.DOMINATOR)


def test_subset_search_budget():
    with pytest.raises(BudgetExceeded):
        isolation_number(path_graph(25), K2)


def test_every_finished_playout_is_isolating():
    rng = Random(17)
    pool = [g for n in range(1, 7) for g in enumerate_connected(n)]
    for trial in range(300):
        g = rng.choice(pool)
        fam = (K1, K2)[trial % 2]
        played, state = random_playout(g, fam, rng)
        assert state.is_terminal
        assert is_isolating(g, fam, mask_of(played))


def test_sandwich_bounds_to_order_seven():
    from isogame import solve_both

    for n in range(1, 8):
        for g in enumerate_connected(n):
            for fam in (K1, K2):
                iota = isolation_number(g, fam).size
                d, s = solve_both(g, fam)
                # the D upper bound degenerates when nothing needs isolating
                assert iota <= d.value <= max(2 * iota - 1, 0)
                assert iota <= s.value <= 2 * iota
