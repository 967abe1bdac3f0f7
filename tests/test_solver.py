from random import Random

import pytest

from isogame import (
    Mover,
    StateSpaceBudgetExceeded,
    TerminalState,
    apply_move,
    complete_graph,
    cycle_graph,
    encode_graph6,
    enumerate_connected,
    game_value,
    initial_closure,
    is_playable,
    mask_list,
    mask_of,
    naive_best_moves,
    naive_game_value,
    optimal_moves,
    path_graph,
    result_record,
    single_edge_family,
    single_vertex_family,
    solve,
    solve_both,
    three_path_family,
)
K1 = single_vertex_family()
K2 = single_edge_family()
P3 = three_path_family()
ALL_FAMS = (K1, K2, P3)


def test_reference_values():
    c6 = cycle_graph(6)
    assert solve(c6, K2, Mover.DOMINATOR).value == 3
    assert solve(c6, K2, Mover.STALLER).value == 2
    assert solve(path_graph(4), K2, Mover.STALLER).value == 2
    assert solve(path_graph(11), K2, Mover.DOMINATOR).value == 4
    assert solve(complete_graph(5), K2, Mover.DOMINATOR).value == 1
    assert solve(complete_graph(5), K2, Mover.STALLER).value == 1


def test_terminal_state_result():
    g = complete_graph(1)
    result = solve(g, K2, Mover.DOMINATOR)
    assert result.value == 0
    assert result.best_move is None
    assert result.principal_line == ()


def test_optimal_moves_examples():
    p3 = path_graph(3)
    # with the single-edge family every first move finishes P_3: an end
    # move strands the far endpoint, which is absorbed as a quiet singleton
    state = initial_closure(p3, K2, 0)
    assert optimal_moves(p3, K2, state, Mover.DOMINATOR) == p3.full_mask
    assert naive_best_moves(p3, K2, state, Mover.DOMINATOR) == p3.full_mask
    # the domination game does distinguish the center (value 1 vs 2)
    state = initial_closure(p3, K1, 0)
    assert optimal_moves(p3, K1, state, Mover.DOMINATOR) == mask_of([1])
    assert naive_best_moves(p3, K1, state, Mover.DOMINATOR) == mask_of([1])
    c6 = cycle_graph(6)
    state = initial_closure(c6, K2, 0)
    assert optimal_moves(c6, K2, state, Mover.DOMINATOR) == c6.full_mask
    p7 = path_graph(7)
    state = initial_closure(p7, K2, 0)
    best = optimal_moves(p7, K2, state, Mover.DOMINATOR)
    assert best & mask_of([3]), "the path center attains the optimum"


def test_optimal_moves_match_naive_oracle():
    rng = Random(9)
    pool = [g for n in range(2, 6) for g in enumerate_connected(n)]
    for trial in range(60):
        g = rng.choice(pool)
        fam = ALL_FAMS[trial % 3]
        state = initial_closure(g, fam, 0)
        if state.is_terminal:
            continue
        for mover in (Mover.DOMINATOR, Mover.STALLER):
            assert optimal_moves(g, fam, state, mover) == naive_best_moves(
                g, fam, state, mover
            )


def test_optimal_moves_rejects_terminal():
    g = complete_graph(1)
    with pytest.raises(TerminalState):
        optimal_moves(g, K2, initial_closure(g, K2, 0), Mover.DOMINATOR)


def test_best_move_is_lowest_indexed_optimum():
    for g in enumerate_connected(5):
        for fam in (K1, K2):
            state = initial_closure(g, fam, 0)
            if state.is_terminal:
                continue
            for mover in (Mover.DOMINATOR, Mover.STALLER):
                result = game_value(g, fam, state, mover)
                assert result.best_move == mask_list(
                    optimal_moves(g, fam, state, mover)
                )[0]


def test_principal_line_replays_legally():
    rng = Random(31)
    pool = [g for n in range(1, 7) for g in enumerate_connected(n)]
    for trial in range(120):
        g = rng.choice(pool)
        fam = ALL_FAMS[trial % 3]
        mover = (Mover.DOMINATOR, Mover.STALLER)[trial % 2]
        marks = rng.randrange(g.full_mask + 1)
        state = initial_closure(g, fam, marks)
        result = game_value(g, fam, state, mover)
        assert len(result.principal_line) == result.value
        for x in result.principal_line:
            assert is_playable(state, x)
            state = apply_move(state, fam, x)
        assert state.is_terminal


def test_value_depends_only_on_marked_set_and_mover():
    # two different routes to the same marked set give one table entry,
    # so values agree; spot-check by replaying distinct optimal prefixes
    g = cycle_graph(6)
    state = initial_closure(g, K2, 0)
    a = apply_move(apply_move(state, K2, 0), K2, 3)
    b = apply_move(apply_move(state, K2, 3), K2, 0)
    assert a.marked == b.marked
    for mover in (Mover.DOMINATOR, Mover.STALLER):
        assert (
            game_value(g, K2, a, mover).value == game_value(g, K2, b, mover).value
        )


def test_matches_naive_oracle_small():
    for n in range(1, 6):
        for g in enumerate_connected(n):
            for fam in ALL_FAMS:
                state = initial_closure(g, fam, 0)
                for mover in (Mover.DOMINATOR, Mover.STALLER):
                    assert game_value(g, fam, state, mover).value == naive_game_value(
                        g, fam, state, mover
                    )


def test_recurrence_holds_on_every_reachable_state():
    # independent re-expansion: every reachable non-terminal state must
    # satisfy value = 1 + optimum over successor values
    for g in list(enumerate_connected(4)) + list(enumerate_connected(5))[:8]:
        for fam in (K2, P3):
            seen = set()
            frontier = [initial_closure(g, fam, 0)]
            while frontier:
                state = frontier.pop()
                if state.marked in seen:
                    continue
                seen.add(state.marked)
                if state.is_terminal:
                    continue
                succ = [
                    apply_move(state, fam, x)
                    for x in range(g.n)
                    if is_playable(state, x)
                ]
                for mover in (Mover.DOMINATOR, Mover.STALLER):
                    here = game_value(g, fam, state, mover).value
                    child_values = [
                        game_value(g, fam, c, mover.other).value for c in succ
                    ]
                    pick = min if mover is Mover.DOMINATOR else max
                    assert here == 1 + pick(child_values)
                frontier.extend(succ)


def pure_domination_value(g, dominated, dom_to_move):
    """Textbook domination game: marking is exactly the closed neighborhood
    of the played set, a legal move must dominate something new."""
    if dominated == g.full_mask:
        return 0
    pick = min if dom_to_move else max
    return 1 + pick(
        pure_domination_value(g, dominated | g.closed[x], not dom_to_move)
        for x in range(g.n)
        if g.closed[x] & ~dominated
    )


def test_single_vertex_family_reduces_to_domination_game():
    for n in range(1, 6):
        for g in enumerate_connected(n):
            for mover in (Mover.DOMINATOR, Mover.STALLER):
                expected = pure_domination_value(g, 0, mover is Mover.DOMINATOR)
                assert solve(g, K1, mover).value == expected


def test_solve_both_shares_one_table():
    g = cycle_graph(6)
    d, s = solve_both(g, K2)
    assert (d.value, s.value) == (3, 2)
    assert d.value == solve(g, K2, Mover.DOMINATOR).value
    assert s.value == solve(g, K2, Mover.STALLER).value


def test_memo_cap_is_enforced():
    with pytest.raises(StateSpaceBudgetExceeded):
        solve(path_graph(10), K2, Mover.DOMINATOR, memo_cap=8)


def test_result_record_schema():
    g = cycle_graph(6)
    result = solve(g, K2, Mover.DOMINATOR, [1])
    record = result_record(g, K2, Mover.DOMINATOR, [1], result)
    assert list(record) == [
        "graph",
        "family",
        "start",
        "initial_marks",
        "value",
        "best_move",
        "principal_line",
    ]
    assert record["graph"] == encode_graph6(g)
    assert record["family"] == "K2"
    assert record["start"] == "D"
    assert record["initial_marks"] == [1]
    assert isinstance(record["value"], int)
    assert record["best_move"] is None or isinstance(record["best_move"], int)
    assert isinstance(record["principal_line"], list)


def test_partially_marked_solves():
    # pre-marking can only help the closure, never lengthen the game
    g = path_graph(7)
    base = solve(g, K2, Mover.DOMINATOR).value
    marked = solve(g, K2, Mover.DOMINATOR, [3]).value
    assert marked <= base
