import gc
import hashlib
import json
from random import Random

import pytest
from hypothesis import given, settings

from isogame import (
    ForbiddenFamily,
    GameResult,
    IllegalMove,
    IsolationGameError,
    MarkState,
    Mover,
    StateSpaceBudgetExceeded,
    TerminalState,
    apply_move,
    build_graph,
    close_marks,
    closed_neighborhood,
    complete_graph,
    components,
    contains_pattern,
    cycle_graph,
    encode_graph6,
    enumerate_connected,
    initial_closure,
    is_forbidden_component,
    is_isolating,
    is_playable,
    make_family,
    mask_list,
    mask_of,
    naive_best_moves,
    naive_game_value,
    optimal_moves,
    parse_forbidden,
    path_graph,
    result_record,
    single_edge_family,
    single_vertex_family,
    solve,
    solve_both,
    solve_values,
    three_path_family,
)
from isogame import solver
from isogame.oracle import game_values
from strategies import graphs_with_masks

K1 = single_vertex_family()
K2 = single_edge_family()
P3 = three_path_family()
P4 = parse_forbidden("custom:4:0-1,1-2,2-3")
K3_P4 = parse_forbidden("custom:3:0-1,1-2,0-2;custom:4:0-1,1-2,2-3")
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


def test_dominated_moves_skip_matches_naive_oracle():
    # the search skips a move when a neighbour's move is as good for the
    # mover (Continuation Principle over monotone closure); its values must
    # still equal the retrograde table, which tries every move, at every
    # mark set, and its optimal moves the table's from the closed empty
    # start and each closed one-vertex start, under each mode of closure
    fams = (K1, K2, P3, parse_forbidden("complete:3;path:4"))
    for n in range(1, 7):
        for g in enumerate_connected(n):
            for fam in fams:
                table = game_values(g, fam)
                shared = {"memo": {}, "closures": {}}
                for marks in range(1 << n):
                    for row, mover in enumerate(Mover):
                        where = (encode_graph6(g), fam.tag, marks, mover)
                        got = solve(g, fam, mover, marks, **shared).value
                        assert got == table[row][marks], where
                for start in [0] + [1 << v for v in range(n)]:
                    state = initial_closure(g, fam, start)
                    if state.is_terminal:
                        continue
                    for mover in Mover:
                        assert optimal_moves(g, fam, state, mover) == naive_best_moves(
                            g, fam, state, mover
                        ), (encode_graph6(g), fam.tag, start, mover)


@pytest.mark.parametrize(
    "spec, marks",
    # [3] is the drawing's v4, where gh copies are joined
    [("hgraph", []), ("hgraph", [3]), ("gh:1", []), ("gstar:complete:2", []),
     ("cycle:14", []), ("path:16", [])],
    ids=["hgraph", "hgraph-v4", "gh:1", "gstar:complete:2", "cycle:14", "path:16"],
)
def test_solver_matches_the_table_past_the_old_recursion_cap(spec, marks):
    # orders 12-16, out of reach of the unmemoised recursion at order <= 7
    g = make_family(spec)
    for fam in (K2, P3):
        d, s = solve_both(g, fam, marks)
        table = game_values(g, fam)
        assert (d.value, s.value) == (table[0][mask_of(marks)], table[1][mask_of(marks)])


def test_staller_skips_only_for_a_playable_neighbour():
    # {0, 1, 2} marked on P_6 is closed under K2 and leaves N[1] fully
    # marked. Vertex 1's empty unmarked neighbourhood lies inside vertex
    # 2's, but 1 is no move, so it must not make Staller skip 2, the only
    # move that leaves a live edge
    g = path_graph(6)
    state = MarkState(g, mask_of([0, 1, 2]))
    assert close_marks(g, K2, state.marked) == state.marked
    assert not is_playable(state, 1) and is_playable(state, 2)
    assert solve(g, K2, Mover.STALLER, state.marked).value == 2
    assert optimal_moves(g, K2, state, Mover.STALLER) == mask_of([2])
    assert naive_best_moves(g, K2, state, Mover.STALLER) == mask_of([2])
    assert solve(g, K2, Mover.DOMINATOR, state.marked).value == 1


def test_optimal_moves_rejects_terminal():
    g = complete_graph(1)
    with pytest.raises(TerminalState):
        optimal_moves(g, K2, initial_closure(g, K2, 0), Mover.DOMINATOR)


def test_optimal_moves_closes_the_root_first():
    # a hand-built state skips closure: {1} marked on P_3 leaves two quiet
    # singletons, so the closed state is terminal
    p3 = path_graph(3)
    with pytest.raises(TerminalState):
        optimal_moves(p3, K2, MarkState(p3, mask_of([1])), Mover.DOMINATOR)
    # the naive oracle closes its start the same way
    assert naive_game_value(p3, K2, MarkState(p3, mask_of([1])), Mover.DOMINATOR) == 0
    with pytest.raises(TerminalState):
        naive_best_moves(p3, K2, MarkState(p3, mask_of([1])), Mover.DOMINATOR)
    # {1, 5} on P_7 strands vertices 0 and 6; the search must start from
    # the closed marks, or near-only child closure misses them
    p7 = path_graph(7)
    state = MarkState(p7, mask_of([1, 5]))
    closed = initial_closure(p7, K2, state.marked)
    assert optimal_moves(p7, K2, state, Mover.DOMINATOR) == mask_of([2, 3, 4])
    assert naive_best_moves(p7, K2, closed, Mover.DOMINATOR) == mask_of([2, 3, 4])


def test_best_move_is_lowest_indexed_optimum():
    for g in enumerate_connected(5):
        for fam in (K1, K2):
            state = initial_closure(g, fam, 0)
            if state.is_terminal:
                continue
            for mover in (Mover.DOMINATOR, Mover.STALLER):
                result = solve(g, fam, mover, state.marked)
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
        result = solve(g, fam, mover, state.marked)
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
            solve(g, K2, mover, a.marked).value == solve(g, K2, mover, b.marked).value
        )


def test_matches_naive_oracle_small():
    for n in range(1, 6):
        for g in enumerate_connected(n):
            for fam in ALL_FAMS:
                state = initial_closure(g, fam, 0)
                for mover in (Mover.DOMINATOR, Mover.STALLER):
                    assert solve(g, fam, mover, state.marked).value == naive_game_value(
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
                    here = solve(g, fam, mover, state.marked).value
                    child_values = [
                        solve(g, fam, mover.other, c.marked).value for c in succ
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


@pytest.mark.parametrize(
    "spec, fam, stored",
    [
        ("path:13", K2, 110),
        ("cycle:12", K2, 98),
        ("hgraph", K2, 54),
        ("gh:1", K2, 54),
        ("cycle:10", P3, 26),
    ],
    ids=["path:13-K2", "cycle:12-K2", "hgraph-K2", "gh:1-K2", "cycle:10-P3"],
)
def test_table_size_is_pinned(spec, fam, stored):
    # both starts fill one bounds table with exactly these states; a test
    # stops at the first decisive child and skips dominated moves, and
    # once the table is large the root tries one move per orbit, so
    # children it never reached stay out of the table. Re-solving asks
    # only tests the table already answers, so it stores nothing more
    g = make_family(spec)
    memo = {}
    solve(g, fam, Mover.DOMINATOR, memo=memo)
    solve(g, fam, Mover.STALLER, memo=memo)
    assert len(memo) == stored
    solve(g, fam, Mover.DOMINATOR, memo=memo)
    assert len(memo) == stored


@settings(deadline=None)
@given(graphs_with_masks(max_n=7))
def test_stored_bounds_bracket_the_true_value(gm):
    # a test only ever tightens a state's bounds toward its exact value,
    # so every stored (lo, hi) must hold the naive oracle's value, and the
    # one-test-per-child walk must find every optimal move
    g, mask = gm
    for fam in ALL_FAMS:
        marked = close_marks(g, fam, mask)
        memo = {}
        solve(g, fam, Mover.DOMINATOR, marked, memo=memo)
        solve(g, fam, Mover.STALLER, marked, memo=memo)
        for (m, dom), (lo, hi) in memo.items():
            mover = Mover.DOMINATOR if dom else Mover.STALLER
            assert lo <= naive_game_value(g, fam, MarkState(g, m), mover) <= hi
        if marked == g.full_mask:
            continue
        state = MarkState(g, marked)
        for mover in (Mover.DOMINATOR, Mover.STALLER):
            assert optimal_moves(g, fam, state, mover) == naive_best_moves(
                g, fam, state, mover
            )


@settings(deadline=None)
@given(graphs_with_masks(max_n=6))
def test_naive_oracle_closes_its_start(gm):
    # a hand-built state may leave quiet components unmarked; the oracle
    # must close it first, as the solver does, and agree on its value
    g, mask = gm
    state = MarkState(g, mask)
    for fam in ALL_FAMS:
        for mover in (Mover.DOMINATOR, Mover.STALLER):
            want = solve(g, fam, mover, mask).value
            assert naive_game_value(g, fam, state, mover) == want
            if close_marks(g, fam, mask) == g.full_mask:
                with pytest.raises(TerminalState):
                    naive_best_moves(g, fam, state, mover)
            else:
                assert naive_best_moves(g, fam, state, mover) == optimal_moves(
                    g, fam, state, mover
                )


def test_memo_cap_is_enforced():
    with pytest.raises(StateSpaceBudgetExceeded):
        solve(path_graph(10), K2, Mover.DOMINATOR, memo_cap=8)


def test_memo_cap_bounds_the_closure_memo():
    # under K3+P4 on cycle:12 both starts store 32 bounds and 112 closures
    # (of pre-closure masks and of each searched component's complement,
    # the root's among them). The cap is checked before every new key, so
    # a cap of 60 or of 111 is met by the closure memo alone, and 112, the
    # least cap that passes, gives the usual values
    g = make_family("cycle:12")
    memo, closures = {}, {}
    for mover in (Mover.DOMINATOR, Mover.STALLER):
        solve(g, K3_P4, mover, memo=memo, closures=closures)
    assert (len(memo), len(closures)) == (32, 112)
    for cap in (60, 111):
        with pytest.raises(StateSpaceBudgetExceeded, match=f"closure memo exceeded {cap}"):
            solve_both(g, K3_P4, memo_cap=cap)
    capped = solve_both(g, K3_P4, memo_cap=112)
    assert capped == solve_both(g, K3_P4)
    assert [r.value for r in capped] == [3, 2]
    # a child whose unmarked part is one component C shares the key full ^ C
    # with C's own entry, so storing it adds no key: here too the least cap
    # that passes is the number of entries both starts hold
    for spec, held in (("cycle:5", 6), ("path:5", 7)):
        small = make_family(spec)
        with pytest.raises(StateSpaceBudgetExceeded, match=f"closure memo exceeded {held - 1} "):
            solve_both(small, K3_P4, memo_cap=held - 1)
        assert solve_both(small, K3_P4, memo_cap=held) == solve_both(small, K3_P4)
    # K1, K2 and P3 close by bit steps, so their solves leave the closure
    # memo empty
    for fam, stored in ((K1, 125), (K2, 98), (P3, 73)):
        memo, closures = {}, {}
        for mover in (Mover.DOMINATOR, Mover.STALLER):
            solve(g, fam, mover, memo=memo, closures=closures)
        assert (len(memo), len(closures)) == (stored, 0), fam.tag


def test_a_solve_leaves_nothing_for_the_cyclic_collector():
    # the search context and the pattern matcher call themselves through
    # closure cells; each clears its cell when it returns, so its tables
    # are freed by reference counting instead of staying until gc runs
    g = make_family("cycle:16")
    for fam in (K2, parse_forbidden("complete:3;path:4")):
        state = initial_closure(g, fam, 0)
        gc.collect()
        gc.disable()
        try:
            solve_both(g, fam)
            for mover in Mover:
                optimal_moves(g, fam, state, mover)
            assert gc.collect() == 0, fam.tag
        finally:
            gc.enable()


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


def test_marks_outside_the_graph_fail_loudly():
    # every root closure rejects marks the graph does not have instead of
    # solving a state that cannot exist: close_marks does, and so does the
    # solver's search-mode root, which closes through its memo instead
    g = path_graph(3)
    state = MarkState(path_graph(6), 1 << 5)
    calls = [
        lambda: solve(g, K2, Mover.DOMINATOR, [5]),
        lambda: solve_both(g, K2, [5]),
        lambda: solve(g, K3_P4, Mover.DOMINATOR, [5]),
        lambda: optimal_moves(g, K2, state, Mover.DOMINATOR),
        lambda: naive_game_value(g, K2, state, Mover.DOMINATOR),
        lambda: naive_best_moves(g, K2, state, Mover.STALLER),
        lambda: initial_closure(g, K2, [5]),
        lambda: close_marks(g, K2, 1 << 5),
    ]
    for call in calls:
        with pytest.raises(IsolationGameError, match=r"marks \[5\] out of range for order 3"):
            call()
    with pytest.raises(IsolationGameError, match="out of range"):
        close_marks(g, K2, -1)


@pytest.mark.parametrize(
    "call",
    [
        lambda g: closed_neighborhood(g, [5]),
        lambda g: components(g, 1 << 5 | 1),
        lambda g: contains_pattern(g, 1 << 5, path_graph(2)),
        lambda g: is_forbidden_component(g, 1 << 5, K2),
        lambda g: is_isolating(g, K2, [5]),
    ],
    ids=["closed_neighborhood", "components", "contains_pattern",
         "is_forbidden_component", "is_isolating"],
)
def test_vertex_sets_outside_the_graph_fail_loudly(call):
    # the public set functions raise a package error, not a bare IndexError
    with pytest.raises(IsolationGameError, match=r"\[5\] out of range for order 3"):
        call(path_graph(3))


@pytest.mark.parametrize("x", [-1, -5, 5], ids=["minus-one", "minus-n", "n"])
def test_moves_outside_the_graph_are_illegal(x):
    # a negative index must not alias vertex n + x
    state = initial_closure(path_graph(5), K2, 0)
    assert not is_playable(state, x)
    with pytest.raises(IllegalMove, match=rf"vertex {x} out of range for order 5"):
        apply_move(state, K2, x)


def test_negative_initial_marks_fail_loudly():
    g = cycle_graph(6)
    result = solve(g, K2, Mover.DOMINATOR)
    with pytest.raises(IsolationGameError, match="negative vertex mask -1"):
        result_record(g, K2, Mover.DOMINATOR, -1, result)
    with pytest.raises(IsolationGameError, match="negative vertex mask -1"):
        solve(g, K2, Mover.DOMINATOR, -1)


def test_quiet_memo_searches_each_component_once_per_solve(monkeypatch):
    # a component's quiet verdict depends only on the graph, the family
    # and its vertex mask, and the closure memo keeps it as the closure of
    # the component's complement, so one solve runs subgraph search at most once
    # per distinct component, the root's components included; edge mode
    # and P3 never search at all
    from isogame import rules, solver

    searched = []
    is_quiet = rules.is_forbidden_component
    solve_one = solver.solve

    def counting_is_quiet(g, comp, fam):
        searched[-1].append(comp)
        return is_quiet(g, comp, fam)

    def one_solve(*args, **kwargs):
        searched.append([])
        return solve_one(*args, **kwargs)

    monkeypatch.setattr(rules, "is_forbidden_component", counting_is_quiet)
    monkeypatch.setattr(solver, "solve", one_solve)
    cases = [
        ("cycle:20", [], (5, 5), 197),
        ("cycle:20", [0, 10], (3, 4), 86),
        ("gh:3", [3, 15, 27], (9, 9), 38),
    ]
    for spec, marks, values, count in cases:
        searched.clear()
        g = make_family(spec)
        d, s = solve_both(g, K3_P4, marks)
        assert (d.value, s.value) == values
        assert len(searched) == 2
        assert searched[0]
        # both starts share one closure memo, so none searches a component twice
        both = searched[0] + searched[1]
        assert len(both) == len(set(both)) == count
        for fam in (K2, P3):
            searched.clear()
            solve_both(g, fam, marks)
            assert searched == [[], []]


def test_two_pattern_search_family_matches_naive_oracle():
    # search mode: a component is quiet only when it holds neither a
    # triangle nor a P4. Each graph is solved under P3 first, so a
    # closure carried over from another family would show here
    assert K3_P4.mode == "search"
    for n in range(1, 7):
        for g in enumerate_connected(n):
            solve_both(g, P3)
            for mover, result in zip(
                (Mover.DOMINATOR, Mover.STALLER), solve_both(g, K3_P4)
            ):
                want = naive_game_value(g, K3_P4, MarkState(g, 0), mover)
                assert result.value == want, (encode_graph6(g), mover)


@pytest.mark.parametrize("spec", ["path:9", "cycle:10", "cycle:12", "gstar:complete:2"])
def test_search_families_solved_in_turn_match_fresh_solves(spec):
    # the two families give different results here, so a verdict carried
    # over from the other family would change a value or a line
    fresh_p3 = solve_both(make_family(spec), P3)
    fresh_k3_p4 = solve_both(make_family(spec), K3_P4)
    assert fresh_p3 != fresh_k3_p4
    g = make_family(spec)
    assert solve_both(g, P3) == fresh_p3
    assert solve_both(g, K3_P4) == fresh_k3_p4
    assert solve_both(g, P3) == fresh_p3


@pytest.mark.parametrize("fam", [P4, K3_P4], ids=["P4", "K3+P4"])
def test_closure_memo_closes_each_pre_mask_once(monkeypatch, fam):
    # a child's closure depends only on its pre-closure mask marked | N[x],
    # so in search mode both starts of one solve_both close each such
    # mask at most once, however many tests expand its parent: no
    # component is grown twice from the same seed in the same unmarked part
    from isogame import rules

    grown = []
    component_of = rules.component_of

    def counting_component_of(g, seed, active):
        grown.append((seed, active))
        return component_of(g, seed, active)

    monkeypatch.setattr(rules, "component_of", counting_component_of)
    for spec in ("cycle:20", "gstar:complete:2", "path:13"):
        grown.clear()
        solve_both(make_family(spec), fam)
        assert grown
        assert len(grown) == len(set(grown)), spec


def test_solve_both_reads_one_shot_marks_once():
    # both starts must see the marks, so a one-shot iterable is read once
    g = path_graph(7)
    for fam in (K2, K3_P4):
        assert solve_both(g, fam, iter([0])) == solve_both(g, fam, [0])
    assert [r.value for r in solve_both(g, K2, iter([0]))] == [2, 2]


def test_empty_family_closes_by_subgraph_search():
    # with no pattern every component is vacuously quiet, which subgraph
    # search decides with no mode of its own: one search empties the game
    empty = ForbiddenFamily((), "empty")
    assert empty.mode == "search"
    g = cycle_graph(5)
    for marks in (0, 1, 0b10100, g.full_mask):
        assert close_marks(g, empty, marks) == g.full_mask
    assert solve_both(g, empty, [2]) == (GameResult(0, None, ()), GameResult(0, None, ()))


def test_solve_both_equals_two_fresh_solves():
    # the shared context changes only how often work is done: values and
    # principal lines match a solve of each start with its own context
    for n in range(1, 7):
        for g in enumerate_connected(n):
            for fam in (K1, K2, P3, K3_P4):
                assert solve_both(g, fam) == (
                    solve(g, fam, Mover.DOMINATOR), solve(g, fam, Mover.STALLER)
                ), (encode_graph6(g), fam.tag)


def test_solve_values_reads_the_values_of_solve_both():
    # the same search with no principal line, from any start and under
    # every closure mode
    for n in range(1, 7):
        for g in enumerate_connected(n):
            for fam in (K1, K2, P3, K3_P4):
                for marks in (0, 1, g.full_mask & 0b101):
                    d, s = solve_both(g, fam, marks)
                    assert solve_values(g, fam, marks) == (d.value, s.value)
    g = path_graph(7)
    assert solve_values(g, K2, iter([0])) == (2, 2)


def test_values_and_optimal_moves_do_not_depend_on_vertex_labels():
    # the table and closure memo are keyed by vertex masks, so a relabelled
    # graph fills different keys; values must not change, and the optimal
    # moves of the closed empty start must map through the permutation
    rng = Random(21)
    fams = (K1, K2, P3, parse_forbidden("complete:3;path:4"))
    for n in range(1, 8):
        for g in enumerate_connected(n):
            perm = list(range(n))
            rng.shuffle(perm)
            h = build_graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
            for fam in fams:
                where = (encode_graph6(g), perm, fam.tag)
                values = [r.value for r in solve_both(g, fam)]
                assert [r.value for r in solve_both(h, fam)] == values, where
                start_g, start_h = initial_closure(g, fam, 0), initial_closure(h, fam, 0)
                if start_g.is_terminal:
                    assert start_h.is_terminal, where
                    continue
                for mover in Mover:
                    moves = optimal_moves(g, fam, start_g, mover)
                    mapped = mask_of(perm[x] for x in mask_list(moves))
                    assert optimal_moves(h, fam, start_h, mover) == mapped, where


def test_values_and_lines_are_pinned():
    # a refactor of closure, the table or the search must keep every value
    # and principal line: this digest pins both starts over the small
    # catalog and five named instances, unmarked and with vertex 0 marked
    named = ("cycle:16", "cycle:20", "gh:1", "gstar:complete:2", "path:13")
    graphs = [g for n in range(1, 7) for g in enumerate_connected(n)]
    graphs += [make_family(spec) for spec in named]
    records = []
    for fam in (K1, K2, P3, parse_forbidden("complete:3;path:4")):
        for g in graphs:
            for marks in ([], [0]):
                d, s = solve_both(g, fam, marks)
                records.append([encode_graph6(g), fam.tag, marks, d.value,
                                list(d.principal_line), s.value, list(s.principal_line)])
    assert len(records) == 1184
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == "b6856b9e8a1b221327b6690106e1f63c728c20192f208be7a5baa7d5f3d7dcd3"


def _count_orbit_searches(monkeypatch):
    # the root's orbit search runs through solver._root_leaders; count the
    # searches behind its one-entry cache
    searches = []
    search = solver.vertex_orbit_leaders
    monkeypatch.setattr(
        solver, "vertex_orbit_leaders", lambda g, fixed: searches.append(fixed) or search(g, fixed)
    )
    solver._root_leaders.cache_clear()
    return searches


def test_orbit_root_runs_once_the_table_is_large(monkeypatch):
    # cycle:24 fills the table past 4n states within the first root tests,
    # so the root switches to one move per orbit, and both starts share
    # one orbit search of the closed root; a small game never switches
    searches = _count_orbit_searches(monkeypatch)
    assert [r.value for r in solve_both(make_family("cycle:24"), K2)] == [9, 9]
    assert searches == [0]
    searches.clear()
    solver._root_leaders.cache_clear()
    assert [r.value for r in solve_both(make_family("cycle:6"), K2)] == [3, 2]
    assert searches == []


def test_orbit_root_keeps_every_value_and_line(monkeypatch):
    # with the switch forced from the first failed root test, both starts
    # over the catalog to order 7 under four families, unmarked and from
    # every one-vertex start, give the values and principal lines of the
    # search that tries every root move
    monkeypatch.setattr(solver, "ROOT_ORBIT_STATES", -1)
    searches = _count_orbit_searches(monkeypatch)
    fams = (K1, K2, P3, parse_forbidden("complete:3;path:4"))
    records = []
    for n in range(1, 8):
        for g in enumerate_connected(n):
            for fam in fams:
                for marks in [[], *([v] for v in range(n))]:
                    d, s = solve_both(g, fam, marks)
                    records.append([encode_graph6(g), fam.tag, marks, d.value,
                                    list(d.principal_line), s.value, list(s.principal_line)])
    assert len(records) == 31108
    assert len(searches) > 10000
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == "d8315c956a2a80c8ea9eabd3804c7bb63eb09cf6beef5705ea65b8dcf99c15c1"


@pytest.mark.parametrize(
    "spec, fam",
    [("cycle:14", K2), ("cycle:16", P3), ("path:16", K2), ("gh:1", K2), ("cycle:12", K3_P4)],
    ids=["cycle:14-K2", "cycle:16-P3", "path:16-K2", "gh:1-K2", "cycle:12-K3_P4"],
)
def test_orbit_root_matches_the_table(monkeypatch, spec, fam):
    # marks that break the symmetry leave a smaller stabiliser, so orbits
    # of the unmarked graph would skip moves that have no image; the table
    # holds both starts' values at every mark set
    monkeypatch.setattr(solver, "ROOT_ORBIT_STATES", -1)
    searches = _count_orbit_searches(monkeypatch)
    g = make_family(spec)
    dom, stall = game_values(g, fam)
    for marks in (0, 1, 0b11, 0b1001, 0b100101, 1 << g.n - 1 | 0b110):
        d, s = solve_both(g, fam, marks)
        assert (d.value, s.value) == (dom[marks], stall[marks]), (spec, marks)
    assert searches
