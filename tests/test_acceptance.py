"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every stated tolerance is exact and every runtime budget is asserted.
"""

import hashlib
import time
from random import Random

from isogame import (
    Mover,
    close_marks,
    closed_neighborhood,
    complete_graph,
    cycle_graph,
    encode_graph6,
    enumerate_connected,
    f_triangles,
    g_star,
    g_triangles,
    h_graph,
    initial_closure,
    is_playable,
    isolation_number,
    mask_of,
    naive_game_value,
    parse_graph6,
    path_graph,
    single_edge_family,
    single_vertex_family,
    solve,
    solve_both,
    three_path_family,
    updated_marks,
)
from isogame.harness import (
    CheckKind,
    conjecture_sweep,
    find_witness,
    path_table,
    run_check,
)
from isogame.cli import _rows_to_csv
from isogame.rules import apply_move

K1 = single_vertex_family()
K2 = single_edge_family()
P3 = three_path_family()

D = Mover.DOMINATOR
S = Mover.STALLER


def test_criterion_1_paper_value_regression():
    t0 = time.perf_counter()
    h = h_graph()
    cases = [
        (cycle_graph(6), K2, D, 0, 3),
        (cycle_graph(6), K2, S, 0, 2),
        (path_graph(4), K2, S, 0, 2),
        (h, K2, D, 0, 5),
        (h, K2, S, 0, 5),
        (h, K2, D, mask_of([3]), 5),
        (h, K2, S, mask_of([3]), 5),
        (path_graph(7), K2, D, 0, 3),
        (g_triangles(3), K2, D, 0, 3),
        (f_triangles(3, 1), K2, D, 0, 2),
        (f_triangles(3, 2), K2, D, 0, 1),
        (f_triangles(3, 3), K2, D, 0, 1),
        (f_triangles(3, 3), K1, D, 0, 4),
    ]
    for g, fam, mover, marks, expected in cases:
        got = solve(g, fam, mover, marks).value
        assert got == expected, (g.label, fam.tag, mover, expected, got)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 1 PASS: 13 reference values exact ({elapsed:.2f}s)")


def test_criterion_2_path_table_6_to_23():
    t0 = time.perf_counter()
    rows = path_table(6, 23)
    exact_orders = []
    for row in rows:
        n = row["n"]
        assert row["lower"] == -(-2 * n // 5) - 1
        assert row["upper"] == (2 * n + 2) // 5
        assert row["lower"] <= row["d_value"] <= row["s_value"] <= row["upper"]
        if n % 5 in (1, 2, 3):
            exact_orders.append(n)
            assert row["d_value"] == row["s_value"] == row["upper"], row
    assert exact_orders == [6, 7, 8, 11, 12, 13, 16, 17, 18, 21, 22, 23]
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(
        f"criterion 2 PASS: paths 6..23 within bounds, {len(exact_orders)} exact "
        f"orders ({elapsed:.2f}s)"
    )


def test_criterion_3_star_of_paths_family():
    t0 = time.perf_counter()
    one = g_star(complete_graph(1))
    assert one.n == 7
    assert solve(one, K2, D).value == 3
    assert solve(one, K2, S).value == 3
    two = g_star(complete_graph(2))
    assert two.n == 14
    d, s = solve_both(two, K2)
    assert d.value == 6 and s.value == 6
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 3 PASS: star-of-paths values 3 and 6/6 ({elapsed:.2f}s)")


def test_criterion_4_exhaustive_theorem_suite_order_6():
    t0 = time.perf_counter()
    graphs = [g for n in range(1, 7) for g in enumerate_connected(n)]
    assert len(graphs) == 143
    checked = 0
    for g in graphs:
        n = g.n
        values = {}
        for fam in (K1, K2):
            iota = isolation_number(g, fam).size
            d, s = solve_both(g, fam)
            values[fam.tag] = d.value
            assert abs(d.value - s.value) <= 1, (encode_graph6(g), fam.tag)
            assert iota <= d.value <= max(2 * iota - 1, 0), (encode_graph6(g), fam.tag)
            assert iota <= s.value <= 2 * iota, (encode_graph6(g), fam.tag)
        assert values["K2"] <= values["K1"], encode_graph6(g)  # game vs domination
        assert 2 * values["K2"] <= n, encode_graph6(g)  # half-order bound
        p3_value = solve(g, P3, D).value
        assert p3_value <= values["K2"], encode_graph6(g)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"criterion 4 PASS: 6 bounds on {checked} graphs x 2 families ({elapsed:.2f}s)")


def test_criterion_5_oracle_equivalence_order_6():
    t0 = time.perf_counter()
    compared = 0
    for n in range(1, 7):
        for g in enumerate_connected(n):
            for fam in (K1, K2, P3):
                state = initial_closure(g, fam, 0)
                for mover in (D, S):
                    fast = solve(g, fam, mover).value
                    slow = naive_game_value(g, fam, state, mover)
                    assert fast == slow, (encode_graph6(g), fam.tag, mover)
                    compared += 1
    assert compared == 143 * 3 * 2
    elapsed = time.perf_counter() - t0
    print(f"criterion 5 PASS: {compared} solver/naive matches ({elapsed:.2f}s)")


def test_criterion_6_marking_order_independence():
    t0 = time.perf_counter()
    pairs = 0
    for n in range(2, 6):
        for g in enumerate_connected(n):
            for fam in (K1, K2, P3):
                start = initial_closure(g, fam, 0)
                for x in range(g.n):
                    if not is_playable(start, x):
                        continue
                    after_x = apply_move(start, fam, x)
                    for y in range(x + 1, g.n):
                        if not is_playable(start, y) or not is_playable(after_x, y):
                            continue
                        after_y = apply_move(start, fam, y)
                        if not is_playable(after_y, x):
                            continue
                        xy = apply_move(after_x, fam, y).marked
                        yx = apply_move(after_y, fam, x).marked
                        assert xy == yx, (encode_graph6(g), fam.tag, x, y)
                        pairs += 1
    rng = Random(0)
    pool = [g for n in range(2, 7) for g in enumerate_connected(n)]
    states = 0
    while states < 1000:
        g = rng.choice(pool)
        fam = (K1, K2, P3)[states % 3]
        marked = initial_closure(g, fam, 0).marked
        played = 0
        for _ in range(rng.randrange(1, g.n + 1)):
            options = [x for x in range(g.n) if g.closed[x] & ~marked]
            if not options:
                break
            x = rng.choice(options)
            played |= 1 << x
            marked = updated_marks(g, fam, marked, x)
        assert close_marks(g, fam, marked) == marked, "closure must be stable"
        direct = close_marks(g, fam, closed_neighborhood(g, played))
        assert marked == direct, "incremental and direct marking must agree"
        states += 1
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 6 PASS: {pairs} two-move prefixes and {states} reachable "
        f"states ({elapsed:.2f}s)"
    )


def test_criterion_7_forest_monotonicity():
    t0 = time.perf_counter()
    report = run_check(CheckKind.FOREST_MONOTONE)
    assert report.ok, report.violations[:3]
    # one forest per class of order 1..9 (OEIS A005195), every mark set
    assert report.instances == 308
    assert report.metadata == {"mark_sets": 104258}
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 7 PASS: D <= S at all {report.metadata['mark_sets']} mark sets "
        f"of {report.instances} forests ({elapsed:.2f}s)"
    )


def test_criterion_8_continuation_principle():
    t0 = time.perf_counter()
    report = run_check(CheckKind.CONTINUATION_PRINCIPLE)
    assert report.ok, report.violations[:3]
    # 143 connected graphs of order 1..6 under K1, K2 and P3
    assert report.instances == 429
    assert report.metadata == {"mark_sets": 23874, "steps": 70215}
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 8 PASS: every one-vertex addition to every mark set of "
        f"{report.instances} graph-family pairs ({elapsed:.2f}s)"
    )


def test_criterion_9_conjecture_sweep_order_8():
    t0 = time.perf_counter()
    report = conjecture_sweep(8)
    assert report.ok, report.violations[:3]
    assert report.instances == 2 + 6 + 21 + 112 + 853 + 11117
    witnesses = report.extremal[0]["equality_witnesses"]
    assert find_witness(witnesses, cycle_graph(6)) is not None
    assert find_witness(witnesses, path_graph(7)) is not None
    # the behaviour fingerprint: these rows are what
    # `isogame sweep --n-max 8 --format csv --reproducible` prints
    digest = hashlib.sha256(_rows_to_csv(report.rows).encode()).hexdigest()
    assert digest == "83dcc2ad36d2b7e3d10cdf88f756ca2210207d3994908e922e10df60cdb9612c"
    elapsed = time.perf_counter() - t0
    assert elapsed < 7200.0
    print(
        f"criterion 9 PASS: {report.instances} graphs within ceil(3n/7), "
        f"{len(witnesses)} equality witnesses incl. C6 and P7 ({elapsed:.1f}s)"
    )


def test_criterion_10_graph6_round_trip_order_8():
    t0 = time.perf_counter()
    count = 0
    for n in range(1, 9):
        for g in enumerate_connected(n):
            assert parse_graph6(encode_graph6(g)) == g
            count += 1
    assert count == 12113
    elapsed = time.perf_counter() - t0
    print(f"criterion 10 PASS: {count} graph6 round trips ({elapsed:.2f}s)")
