import hashlib
import inspect
import json
from collections import Counter

import pytest

import isogame.harness as harness
from isogame import (
    BadSpec,
    BudgetExceeded,
    CheckKind,
    GameResult,
    canonical_form,
    components,
    conjecture_sweep,
    cycle_graph,
    disjoint_union,
    mask_of,
    parse_forbidden,
    parse_graph6,
    path_graph,
    run_check,
    star_graph,
)
from isogame.cli import _rows_to_csv
from isogame.harness import CHECKS, ceil_three_sevenths, check_defaults, find_witness

# small overrides per kind, so every registered runner executes quickly
SMALL_PARAMS = {
    CheckKind.DIFF_AT_MOST_ONE: {"n_max": 3},
    CheckKind.CONTINUATION_PRINCIPLE: {"n_max": 4},
    CheckKind.SANDWICH: {"n_max": 3},
    CheckKind.FAMILY_MONOTONE: {"n_max": 3},
    CheckKind.HALF_BOUND: {"n_min": 2, "n_max": 3},
    CheckKind.SPANNING_GAP: {},
    CheckKind.FOREST_MONOTONE: {"n_max": 5},
    CheckKind.PATH_BOUNDS: {"n_max": 8},
    CheckKind.PATH_EXACT: {"n_min": 7, "n_max": 8},
    CheckKind.STAR_ADDITION: {"n_max": 4},
    CheckKind.FAMILY_VALUES: {},
    CheckKind.CONJECTURE_SWEEP: {"n_max": 4},
}


def test_every_check_kind_is_registered():
    assert set(CHECKS) == set(CheckKind) == set(SMALL_PARAMS)
    for kind, runner in CHECKS.items():
        # no check samples: every param is an order bound, set by the
        # verify flag of its own name
        assert set(check_defaults(kind)) <= {"n_min", "n_max"}, kind.value
        # every param the runner takes has a default, so run_check can
        # call it with no params at all
        params = inspect.signature(runner).parameters.values()
        assert all(p.default is not p.empty for p in params)


@pytest.mark.parametrize("kind", list(CheckKind), ids=lambda k: k.value)
def test_run_check_echoes_merged_params(kind):
    params = SMALL_PARAMS[kind]
    report = run_check(kind, **params)
    assert report.ok
    assert report.params == {**check_defaults(kind), **params}


def test_run_check_rejects_unknown_params_and_empty_sets():
    with pytest.raises(BadSpec, match="trials"):
        run_check(CheckKind.FAMILY_VALUES, trials=1)
    with pytest.raises(BadSpec, match="no instances"):
        run_check(CheckKind.CONTINUATION_PRINCIPLE, n_min=5, n_max=4)
    with pytest.raises(BadSpec, match="does not accept jobs"):
        run_check("conjecture-sweep", jobs=1)


@pytest.mark.parametrize("value", [None, "3", 2.5, True, 7.0])
@pytest.mark.parametrize("kind", ["forest-monotone", "star-addition", "half-bound"])
def test_run_check_rejects_a_param_that_is_not_an_int(monkeypatch, kind, value):
    # a report must replay from the flags it records, and each flag reads
    # an int; True would run order 1 and be recorded as true
    def no_table(*args, **kwargs):
        raise AssertionError("ran before the param type was checked")

    for name in ("game_values", "solve_both", "solve"):
        monkeypatch.setattr(harness, name, no_table)
    with pytest.raises(BadSpec, match=rf"check {kind} needs an integer n_max, got {value!r}"):
        run_check(kind, n_max=value)


def test_diff_at_most_one_small():
    report = run_check(CheckKind.DIFF_AT_MOST_ONE, n_max=4)
    assert report.ok
    assert report.instances == (1 + 1 + 2 + 6) * 3  # three families
    assert {row["family"] for row in report.rows} == {"K1", "K2", "P3"}
    # every mark set of every graph, under each family
    assert report.metadata == {"mark_sets": 3 * (2 + 4 + 2 * 8 + 6 * 16)}


def test_diff_at_most_one_reports_a_widened_gap(monkeypatch):
    # a table whose Staller value outruns the Dominator value by two at
    # every mark set where it led by one
    real_values = harness.game_values

    def widened(g, fam):
        dom, stal = real_values(g, fam)
        return dom, tuple(s + (s - d == 1) for d, s in zip(dom, stal))

    monkeypatch.setattr(harness, "game_values", widened)
    report = run_check(CheckKind.DIFF_AT_MOST_ONE, n_max=4)
    assert not report.ok
    assert any(v["marks"] for v in report.violations), "marked states are walked"
    for v in report.violations:
        assert v["expected"] == "|d-s|<=1"
        # the finding replays with two table reads
        dom, stal = widened(parse_graph6(v["graph6"]), parse_forbidden(v["family"]))
        m = mask_of(v["marks"])
        assert v["observed"] == (dom[m], stal[m]) and stal[m] - dom[m] == 2


def test_sandwich_small():
    report = run_check(CheckKind.SANDWICH, n_max=4)
    assert report.ok
    for row in report.rows:
        assert row["iota"] <= row["d_value"] <= row["d_upper"]


def test_family_monotone_small():
    report = run_check(CheckKind.FAMILY_MONOTONE, n_max=5)
    assert report.ok
    assert report.extremal, "the largest gamma gap is reported"


def test_half_bound_reports_sharp_instances():
    report = run_check(CheckKind.HALF_BOUND, n_max=6)
    assert report.ok
    sharp = find_witness(report.extremal, cycle_graph(6))
    assert sharp is not None and sharp["d_value"] == 3


def test_spanning_gap_values():
    report = run_check(CheckKind.SPANNING_GAP)
    assert report.ok
    assert report.instances == 8  # n=3: G_3,F_1,F_2,F_3; n=4: G_4,F_1..F_3


def test_family_values_check():
    report = run_check(CheckKind.FAMILY_VALUES)
    assert report.ok
    assert report.metadata["gh_base"] == "path"


def test_forest_range_yields_one_forest_per_class():
    forests = list(harness._forest_range(1, 8))
    # OEIS A005195: forests with n unlabelled vertices
    assert Counter(g.n for g in forests) == {1: 1, 2: 2, 3: 3, 4: 6, 5: 10, 6: 20, 7: 37, 8: 76}
    assert len({canonical_form(g) for g in forests}) == len(forests)
    for g in forests:
        edges = sum(map(int.bit_count, g.adj)) // 2
        assert edges == g.n - len(components(g, g.full_mask)), "acyclic"


@pytest.mark.parametrize(
    "kind, cap", [(CheckKind.FOREST_MONOTONE, 16), (CheckKind.STAR_ADDITION, 12)],
    ids=lambda k: getattr(k, "value", k),
)
def test_forest_order_range_fails_before_any_table(monkeypatch, kind, cap):
    # the game table stops at order 16, and star-addition also reads the
    # table of each forest joined with a 4-vertex star
    def no_table(*args, **kwargs):
        raise AssertionError("built a table before the order range was checked")

    monkeypatch.setattr(harness, "game_values", no_table)
    with pytest.raises(BudgetExceeded, match=rf"capped at order {cap}, got n_max={cap + 1}"):
        run_check(kind, n_max=cap + 1)
    with pytest.raises(BadSpec, match="n_min must be at least 1, got 0"):
        run_check(kind, n_min=0)


def test_forest_monotone_small_params():
    report = run_check(CheckKind.FOREST_MONOTONE, n_min=4, n_max=6)
    assert report.ok
    # one row per forest of order 4..6, each with every mark set
    assert report.instances == 6 + 10 + 20
    assert report.metadata == {"mark_sets": 6 * 16 + 10 * 32 + 20 * 64}
    assert {row["n"] for row in report.rows} == {4, 5, 6}


def test_forest_monotone_reports_a_longer_dominator_game(monkeypatch):
    # lengthen the live Dominator games whose marks hold vertex 0
    real_values = harness.game_values

    def lengthened(g, fam):
        dom, stal = real_values(g, fam)
        return tuple(d + 1 if m & 1 and d else d for m, d in enumerate(dom)), stal

    monkeypatch.setattr(harness, "game_values", lengthened)
    report = run_check(CheckKind.FOREST_MONOTONE, n_max=4)
    assert not report.ok
    first = report.violations[0]
    # K1 + K2 with the isolated vertex marked: D and S both 1 on the edge
    assert (first["graph6"], first["marks"], first["observed"]) == ("BG", [0], (2, 1))
    for v in report.violations:
        assert 0 in v["marks"] and v["expected"] == "d<=s"
        # the finding replays with two table reads
        dom, stal = lengthened(parse_graph6(v["graph6"]), parse_forbidden(v["family"]))
        m = mask_of(v["marks"])
        assert v["observed"] == (dom[m], stal[m]) and dom[m] > stal[m]


def test_continuation_small_params():
    report = run_check(CheckKind.CONTINUATION_PRINCIPLE, n_max=4)
    assert report.ok
    # one row per graph and family: 1 + 1 + 2 + 6 graphs under K1, K2, P3
    assert report.instances == 10 * 3
    # every mark set of an order-n graph, each with its n - |B| additions
    orders = [1, 2, 3, 3] + [4] * 6
    assert report.metadata == {
        "mark_sets": 3 * sum(2**n for n in orders),
        "steps": 3 * sum(n * 2 ** (n - 1) for n in orders),
    }


@pytest.mark.parametrize("start", ["D", "S"])
def test_continuation_reports_a_longer_game_after_one_more_mark(monkeypatch, start):
    # lengthen the live games of one start whose marks hold vertex 0, so
    # adding vertex 0 to a mark set without it makes that start's game longer
    real_values = harness.game_values
    row = "DS".index(start)

    def lengthened(g, fam):
        table = list(real_values(g, fam))
        table[row] = tuple(v + 1 if m & 1 and v else v for m, v in enumerate(table[row]))
        return tuple(table)

    monkeypatch.setattr(harness, "game_values", lengthened)
    report = run_check(CheckKind.CONTINUATION_PRINCIPLE, n_max=4)
    assert not report.ok
    first = report.violations[0]
    assert (first["graph6"], first["family"], first["b_marks"], first["added"]) == (
        "A_", "K1", [], 0
    )
    for v in report.violations:
        assert v["added"] == 0 and 0 not in v["b_marks"]
        assert v["expected"] == "a<=b both movers"
        ad, bd, a_s, bs = v["observed"]
        assert (ad > bd, a_s > bs) == (start == "D", start == "S")
        # the finding replays with two table reads
        g, fam = parse_graph6(v["graph6"]), parse_forbidden(v["family"])
        b, values = mask_of(v["b_marks"]), lengthened(g, fam)[row]
        replayed = (values[b | 1], values[b])
        assert replayed == ((ad, bd) if start == "D" else (a_s, bs))


def test_star_addition_small_params():
    report = run_check(CheckKind.STAR_ADDITION, n_max=4)
    assert report.ok
    # each forest of order 1..4 with each of three stars
    assert report.instances == 3 * (1 + 2 + 3 + 6)
    assert report.metadata == {"mark_sets": 3 * (2 + 2 * 4 + 3 * 8 + 6 * 16)}
    for row in report.rows:
        base_d, union_d = row["d_value"]
        base_s, union_s = row["s_value"]
        assert union_d > base_d and union_s > base_s


def test_star_addition_reports_a_union_that_does_not_grow(monkeypatch):
    # a table that stops growing at 2 leaves a union's value unchanged
    real_values = harness.game_values

    def capped(g, fam):
        return tuple(tuple(min(v, 2) for v in row) for row in real_values(g, fam))

    monkeypatch.setattr(harness, "game_values", capped)
    report = run_check(CheckKind.STAR_ADDITION, n_max=4)
    assert not report.ok
    assert any(v["marks"] for v in report.violations), "marked states are walked"
    for v in report.violations:
        # the finding replays with one table read of the forest and one of
        # its union with the star
        g, fam = parse_graph6(v["graph6"]), parse_forbidden(v["family"])
        union = disjoint_union(g, star_graph(v["star_leaves"]))
        m = mask_of(v["marks"])
        (bd, bs), (ud, us) = ((t[0][m], t[1][m]) for t in (capped(g, fam), capped(union, fam)))
        assert v["observed"] == (ud, us) and v["expected"] == f"> ({bd}, {bs})"
        assert not (ud > bd and us > bs)


def test_path_checks():
    bounds = run_check(CheckKind.PATH_BOUNDS, n_min=6, n_max=12)
    assert bounds.ok
    exact = run_check(CheckKind.PATH_EXACT, n_min=6, n_max=12)
    assert exact.ok
    assert exact.metadata["exact_orders"] == [6, 7, 8, 11, 12]


def test_path_table_bounds_and_budget():
    rows = harness.path_table(6, 8)
    assert [r["n"] for r in rows] == [6, 7, 8]
    assert all(r["exact"] for r in rows)
    with pytest.raises(BudgetExceeded):
        harness.path_table(5, 8)
    with pytest.raises(BudgetExceeded):
        harness.path_table(6, 24)


def test_conjecture_sweep_small():
    report = conjecture_sweep(5)
    assert report.ok
    assert report.metadata["skipped_orders"] == [1, 2]
    witnesses = report.extremal[0]["equality_witnesses"]
    # the Staller-start game on P_4 reaches ceil(12/7) = 2
    p4 = find_witness(witnesses, path_graph(4))
    assert p4 is not None and p4["s_value"] == 2
    assert report.extremal[0]["max_ratio"] <= 1.0


def test_conjecture_sweep_budget():
    with pytest.raises(BudgetExceeded):
        conjecture_sweep(9)


CATALOG_KINDS = (
    CheckKind.DIFF_AT_MOST_ONE,
    CheckKind.CONTINUATION_PRINCIPLE,
    CheckKind.SANDWICH,
    CheckKind.FAMILY_MONOTONE,
    CheckKind.HALF_BOUND,
    CheckKind.CONJECTURE_SWEEP,
)


@pytest.mark.parametrize("kind", CATALOG_KINDS, ids=lambda k: k.value)
def test_catalog_order_range_fails_before_any_solve(monkeypatch, kind):
    # an order outside the catalog must fail at once, not after every
    # smaller order has been solved
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the order range was checked")

    monkeypatch.setattr(harness, "solve_both", no_solve)
    monkeypatch.setattr(harness, "solve", no_solve)
    monkeypatch.setattr(harness, "game_values", no_solve)
    with pytest.raises(BudgetExceeded, match="capped.*n_max"):
        run_check(kind, n_max=9)
    if "n_min" in check_defaults(kind):
        with pytest.raises(BadSpec, match="n_min"):
            run_check(kind, n_min=0)


def test_ceiling_helper():
    assert ceil_three_sevenths(6) == 3
    assert ceil_three_sevenths(7) == 3
    assert ceil_three_sevenths(8) == 4


def test_violations_are_recorded_and_flagged(monkeypatch):
    # sabotage the solver so the spanning-gap expectations fail, proving
    # the violation plumbing and the ok flag react
    def wrong_solve(g, fam, mover, marks=0, **kwargs):
        return GameResult(99, 0, tuple())

    monkeypatch.setattr(harness, "solve", wrong_solve)
    report = run_check(CheckKind.SPANNING_GAP)
    assert not report.ok
    assert all(v["observed"] == 99 for v in report.violations)
    assert {"graph6", "observed", "expected"} <= set(report.violations[0])


def test_report_summary_shapes():
    report = run_check(CheckKind.SPANNING_GAP)
    payload = json.loads(report.to_json())
    assert payload["kind"] == "spanning-gap"
    assert payload["ok"] is True
    assert "wall_time_s" in payload and "generated_at" in payload
    stable = json.loads(report.to_json(reproducible=True))
    assert "wall_time_s" not in stable and "generated_at" not in stable


# sha256 of (CSV rows, reproducible JSON) for every check at its default
# params; a refactor of the checks must leave both artifacts byte-identical,
# and a new or changed param shows up here because params are in the JSON
PINNED_DIGESTS = {
    "diff-at-most-one": (
        "f24da02dd16b390f601080159454096d53e4dd559d2ee8b6b0864cb846eb6519",
        "038efe50921695b3039270d3f48bdb44f084bc9302b2f40f8de06ba38894dd11",
    ),
    "continuation-principle": (
        "61afd1aac5e92e11256a2535138e6d334a0fe64f7b8685f05c5599fe43a371d2",
        "2491c5761ef7d43169d90c213b5a5b00f075348a034978f2091df14ffe7b0116",
    ),
    "sandwich": (
        "67af8faed112b1583872cebcac0c5aefef9dc4026984c419e647cf4e54d5181b",
        "053e6e3c913a9fb97fdd49b45d5defe92658cf773a6cea696b41066eff93c0b5",
    ),
    "family-monotone": (
        "3679df5653d845e575310e2b60c3e3afc78d643e2cc7d05dc247d0cef6ad295f",
        "f19d52c44ab5087697545c026e3bc845d4f252a79c36d97e8be86fb26f86fd3c",
    ),
    "half-bound": (
        "f98108921a2e0592fe867eba2b879c202f61a3c7c442c6607a723eafb589598e",
        "e4b62483d597cd94d19948d271d8d4b39b9f51442017abdf7f068be6a2fc57ce",
    ),
    "spanning-gap": (
        "27f72a322e2b7c9d15e4022a610751808345ce3f475b462789cf08eab80ad745",
        "2d5b826ace33e6f6ac9a1af24a5aa8f288958dea478028e30f2e66876f5dba29",
    ),
    "forest-monotone": (
        "c5ab08b0e2274dec9776971e9e37c1cc62e7478d3be528f71574cd24ff129871",
        "a541ae39eece912a30864cdcc59f6478e6b6992ae7d452a38d4610253f026e39",
    ),
    "path-bounds": (
        "76ca341e251aaa0c68ebc1c30aa6f30a9f793ad5680801a27d30db59328d1f86",
        "8824ca1454fb4f9258165d02876498b74e62388971ee1beb5c48dcdbe7fb5315",
    ),
    "path-exact": (
        "76ca341e251aaa0c68ebc1c30aa6f30a9f793ad5680801a27d30db59328d1f86",
        "bb7da4127ceb95968a3bf95421c4beb65b97b6e3eb9769746960c0157eeef1ef",
    ),
    "star-addition": (
        "b2b61eb51494b943c179bc0b2426e24e61d00fa3055057ab40592285a8cb3930",
        "764856cb4a6676f5695284d3bd2fe6bb6f8eccda68ef4f0bfdd59c64854c022d",
    ),
    "family-values": (
        "7d2b7fb7cf824c8986bcc8dd93ac3fd830e6ba1de44a9fcd5c91353a410079cf",
        "e70c7516a3f9e7d7301c8a5afffd06f8d23f8af8915c8176f4f432139e636f3f",
    ),
    "conjecture-sweep": (
        "5025384d37008f5c13feb6b35cbe514b8c7bbbc0d94bcf9cb484530363c7039e",
        "bb2cd74ced357f58e72b2c5cc6996ad754e077bc7fedba05e001cff0a4b11659",
    ),
}


@pytest.mark.parametrize("kind", list(CheckKind), ids=lambda k: k.value)
def test_check_artifacts_are_pinned(kind):
    report = run_check(kind)
    digests = tuple(
        hashlib.sha256(text.encode()).hexdigest()
        for text in (_rows_to_csv(report.rows), report.to_json(reproducible=True))
    )
    assert digests == PINNED_DIGESTS[kind.value]
