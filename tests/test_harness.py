import json

import pytest

import isogame.harness as harness
from isogame import (
    BadSpec,
    BudgetExceeded,
    CheckKind,
    GameResult,
    conjecture_sweep,
    cycle_graph,
    path_graph,
    run_check,
)
from isogame.harness import CHECKS, ceil_three_sevenths, find_witness

# small overrides per kind, so every registered runner executes quickly
SMALL_PARAMS = {
    CheckKind.DIFF_AT_MOST_ONE: {"n_max": 3},
    CheckKind.CONTINUATION_PRINCIPLE: {"orders": (4,), "trials_per_order": 3},
    CheckKind.SANDWICH: {"n_max": 3, "fams": ("P3",)},
    CheckKind.FAMILY_MONOTONE: {"n_max": 3},
    CheckKind.HALF_BOUND: {"n_min": 2, "n_max": 3},
    CheckKind.SPANNING_GAP: {"ns": (3,)},
    CheckKind.FOREST_MONOTONE: {
        "tree_n_max": 5, "pruefer_n_max": 4, "forest_orders": (5,), "forests_per_order": 2,
    },
    CheckKind.PATH_BOUNDS: {"n_max": 8},
    CheckKind.PATH_EXACT: {"n_min": 7, "n_max": 8},
    CheckKind.STAR_ADDITION: {"orders": (4,), "per_order": 2, "star_sizes": (1,)},
    CheckKind.FAMILY_VALUES: {},
    CheckKind.CONJECTURE_SWEEP: {"n_max": 4},
}


def test_every_check_kind_is_registered():
    assert set(CHECKS) == set(CheckKind) == set(SMALL_PARAMS)
    for spec in CHECKS.values():
        assert spec.trials is None or spec.trials in spec.defaults


@pytest.mark.parametrize("kind", list(CheckKind), ids=lambda k: k.value)
def test_run_check_echoes_merged_params(kind):
    params = SMALL_PARAMS[kind]
    report = run_check(kind, **params)
    assert report.ok
    assert report.params == {**CHECKS[kind].defaults, **params}


def test_run_check_rejects_unknown_params_and_empty_sets():
    with pytest.raises(BadSpec, match="trials"):
        run_check(CheckKind.FAMILY_VALUES, trials=1)
    with pytest.raises(BadSpec, match="no instances"):
        run_check(CheckKind.SPANNING_GAP, ns=())
    with pytest.raises(BadSpec, match="jobs"):
        conjecture_sweep(3, jobs=0)


def test_diff_at_most_one_small():
    report = run_check(CheckKind.DIFF_AT_MOST_ONE, n_max=4)
    assert report.ok
    assert report.instances == (1 + 1 + 2 + 6) * 2  # two families
    assert {row["family"] for row in report.rows} == {"K1", "K2"}


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


def test_forest_monotone_small_params():
    report = run_check(
        CheckKind.FOREST_MONOTONE,
        tree_n_max=7,
        pruefer_n_max=5,
        forest_orders=(5, 6),
        forests_per_order=10,
        seed=1,
    )
    assert report.ok
    assert report.instances == (1 + 1 + 3 + 16 + 125) + (6 + 11) + 20


def test_continuation_small_params():
    report = run_check(
        CheckKind.CONTINUATION_PRINCIPLE, orders=(4, 5), trials_per_order=30, seed=2
    )
    assert report.ok
    assert report.instances == 60


def test_star_addition_small_params():
    report = run_check(
        CheckKind.STAR_ADDITION, orders=(4, 5), per_order=8, star_sizes=(1, 2), seed=3
    )
    assert report.ok
    for row in report.rows:
        base_d, union_d = row["d_value"]
        assert union_d > base_d


def test_randomized_checks_are_deterministic_for_a_seed():
    a = run_check(CheckKind.CONTINUATION_PRINCIPLE, orders=(4,), trials_per_order=20, seed=7)
    b = run_check(CheckKind.CONTINUATION_PRINCIPLE, orders=(4,), trials_per_order=20, seed=7)
    assert a.rows == b.rows
    c = run_check(CheckKind.CONTINUATION_PRINCIPLE, orders=(4,), trials_per_order=20, seed=8)
    assert a.rows != c.rows


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
    report = run_check(CheckKind.SPANNING_GAP, ns=(3,))
    assert not report.ok
    assert all(v["observed"] == 99 for v in report.violations)
    assert {"graph6", "observed", "expected"} <= set(report.violations[0])


def test_report_summary_shapes():
    report = run_check(CheckKind.SPANNING_GAP, ns=(3,))
    payload = json.loads(report.to_json())
    assert payload["kind"] == "spanning-gap"
    assert payload["ok"] is True
    assert "wall_time_s" in payload and "generated_at" in payload
    stable = json.loads(report.to_json(reproducible=True))
    assert "wall_time_s" not in stable and "generated_at" not in stable


def test_sweep_jobs_gives_identical_rows():
    serial = conjecture_sweep(5)
    parallel = conjecture_sweep(5, jobs=2)
    assert serial.rows == parallel.rows
