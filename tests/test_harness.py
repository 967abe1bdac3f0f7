import hashlib
import inspect
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
from isogame.cli import _rows_to_csv
from isogame.harness import CHECKS, ceil_three_sevenths, check_defaults, find_witness

# small overrides per kind, so every registered runner executes quickly
SMALL_PARAMS = {
    CheckKind.DIFF_AT_MOST_ONE: {"n_max": 3},
    CheckKind.CONTINUATION_PRINCIPLE: {"orders": (4,), "trials": 3},
    CheckKind.SANDWICH: {"n_max": 3, "fams": ("P3",)},
    CheckKind.FAMILY_MONOTONE: {"n_max": 3},
    CheckKind.HALF_BOUND: {"n_min": 2, "n_max": 3},
    CheckKind.SPANNING_GAP: {"ns": (3,)},
    CheckKind.FOREST_MONOTONE: {
        "tree_n_max": 5, "pruefer_n_max": 4, "orders": (5,), "trials": 2,
    },
    CheckKind.PATH_BOUNDS: {"n_max": 8},
    CheckKind.PATH_EXACT: {"n_min": 7, "n_max": 8},
    CheckKind.STAR_ADDITION: {"orders": (4,), "trials": 2, "star_sizes": (1,)},
    CheckKind.FAMILY_VALUES: {},
    CheckKind.CONJECTURE_SWEEP: {"n_max": 4},
}


def test_every_check_kind_is_registered():
    assert set(CHECKS) == set(CheckKind) == set(SMALL_PARAMS)
    sampled = {
        CheckKind.CONTINUATION_PRINCIPLE, CheckKind.FOREST_MONOTONE, CheckKind.STAR_ADDITION
    }
    for kind, runner in CHECKS.items():
        # the sampled checks share their param names, so --trials and
        # --seed each set the param of their own name
        defaults = check_defaults(kind)
        assert ("trials" in defaults) == (kind in sampled), kind.value
        assert ({"orders", "trials", "seed"} <= set(defaults)) == (kind in sampled)
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
        run_check(CheckKind.SPANNING_GAP, ns=())
    with pytest.raises(BadSpec, match="does not accept jobs"):
        run_check("conjecture-sweep", jobs=1)


def test_forest_monotone_rejects_large_pruefer_orders_before_solving(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a tree was solved before the order was checked")

    monkeypatch.setattr(harness, "solve_both", no_solve)
    with pytest.raises(BudgetExceeded, match="capped"):
        run_check("forest-monotone", pruefer_n_max=12)


def test_forest_monotone_rejects_large_tree_orders_before_solving(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a tree was solved before the order was checked")

    monkeypatch.setattr(harness, "solve_both", no_solve)
    with pytest.raises(BudgetExceeded, match="tree classes capped at order 16, got 17"):
        run_check("forest-monotone", tree_n_max=17)


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
        orders=(5, 6),
        trials=10,
        seed=1,
    )
    assert report.ok
    assert report.instances == (1 + 1 + 3 + 16 + 125) + (6 + 11) + 20


def test_continuation_small_params():
    report = run_check(
        CheckKind.CONTINUATION_PRINCIPLE, orders=(4, 5), trials=30, seed=2
    )
    assert report.ok
    assert report.instances == 60


def test_star_addition_small_params():
    report = run_check(
        CheckKind.STAR_ADDITION, orders=(4, 5), trials=8, star_sizes=(1, 2), seed=3
    )
    assert report.ok
    for row in report.rows:
        base_d, union_d = row["d_value"]
        assert union_d > base_d


def test_randomized_checks_are_deterministic_for_a_seed():
    a = run_check(CheckKind.CONTINUATION_PRINCIPLE, orders=(4,), trials=20, seed=7)
    b = run_check(CheckKind.CONTINUATION_PRINCIPLE, orders=(4,), trials=20, seed=7)
    assert a.rows == b.rows
    c = run_check(CheckKind.CONTINUATION_PRINCIPLE, orders=(4,), trials=20, seed=8)
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


CATALOG_KINDS = (
    CheckKind.DIFF_AT_MOST_ONE,
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


# sha256 of (CSV rows, reproducible JSON) for every check at its default
# params; a refactor of the checks must leave both artifacts byte-identical,
# and a new or changed param shows up here because params are in the JSON
PINNED_DIGESTS = {
    "diff-at-most-one": (
        "5ce672d6e3ddbff3fcca3b8863bda87c26e1c96904a5fdfc29f3f3e199a1d79c",
        "92dba3049ce1fbb65e14820d8dc2acf79c481d8bee03ee335cf87e05fb72c60b",
    ),
    "continuation-principle": (
        "f3f5e3cbad1c2d359c699b88a14e46d5dcf2496be71bd31308005d7999dbeb97",
        "bcc0196c1b0868db04bc11b6e089b459b4c1443e2b1c8cedc892b41b3192e9e9",
    ),
    "sandwich": (
        "67af8faed112b1583872cebcac0c5aefef9dc4026984c419e647cf4e54d5181b",
        "5b81045717d439a13a0ce2f3ccf3ebdd0471631917d24a3e26ad4e3d7d2de790",
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
        "d0a748ae16823f4eefda6c4ab43de4507d303476877ab9be2925d9aacaa646d1",
    ),
    "forest-monotone": (
        "1bf649391de5b64fa3ccf18a2a356dda3b832e0074e52d610e96346ab458ccbf",
        "e99498dcd2650838f553c3c807d96183d5f086dbbdeb30c458aa4bf6ca78d6de",
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
        "080fed909671724f76bcda9a590e6c13e83dda53a134597e38a8ae87768c0a50",
        "770f30116f96b5d56598fc42060fec571a4feb69441d22f151d6805c28d93d04",
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
