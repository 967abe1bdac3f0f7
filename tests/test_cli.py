import csv
import io
import json
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

import isogame.harness as harness
from isogame import CheckKind, GameResult, encode_graph6, path_graph
from isogame.cli import main
from isogame.harness import CHECKS, check_defaults

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
README = ROOT / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_family_plain(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--family", "cycle:6", "--forbidden", "K2", "--start", "D"
    )
    assert code == 0
    assert out == "value=3\n"


def test_solve_hgraph_with_named_mark(capsys):
    code, out, _ = run_cli(
        capsys,
        "solve", "--family", "hgraph", "--forbidden", "K2",
        "--start", "S", "--marks", "v4",
    )
    assert code == 0
    assert out == "value=5\n"


def test_solve_json_record(capsys):
    code, out, _ = run_cli(
        capsys,
        "solve", "--family", "path:4", "--start", "S", "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["value"] == 2
    assert record["family"] == "K2"
    assert record["start"] == "S"
    assert record["graph"] == encode_graph6(path_graph(4))
    assert set(record) == {
        "graph", "family", "start", "initial_marks", "value", "best_move",
        "principal_line",
    }


def test_solve_graph6_literal(capsys):
    code, out, _ = run_cli(capsys, "solve", "--graph6", "C~", "--start", "D")
    assert code == 0
    assert out == "value=1\n"


def test_solve_graph6_file(tmp_path, capsys):
    path = tmp_path / "graphs.g6"
    path.write_text("C~\nA_\n")
    code, out, _ = run_cli(capsys, "solve", "--graph6-file", str(path), "--start", "D")
    assert code == 0
    assert out == "value=1\nvalue=1\n"


def test_solve_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--family", "cycle:6", "--start", "D", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["value"] == "3"
    assert rows[0]["principal_line"] == "0 1 2"


def test_solve_rejects_out_of_range_marks(capsys):
    code, _, err = run_cli(
        capsys, "solve", "--family", "path:4", "--marks", "v9", "--start", "D"
    )
    assert code == 1
    assert "out of range" in err


def test_usage_error_exits_one(capsys):
    code, _, err = run_cli(capsys, "solve", "--start", "D")
    assert code == 1
    assert "error" in err


def test_bad_graph6_exits_one(capsys):
    code, _, err = run_cli(capsys, "solve", "--graph6", "C", "--start", "D")
    assert code == 1
    assert "error" in err


def test_verify_path_exact_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--check", "path-exact", "--n-min", "6", "--n-max", "12",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    exact = [r["n"] for r in rows if r["exact"] == "True"]
    assert exact == ["6", "7", "8", "11", "12"]


def test_verify_plain_summary(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "spanning-gap")
    assert code == 0
    assert "check=spanning-gap" in out and "violations=0" in out


def test_verify_violation_exits_two(monkeypatch, capsys):
    def wrong_solve(g, fam, mover, marks=0, **kwargs):
        return GameResult(99, 0, tuple())

    monkeypatch.setattr(harness, "solve", wrong_solve)
    code, out, _ = run_cli(capsys, "verify", "--check", "spanning-gap")
    assert code == 2
    assert "ok=False" in out


def test_verify_reproducible_json_is_byte_stable(capsys):
    args = (
        "verify", "--check", "continuation-principle", "--trials", "10",
        "--seed", "4", "--format", "json", "--reproducible",
    )
    code_a, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    assert "wall_time_s" not in out_a


@pytest.mark.parametrize(
    "check", ["continuation-principle", "forest-monotone", "star-addition"]
)
def test_verify_trials_sets_the_trials_param(capsys, check):
    code, out, _ = run_cli(
        capsys, "verify", "--check", check, "--trials", "3",
        "--format", "json", "--reproducible",
    )
    assert code == 0
    assert json.loads(out)["params"]["trials"] == 3


def test_sweep_small(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--n-max", "5", "--format", "json", "--reproducible"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "conjecture-sweep"
    assert payload["ok"] is True


def test_sweep_budget_error_exits_one(capsys):
    code, _, err = run_cli(capsys, "sweep", "--n-max", "9")
    assert code == 1
    assert "capped" in err


def test_family_emits_graph6(capsys):
    code, out, _ = run_cli(capsys, "family", "--spec", "complete:4")
    assert code == 0
    assert out == "C~\n"


def test_family_alltrees_emits_all_lines(capsys):
    code, out, _ = run_cli(capsys, "family", "--spec", "alltrees:4")
    assert code == 0
    assert len(out.splitlines()) == 16


def test_forest_monotone_tree_order_above_the_cap_exits_one(monkeypatch, capsys):
    # no flag sets the tree order, so raise the check's default past the cap
    def no_solve(*args, **kwargs):
        raise AssertionError("a tree was solved before the order was checked")

    runner = partial(harness._check_forest_monotone, tree_n_max=17)
    monkeypatch.setattr(harness, "solve_both", no_solve)
    monkeypatch.setitem(CHECKS, CheckKind.FOREST_MONOTONE, runner)
    code, out, err = run_cli(capsys, "verify", "--check", "forest-monotone")
    assert code == 1 and out == ""
    assert "tree classes capped at order 16, got 17" in err


def test_family_alltrees_above_the_cap_exits_one(capsys):
    code, out, err = run_cli(capsys, "family", "--spec", "alltrees:12")
    assert code == 1
    assert out == ""
    assert "capped" in err


def test_family_bad_spec_exits_one(capsys):
    code, _, err = run_cli(capsys, "family", "--spec", "blob:1")
    assert code == 1
    assert "unknown family tag" in err


def test_enumerate_counts(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "5")
    assert code == 0
    assert len(out.splitlines()) == 21


def test_enumerate_out_of_range_exits_one(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--n", "9")
    assert code == 1
    assert "error" in err


def test_output_file_and_memo_cap_flag(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys,
        "solve", "--family", "cycle:6", "--start", "D",
        "--format", "json", "--output", str(target),
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["value"] == 3

    code, _, err = run_cli(
        capsys, "solve", "--family", "path:9", "--start", "D", "--memo-cap", "4"
    )
    assert code == 1
    assert "transposition table" in err
    code, out, _ = run_cli(
        capsys,
        "solve", "--family", "path:9", "--start", "D", "--memo-cap", "1000000",
    )
    assert code == 0
    assert out == "value=3\n"


@pytest.mark.parametrize(
    "flag, argv",
    [
        # a flag the chosen check does not take
        ("--trials", ["verify", "--check", "sandwich", "--trials", "5"]),
        ("--n-min", ["verify", "--check", "forest-monotone", "--n-min", "3"]),
        ("--n-max", ["verify", "--check", "family-values", "--n-max", "3"]),
        ("--jobs", ["verify", "--check", "family-values", "--n-max", "3", "--jobs", "4"]),
        ("--n-max", ["verify", "--check", "spanning-gap", "--n-max", "9"]),
        # an empty instance set
        ("--n-max", ["sweep", "--n-max", "2"]),
        ("--n-min", ["verify", "--check", "half-bound", "--n-min", "5", "--n-max", "4"]),
        # an order range outside the connected catalog
        ("--n-max", ["verify", "--check", "half-bound", "--n-max", "9"]),
        ("--n-min", ["verify", "--check", "sandwich", "--n-min", "0"]),
        # a flag that is gone (verify) or takes only 1 (sweep)
        ("--jobs", ["sweep", "--n-max", "3", "--jobs", "-1"]),
        ("--jobs", ["verify", "--check", "conjecture-sweep", "--n-max", "3", "--jobs", "-1"]),
        # no instance to solve ("EMPTY" stands for an empty file)
        ("--graph6-file", ["solve", "--graph6-file", "EMPTY"]),
        ("--family", ["solve", "--family", "alltrees:0"]),
        ("--family", ["solve", "--family", "alltrees:-2"]),
        # a family spec with more fields than its tag takes
        ("--family", ["solve", "--family", "path:6:99"]),
        ("--spec", ["family", "--spec", "hgraph:5"]),
        ("--spec", ["family", "--spec", "gstar:complete:1:9"]),
        # a table cap below one (rejected before any solve)
        ("--memo-cap", ["solve", "--family", "complete:1", "--memo-cap", "-5"]),
        ("--memo-cap", ["solve", "--family", "path:5", "--memo-cap", "0"]),
    ],
    ids=[
        "sandwich-trials", "forest-monotone-n-min", "family-values-n-max",
        "family-values-jobs", "spanning-gap-n-max", "sweep-empty",
        "half-bound-empty", "half-bound-n-max-capped", "sandwich-n-min-zero",
        "sweep-jobs", "conjecture-sweep-jobs",
        "solve-empty-graph6-file", "solve-alltrees-0", "solve-alltrees-negative",
        "solve-family-extra-field", "family-spec-extra-field",
        "family-spec-gstar-base-extra-field", "solve-memo-cap-negative",
        "solve-memo-cap-zero",
    ],
)
def test_unusable_flags_fail_loudly(tmp_path, capsys, flag, argv):
    empty = tmp_path / "empty.g6"
    empty.write_text("")
    argv = [str(empty) if a == "EMPTY" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "error" in err
    # the error names the flag by the param it sets
    assert flag[2:].replace("-", "_") in err


def test_sweep_jobs_accepts_only_one(capsys):
    # the sweep runs in one process; --jobs 1 is accepted and changes nothing
    argv = ("sweep", "--n-max", "5", "--format", "csv")
    code, plain, _ = run_cli(capsys, *argv)
    code_one, one, _ = run_cli(capsys, *argv, "--jobs", "1")
    assert code == code_one == 0
    assert one == plain
    code, out, err = run_cli(capsys, "sweep", "--n-max", "5", "--jobs", "2")
    assert code == 1
    assert out == ""
    assert "--jobs" in err


def test_import_does_not_load_multiprocessing():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    probe = "import sys, isogame; print('multiprocessing' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _readme_flag_table() -> dict[str, dict[str, str]]:
    """The README's verify-flag table, keyed by check then column header."""
    lines = README.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| check | `--n-min`"))
    header = [cell.strip() for cell in lines[start].strip("|").split("|")]
    table = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        table[cells[0].strip("`")] = dict(zip(header[1:], cells[1:]))
    return table


def test_readme_flag_table_matches_the_registry():
    table = _readme_flag_table()
    assert set(table) == {kind.value for kind in CheckKind}
    for kind in CheckKind:
        row = table[kind.value]
        assert set(row) == {"`--n-min`", "`--n-max`", "`--seed`", "`--trials`"}
        defaults = check_defaults(kind)
        for flag in ("n_min", "n_max", "seed", "trials"):
            cell = row[f"`--{flag.replace('_', '-')}`"]
            assert cell == ("yes" if flag in defaults else ""), (kind.value, flag)


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "solve" in out and "sweep" in out
