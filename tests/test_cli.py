import csv
import io
import json

import pytest

import isogame.harness as harness
from isogame import GameResult, encode_graph6, path_graph
from isogame.cli import main


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


def test_output_file_and_memo_cap_env(tmp_path, monkeypatch, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys,
        "solve", "--family", "cycle:6", "--start", "D",
        "--format", "json", "--output", str(target),
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["value"] == 3

    monkeypatch.setenv("ISOGAME_MEMO_CAP", "4")
    code, _, err = run_cli(capsys, "solve", "--family", "path:9", "--start", "D")
    assert code == 1
    assert "transposition table" in err
    # an explicit flag wins over the environment
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
        ("--n-max", ["verify", "--check", "family-values", "--n-max", "3", "--jobs", "4"]),
        ("--jobs", ["verify", "--check", "family-values", "--n-max", "3", "--jobs", "4"]),
        ("--n-max", ["verify", "--check", "spanning-gap", "--n-max", "9"]),
        # an empty instance set
        ("--n-max", ["sweep", "--n-max", "2"]),
        ("--n-min", ["verify", "--check", "half-bound", "--n-min", "5", "--n-max", "4"]),
        # a worker count below one (rejected before any pool starts)
        ("--jobs", ["sweep", "--n-max", "3", "--jobs", "-1"]),
        ("--jobs", ["verify", "--check", "conjecture-sweep", "--n-max", "3", "--jobs", "-1"]),
    ],
    ids=[
        "sandwich-trials", "forest-monotone-n-min", "family-values-n-max",
        "family-values-jobs", "spanning-gap-n-max", "sweep-empty",
        "half-bound-empty", "sweep-jobs", "conjecture-sweep-jobs",
    ],
)
def test_unusable_flags_fail_loudly(capsys, flag, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    # the error names the flag by the param it sets
    assert flag[2:].replace("-", "_") in err


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "solve" in out and "sweep" in out
