import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import isogame.harness as harness
from isogame import CheckKind, GameResult, encode_graph6, path_graph, run_check
from isogame.cli import main
from isogame.harness import check_defaults

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


@pytest.mark.parametrize("name", ["x", "v+3"])
def test_solve_rejects_a_mark_name_of_neither_form(capsys, name):
    # a spec error naming the accepted forms, not a bare int() failure
    code, out, err = run_cli(capsys, "solve", "--family", "path:4", "--marks", name)
    assert code == 1
    assert out == ""
    assert f"vertex name {name!r} is neither a drawing name like v1" in err


def test_solve_rejects_a_disconnected_pattern(capsys):
    # G - N[{2}] on path:6 is {0} and {4, 5}, which holds K2 + K1 although
    # no component does, so per-component closure would answer wrongly
    code, out, err = run_cli(
        capsys, "solve", "--family", "path:6", "--forbidden", "custom:3:0-1",
        "--start", "D",
    )
    assert code == 1
    assert out == ""
    assert "custom:3:0-1 must be a connected graph" in err


@pytest.mark.parametrize("start", ["D", "S"])
def test_forbidden_patterns_are_family_specs(capsys, start):
    # the spec spelling solves exactly as the edge-list spelling does; only
    # the family tag, echoed as given, differs
    records = []
    for spec in ("complete:3;path:4", "custom:3:0-1,1-2,0-2;custom:4:0-1,1-2,2-3"):
        code, out, _ = run_cli(
            capsys, "solve", "--family", "cycle:16", "--forbidden", spec,
            "--start", start, "--format", "json",
        )
        assert code == 0
        record = json.loads(out)
        assert record.pop("family") == spec
        records.append(record)
    assert records[0] == records[1]
    code, out, _ = run_cli(capsys, "solve", "--family", "cycle:8", "--forbidden", "cycle:4")
    assert code == 0
    assert out.startswith("value=")


@pytest.mark.parametrize("argv", [["--family", "path:4", "--forbidden", "alltrees:3"],
                                  ["--family", "gstar:alltrees:3"]])
def test_a_sequence_spec_where_one_graph_is_needed_exits_one(capsys, argv):
    code, out, err = run_cli(capsys, "solve", *argv)
    assert code == 1
    assert out == ""
    assert "'alltrees:3' names a sequence of graphs, not one graph" in err


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
        "verify", "--check", "forest-monotone", "--n-max", "7",
        "--format", "json", "--reproducible",
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
        # a flag that is gone: no check samples
        *[(flag, ["verify", "--check", kind.value, flag, "1"])
          for kind in CheckKind for flag in ("--seed", "--trials")],
        # a flag the chosen check does not take
        ("--n-min", ["verify", "--check", "spanning-gap", "--n-min", "3"]),
        ("--n-max", ["verify", "--check", "family-values", "--n-max", "3"]),
        ("--jobs", ["verify", "--check", "family-values", "--n-max", "3", "--jobs", "4"]),
        ("--n-max", ["verify", "--check", "spanning-gap", "--n-max", "9"]),
        # an empty instance set
        ("--n-max", ["sweep", "--n-max", "2"]),
        ("--n-min", ["verify", "--check", "half-bound", "--n-min", "5", "--n-max", "4"]),
        # an order range outside the connected catalog
        ("--n-max", ["verify", "--check", "half-bound", "--n-max", "9"]),
        ("--n-max", ["verify", "--check", "continuation-principle", "--n-max", "9"]),
        ("--n-min", ["verify", "--check", "sandwich", "--n-min", "0"]),
        # an order range outside the game table, or below order 1
        ("--n-max", ["verify", "--check", "forest-monotone", "--n-max", "17"]),
        ("--n-max", ["verify", "--check", "star-addition", "--n-max", "13"]),
        ("--n-min", ["verify", "--check", "forest-monotone", "--n-min", "0"]),
        ("--n-min", ["verify", "--check", "star-addition", "--n-min", "0"]),
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
        *[f"{kind.value}-{flag}" for kind in CheckKind for flag in ("seed", "trials")],
        "spanning-gap-n-min", "family-values-n-max",
        "family-values-jobs", "spanning-gap-n-max", "sweep-empty",
        "half-bound-empty", "half-bound-n-max-capped",
        "continuation-principle-n-max-capped", "sandwich-n-min-zero",
        "forest-monotone-n-max-capped", "star-addition-n-max-capped",
        "forest-monotone-n-min", "star-addition-n-min-zero",
        "sweep-jobs", "conjecture-sweep-jobs",
        "solve-empty-graph6-file", "solve-alltrees-0", "solve-alltrees-negative",
        "solve-family-extra-field", "family-spec-extra-field",
        "family-spec-gstar-base-extra-field", "solve-memo-cap-negative",
        "solve-memo-cap-zero",
    ],
)
def test_unusable_flags_fail_loudly(monkeypatch, tmp_path, capsys, flag, argv):
    # each fails before any check solves a game or builds a table
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the flags were checked")

    for name in ("game_values", "solve_both", "solve"):
        monkeypatch.setattr(harness, name, no_solve)
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


# what a solve never uses: the sweep is serial, and the check harness, the
# oracle, the parser and the output formats load on first use
@pytest.mark.parametrize("module", [
    "multiprocessing", "isogame.harness", "isogame.oracle", "dataclasses",
    "inspect", "json", "argparse", "csv",
])
def test_import_does_not_load_multiprocessing(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    # the import line of perfbench's worker, whose set-up time it measures
    probe = f"import sys, isogame, isogame.cli, isogame.solver; print({module!r} in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


#: Every name ``isogame`` exported before its harness and oracle names
#: loaded on first use.
EXPORTED = """
    BadEdge BadSpec BudgetExceeded IllegalMove IsolationGameError MalformedGraph6
    OrderTooLarge PatternTooLarge StateSpaceBudgetExceeded TerminalState MAX_ORDER
    Graph as_mask build_graph closed_neighborhood components disjoint_union
    encode_graph6 is_connected iter_mask mask_list mask_of parse_graph6 all_trees
    are_isomorphic canonical_form enumerate_connected tree_classes complete_graph
    cycle_graph f_triangles g_h g_star g_triangles h_graph iter_family make_family
    path_graph star_graph vertex_name_to_index ForbiddenFamily MarkState apply_move
    close_marks contains_pattern initial_closure is_forbidden_component is_playable
    parse_forbidden playable single_edge_family single_vertex_family
    three_path_family updated_marks DEFAULT_MEMO_CAP GameResult Mover optimal_moves
    result_record solve solve_both solve_values IsolationCertificate is_isolating
    isolation_number naive_best_moves naive_game_value random_playout CheckKind
    CheckReport conjecture_sweep path_table run_check
""".split()


def test_every_exported_name_still_imports():
    import isogame

    listed = dir(isogame)
    for name in EXPORTED:
        namespace = {}
        exec(f"from isogame import {name}", namespace)
        assert namespace[name] is getattr(isogame, name)
        assert name in listed and name in isogame.__all__, name


def test_an_unknown_name_is_an_attribute_error():
    import isogame

    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        isogame.no_such_name
    with pytest.raises(ImportError):
        exec("from isogame import no_such_name", {})


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
        assert set(row) == {"`--n-min`", "`--n-max`"}
        defaults = check_defaults(kind)
        for flag in ("n_min", "n_max"):
            cell = row[f"`--{flag.replace('_', '-')}`"]
            assert cell == ("yes" if flag in defaults else ""), (kind.value, flag)


def test_every_check_param_is_a_verify_flag(capsys):
    # each param is set by the verify flag of its own name, so every report
    # at its defaults replays from the command line with no other flag
    flags = {"n_min", "n_max"}
    for kind in CheckKind:
        assert set(check_defaults(kind)) <= flags, kind.value
        code, out, _ = run_cli(
            capsys, "verify", "--check", kind.value, "--format", "json", "--reproducible"
        )
        assert code == 0
        assert out == run_check(kind).to_json(reproducible=True) + "\n", kind.value


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "solve" in out and "sweep" in out
