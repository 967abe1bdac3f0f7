"""Tests of the benchmark's own checks.

    PYTHONPATH=src python3 -m pytest -q perfbench

They show that the verification cannot pass vacuously: a corrupted
reference or a corrupted output makes the error rate non-zero.
"""

import contextlib
import hashlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import isogame.cli  # noqa: E402
from isogame.oracle import isolation_number  # noqa: E402

from checks import check_instances, check_sweep  # noqa: E402
from layers import Layers  # noqa: E402
from workloads import A001349, REFERENCE_VALUES, WORKLOADS, build_instances  # noqa: E402
from worker import run  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def p3_pass():
    inputs = build_instances("pattern-p3", SEED)
    iotas = {key: isolation_number(g, fam).size for key, _, g, fam in inputs}
    return run("pattern-p3", SEED, "plain"), inputs, iotas


def test_instance_outputs_verify(p3_pass):
    out, inputs, iotas = p3_pass
    assert check_instances(out, inputs, iotas) == (3, 0, [])


def test_corrupted_instance_reference_fails(p3_pass):
    out, inputs, iotas = p3_pass
    reference = {**REFERENCE_VALUES, "cycle-16-P3": (4, 4)}
    attempted, failed, problems = check_instances(out, inputs, iotas, reference)
    assert failed / attempted > 0
    assert any(p.startswith("cycle-16-P3") for p in problems)


def test_corrupted_iota_fails(p3_pass):
    out, inputs, _ = p3_pass
    iotas = {key: 6 for key, _, _, _ in inputs}  # above cycle:16's and gstar's values
    _, failed, _ = check_instances(out, inputs, iotas)
    assert failed >= 2


def test_corrupted_principal_line_fails(p3_pass):
    out, inputs, iotas = p3_pass
    bad = json.loads(json.dumps(out))
    bad["instances"][0]["lines"][0].pop()
    bad["instances"][1]["lines"][1][0] = -1
    del bad["instances"][2]
    attempted, failed, _ = check_instances(bad, inputs, iotas)
    assert (attempted, failed) == (3, 3)


@pytest.fixture(scope="module")
def sweep6():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = isogame.cli.main(["sweep", "--n-max", "6", "--format", "csv",
                                 "--reproducible"])
    text = buf.getvalue()
    counts = {n: A001349[n] for n in range(3, 7)}
    return {"exit": code, "csv": text}, counts, hashlib.sha256(text.encode()).hexdigest()


def test_sweep_outputs_verify(sweep6):
    out, counts, digest = sweep6
    assert check_sweep(out, random.Random(SEED), counts, digest) == (141, 0, [])


def test_corrupted_count_reference_fails(sweep6):
    out, counts, digest = sweep6
    attempted, failed, _ = check_sweep(
        out, random.Random(SEED), {**counts, 6: 111}, digest
    )
    assert failed / attempted > 0 and failed >= 112


def test_corrupted_sweep_value_fails(sweep6):
    out, counts, digest = sweep6
    # an order-6 row with values (2, 2) below the bound 3: lowering D to 1
    # keeps every column consistent, so only the oracle sample can object
    lines = out["csv"].splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if ",6,K2,2,2,3," in line)
    lines[row] = lines[row].replace(",6,K2,2,2,3,", ",6,K2,1,2,3,")
    bad = {**out, "csv": "".join(lines)}
    digest = hashlib.sha256(bad["csv"].encode()).hexdigest()
    _, failed, problems = check_sweep(bad, random.Random(SEED), counts, digest,
                                      sample=1000)
    assert failed == 1 and "naive oracle" in problems[0]


def test_failed_sweep_fails_every_row(sweep6):
    out, counts, digest = sweep6
    assert check_sweep({**out, "exit": 2}, random.Random(SEED), counts, digest)[1] == 141
    assert check_sweep(out, random.Random(SEED), counts, "0" * 64)[1] == 141
    assert check_sweep({}, random.Random(SEED), counts, digest) == (141, 141, [
        "pass produced no CSV"])


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = [m["name"] for m in spec["per_layer"]]
    run_level = ["trace.overhead_s", "trace.overhead_ratio", "verify.error_rate"]
    zeros = Layers().metrics()
    assert per_layer == list(zeros) + run_level
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, value in zeros.items():  # counts stay exact, everything else is measured
        assert type(value) is (int if units[name] == "count" else float), name
    targets = json.loads((HERE / "targets.json").read_text())
    assert list(targets) == per_layer
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hard-k2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_count_drift_fails_the_run(tmp_path, monkeypatch):
    import run

    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    same = {"solver.states": 5354}
    assert run.repeat_drift("pattern-p3", 1, "src", [same, same]) == []
    assert run.repeat_drift("pattern-p3", 1, "src", [same]) == []
    assert run.repeat_drift("pattern-p3", 1, "src", [same, {"solver.states": 5353}])
    assert run.repeat_drift("pattern-p3", 1, "src", [{"solver.states": 5353}])
    assert run.repeat_drift("pattern-p3", 2, "src", [{"solver.states": 5353}]) == []
