"""isogame benchmark: cold-process passes of one workload, verified.

    python3 perfbench/run.py --workload sweep8 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout that holds ``src/isogame``. Load model:
closed loop, one client, concurrency 1. Every pass runs in a fresh Python
process (``worker.py``), because every command-line user pays the cold
import and the per-process catalog cache, and the sweep runs with
``--jobs 1``, so no pass uses more than one core.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from
untraced passes. ``--trace 1`` alternates traced and untraced passes and
reports the per-layer metrics of the traced ones, plus the tracing
overhead against the untraced ones. Every pass's outputs are verified
(``checks.py``); the last line of standard output is the result object.
Spans, the environment stamp and the exact counts are written to
``.perfbench-out/`` when the run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

SETUP_PROBES = 5  # set-up-only processes per run, on top of the passes
MIN_PLAIN = 2  # untraced passes per --trace 0 run, whatever --seconds says
MIN_TRACED = 2  # traced passes per --trace 1 run, for the repeat check
PASS_TIMEOUT_S = 150


class PassFailed(Exception):
    pass


def spawn(workload: str, seed: int, mode: str) -> dict:
    """Run one worker process to completion; adds its set-up time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode]
    t_spawn = perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{mode} pass exceeded {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        raise PassFailed(f"{mode} pass exited with {proc.returncode}: {tail[0]}")
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise PassFailed(f"{mode} pass printed no result") from None
    out["setup_s"] = out["t_ready"] - t_spawn
    return out


def quartiles(values: list) -> tuple:
    """First quartile, median and third quartile; counts stay integers."""
    if len(values) == 1 or all(type(v) is int for v in values):
        low = statistics.median_low(values)
        return min(values), low, max(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    """HEAD of the checkout when it is a git repository, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(workload: str, seed: int, seconds: float, trace: bool, verify):
    """Closed loop of cold passes until ``seconds`` of measuring are used
    (each kind of pass reaching its minimum count first). Returns the
    passes by kind, instances attempted and failed, and the problems."""
    plan = ["traced", "plain"] if trace else ["plain"]
    runs: dict[str, list[dict]] = {"plain": [], "traced": []}
    attempted = failed = 0
    problems: list[str] = []
    durations: list[float] = []
    start = perf_counter()
    while True:
        mode = plan[len(durations) % len(plan)]
        t0 = perf_counter()
        try:
            out = spawn(workload, seed, mode)
        except PassFailed as exc:
            out = {}
            problems.append(str(exc))
        n_tried, n_failed, found = verify(out)
        attempted += n_tried
        failed += n_failed
        problems.extend(found)
        durations.append(perf_counter() - t0)
        if not out:
            break  # the program cannot complete a pass; do not spin
        runs[mode].append(out)
        if trace:
            enough = len(runs["traced"]) >= MIN_TRACED and runs["plain"]
        else:
            enough = len(runs["plain"]) >= MIN_PLAIN
        if enough and perf_counter() - start + statistics.median(durations) > seconds:
            break
    return runs, attempted, failed, problems


def repeat_drift(workload: str, seed: int, digest: str, counts: list[dict]) -> list[str]:
    """Exact counts must repeat across the traced passes of this run and
    across runs of the same sources and seed (kept in OUT_DIR)."""
    drift = [f"traced pass {k} counts differ from pass 0"
             for k, c in enumerate(counts[1:], 1) if c != counts[0]]
    if counts:
        store = OUT_DIR / "counts.json"
        known = json.loads(store.read_text()) if store.is_file() else {}
        key = f"{workload}|seed={seed}|src={digest}"
        if known.setdefault(key, counts[0]) != counts[0]:
            drift.append("exact counts differ from an earlier run of this code")
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, store)
    return drift


def show(v) -> str:
    return str(v) if isinstance(v, int) else f"{v:.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload, seed = args.workload, args.seed

    if not (SRC / "isogame" / "__init__.py").is_file():
        print(f"perfbench: no isogame sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from checks import check_instances, check_sweep
    from workloads import INSTANCES, WORKLOADS, build_instances

    if workload not in WORKLOADS:
        print(f"perfbench: unknown workload {workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    nproc = len(os.sched_getaffinity(0))
    load_before = os.getloadavg()[0]

    # Inputs and oracle values, outside every timed region.
    if workload in INSTANCES:
        from isogame.oracle import isolation_number

        inputs = build_instances(workload, seed)
        iotas = {key: isolation_number(g, fam).size for key, _, g, fam in inputs}

        def verify(out):
            return check_instances(out, inputs, iotas)
    else:
        rng = random.Random(seed)

        def verify(out):
            return check_sweep(out, rng)

    spawn(workload, seed, "setup")  # fills the byte-code cache; not timed
    setup_samples = [spawn(workload, seed, "setup")["setup_s"]
                     for _ in range(SETUP_PROBES)]
    runs, attempted, failed, problems = measure(
        workload, seed, args.seconds, bool(args.trace), verify)
    load_after = os.getloadavg()[0]
    plain, traced = runs["plain"], runs["traced"]
    if not plain or (args.trace and not traced):
        for line in problems[:20]:
            print(f"perfbench: {line}", file=sys.stderr)
        print("perfbench: no pass completed", file=sys.stderr)
        return 1

    run_s = [r["run_s"] for r in plain]
    setup_samples += [r["setup_s"] for r in plain + traced]
    values: dict[str, list] = {
        "run_s": run_s,
        "setup_s": setup_samples,
        "peak_rss_mb": [r["rss_kb"] / 1024 for r in plain],
    }
    if args.trace:
        for r in traced:
            for name, value in r["layers"].items():
                values.setdefault(name, []).append(value)
        plain_med = statistics.median(run_s)
        traced_med = statistics.median(r["run_s"] for r in traced)
        values["trace.overhead_s"] = [traced_med - plain_med]
        values["trace.overhead_ratio"] = [(traced_med - plain_med) / plain_med]
        values["verify.error_rate"] = [failed / attempted]
        names = [m["name"] for m in spec["per_layer"]]
    else:
        names = [m["name"] for m in spec["end_to_end"]]
    summary = {name: quartiles(v) for name, v in values.items()}

    digest = source_digest()
    OUT_DIR.mkdir(exist_ok=True)
    counts = [r["counts"] for r in traced]
    drift = repeat_drift(workload, seed, digest, counts)
    problems += drift
    stamp = {
        "workload": workload,
        "seed": seed,
        "trace": args.trace,
        "commit": commit(),
        "source_sha256": digest,
        "python": platform.python_version(),
        "nproc": nproc,
        "load_1m_before": load_before,
        "load_1m_after": load_after,
        "load_above_nproc": load_before > nproc,
        "passes": {name: len(v) for name, v in values.items()},
        "error_rate": failed / attempted,
        "exact_counts": counts[0] if counts else None,
    }
    for name, (q1, med, q3) in summary.items():
        print(f"perfbench: {name} = {show(med)} {units[name]} (median of "
              f"{len(values[name])}, quartiles {show(q1)} .. {show(q3)})")
    for line in problems[:20]:
        print(f"perfbench: FAIL {line}")
    print("perfbench: stamp " + json.dumps(stamp, sort_keys=True))

    result = {
        "correct": failed == 0 and not drift,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": summary[name][1], "unit": units[name]}
                    for name in names},
    }
    tag = f"{workload}-seed{seed}-trace{args.trace}"
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(
        {"result": result, "stamp": stamp, "problems": problems,
         "quartiles": summary}, indent=1, sort_keys=True))
    if traced:
        spans = [
            {"trace": f"{workload}-seed{seed}-pass{k}", "id": sid,
             "parent": parent, "name": name, "start": t0, "end": t1}
            for k, r in enumerate(traced)
            for sid, parent, name, t0, t1 in r["spans"]
        ]
        (OUT_DIR / f"spans-{tag}.json").write_text(json.dumps(spans, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
