"""One cold pass of a workload, in a fresh process.

Usage, from the repository root (``run.py`` spawns it this way):

    PYTHONPATH=src python3 perfbench/worker.py <workload> <seed> <plain|traced|setup>

The pass imports isogame, builds its inputs, then times the workload's
calls into the package. ``setup`` stops right before the first timed call,
so the benchmark can sample set-up time cheaply. The process prints one
JSON object: the time it became ready (``perf_counter``, which is the
system-wide monotonic clock, so the parent can subtract its spawn time),
the timed span, peak RSS and the raw outputs, which the parent verifies.
"""

import contextlib
import io
import json
import resource
import sys
from time import perf_counter

T_START = perf_counter()

import isogame  # noqa: E402  (set-up cost is part of what is measured)
import isogame.cli  # noqa: E402
import isogame.solver  # noqa: E402

from layers import Layers  # noqa: E402
from workloads import SWEEP_ARGV, build_instances  # noqa: E402


def _no_span(name):
    return contextlib.nullcontext()


def run(workload: str, seed: int, mode: str) -> dict:
    layers = Layers() if mode == "traced" else None
    out: dict = {}
    if workload == "sweep8":
        argv = list(SWEEP_ARGV)
        instances = []
    else:
        t0 = perf_counter()
        instances = build_instances(workload, seed)
        if layers is not None:
            layers.build_s = perf_counter() - t0
    if layers is not None:
        layers.install()
    t_ready = perf_counter()
    out["t_ready"] = t_ready
    if mode == "setup":
        return out

    span = layers.span if layers is not None else _no_span
    with span("pass"):
        if workload == "sweep8":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), span("cli.main"):
                t0 = perf_counter()
                code = isogame.cli.main(argv)
                main_s = perf_counter() - t0
            out["exit"] = code
            out["csv"] = buf.getvalue()
        else:
            solved = []
            for key, spec, g, fam in instances:
                t0 = perf_counter()
                with span(f"instance.{key}"):
                    d, s = isogame.solver.solve_both(g, fam)
                dt = perf_counter() - t0
                solved.append((key, g, d, s))
                if layers is not None:
                    layers.instance_s[key] = dt
                    layers.solve_busy += dt
    t_end = perf_counter()
    if workload != "sweep8":
        out["instances"] = [
            {"key": key, "graph6": isogame.encode_graph6(g),
             "values": [d.value, s.value],
             "lines": [list(d.principal_line), list(s.principal_line)]}
            for key, g, d, s in solved
        ]
    out["run_s"] = t_end - t_ready
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if layers is not None:
        if workload == "sweep8":
            layers.main_span = main_s
        layers.closed_span("setup", T_START, t_ready)
        out["layers"] = layers.metrics()
        out["counts"] = layers.exact_counts()
        out["spans"] = layers.spans
    return out


if __name__ == "__main__":
    workload, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    print(json.dumps(run(workload, seed, mode)))
