"""Command-line front door: solve instances, run checks, sweep the
conjecture, and emit family graphs, with deterministic artifacts.

Exit codes: 0 success, 2 when a verify/sweep run records violations,
1 for usage, parse, and budget errors.
"""

from __future__ import annotations

import io
import sys
from typing import TYPE_CHECKING

from .errors import BadSpec, IsolationGameError
from .families import iter_family, vertex_name_to_index
from .graph import parse_graph6
from .rules import parse_forbidden
from .solver import DEFAULT_MEMO_CAP, Mover, result_record, solve

# the parser, the check harness and the output formats load inside the
# functions that use them, so that importing this module costs a solve
# nothing beyond the solver core
if TYPE_CHECKING:
    import argparse

    from .harness import CheckReport


def conjecture_sweep(n_max: int) -> CheckReport:
    """The ``sweep`` command's report: :func:`isogame.harness.conjecture_sweep`,
    called through this module so that a tracer can swap it here."""
    from .harness import conjecture_sweep

    return conjecture_sweep(n_max)


def _build_parser() -> argparse.ArgumentParser:
    import argparse

    from .harness import CheckKind

    class _Parser(argparse.ArgumentParser):
        # argparse exits 2 on usage errors by default; 2 is reserved for
        # property violations here, so route usage problems to exit 1
        def error(self, message: str) -> None:  # noqa: D401 - argparse hook
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    parser = _Parser(prog="isogame", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one game instance")
    src = p_solve.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph6", help="one graph6 record")
    src.add_argument("--graph6-file", help="file with one graph6 record per line")
    src.add_argument("--family", help="family spec, e.g. cycle:6 or gstar:complete:2")
    p_solve.add_argument("--forbidden", default="K2",
                         help="patterns joined by ';', each K1, K2, P3 or a "
                              "family spec, e.g. complete:3;path:4")
    p_solve.add_argument("--start", choices=("D", "S"), default="D")
    p_solve.add_argument("--marks", default="",
                         help="comma-separated pre-marked vertices (v4 or 3)")
    p_solve.add_argument("--memo-cap", type=int, default=DEFAULT_MEMO_CAP,
                         help="most entries the bounds table and the closure "
                              "memo may each hold; exceeding it exits 1")
    p_solve.add_argument("--format", dest="fmt",
                         choices=("plain", "json", "csv"), default="plain")
    p_solve.add_argument("--output", default=None)

    p_verify = sub.add_parser("verify", help="run one named property check")
    p_verify.add_argument("--check", required=True,
                          choices=[k.value for k in CheckKind])
    p_verify.add_argument("--n-min", type=int, default=None)
    p_verify.add_argument("--n-max", type=int, default=None)
    p_verify.add_argument("--format", dest="fmt",
                          choices=("plain", "json", "csv"), default="plain")
    p_verify.add_argument("--output", default=None)
    p_verify.add_argument("--reproducible", action="store_true",
                          help="omit timing fields so artifacts are byte-stable")

    p_sweep = sub.add_parser("sweep", help="conjecture sweep up to an order")
    p_sweep.add_argument("--n-max", type=int, required=True)
    # the sweep is serial; --jobs takes only 1, as perfbench's SWEEP_ARGV passes it
    p_sweep.add_argument("--jobs", type=int, choices=(1,), default=1)
    p_sweep.add_argument("--format", dest="fmt",
                         choices=("plain", "json", "csv"), default="plain")
    p_sweep.add_argument("--output", default=None)
    p_sweep.add_argument("--reproducible", action="store_true",
                         help="omit timing fields so artifacts are byte-stable")

    p_family = sub.add_parser("family", help="emit a family graph as graph6")
    p_family.add_argument("--spec", required=True)
    p_family.add_argument("--output", default=None)

    p_enum = sub.add_parser("enumerate", help="emit all connected graphs of order n")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--output", default=None)

    return parser


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rows_to_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    import csv

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _csv_cell(v) for k, v in row.items()})
    return buf.getvalue()


def _csv_cell(value) -> str:
    if isinstance(value, (list, tuple)):
        return " ".join(str(v) for v in value)
    if value is None:
        return ""
    return str(value)


def _run_solve(args: argparse.Namespace) -> int:
    if args.memo_cap < 1:
        raise BadSpec(f"memo_cap must be at least 1, got {args.memo_cap}")
    fam = parse_forbidden(args.forbidden)
    if args.graph6 is not None:
        graphs = [parse_graph6(args.graph6)]
    elif args.graph6_file is not None:
        with open(args.graph6_file) as fh:
            graphs = [parse_graph6(line) for line in fh if line.strip()]
        if not graphs:
            raise BadSpec(f"no graph6 records in graph6_file {args.graph6_file!r}")
    else:
        graphs = list(iter_family(args.family))
    marks = [vertex_name_to_index(t) for t in args.marks.split(",") if t]
    start = Mover.DOMINATOR if args.start == "D" else Mover.STALLER

    records = []
    for g in graphs:
        result = solve(g, fam, start, marks, memo_cap=args.memo_cap)
        records.append(result_record(g, fam, start, marks, result))

    if args.fmt == "plain":
        text = "".join(f"value={r['value']}\n" for r in records)
    elif args.fmt == "json":
        import json

        payload = records[0] if len(records) == 1 else records
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = _rows_to_csv(records)
    _emit(text, args.output)
    return 0


def _emit_report(report: CheckReport, args: argparse.Namespace) -> int:
    if args.fmt == "csv":
        text = _rows_to_csv(report.rows)
    elif args.fmt == "json":
        text = report.to_json(args.reproducible) + "\n"
    else:
        text = (
            f"check={report.kind.value} instances={report.instances} "
            f"violations={len(report.violations)} ok={report.ok}\n"
        )
    _emit(text, args.output)
    return 0 if report.ok else 2


def _run_verify(args: argparse.Namespace) -> int:
    from .harness import run_check

    # forward only the flags given, each as the param of its own name
    given = {"n_min": args.n_min, "n_max": args.n_max}
    report = run_check(args.check, **{k: v for k, v in given.items() if v is not None})
    return _emit_report(report, args)


def _run_sweep(args: argparse.Namespace) -> int:
    report = conjecture_sweep(args.n_max)
    return _emit_report(report, args)


def _run_family(args: argparse.Namespace) -> int:
    from .graph import encode_graph6

    lines = [encode_graph6(g) for g in iter_family(args.spec)]
    _emit("".join(line + "\n" for line in lines), args.output)
    return 0


def _run_enumerate(args: argparse.Namespace) -> int:
    from .enumeration import enumerate_connected
    from .graph import encode_graph6

    lines = [encode_graph6(g) for g in enumerate_connected(args.n)]
    _emit("".join(line + "\n" for line in lines), args.output)
    return 0


def execute(args: argparse.Namespace) -> int:
    """Dispatch one parsed command; returns the process exit status."""
    runners = {
        "solve": _run_solve,
        "verify": _run_verify,
        "sweep": _run_sweep,
        "family": _run_family,
        "enumerate": _run_enumerate,
    }
    return runners[args.command](args)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return execute(args)
    except SystemExit as exc:  # argparse --help or usage error
        return int(exc.code or 0)
    except IsolationGameError as exc:
        print(f"isogame: error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"isogame: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
