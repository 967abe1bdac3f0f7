"""Verification of one pass's outputs, independent of the solver's tables.

Each check returns ``(attempted, failed, problems)``: the number of
instances the pass was asked for, how many of them failed verification
(or are missing), and one line per problem found. The references are
parameters so that a test can corrupt them and see the failures appear.
"""

from __future__ import annotations

import csv
import hashlib
import io
import random

from isogame.errors import IsolationGameError
from isogame.graph import encode_graph6, parse_graph6
from isogame.oracle import naive_game_value
from isogame.rules import apply_move, initial_closure, single_edge_family
from isogame.solver import Mover

from workloads import (
    A001349,
    ORACLE_SAMPLE,
    REFERENCE_VALUES,
    SWEEP_CSV_HEADER,
    SWEEP_CSV_SHA256,
)

_BAD_OUTPUT = (IsolationGameError, KeyError, IndexError, TypeError, ValueError)


def ceil_three_sevenths(n: int) -> int:
    return -(-3 * n // 7)


def check_sweep(
    out: dict,
    rng: random.Random,
    counts: dict[int, int] = A001349,
    digest: str = SWEEP_CSV_SHA256,
    sample: int = ORACLE_SAMPLE,
) -> tuple[int, int, list[str]]:
    """Per-order counts, zero violations, exit 0, the recorded CSV digest,
    and a ``rng``-chosen sample of order <= 7 rows re-solved by the naive
    oracle. A failed whole-output check fails every row it covers."""
    expected = sum(counts.values())
    text = out.get("csv")
    if not isinstance(text, str):
        return expected, expected, ["pass produced no CSV"]
    problems: list[str] = []
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    rows = list(reader)
    bad: set[int] = set()
    everything = set(range(len(rows)))
    if out.get("exit") != 0:
        problems.append(f"sweep exited with {out.get('exit')}")
        bad |= everything
    if header != SWEEP_CSV_HEADER:
        problems.append(f"unexpected CSV header {header}")
        bad |= everything
    if hashlib.sha256(text.encode()).hexdigest() != digest:
        problems.append("CSV digest differs from the recorded one")
        bad |= everything

    by_order: dict[int, list[int]] = {}
    parsed: dict[int, tuple] = {}
    for i, row in enumerate(rows):
        try:
            g6, n, fam, d, s, bound, at_bound = row
            n, d, s, bound = int(n), int(d), int(s), int(bound)
            g = parse_graph6(g6)
        except _BAD_OUTPUT:
            problems.append(f"row {i}: malformed {row}")
            bad.add(i)
            continue
        by_order.setdefault(n, []).append(i)
        parsed[i] = (g, d, s)
        want = ceil_three_sevenths(n)
        if (
            g.n != n
            or fam != "K2"
            or bound != want
            or d > want
            or s > want
            or at_bound != str(max(d, s) == want)
        ):
            problems.append(f"row {i}: violates the sweep contract {row}")
            bad.add(i)
    for n in sorted(set(by_order) | set(counts)):
        got = len(by_order.get(n, []))
        if got != counts.get(n, 0):
            problems.append(f"order {n}: {got} graphs, expected {counts.get(n, 0)}")
            bad.update(by_order.get(n, []))

    fam = single_edge_family()
    pool = sorted(i for i, (g, _, _) in parsed.items() if g.n <= 7)
    for i in rng.sample(pool, min(sample, len(pool))):
        g, d, s = parsed[i]
        start = initial_closure(g, fam, 0)
        naive = (naive_game_value(g, fam, start, Mover.DOMINATOR),
                 naive_game_value(g, fam, start, Mover.STALLER))
        if naive != (d, s):
            problems.append(f"row {i}: ({d}, {s}) but the naive oracle gives {naive}")
            bad.add(i)
    missing = max(expected - len(rows), 0)
    return max(expected, len(rows)), len(bad) + missing, problems


def replay_ok(g, fam, line, value: int) -> bool:
    """The line is legal move by move and ends the game after ``value`` moves."""
    state = initial_closure(g, fam, 0)
    for x in line:
        state = apply_move(state, fam, x)
    return len(line) == value and state.is_terminal


def check_instances(
    out: dict,
    inputs: list[tuple],
    iotas: dict[str, int],
    reference: dict[str, tuple[int, int]] = REFERENCE_VALUES,
) -> tuple[int, int, list[str]]:
    """Recorded values, |D - S| <= 1, iota <= D, S, the full sandwich under
    K2, the path formula, and a replay of both principal lines."""
    got = {rec.get("key"): rec for rec in out.get("instances", [])}
    problems: list[str] = []
    failed = 0
    for key, spec, g, fam in inputs:
        rec = got.get(key)
        try:
            if rec is None:
                raise KeyError("missing from the pass output")
            d, s = (int(v) for v in rec["values"])
            iota = iotas[key]
            why = []
            if rec["graph6"] != encode_graph6(g):
                why.append("solved a different graph")
            if (d, s) != tuple(reference[key]):
                why.append(f"values ({d}, {s}) differ from {reference[key]}")
            if abs(d - s) > 1:
                why.append("|D - S| > 1")
            if not (iota <= d and iota <= s):
                why.append(f"a value is below iota = {iota}")
            if fam.tag == "K2" and not (d <= 2 * iota - 1 and s <= 2 * iota):
                why.append(f"outside the sandwich for iota = {iota}")
            # exact for paths of order 1, 2 or 3 mod 5, such as path:23
            exact = (2 * g.n + 2) // 5
            if spec.startswith("path:") and (d, s) != (exact, exact):
                why.append(f"path values differ from floor((2n+2)/5) = {exact}")
            for line, value in zip(rec["lines"], (d, s)):
                if not replay_ok(g, fam, [int(x) for x in line], value):
                    why.append(f"principal line {line} does not end after {value} moves")
        except _BAD_OUTPUT as exc:
            why = [f"bad output: {exc}"]
        if why:
            failed += 1
            problems.extend(f"{key}: {w}" for w in why)
    return len(inputs), failed, problems
