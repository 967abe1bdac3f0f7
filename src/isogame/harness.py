"""Machine checks for every bound, identity, and construction the solver is
expected to reproduce, over exhaustive or seeded-random instance sets.

Each check kind binds one property:

* ``diff-at-most-one``       |D-start - S-start| <= 1 for any family
* ``continuation-principle`` more initial marks never lengthen the game
* ``sandwich``               iota <= D <= 2*iota - 1 and iota <= S <= 2*iota
* ``family-monotone``        coarser families never shorten the game
* ``half-bound``             single-edge game lasts at most n/2 moves
* ``spanning-gap``           triangle-clique family interpolates values n..1
* ``forest-monotone``        on forests the D-game never beats the S-game
* ``path-bounds``            ceil(2n/5)-1 <= D <= S <= floor((2n+2)/5) on paths
* ``path-exact``             equality at floor((2n+2)/5) for n = 1,2,3 mod 5
* ``star-addition``          a disjoint star strictly lengthens forest games
* ``family-values``          star-of-paths and linked-gadget reference values
* ``conjecture-sweep``       D, S <= ceil(3n/7) findings report

The catalog checks (diff-at-most-one, sandwich, half-bound and
conjecture-sweep) build their rows from ``_solved_catalog``, which solves
both starts of each catalog graph; each check walks it on its own, once per
family, with its own columns and predicate. family-monotone solves only
Dominator starts, and continuation-principle reads both starts' values at
every mark set of a graph from the oracle's retrograde table, so each
walks the catalog itself.

``CHECKS`` maps each kind to its runner, and the runner's keyword defaults
are the check's params. Every param is one of ``n_min`` and ``n_max`` (the
order range of a catalog or path check) and ``seed`` and ``trials`` (the
sampled checks, forest-monotone and star-addition, draw ``trials``
instances for each of their orders from ``seed``), so each ``verify`` flag
sets the param of its own name. Every other instance set (families,
orders, star sizes) is fixed inside its runner.

Reports are deterministic for a fixed seed; violations carry enough data
(graph6, marks, seed) to replay any finding with one solve call (or, for
continuation-principle, one table read) per value they compare.
"""

from __future__ import annotations

import enum
import inspect
import json
import random
import time
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterable, Iterator

from .enumeration import MAX_ENUM_ORDER, canonical_form, enumerate_connected, tree_classes
from .errors import BadSpec, BudgetExceeded
from .families import (
    f_triangles,
    g_h,
    g_star,
    g_triangles,
    h_graph,
    complete_graph,
    path_graph,
    star_graph,
)
from .graph import (
    Graph,
    build_graph,
    disjoint_union,
    encode_graph6,
    mask_list,
    mask_of,
    parse_graph6,
)
from .oracle import game_values, isolation_number
from .rules import (
    ForbiddenFamily,
    close_marks,
    single_edge_family,
    single_vertex_family,
    three_path_family,
)
from .solver import Mover, solve, solve_both


class CheckKind(str, enum.Enum):
    DIFF_AT_MOST_ONE = "diff-at-most-one"
    CONTINUATION_PRINCIPLE = "continuation-principle"
    SANDWICH = "sandwich"
    FAMILY_MONOTONE = "family-monotone"
    HALF_BOUND = "half-bound"
    SPANNING_GAP = "spanning-gap"
    FOREST_MONOTONE = "forest-monotone"
    PATH_BOUNDS = "path-bounds"
    PATH_EXACT = "path-exact"
    STAR_ADDITION = "star-addition"
    FAMILY_VALUES = "family-values"
    CONJECTURE_SWEEP = "conjecture-sweep"


@dataclass
class CheckReport:
    kind: CheckKind
    instances: int
    violations: list[dict]
    extremal: list[dict]
    wall_time_s: float
    params: dict
    rows: list[dict] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self, reproducible: bool = False) -> dict:
        out = {
            "kind": self.kind.value,
            "ok": self.ok,
            "instances": self.instances,
            "violations": self.violations,
            "extremal": self.extremal,
            "params": self.params,
            "metadata": self.metadata,
        }
        if not reproducible:
            out["wall_time_s"] = round(self.wall_time_s, 3)
            out["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        return out

    def to_json(self, reproducible: bool = False) -> str:
        return json.dumps(self.summary(reproducible), indent=2, sort_keys=True)


def _connected_range(n_min: int, n_max: int) -> Iterator[Graph]:
    """The connected catalog of orders n_min..n_max, its range checked at
    the call: before any graph is built or solved."""
    if n_min < 1:
        raise BadSpec(f"n_min must be at least 1, got {n_min}")
    if n_max > MAX_ENUM_ORDER:
        raise BudgetExceeded(f"catalog capped at order {MAX_ENUM_ORDER}, got n_max={n_max}")
    return chain.from_iterable(map(enumerate_connected, range(n_min, n_max + 1)))


def _solved_catalog(
    n_min: int, n_max: int, fam: ForbiddenFamily
) -> Iterator[tuple[Graph, int, int]]:
    """Every connected graph of order n_min..n_max with its D- and S-start
    values under fam, in catalog order, each solved as it is yielded."""
    for g in _connected_range(n_min, n_max):
        d, s = solve_both(g, fam)
        yield g, d.value, s.value


def _head(g: Graph, tag: str) -> dict:
    """The graph6, n and family columns every row starts with."""
    return {"graph6": encode_graph6(g), "n": g.n, "family": tag}


def _path_bound_columns(n: int) -> tuple[int, int]:
    lower = -(-2 * n // 5) - 1
    upper = (2 * n + 2) // 5
    return lower, upper


def ceil_three_sevenths(n: int) -> int:
    return -(-3 * n // 7)


# --- individual checks ---------------------------------------------------


def _check_diff_at_most_one(n_min: int = 1, n_max: int = 6) -> tuple:
    rows, violations, extremal = [], [], []
    for fam in (single_vertex_family(), single_edge_family()):
        for g, d, s in _solved_catalog(n_min, n_max, fam):
            row = {**_head(g, fam.tag), "d_value": d, "s_value": s, "diff": d - s}
            rows.append(row)
            if abs(d - s) > 1:
                violations.append({**row, "observed": abs(d - s), "expected": "<=1"})
            elif abs(d - s) == 1 and len(extremal) < 10:
                extremal.append(row)
    return rows, violations, extremal, {}


def _check_sandwich(n_min: int = 1, n_max: int = 6) -> tuple:
    rows, violations, extremal = [], [], []
    tight = 0
    for fam in (single_vertex_family(), single_edge_family()):
        for g, d, s in _solved_catalog(n_min, n_max, fam):
            iota = isolation_number(g, fam).size
            # a graph with nothing to isolate has a zero-move game; the
            # 2*iota - 1 bound degenerates there, so it is clamped at 0
            d_hi = max(2 * iota - 1, 0)
            s_hi = 2 * iota
            row = {
                **_head(g, fam.tag),
                "iota": iota,
                "d_value": d,
                "s_value": s,
                "d_upper": d_hi,
                "s_upper": s_hi,
            }
            rows.append(row)
            if not (iota <= d <= d_hi and iota <= s <= s_hi):
                violations.append({**row, "observed": (d, s),
                                   "expected": f"within [{iota}, {d_hi}] / [{iota}, {s_hi}]"})
            if d == d_hi and iota > 0:
                tight += 1
                if len(extremal) < 10:
                    extremal.append(row)
    return rows, violations, extremal, {"d_upper_tight": tight}


def _check_family_monotone(n_min: int = 1, n_max: int = 6) -> tuple:
    rows, violations, extremal = [], [], []
    k1, k2, p3 = (
        single_vertex_family(),
        single_edge_family(),
        three_path_family(),
    )
    best_gap = None
    for g in _connected_range(n_min, n_max):
        gamma = solve(g, k1, Mover.DOMINATOR).value
        edge = solve(g, k2, Mover.DOMINATOR).value
        path3 = solve(g, p3, Mover.DOMINATOR).value
        row = {
            **_head(g, "K1/K2/P3"),
            "d_value": edge,
            "s_value": None,
            "gamma_g": gamma,
            "p3_value": path3,
        }
        rows.append(row)
        for smaller, larger, what in ((edge, gamma, "K2<=K1"), (path3, edge, "P3<=K2")):
            if smaller > larger:
                violations.append({**row, "observed": (smaller, larger), "expected": what})
        gap = gamma - edge
        if best_gap is None or gap > best_gap["gap"]:
            best_gap = {**row, "gap": gap}
    if best_gap:
        extremal.append(best_gap)
    return rows, violations, extremal, {}


def _check_half_bound(n_min: int = 1, n_max: int = 6) -> tuple:
    rows, violations, extremal = [], [], []
    fam = single_edge_family()
    for g, d, s in _solved_catalog(n_min, n_max, fam):
        row = {**_head(g, fam.tag), "d_value": d, "s_value": s, "half_order": g.n / 2}
        rows.append(row)
        if 2 * d > g.n:
            violations.append({**row, "observed": d, "expected": f"<= {g.n/2}"})
        elif 2 * d == g.n and len(extremal) < 10:
            extremal.append(row)
    return rows, violations, extremal, {}


def _check_spanning_gap() -> tuple:
    rows, violations, extremal = [], [], []
    fam = single_edge_family()

    def expect(g: Graph, want: int) -> None:
        got = solve(g, fam, Mover.DOMINATOR).value
        row = {
            **_head(g, fam.tag),
            "d_value": got,
            "s_value": None,
            "expected": want,
            "label": g.label,
        }
        rows.append(row)
        if got != want:
            violations.append({**row, "observed": got})

    for n in (3, 4):
        expect(g_triangles(n), n)
        for k in range(1, n):
            expect(f_triangles(n, k), n - k)
        if n % 2 == 1:
            expect(f_triangles(n, n), 1)
    return rows, violations, extremal, {}


def _random_forest(n: int, rng: random.Random) -> Graph:
    edges = []
    for v in range(1, n):
        if rng.random() < 0.75:
            edges.append((rng.randrange(v), v))
    return build_graph(n, edges)


def _random_closed_marks(g: Graph, fam: ForbiddenFamily, rng: random.Random) -> int:
    picks = rng.sample(range(g.n), rng.randrange(g.n + 1))
    return close_marks(g, fam, mask_of(picks))


def _random_forest_states(
    orders: range, trials: int, fam: ForbiddenFamily, rng: random.Random
) -> Iterator[tuple[Graph, int]]:
    """``trials`` random forests of each order with random closed marks."""
    for n in orders:
        for _ in range(trials):
            g = _random_forest(n, rng)
            yield g, _random_closed_marks(g, fam, rng)


def _check_forest_monotone(trials: int = 100, seed: int = 0) -> tuple:
    rows, violations, extremal = [], [], []
    fam = single_edge_family()
    rng = random.Random(seed)

    def check_state(g: Graph, marks: int, source: str) -> None:
        d, s = solve_both(g, fam, marks)
        row = {
            **_head(g, fam.tag),
            "marks": mask_list(marks),
            "d_value": d.value,
            "s_value": s.value,
            "source": source,
        }
        rows.append(row)
        if d.value > s.value:
            violations.append({**row, "observed": (d.value, s.value), "expected": "d<=s"})

    # empty marks make both values isomorphism invariants: one tree per class
    for tree in chain.from_iterable(map(tree_classes, range(1, 10))):
        check_state(tree, 0, "tree-class")
    for g, marks in _random_forest_states(range(6, 10), trials, fam, rng):
        check_state(g, marks, "random-forest")
    return rows, violations, extremal, {"seed": seed}


def _check_continuation(n_min: int = 1, n_max: int = 6) -> tuple:
    # every nested pair B <= A is a chain of one-vertex additions, so
    # checking each B against each B + u covers them all
    rows, violations = [], []
    mark_sets = steps = 0
    for fam in (single_vertex_family(), single_edge_family(), three_path_family()):
        for g in _connected_range(n_min, n_max):
            values = list(zip(*game_values(g, fam)))
            rows.append({**_head(g, fam.tag), "d_value": values[0][0], "s_value": values[0][1]})
            mark_sets += len(values)
            for b, (bd, bs) in enumerate(values):
                for u in mask_list(g.full_mask & ~b):
                    steps += 1
                    ad, a_s = values[b | 1 << u]
                    if ad > bd or a_s > bs:
                        violations.append({
                            **_head(g, fam.tag), "b_marks": mask_list(b), "added": u,
                            "observed": (ad, bd, a_s, bs), "expected": "a<=b both movers",
                        })
    return rows, violations, [], {"mark_sets": mark_sets, "steps": steps}


def _check_path_bounds(n_min: int = 6, n_max: int = 23) -> tuple:
    rows = path_table(n_min, n_max)
    violations = []
    for row in rows:
        ok = (
            row["lower"] <= row["d_value"] <= row["s_value"] <= row["upper"]
        )
        if not ok:
            violations.append(
                {**row, "observed": (row["d_value"], row["s_value"]),
                 "expected": f"within [{row['lower']}, {row['upper']}] and d<=s"}
            )
    extremal = [r for r in rows if r["exact"]]
    return rows, violations, extremal, {}


def _check_path_exact(n_min: int = 6, n_max: int = 23) -> tuple:
    rows = path_table(n_min, n_max)
    violations = []
    covered = []
    for row in rows:
        if row["n"] % 5 not in (1, 2, 3):
            continue
        covered.append(row["n"])
        if not (row["d_value"] == row["s_value"] == row["upper"]):
            violations.append(
                {**row, "observed": (row["d_value"], row["s_value"]),
                 "expected": row["upper"]}
            )
    extremal = [r for r in rows if r["exact"]]
    return rows, violations, extremal, {"exact_orders": covered}


def _check_star_addition(trials: int = 25, seed: int = 0) -> tuple:
    rows, violations, extremal = [], [], []
    fam = single_edge_family()
    rng = random.Random(seed)
    stars = {r: star_graph(r) for r in (1, 2, 3)}

    trees = ((t, 0) for t in tree_classes(6))
    for g, marks in chain(trees, _random_forest_states(range(4, 9), trials, fam, rng)):
        base_d, base_s = (res.value for res in solve_both(g, fam, marks))
        for r, star in stars.items():
            u = disjoint_union(g, star)
            ud, us = (res.value for res in solve_both(u, fam, marks))
            row = {
                **_head(g, fam.tag),
                "marks": mask_list(marks),
                "star_leaves": r,
                "d_value": (base_d, ud),
                "s_value": (base_s, us),
            }
            rows.append(row)
            if not (ud > base_d and us > base_s):
                violations.append(
                    {**row, "observed": (ud, us), "expected": f"> ({base_d}, {base_s})"}
                )
    return rows, violations, extremal, {"seed": seed}


def _check_family_values() -> tuple:
    rows, violations, extremal = [], [], []
    fam = single_edge_family()
    cases = [
        ("gstar:complete:1", g_star(complete_graph(1)), 0, 3),
        ("gstar:complete:2", g_star(complete_graph(2)), 0, 6),
        ("hgraph", h_graph(), 0, 5),
        ("hgraph|v4", h_graph(), 1 << 3, 5),
        ("gh:1", g_h(1), 0, 5),
    ]
    for name, g, marks, want in cases:
        d, s = (res.value for res in solve_both(g, fam, marks))
        row = {
            **_head(g, fam.tag),
            "label": name,
            "marks": mask_list(marks),
            "d_value": d,
            "s_value": s,
            "expected": want,
        }
        rows.append(row)
        if d != want or s != want:
            violations.append({**row, "observed": (d, s)})
    meta = {
        "gh_base": "path",
        "gh_unverified": "the paper states no value for linked-gadget chains "
        "with 2+ copies (>= 24 vertices), so only the single copy is checked",
    }
    return rows, violations, extremal, meta


def _check_conjecture_sweep(n_max: int = 6) -> tuple:
    fam = single_edge_family()
    rows, violations, witnesses = [], [], []
    best_ratio = 0.0
    best_row: dict | None = None
    for g, d, s in _solved_catalog(3, n_max, fam):
        bound = ceil_three_sevenths(g.n)
        row = {
            **_head(g, fam.tag),
            "d_value": d,
            "s_value": s,
            "bound": bound,
            "at_bound": max(d, s) == bound,
        }
        rows.append(row)
        if d > bound or s > bound:
            violations.append({**row, "observed": (d, s), "expected": f"<= {bound}"})
        if row["at_bound"]:
            witnesses.append(row)
        ratio = max(d, s) / bound
        if ratio > best_ratio:
            best_ratio = ratio
            best_row = row
    extremal = [{"max_ratio": best_ratio, "witness": best_row,
                 "equality_witnesses": witnesses}]
    meta = {"skipped_orders": [1, 2],
            "skip_reason": "bound hypothesis excludes trivial orders"}
    return rows, violations, extremal, meta


def path_table(n_min: int = 6, n_max: int = 23) -> list[dict]:
    """Solver values for paths with the bound columns and exactness flag."""
    if not 6 <= n_min <= n_max <= 23:
        raise BudgetExceeded(
            f"path table supports 6 <= n_min <= n_max <= 23, got {n_min}..{n_max}"
        )
    fam = single_edge_family()
    rows = []
    for n in range(n_min, n_max + 1):
        lower, upper = _path_bound_columns(n)
        g = path_graph(n)
        d, s = solve_both(g, fam)
        rows.append(
            {
                **_head(g, fam.tag),
                "lower": lower,
                "d_value": d.value,
                "s_value": s.value,
                "upper": upper,
                "exact": d.value == s.value == upper,
            }
        )
    return rows


#: Each check kind's runner; its keyword defaults are the check's params.
CHECKS: dict[CheckKind, Callable[..., tuple]] = {
    CheckKind.DIFF_AT_MOST_ONE: _check_diff_at_most_one,
    CheckKind.CONTINUATION_PRINCIPLE: _check_continuation,
    CheckKind.SANDWICH: _check_sandwich,
    CheckKind.FAMILY_MONOTONE: _check_family_monotone,
    CheckKind.HALF_BOUND: _check_half_bound,
    CheckKind.SPANNING_GAP: _check_spanning_gap,
    CheckKind.FOREST_MONOTONE: _check_forest_monotone,
    CheckKind.PATH_BOUNDS: _check_path_bounds,
    CheckKind.PATH_EXACT: _check_path_exact,
    CheckKind.STAR_ADDITION: _check_star_addition,
    CheckKind.FAMILY_VALUES: _check_family_values,
    CheckKind.CONJECTURE_SWEEP: _check_conjecture_sweep,
}


def check_defaults(kind: CheckKind | str) -> dict:
    """The params of one registered check, each with its default."""
    params = inspect.signature(CHECKS[CheckKind(kind)]).parameters.values()
    return {p.name: p.default for p in params}


def run_check(kind: CheckKind | str, **params) -> CheckReport:
    """Run one registered check and wrap its findings in a CheckReport.

    ``params`` override the runner's keyword defaults, and the report
    echoes the merged set. A param the check does not take, a ``trials``
    that is not a non-negative int, or a param set that leaves no instance
    to check, raises BadSpec. So does a ``seed`` that is not an int, since
    ``--seed`` could not replay the report. Neither may be a bool, which
    the report would record as ``true``.
    """
    kind = CheckKind(kind)
    defaults = check_defaults(kind)
    unknown = [key for key in params if key not in defaults]
    if unknown:
        accepted = ", ".join(defaults) or "no params"
        raise BadSpec(
            f"check {kind.value} does not accept {', '.join(unknown)}; "
            f"it accepts {accepted}"
        )
    used = {**defaults, **params}
    trials = used.get("trials", 0)
    if type(trials) is not int or trials < 0:
        raise BadSpec(f"check {kind.value} needs trials >= 0, got {trials!r}")
    seed = used.get("seed", 0)
    if type(seed) is not int:
        raise BadSpec(f"check {kind.value} needs an integer seed, got {seed!r}")
    t0 = time.perf_counter()
    rows, violations, extremal, metadata = CHECKS[kind](**used)
    if not rows:
        shown = ", ".join(f"{key}={value}" for key, value in used.items())
        raise BadSpec(f"check {kind.value} has no instances for {shown}")
    return CheckReport(
        kind=kind,
        instances=len(rows),
        violations=violations,
        extremal=extremal,
        wall_time_s=time.perf_counter() - t0,
        params=used,
        rows=rows,
        metadata=metadata,
    )


def conjecture_sweep(n_max: int) -> CheckReport:
    """Sweep D- and S-start values against ceil(3n/7) over every connected
    graph of order 3..n_max. This reports findings (violations would be
    counterexamples); it proves nothing beyond the orders it visits.
    """
    return run_check(CheckKind.CONJECTURE_SWEEP, n_max=n_max)


def find_witness(rows: Iterable[dict], g: Graph) -> dict | None:
    """Locate the row whose graph is isomorphic to g (for witness asserts)."""
    want = canonical_form(g)
    for row in rows:
        other = parse_graph6(row["graph6"])
        if other.n == g.n and canonical_form(other) == want:
            return row
    return None
