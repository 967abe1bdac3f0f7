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

Reports are deterministic for a fixed seed; violations carry enough data
(graph6, marks, seed) to replay any finding with one solve call.
"""

from __future__ import annotations

import enum
import json
import multiprocessing
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .enumeration import all_trees, canonical_form, enumerate_connected, tree_classes
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
from .oracle import isolation_number
from .rules import (
    ForbiddenFamily,
    close_marks,
    initial_closure,
    parse_forbidden,
    single_edge_family,
    single_vertex_family,
    three_path_family,
    updated_marks,
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


def _connected_range(n_min: int, n_max: int) -> Iterable[tuple[int, Graph]]:
    for n in range(n_min, n_max + 1):
        for g in enumerate_connected(n):
            yield n, g


def _path_bound_columns(n: int) -> tuple[int, int]:
    lower = -(-2 * n // 5) - 1
    upper = (2 * n + 2) // 5
    return lower, upper


def ceil_three_sevenths(n: int) -> int:
    return -(-3 * n // 7)


# --- individual checks ---------------------------------------------------


def _check_diff_at_most_one(n_min: int, n_max: int, fams: Sequence[str]) -> tuple:
    rows, violations, extremal = [], [], []
    for fam in map(parse_forbidden, fams):
        for n, g in _connected_range(n_min, n_max):
            d, s = solve_both(g, fam)
            row = {
                "graph6": encode_graph6(g),
                "n": n,
                "family": fam.tag,
                "d_value": d.value,
                "s_value": s.value,
                "diff": d.value - s.value,
            }
            rows.append(row)
            if abs(d.value - s.value) > 1:
                violations.append(
                    {**row, "observed": abs(d.value - s.value), "expected": "<=1"}
                )
            elif abs(d.value - s.value) == 1 and len(extremal) < 10:
                extremal.append(row)
    return rows, violations, extremal, {}


def _check_sandwich(n_min: int, n_max: int, fams: Sequence[str]) -> tuple:
    rows, violations, extremal = [], [], []
    tight = 0
    for fam in map(parse_forbidden, fams):
        for n, g in _connected_range(n_min, n_max):
            iota = isolation_number(g, fam).size
            d, s = solve_both(g, fam)
            # a graph with nothing to isolate has a zero-move game; the
            # 2*iota - 1 bound degenerates there, so it is clamped at 0
            d_hi = max(2 * iota - 1, 0)
            s_hi = 2 * iota
            row = {
                "graph6": encode_graph6(g),
                "n": n,
                "family": fam.tag,
                "iota": iota,
                "d_value": d.value,
                "s_value": s.value,
                "d_upper": d_hi,
                "s_upper": s_hi,
            }
            rows.append(row)
            if not (iota <= d.value <= d_hi and iota <= s.value <= s_hi):
                violations.append({**row, "observed": (d.value, s.value),
                                   "expected": f"within [{iota}, {d_hi}] / [{iota}, {s_hi}]"})
            if d.value == d_hi and iota > 0:
                tight += 1
                if len(extremal) < 10:
                    extremal.append(row)
    return rows, violations, extremal, {"d_upper_tight": tight}


def _check_family_monotone(n_min: int, n_max: int) -> tuple:
    rows, violations, extremal = [], [], []
    k1, k2, p3 = (
        single_vertex_family(),
        single_edge_family(),
        three_path_family(),
    )
    best_gap = None
    for n, g in _connected_range(n_min, n_max):
        gamma = solve(g, k1, Mover.DOMINATOR).value
        edge = solve(g, k2, Mover.DOMINATOR).value
        path3 = solve(g, p3, Mover.DOMINATOR).value
        row = {
            "graph6": encode_graph6(g),
            "n": n,
            "family": "K1/K2/P3",
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


def _check_half_bound(n_min: int, n_max: int) -> tuple:
    rows, violations, extremal = [], [], []
    fam = single_edge_family()
    for n, g in _connected_range(n_min, n_max):
        d, s = solve_both(g, fam)
        row = {
            "graph6": encode_graph6(g),
            "n": n,
            "family": fam.tag,
            "d_value": d.value,
            "s_value": s.value,
            "half_order": n / 2,
        }
        rows.append(row)
        if 2 * d.value > n:
            violations.append({**row, "observed": d.value, "expected": f"<= {n/2}"})
        elif 2 * d.value == n and len(extremal) < 10:
            extremal.append(row)
    return rows, violations, extremal, {}


def _check_spanning_gap(ns: Sequence[int]) -> tuple:
    rows, violations, extremal = [], [], []
    fam = single_edge_family()

    def expect(g: Graph, want: int) -> None:
        got = solve(g, fam, Mover.DOMINATOR).value
        row = {
            "graph6": encode_graph6(g),
            "n": g.n,
            "family": fam.tag,
            "d_value": got,
            "s_value": None,
            "expected": want,
            "label": g.label,
        }
        rows.append(row)
        if got != want:
            violations.append({**row, "observed": got})

    for n in ns:
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


def _check_forest_monotone(
    tree_n_max: int,
    pruefer_n_max: int,
    forest_orders: Sequence[int],
    forests_per_order: int,
    seed: int,
) -> tuple:
    rows, violations, extremal = [], [], []
    fam = single_edge_family()
    rng = random.Random(seed)

    def check_state(g: Graph, marks: int, source: str) -> None:
        d = solve(g, fam, Mover.DOMINATOR, marks)
        s = solve(g, fam, Mover.STALLER, marks)
        row = {
            "graph6": encode_graph6(g),
            "n": g.n,
            "family": fam.tag,
            "marks": mask_list(marks),
            "d_value": d.value,
            "s_value": s.value,
            "source": source,
        }
        rows.append(row)
        if d.value > s.value:
            violations.append({**row, "observed": (d.value, s.value), "expected": "d<=s"})

    for n in range(1, pruefer_n_max + 1):
        for tree in all_trees(n):
            check_state(tree, 0, "pruefer")
    for n in range(pruefer_n_max + 1, tree_n_max + 1):
        for tree in tree_classes(n):
            check_state(tree, 0, "tree-class")
    for n in forest_orders:
        for _ in range(forests_per_order):
            g = _random_forest(n, rng)
            check_state(g, _random_closed_marks(g, fam, rng), "random-forest")
    return rows, violations, extremal, {"seed": seed}


def _check_continuation(
    orders: Sequence[int], trials_per_order: int, seed: int
) -> tuple:
    rows, violations, extremal = [], [], []
    fams = [single_vertex_family(), single_edge_family(), three_path_family()]
    rng = random.Random(seed)
    for n in orders:
        pool = list(enumerate_connected(n))
        for t in range(trials_per_order):
            g = rng.choice(pool)
            fam = fams[t % len(fams)]
            marked = initial_closure(g, fam, 0).marked
            for _ in range(rng.randrange(3)):
                options = [x for x in range(g.n) if g.closed[x] & ~marked]
                if not options:
                    break
                marked = updated_marks(g, fam, marked, rng.choice(options))
            extras = mask_of(rng.sample(range(g.n), rng.randrange(g.n + 1)))
            a = close_marks(g, fam, marked | extras)
            b_sub = mask_of(v for v in mask_list(a) if rng.random() < 0.5)
            b = close_marks(g, fam, b_sub)
            ad = solve(g, fam, Mover.DOMINATOR, a).value
            bd = solve(g, fam, Mover.DOMINATOR, b).value
            a_s = solve(g, fam, Mover.STALLER, a).value
            b_s = solve(g, fam, Mover.STALLER, b).value
            row = {
                "graph6": encode_graph6(g),
                "n": n,
                "family": fam.tag,
                "a_marks": mask_list(a),
                "b_marks": mask_list(b),
                "d_value": (ad, bd),
                "s_value": (a_s, b_s),
            }
            rows.append(row)
            if ad > bd or a_s > b_s:
                violations.append(
                    {**row, "observed": (ad, bd, a_s, b_s), "expected": "a<=b both movers"}
                )
    return rows, violations, extremal, {"seed": seed}


def _check_path_bounds(n_min: int, n_max: int) -> tuple:
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


def _check_path_exact(n_min: int, n_max: int) -> tuple:
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


def _check_star_addition(
    orders: Sequence[int],
    per_order: int,
    star_sizes: Sequence[int],
    seed: int,
    value_cap: int = 4,
) -> tuple:
    rows, violations, extremal = [], [], []
    fam = single_edge_family()
    rng = random.Random(seed)
    skipped = 0

    instances: list[tuple[Graph, int]] = [(t, 0) for t in tree_classes(6)]
    for n in orders:
        for _ in range(per_order):
            g = _random_forest(n, rng)
            instances.append((g, _random_closed_marks(g, fam, rng)))

    for g, marks in instances:
        base_d = solve(g, fam, Mover.DOMINATOR, marks).value
        base_s = solve(g, fam, Mover.STALLER, marks).value
        if base_d > value_cap:
            skipped += 1
            continue
        for r in star_sizes:
            u = disjoint_union(g, star_graph(r))
            ud = solve(u, fam, Mover.DOMINATOR, marks).value
            us = solve(u, fam, Mover.STALLER, marks).value
            row = {
                "graph6": encode_graph6(g),
                "n": g.n,
                "family": fam.tag,
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
    return rows, violations, extremal, {"seed": seed, "skipped_large": skipped}


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
        d = solve(g, fam, Mover.DOMINATOR, marks).value
        s = solve(g, fam, Mover.STALLER, marks).value
        row = {
            "graph6": encode_graph6(g),
            "n": g.n,
            "family": fam.tag,
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


def _sweep_solve(args: tuple[str, int]) -> tuple[str, int, int, int]:
    text, n = args
    g = parse_graph6(text)
    d, s = solve_both(g, single_edge_family())
    return text, n, d.value, s.value


def _check_conjecture_sweep(n_max: int, jobs: int) -> tuple:
    if n_max > 8:
        raise BudgetExceeded(f"conjecture sweep capped at order 8, got {n_max}")
    if jobs < 1:
        raise BadSpec(f"jobs must be at least 1, got {jobs}")
    work: list[tuple[str, int]] = []
    for n in range(3, n_max + 1):
        for g in enumerate_connected(n):
            work.append((encode_graph6(g), n))
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            solved = pool.map(_sweep_solve, work, chunksize=256)
    else:
        solved = [_sweep_solve(item) for item in work]

    rows, violations, witnesses = [], [], []
    best_ratio = 0.0
    best_row: dict | None = None
    for text, n, d, s in solved:
        bound = ceil_three_sevenths(n)
        row = {
            "graph6": text,
            "n": n,
            "family": "K2",
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
        d, s = solve_both(path_graph(n), fam)
        rows.append(
            {
                "graph6": encode_graph6(path_graph(n)),
                "n": n,
                "family": fam.tag,
                "lower": lower,
                "d_value": d.value,
                "s_value": s.value,
                "upper": upper,
                "exact": d.value == s.value == upper,
            }
        )
    return rows


@dataclass(frozen=True)
class CheckSpec:
    """One registered check: the runner, every param it takes with its
    default, and the param that the CLI's ``--trials`` sets (if any)."""

    runner: Callable[..., tuple]
    defaults: dict
    trials: str | None = None


_ORDERS = {"n_min": 1, "n_max": 6}
_PATH_ORDERS = {"n_min": 6, "n_max": 23}

CHECKS: dict[CheckKind, CheckSpec] = {
    CheckKind.DIFF_AT_MOST_ONE: CheckSpec(
        _check_diff_at_most_one, {**_ORDERS, "fams": ("K1", "K2")}
    ),
    CheckKind.CONTINUATION_PRINCIPLE: CheckSpec(
        _check_continuation,
        {"orders": (4, 5, 6, 7), "trials_per_order": 200, "seed": 0},
        trials="trials_per_order",
    ),
    CheckKind.SANDWICH: CheckSpec(_check_sandwich, {**_ORDERS, "fams": ("K1", "K2")}),
    CheckKind.FAMILY_MONOTONE: CheckSpec(_check_family_monotone, _ORDERS),
    CheckKind.HALF_BOUND: CheckSpec(_check_half_bound, _ORDERS),
    CheckKind.SPANNING_GAP: CheckSpec(_check_spanning_gap, {"ns": (3, 4)}),
    CheckKind.FOREST_MONOTONE: CheckSpec(
        _check_forest_monotone,
        {
            "tree_n_max": 9,
            "pruefer_n_max": 6,
            "forest_orders": (6, 7, 8, 9),
            "forests_per_order": 100,
            "seed": 0,
        },
        trials="forests_per_order",
    ),
    CheckKind.PATH_BOUNDS: CheckSpec(_check_path_bounds, _PATH_ORDERS),
    CheckKind.PATH_EXACT: CheckSpec(_check_path_exact, _PATH_ORDERS),
    CheckKind.STAR_ADDITION: CheckSpec(
        _check_star_addition,
        {"orders": (4, 5, 6, 7, 8), "per_order": 25, "star_sizes": (1, 2, 3), "seed": 0},
        trials="per_order",
    ),
    CheckKind.FAMILY_VALUES: CheckSpec(_check_family_values, {}),
    CheckKind.CONJECTURE_SWEEP: CheckSpec(
        _check_conjecture_sweep, {"n_max": 6, "jobs": 1}
    ),
}


def run_check(kind: CheckKind | str, **params) -> CheckReport:
    """Run one registered check and wrap its findings in a CheckReport.

    ``params`` override the defaults in ``CHECKS[kind]``, and the report
    echoes the merged set. A param the check does not take, or a param set
    that leaves no instance to check, raises BadSpec.
    """
    kind = CheckKind(kind)
    spec = CHECKS[kind]
    unknown = [key for key in params if key not in spec.defaults]
    if unknown:
        accepted = ", ".join(spec.defaults) or "no params"
        raise BadSpec(
            f"check {kind.value} does not accept {', '.join(unknown)}; "
            f"it accepts {accepted}"
        )
    used = {**spec.defaults, **params}
    t0 = time.perf_counter()
    rows, violations, extremal, metadata = spec.runner(**used)
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


def conjecture_sweep(n_max: int, jobs: int = 1) -> CheckReport:
    """Sweep D- and S-start values against ceil(3n/7) over every connected
    graph of order 3..n_max. This reports findings (violations would be
    counterexamples); it proves nothing beyond the orders it visits.
    """
    return run_check(CheckKind.CONJECTURE_SWEEP, n_max=n_max, jobs=jobs)

def find_witness(rows: Iterable[dict], g: Graph) -> dict | None:
    """Locate the row whose graph is isomorphic to g (for witness asserts)."""
    want = canonical_form(g)
    for row in rows:
        other = parse_graph6(row["graph6"])
        if other.n == g.n and canonical_form(other) == want:
            return row
    return None
