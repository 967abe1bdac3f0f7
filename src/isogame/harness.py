"""Machine checks for every bound, identity, and construction the solver is
expected to reproduce, each over an exhaustive instance set.

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

The catalog checks sandwich, half-bound and conjecture-sweep build their
rows from ``_solved_catalog``, which reads both starts' values of each
catalog graph with ``solve_values`` (no principal line); each check walks
it on its own, once per family, with its own columns and predicate. family-monotone solves only Dominator starts. The
mark-set checks (diff-at-most-one, continuation-principle, forest-monotone
and star-addition) read both starts' values at every mark set of a graph
from the oracle's retrograde table instead, so each covers every closed
state, not just the empty start.

``CHECKS`` maps each kind to its runner, and the runner's keyword defaults
are the check's params. Every param is ``n_min`` or ``n_max``, the order
range of a catalog, forest or path check, so each ``verify`` flag sets the
param of its own name. Every other instance set (families, orders, star
sizes) is fixed inside its runner.

Reports are deterministic; violations carry enough data (graph6 and marks)
to replay any finding with one solve call or one table read per value they
compare.
"""

from __future__ import annotations

import enum
import time
from functools import reduce
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
from .graph import Graph, disjoint_union, encode_graph6, mask_list, parse_graph6
from .oracle import MAX_NAIVE_ORDER, game_values, isolation_number
from .rules import (
    ForbiddenFamily,
    single_edge_family,
    single_vertex_family,
    three_path_family,
)
from .solver import Mover, solve, solve_both, solve_values


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


class CheckReport:
    """One check's findings; ``rows`` and ``metadata`` default to new empty
    containers. A report is mutable, so it compares by value but has no
    hash."""

    __slots__ = ("kind", "instances", "violations", "extremal", "wall_time_s",
                 "params", "rows", "metadata")
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        kind: CheckKind,
        instances: int,
        violations: list[dict],
        extremal: list[dict],
        wall_time_s: float,
        params: dict,
        rows: list[dict] | None = None,
        metadata: dict | None = None,
    ) -> None:
        self.kind = kind
        self.instances = instances
        self.violations = violations
        self.extremal = extremal
        self.wall_time_s = wall_time_s
        self.params = params
        self.rows = [] if rows is None else rows
        self.metadata = {} if metadata is None else metadata

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not CheckReport:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"CheckReport({shown})"

    def __reduce__(self):
        return CheckReport, self._fields()

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
        import json

        return json.dumps(self.summary(reproducible), indent=2, sort_keys=True)


def _connected_range(n_min: int, n_max: int) -> Iterator[Graph]:
    """The connected catalog of orders n_min..n_max, its range checked at
    the call: before any graph is built or solved."""
    if n_min < 1:
        raise BadSpec(f"n_min must be at least 1, got {n_min}")
    if n_max > MAX_ENUM_ORDER:
        raise BudgetExceeded(f"catalog capped at order {MAX_ENUM_ORDER}, got n_max={n_max}")
    return chain.from_iterable(map(enumerate_connected, range(n_min, n_max + 1)))


def _tree_multisets(n: int, least: tuple[int, int] = (1, 0)) -> Iterator[tuple[Graph, ...]]:
    """Every multiset of tree classes of total order n, as its parts sorted
    by (order, class index), the first part no smaller than least."""
    if n == 0:
        yield ()
    for k in range(least[0], n + 1):
        trees = tree_classes(k)
        for i in range(least[1] if k == least[0] else 0, len(trees)):
            for rest in _tree_multisets(n - k, (k, i)):
                yield (trees[i], *rest)


def _forest_range(n_min: int, n_max: int, cap: int = MAX_NAIVE_ORDER) -> Iterator[Graph]:
    """One forest per isomorphism class of orders n_min..n_max (OEIS
    A005195), each its trees joined by disjoint_union; the range is checked
    at the call, against the game table's cap or a lower one."""
    if n_min < 1:
        raise BadSpec(f"n_min must be at least 1, got {n_min}")
    if n_max > cap:
        raise BudgetExceeded(f"forests capped at order {cap}, got n_max={n_max}")
    orders = range(n_min, n_max + 1)
    return (reduce(disjoint_union, parts) for n in orders for parts in _tree_multisets(n))


def _mark_table(g: Graph, fam: ForbiddenFamily) -> list[tuple[int, int]]:
    """Both starts' values at every mask of g, indexed by mask. An open
    mask holds its closure's values, so a walk over every mask covers every
    closed state without closing any mask itself."""
    return list(zip(*game_values(g, fam)))


def _solved_catalog(
    n_min: int, n_max: int, fam: ForbiddenFamily
) -> Iterator[tuple[Graph, int, int]]:
    """Every connected graph of order n_min..n_max with its D- and S-start
    values under fam, in catalog order, each solved as it is yielded."""
    for g in _connected_range(n_min, n_max):
        yield g, *solve_values(g, fam)


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


def _check_diff_at_most_one(*, n_min: int = 1, n_max: int = 6) -> tuple:
    rows, violations, extremal = [], [], []
    mark_sets = 0
    for fam in (single_vertex_family(), single_edge_family(), three_path_family()):
        for g in _connected_range(n_min, n_max):
            values = _mark_table(g, fam)
            d, s = values[0]
            row = {**_head(g, fam.tag), "d_value": d, "s_value": s, "diff": d - s}
            rows.append(row)
            if abs(d - s) == 1 and len(extremal) < 10:
                extremal.append(row)
            mark_sets += len(values)
            for marks, (d, s) in enumerate(values):
                if abs(d - s) > 1:
                    violations.append({**_head(g, fam.tag), "marks": mask_list(marks),
                                       "observed": (d, s), "expected": "|d-s|<=1"})
    return rows, violations, extremal, {"mark_sets": mark_sets}


def _check_sandwich(*, n_min: int = 1, n_max: int = 6) -> tuple:
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


def _check_family_monotone(*, n_min: int = 1, n_max: int = 6) -> tuple:
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


def _check_half_bound(*, n_min: int = 1, n_max: int = 6) -> tuple:
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


def _check_forest_monotone(*, n_min: int = 1, n_max: int = 9) -> tuple:
    rows, violations = [], []
    fam = single_edge_family()
    mark_sets = 0
    for g in _forest_range(n_min, n_max):
        values = _mark_table(g, fam)
        rows.append({**_head(g, fam.tag), "d_value": values[0][0], "s_value": values[0][1]})
        mark_sets += len(values)
        for marks, (d, s) in enumerate(values):
            if d > s:
                violations.append({**_head(g, fam.tag), "marks": mask_list(marks),
                                   "observed": (d, s), "expected": "d<=s"})
    return rows, violations, [], {"mark_sets": mark_sets}


def _check_continuation(*, n_min: int = 1, n_max: int = 6) -> tuple:
    # every nested pair B <= A is a chain of one-vertex additions, so
    # checking each B against each B + u covers them all
    rows, violations = [], []
    mark_sets = steps = 0
    for fam in (single_vertex_family(), single_edge_family(), three_path_family()):
        for g in _connected_range(n_min, n_max):
            values = _mark_table(g, fam)
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


def _check_path_bounds(*, n_min: int = 6, n_max: int = 23) -> tuple:
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


def _check_path_exact(*, n_min: int = 6, n_max: int = 23) -> tuple:
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


def _check_star_addition(*, n_min: int = 1, n_max: int = 7) -> tuple:
    rows, violations = [], []
    fam = single_edge_family()
    stars = {r: star_graph(r) for r in (1, 2, 3)}
    mark_sets = 0
    for g in _forest_range(n_min, n_max, MAX_NAIVE_ORDER - stars[3].n):
        # read before the unions: game_values keeps only the last table
        base = _mark_table(g, fam)
        for r, star in stars.items():
            union = _mark_table(disjoint_union(g, star), fam)
            rows.append({
                **_head(g, fam.tag),
                "star_leaves": r,
                "d_value": (base[0][0], union[0][0]),
                "s_value": (base[0][1], union[0][1]),
            })
            mark_sets += len(base)
            # the star's vertices follow g's, so g's masks come first
            for marks, ((bd, bs), (ud, us)) in enumerate(zip(base, union)):
                if not (ud > bd and us > bs):
                    violations.append({
                        **_head(g, fam.tag), "star_leaves": r, "marks": mask_list(marks),
                        "observed": (ud, us), "expected": f"> ({bd}, {bs})",
                    })
    return rows, violations, [], {"mark_sets": mark_sets}


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


def _check_conjecture_sweep(*, n_max: int = 6) -> tuple:
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
    return dict(CHECKS[CheckKind(kind)].__kwdefaults__ or {})


def run_check(kind: CheckKind | str, **params) -> CheckReport:
    """Run one registered check and wrap its findings in a CheckReport.

    ``params`` override the runner's keyword defaults, and the report
    echoes the merged set. A param the check does not take, a param that
    is not an int (a bool included, which the report would record as
    ``true``), or a param set that leaves no instance to check, raises
    BadSpec; the first two before anything runs.
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
    for key, value in params.items():
        if type(value) is not int:
            raise BadSpec(f"check {kind.value} needs an integer {key}, got {value!r}")
    used = {**defaults, **params}
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
