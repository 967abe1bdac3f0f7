"""Outside-in tracing of isogame's layers.

Nothing in ``src/`` knows about this module. ``Layers.install`` swaps the
module attributes that the layers look up at call time for timing
wrappers, so every call one layer makes into the next passes through a
counter:

* ``isogame.solver.close_marks``      - closure issued by the search
* ``isogame.rules.contains_pattern``  - pattern search inside closure
* ``isogame.rules.components``        - component split inside closure
* ``isogame.enumeration.canonical_form`` - catalog deduplication
* ``isogame.solver.solve``            - one start of ``solve_both``
* ``isogame.harness.enumerate_connected`` / ``solve_both`` and
  ``isogame.cli.conjecture_sweep``    - the sweep's phases

Hot calls only bump aggregate counters and busy time. Spans (id, parent,
name, start, end) are kept for pass, phase and instance boundaries only,
in memory, and handed back with the pass result.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

# Keys of the per-layer metrics a traced pass reports, in BENCHMARK.json
# order. Layers that do no work on a workload report explicit zeros.
INSTANCE_KEYS = (
    "path-23", "cycle-24", "gh-2",
    "cycle-16-P3", "cycle-20-P3", "gstar-complete-2-P3",
)


class Layers:
    """Counters and spans for one pass; install once, read after the pass."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._stack: list[int] = []
        self.close_calls = {"edge": 0, "search": 0}
        self.close_busy = {"edge": 0.0, "search": 0.0}
        self.close_absorbed = 0
        self.pattern_calls = 0
        self.pattern_busy = 0.0
        self.pattern_found = 0
        self.component_calls = 0
        self.component_busy = 0.0
        self.canon_calls = 0
        self.canon_busy = 0.0
        self.catalog_busy: dict[int, float] = {}
        self.catalog_size: dict[int, int] = {}
        self.states = 0
        self.roots = 0
        self.line_moves = 0
        self.solve_busy = 0.0  # inside every solve_both the pass made
        self.sweep_solve_busy = 0.0
        self.sweep_solve_first: float | None = None
        self.sweep_solve_last = 0.0
        self.sweep_span = 0.0
        self.main_span = 0.0
        self.instance_s: dict[str, float] = {}
        self.build_s = 0.0

    # --- spans ----------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Record one boundary span; nesting gives the parent."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((sid, parent, name, perf_counter(), 0.0))
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            _, _, _, start, _ = self.spans[sid]
            self.spans[sid] = (sid, parent, name, start, perf_counter())

    def closed_span(self, name: str, start: float, end: float) -> None:
        parent = self._stack[-1] if self._stack else None
        self.spans.append((len(self.spans), parent, name, start, end))

    # --- wrappers -------------------------------------------------------

    def install(self) -> None:
        """Swap the traced module attributes for counting wrappers."""
        import isogame.cli as cli
        import isogame.enumeration as enumeration
        import isogame.harness as harness
        import isogame.rules as rules
        import isogame.solver as solver

        close_marks = solver.close_marks
        contains_pattern = rules.contains_pattern
        components = rules.components
        canonical_form = enumeration.canonical_form
        solve = solver.solve
        enumerate_connected = harness.enumerate_connected
        harness_solve_both = harness.solve_both
        conjecture_sweep = cli.conjecture_sweep

        def traced_close_marks(g, fam, marked):
            t0 = perf_counter()
            out = close_marks(g, fam, marked)
            dt = perf_counter() - t0
            mode = fam.mode
            self.close_calls[mode] = self.close_calls.get(mode, 0) + 1
            self.close_busy[mode] = self.close_busy.get(mode, 0.0) + dt
            if out != marked:
                self.close_absorbed += 1
            return out

        def traced_contains_pattern(g, within, pattern):
            t0 = perf_counter()
            found = contains_pattern(g, within, pattern)
            self.pattern_busy += perf_counter() - t0
            self.pattern_calls += 1
            if found:
                self.pattern_found += 1
            return found

        def traced_components(g, active):
            t0 = perf_counter()
            out = components(g, active)
            self.component_busy += perf_counter() - t0
            self.component_calls += 1
            return out

        def traced_canonical_form(g):
            t0 = perf_counter()
            out = canonical_form(g)
            self.canon_busy += perf_counter() - t0
            self.canon_calls += 1
            return out

        def traced_solve(g, fam, start_player, initial_marks=0, **kw):
            # solve_both shares one table across both starts; the growth
            # of that table is the number of states this start stored.
            memo = kw.get("memo")
            if memo is None:
                memo = kw["memo"] = {}
            before = len(memo)
            result = solve(g, fam, start_player, initial_marks, **kw)
            self.states += len(memo) - before
            self.roots += 1
            self.line_moves += len(result.principal_line)
            return result

        def traced_enumerate_connected(n):
            # a lazy generator: time its consumption, not the call
            inner = enumerate_connected(n)

            def consume():
                busy = 0.0
                count = 0
                first = perf_counter()
                while True:
                    t0 = perf_counter()
                    try:
                        g = next(inner)
                    except StopIteration:
                        busy += perf_counter() - t0
                        break
                    busy += perf_counter() - t0
                    count += 1
                    yield g
                self.catalog_busy[n] = self.catalog_busy.get(n, 0.0) + busy
                self.catalog_size[n] = self.catalog_size.get(n, 0) + count
                self.closed_span(f"harness.enumerate.n{n}", first, perf_counter())

            return consume()

        def traced_harness_solve_both(g, fam, *args, **kw):
            t0 = perf_counter()
            out = harness_solve_both(g, fam, *args, **kw)
            t1 = perf_counter()
            self.sweep_solve_busy += t1 - t0
            if self.sweep_solve_first is None:
                self.sweep_solve_first = t0
            self.sweep_solve_last = t1
            return out

        def traced_conjecture_sweep(*args, **kw):
            t0 = perf_counter()
            with self.span("harness.conjecture_sweep"):
                report = conjecture_sweep(*args, **kw)
                if self.sweep_solve_first is not None:
                    self.closed_span(
                        "harness.solve", self.sweep_solve_first, self.sweep_solve_last
                    )
            self.sweep_span += perf_counter() - t0
            return report

        solver.close_marks = traced_close_marks
        rules.contains_pattern = traced_contains_pattern
        rules.components = traced_components
        enumeration.canonical_form = traced_canonical_form
        solver.solve = traced_solve
        harness.enumerate_connected = traced_enumerate_connected
        harness.solve_both = traced_harness_solve_both
        cli.conjecture_sweep = traced_conjecture_sweep

    # --- report ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer values of this pass, keyed by BENCHMARK.json name."""

        def per(num: float, den: float, scale: float = 1.0) -> float:
            return num / den * scale if den else 0.0

        edge, search = self.close_calls["edge"], self.close_calls["search"]
        closures = sum(self.close_calls.values())
        close_busy = sum(self.close_busy.values())
        # Every child the search visits costs one closure and one table
        # lookup, and every start adds one root lookup; the principal-line
        # replay issues one closure per move without a lookup. Lookups that
        # did not store a new state were table hits.
        lookups = closures - self.line_moves + self.roots
        solve_span = self.solve_busy + self.sweep_solve_busy
        enumerate_s = sum(self.catalog_busy.values(), 0.0)
        out = {
            "graph.components.calls": self.component_calls,
            "graph.components.busy_s": self.component_busy,
            "enumeration.canonical_form.calls": self.canon_calls,
            "enumeration.canonical_form.busy_s": self.canon_busy,
            "enumeration.canonical_form.us_per_graph": per(
                self.canon_busy, self.canon_calls, 1e6
            ),
        }
        for n in (5, 6, 7, 8):
            out[f"enumeration.catalog_s.n{n}"] = self.catalog_busy.get(n, 0.0)
        out.update({
            # classes the sweep consumed over canonical forms computed
            "enumeration.kept_ratio": per(
                sum(self.catalog_size.values()), self.canon_calls
            ),
            "rules.close_marks.calls.edge": edge,
            "rules.close_marks.calls.search": search,
            "rules.close_marks.busy_s.edge": self.close_busy["edge"],
            "rules.close_marks.busy_s.search": self.close_busy["search"],
            "rules.close_marks.ns_per_call.edge": per(
                self.close_busy["edge"], edge, 1e9
            ),
            "rules.close_marks.ns_per_call.search": per(
                self.close_busy["search"], search, 1e9
            ),
            "rules.close_marks.absorb_ratio": per(self.close_absorbed, closures),
            "rules.contains_pattern.calls": self.pattern_calls,
            "rules.contains_pattern.busy_s": self.pattern_busy,
            "rules.contains_pattern.found_ratio": per(
                self.pattern_found, self.pattern_calls
            ),
            "solver.states": self.states,
            "solver.table_hits": lookups - self.states,
            "solver.children_per_state": per(closures, self.states),
            "solver.self_s": solve_span - close_busy,
        })
        for key in INSTANCE_KEYS:
            out[f"solver.solve_s.{key}"] = self.instance_s.get(key, 0.0)
        out.update({
            "harness.enumerate_s": enumerate_s,
            "harness.solve_s": self.sweep_solve_busy,
            "harness.check_s": self.sweep_span - enumerate_s - self.sweep_solve_busy,
            "cli.self_s": self.main_span - self.sweep_span,
            "families.build_s": self.build_s,
        })
        return out

    def exact_counts(self) -> dict[str, int]:
        """Counts that must repeat exactly across passes of the same code."""
        counts = {
            "solver.states": self.states,
            "rules.close_marks.calls.edge": self.close_calls["edge"],
            "rules.close_marks.calls.search": self.close_calls["search"],
            "rules.contains_pattern.calls": self.pattern_calls,
            "graph.components.calls": self.component_calls,
            "enumeration.canonical_form.calls": self.canon_calls,
        }
        for n, size in sorted(self.catalog_size.items()):
            counts[f"catalog_size.n{n}"] = size
        return counts
