"""Workload inputs and the reference values they are checked against.

Both the pass process (which builds and solves the inputs) and the
benchmark process (which checks the outputs) import this module, so the
same ``--seed`` yields the same inputs on both sides.
"""

from __future__ import annotations

import random

SWEEP_ARGV = ["sweep", "--n-max", "8", "--jobs", "1", "--format", "csv",
              "--reproducible"]

#: OEIS A001349, connected graphs by order; independent of the package's
#: own CONNECTED_COUNTS table.
A001349 = {3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}

#: sha256 of the sweep's CSV output, recorded at the commit that added
#: this benchmark.
SWEEP_CSV_SHA256 = "83dcc2ad36d2b7e3d10cdf88f756ca2210207d3994908e922e10df60cdb9612c"

SWEEP_CSV_HEADER = ["graph6", "n", "family", "d_value", "s_value", "bound", "at_bound"]

#: Rows of order <= 7 re-solved by the naive oracle in each sweep pass.
ORACLE_SAMPLE = 256

#: Instances of the solve workloads: (metric key, family spec, forbidden
#: family). Values are (Dominator start, Staller start), recorded at the
#: commit that added this benchmark; they are isomorphism invariants, so
#: they hold for every relabelling the seed picks.
INSTANCES = {
    "hard-k2": [
        ("path-23", "path:23", "K2"),
        ("cycle-24", "cycle:24", "K2"),
        ("gh-2", "gh:2", "K2"),
    ],
    "pattern-p3": [
        ("cycle-16-P3", "cycle:16", "P3"),
        ("cycle-20-P3", "cycle:20", "P3"),
        ("gstar-complete-2-P3", "gstar:complete:2", "P3"),
    ],
}

REFERENCE_VALUES = {
    "path-23": (9, 9),
    "cycle-24": (9, 9),
    "gh-2": (10, 10),
    "cycle-16-P3": (5, 4),
    "cycle-20-P3": (7, 6),
    "gstar-complete-2-P3": (3, 3),
}

WORKLOADS = ("sweep8", *INSTANCES)


def forbidden_family(tag: str):
    from isogame.rules import single_edge_family, three_path_family

    return {"K2": single_edge_family, "P3": three_path_family}[tag]()


def build_instances(workload: str, seed: int):
    """The workload's graphs, each relabelled by a permutation drawn from
    ``seed``: (key, spec, graph, forbidden family) per instance.

    Relabelling keeps every value while changing the vertex order the
    search and the pattern matcher walk, so no layer can be tuned to the
    natural numbering of one family.
    """
    from isogame.families import make_family
    from isogame.graph import build_graph

    rng = random.Random(seed)
    out = []
    for key, spec, tag in INSTANCES[workload]:
        g = make_family(spec)
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabelled = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()], spec)
        out.append((key, spec, relabelled, forbidden_family(tag)))
    return out
