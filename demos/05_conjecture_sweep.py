"""Sweeping the ceil(3n/7) upper-bound conjecture on small graphs.

Both game values are conjectured to stay within ceil(3n/7) for every graph
without isolated-edge components. The sweep solves every connected graph
up to the requested order and reports any violation (none are known) plus
all graphs that attain the bound exactly.

Order 8 takes about 2 s, about 1.2 s of it building the catalogs; pass a
smaller bound for a quick look.
"""

import sys

from isogame import conjecture_sweep

n_max = int(sys.argv[1]) if len(sys.argv) > 1 else 7

report = conjecture_sweep(n_max)
print(f"swept {report.instances} connected graphs of orders 3..{n_max}")
print(f"violations: {len(report.violations)}")

summary = report.extremal[0]
witnesses = summary["equality_witnesses"]
print(f"graphs attaining ceil(3n/7) exactly: {len(witnesses)}")
for row in witnesses[:12]:
    print(f"  {row['graph6']:10s} n={row['n']}  D={row['d_value']} "
          f"S={row['s_value']}  bound={row['bound']}")
if len(witnesses) > 12:
    print(f"  ... and {len(witnesses) - 12} more")
