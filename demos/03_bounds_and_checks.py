"""Running the built-in property checks.

Every check sweeps a property over an exhaustive instance set (the
mark-set checks read every mark set of every graph they visit) and
reports violations with replay data. A clean report means the property
held on every instance visited.
"""

from isogame import CheckKind, run_check

print("== Difference between the two start players is at most one ==")
report = run_check(CheckKind.DIFF_AT_MOST_ONE, n_max=6)
print(f"  {report.instances} graph-family pairs, {report.metadata['mark_sets']} mark sets, "
      f"{len(report.violations)} violations")
print(f"  states attaining difference 1 (first few):")
for row in report.extremal[:3]:
    print(f"    {row['graph6']:8s} family {row['family']}: "
          f"D={row['d_value']} S={row['s_value']}")

print()
print("== Game value sandwiched by the isolation number ==")
report = run_check(CheckKind.SANDWICH, n_max=6)
print(f"  {report.instances} instances, {len(report.violations)} violations, "
      f"{report.metadata['d_upper_tight']} hit the 2*iota-1 ceiling")

print()
print("== One more pre-marked vertex never lengthens the game ==")
report = run_check(CheckKind.CONTINUATION_PRINCIPLE, n_max=5)
print(f"  {report.instances} graph-family pairs, {report.metadata['mark_sets']} mark sets, "
      f"{report.metadata['steps']} one-vertex additions, "
      f"{len(report.violations)} violations")

print()
print("== On forests the D-game never outlasts the S-game ==")
report = run_check(CheckKind.FOREST_MONOTONE, n_max=8)
print(f"  {report.instances} forests, {report.metadata['mark_sets']} mark sets, "
      f"{len(report.violations)} violations")

print()
print("== Adding a disjoint star strictly lengthens forest games ==")
report = run_check(CheckKind.STAR_ADDITION, n_max=6)
print(f"  {report.instances} forest-star pairs, {report.metadata['mark_sets']} mark sets, "
      f"{len(report.violations)} violations")
