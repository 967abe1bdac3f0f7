"""Running the built-in property checks.

Every check sweeps a property over an exhaustive or seeded instance set
and reports violations with replay data. A clean report means the property
held on every instance visited.
"""

from isogame import CheckKind, run_check

print("== Difference between the two start players is at most one ==")
report = run_check(CheckKind.DIFF_AT_MOST_ONE, n_max=6)
print(f"  {report.instances} instances, {len(report.violations)} violations")
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
print("== Nested pre-markings never lengthen the game ==")
report = run_check(CheckKind.CONTINUATION_PRINCIPLE, trials=50, seed=0)
print(f"  {report.instances} nested pairs, {len(report.violations)} violations")

print()
print("== On forests the D-game never outlasts the S-game ==")
report = run_check(CheckKind.FOREST_MONOTONE, trials=25, seed=0)
print(f"  {report.instances} instances, {len(report.violations)} violations")

print()
print("== Adding a disjoint star strictly lengthens forest games ==")
report = run_check(CheckKind.STAR_ADDITION, trials=10, seed=0)
print(f"  {report.instances} instances, {len(report.violations)} violations")
