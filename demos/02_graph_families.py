"""The built-in graph constructions and their graph6 encodings.

Each family was designed to pin down one behavior of the game: the
triangle-clique family interpolates game values, the star-of-paths family
attains 3n/7 exactly, and chains of the 12-vertex gadget reach 5n/12.
"""

from isogame import (
    Mover,
    encode_graph6,
    f_triangles,
    g_h,
    g_star,
    g_triangles,
    complete_graph,
    make_family,
    single_edge_family,
    solve,
)

fam = single_edge_family()

print("== Triangle hubs with a clique: values interpolate n .. 1 ==")
n = 4
print(f"  base ({n} triangles): value {solve(g_triangles(n), fam, Mover.DOMINATOR).value}")
for k in range(1, n + 1):
    g = f_triangles(n, k)
    print(f"  {k} rung(s) removed:  value {solve(g, fam, Mover.DOMINATOR).value}"
          f"   graph6 {encode_graph6(g)}")

print()
print("== Star of paths: every base vertex becomes a P7 center ==")
for base_order in (1, 2):
    g = g_star(complete_graph(base_order))
    d = solve(g, fam, Mover.DOMINATOR).value
    print(f"  base K{base_order}: order {g.n}, value {d} = 3/7 * {g.n}")

print()
print("== Gadget chain: order 12n, five moves per copy ==")
g = g_h(1)
print(f"  one copy: order {g.n}, value {solve(g, fam, Mover.DOMINATOR).value}")
g = g_h(2)
print(f"  two copies: order {g.n}, value {solve(g, fam, Mover.DOMINATOR).value}")

print()
print("== Spec strings build the same graphs ==")
for spec in ("cycle:6", "gstar:complete:2", "ftriangles:3:2", "custom:4:0-1,1-2,2-3"):
    g = make_family(spec)
    print(f"  {spec:24s} -> n={g.n:2d}  {encode_graph6(g)}")
