#!/usr/bin/env python3
"""The tower construction: huge vertex sets without long monochromatic paths.

Level 2 is an ordered set of 2n pairs; each higher level consists of all
transversals through the equivalence classes of the level below, so
sizes grow as a tower of exponentials.  Coloring an r-subset by
iterating the first-difference selector down to a bare sign yields a
monotone coloring in which no monochromatic monotone path spans more
than 2n + r - 2 vertices.
"""

from signotopes import TowerGroundSet, is_monotone, longest_mono_paths, tow, tower_sizes

# The 8-element ground set at r=3, n=3, small enough to print in full.
ground = TowerGroundSet(3, 3)
print("level sizes:", ground.sizes[1:])
for idx, el in enumerate(ground.elements(), start=1):
    members = sorted(ground.members_of(el))
    sign = "-" if ground.type_of(el) == -1 else "+"
    print(f"  B{idx} (type {sign}): {members}")

b = ground.elements()
print("\nfirst difference of B1,B2:", ground.pair_of(ground.gamma(b[0], b[1])))
print("first difference of B2,B3:", ground.pair_of(ground.gamma(b[1], b[2])))
print("color of {B1,B2,B3}:", "+" if ground.gamma_iter(b[:3], 2)[0].code else "-")

print("\nbuild + verify across parameters:")
for r, n in [(3, 3), (3, 4), (3, 5), (3, 6), (4, 3)]:
    g = TowerGroundSet(r, n)
    coloring = g.coloring()
    rep = longest_mono_paths(coloring)
    bound = 2 * n + r - 2
    print(
        f"  r={r}, n={n}: {g.size:3d} vertices, monotone={is_monotone(coloring)}, "
        f"longest paths ({rep.best_minus},{rep.best_plus}) <= {bound}"
    )

print("\nthe sizes dwarf the iterated-exponential benchmark:")
for r, n in [(3, 6), (4, 3), (4, 4)]:
    print(f"  r={r}, n={n}: N = {tower_sizes(r, n)[r]} >= tow_{r-1}({n - r}) = {tow(r - 1, n - r)}")
