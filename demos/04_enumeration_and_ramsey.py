#!/usr/bin/env python3
"""Exhaustive enumeration, projections, and small monotone Ramsey numbers.

The backtracking search assigns edge colors in colex order and checks
each (r+1)-subset the moment its last edge is colored.  Counting joins
the colorings of [n-1] with their one-element extensions instead of
walking that search, yet reports the search's node total; projections
(drop the largest vertex of every edge containing it) separate distinct
colorings; and pruning branches that already contain a monochromatic
path pins down small Ramsey numbers.
"""

from signotopes import (
    count_monotone,
    enumerate_monotone,
    is_monotone,
    longest_mono_paths,
    project,
    projection_signature,
    ramsey_number,
)

print("exact counts (r=3):")
for n in range(3, 9):
    rep = count_monotone(3, n)
    print(
        f"  n={n}: {rep.count:9,d} colorings, {rep.nodes:10,d} search nodes, "
        f"upper bound 2^{rep.upper_exponent:.0f} holds={rep.bounds_ok}"
    )

print("\nprojections of the 62 colorings at n=5 are monotone and distinct:")
signatures = set()
for c in enumerate_monotone(3, 5):
    assert all(is_monotone(project(c, i)) for i in range(3, 6))
    signatures.add(tuple(p.colors.tobytes() for p in projection_signature(c)))
print(f"  {len(signatures)} distinct signatures")

print("\nsmallest N forcing a monochromatic monotone path on m vertices:")
for r, m, n_max in [(2, 3, 6), (2, 4, 12), (3, 4, 8)]:
    rep = ramsey_number(r, m, n_max)
    witness = rep.witness
    print(
        f"  r={r}, m={m}: N = {rep.number} "
        f"(avoiding coloring exists on {witness.n} vertices, "
        f"longest path {longest_mono_paths(witness).best})"
    )
