#!/usr/bin/env python3
"""Weighted bipartite trees: the bookkeeping device behind every expansion here.

Vertices are white (x-side) or black (p-side), adjacent vertices have opposite
colors, and each vertex carries a positive integer weight that will become an
epsilon order.  This script walks through construction, canonical encodings,
symmetry coefficients and the Butcher product.
"""

import sys

from gfoperad import (
    BLACK,
    WHITE,
    automorphism_count,
    butcher_product,
    enumerate_rooted,
    enumerate_unrooted,
    forget_root,
    graft,
    leaf,
    symmetry_coefficient,
)
from gfoperad.trees import rerootings


def check(label, ok):
    """Print a fact the demo states and exit nonzero if it does not hold."""
    print(f"{label}{ok}")
    if not ok:
        sys.exit(f"demo check failed: {label.strip()}")


print("== building trees ==")
w1 = leaf(WHITE, 1)
b1 = leaf(BLACK, 1)
cherry = graft([w1, w1], BLACK, 2)
print(f"white leaf:          {w1.encoding}")
print(f"cherry over b2:      {cherry.encoding}   |t|={cherry.size}  ||t||={cherry.total_weight}")

deep = graft([graft([leaf(BLACK, 3)], WHITE, 1), w1], BLACK, 2)
print(f"nested example:      {deep.encoding}")
swapped = graft([w1, graft([leaf(BLACK, 3)], WHITE, 1)], BLACK, 2)
check("children are kept sorted, so grafting in any order gives the same tree: ",
      swapped == deep)

print()
print("== symmetry coefficients ==")
print(f"sigma({cherry.encoding}) = {symmetry_coefficient(cherry)}  "
      f"(two interchangeable children)")
autos = automorphism_count(cherry)
check(f"brute-force automorphisms ({autos}) agree: ", autos == symmetry_coefficient(cherry))

print()
print("== the Butcher product grafts one root under another ==")
uv = butcher_product(w1, b1)
vu = butcher_product(b1, w1)
print(f"w1 o b1 = {uv.encoding},  b1 o w1 = {vu.encoding}")
check("they differ as rooted trees but agree unrooted: ",
      uv != vu and forget_root(uv) == forget_root(vu))

print()
print("== re-rooting and unrooted classes ==")
for r in rerootings(cherry):
    print(f"  rooted at another vertex: {r.encoding}")
print(f"unrooted representative: {forget_root(cherry).encoding}")

print()
print("== enumeration by total weight ==")
for total in range(1, 5):
    rooted = [t for t in enumerate_rooted(total) if t.total_weight == total]
    unrooted = [t for t in enumerate_unrooted(total) if t.total_weight == total]
    print(f"||t|| = {total}: {len(rooted):3} rooted classes, {len(unrooted):3} unrooted")
print()
print("every unrooted class t appears in expansions with coefficient 1/sigma(t);")
print("summing 1/sigma over classes of weight w reproduces the labeled count / w!.")
