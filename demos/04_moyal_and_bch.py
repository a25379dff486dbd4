#!/usr/bin/env python3
"""From Poisson structures to groupoid data: Moyal-type and Lie-Poisson cases.

An associative deformation satisfying the structure conditions
S(p,0,x) = S(0,p,x) = p.x and S(p,-p,x) = 0 encodes a local symplectic
groupoid: it induces a Poisson bivector on the base and explicit source and
target maps.  For a linear (Lie-Poisson) structure the deformation is the
classic x.bch(p1,p2) series.
"""

import sys

from gfoperad import (
    bch_generating_function,
    check_sgs,
    extract_poisson,
    first_order_deformation,
    heisenberg_structure,
    lie_poisson_structure,
    structure_maps,
    validate_poisson,
    verify_product,
)
from gfoperad.poisson import PoissonStructure
from gfoperad.symbols import PolySymbol, p_key


def check(label, ok):
    """Print a fact the demo states and exit nonzero if it does not hold."""
    print(f"{label}{ok}")
    if not ok:
        sys.exit(f"demo check failed: {label.strip()}")


print("== constant bivector (Moyal-type) ==")
alpha = PoissonStructure(2, {(1, 2): PolySymbol.constant(1, 2, 0)})
series = first_order_deformation(alpha)
print(f"  S~ = eps * {series.order(1)}")
check("  product equation through order 8: ", verify_product(series, 8).all_zero)
check("  structure conditions:             ", check_sgs(series, 8).passed)
maps = structure_maps(series, 2)
print(f"  source correction: {[str(c.order(1)) for c in maps.source]}")
print(f"  target correction: {[str(c.order(1)) for c in maps.target]}")
p = [PolySymbol.variable(p_key(1, j), 2, 1) for j in (1, 2)]
difference = [t.order(1) - s.order(1) for s, t in zip(maps.source, maps.target)]
check("  source and target differ by eps * alpha(x) p - the bivector read off the maps: ",
      difference == [p[1], -p[0]])

print()
print("== Heisenberg algebra: alpha^12 = x_3 on R^3 ==")
heis = heisenberg_structure()
check("  Jacobi holds: ", validate_poisson(heis).ok)
bch = bch_generating_function(heis, 5)
check(f"  x.bch(p1,p2) deformation orders: {bch.order_indices()} == [1]: ",
      bch.order_indices() == [1])
print("  (the algebra is 2-step nilpotent, so the series stops after 1/2 [p1,p2])")
check("  associative through order 5: ", verify_product(bch, 5).all_zero)
check("  bivector round trip:         ", extract_poisson(bch) == heis)

print()
print("== a solvable algebra keeps all orders: [e1, e2] = e2 ==")
solvable = lie_poisson_structure(2, {(1, 2, 2): 1})
series = bch_generating_function(solvable, 5)
for order in series.order_indices():
    print(f"  eps^{order}: {series.order(order)}")
check("  associative through order 5: ", verify_product(series, 5).all_zero)
print("  the 1/2, 1/12, -1/24 coefficients are the classical bch pattern.")
