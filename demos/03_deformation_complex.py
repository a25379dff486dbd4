#!/usr/bin/env python3
"""The deformation complex: coboundary, bracket, and the product equation.

Deforming the trivial product S0 = (p1+p2).x order by order leads to the
recursive equations d S_n + H_n = 0, where d is a coboundary operator acting
by argument-merging substitutions and H_n collects lower-order contributions
through the Gerstenhaber bracket.
"""

import random
import sys
from fractions import Fraction

from gfoperad import (
    FormalSeries,
    PolySymbol,
    bracket,
    coboundary,
    obstruction,
    random_graded_series,
    verify_product,
)
from gfoperad.deformation import coboundary_symbol
from gfoperad.symbols import p_key


def check(label, ok):
    """Print a fact the demo states and exit nonzero if it does not hold."""
    print(f"{label}{ok}")
    if not ok:
        sys.exit(f"demo check failed: {label.strip()}")


print("== the coboundary on an arity-1 series ==")
f = FormalSeries(1, 1, {1: PolySymbol(1, 1, {((p_key(1, 1), 2),): Fraction(1)})})
df = coboundary(f)
print(f"  F(p) = p^2   =>   dF(p1, p2) = F(p1) - F(p1+p2) + F(p2) = {df.order(1)}")

print()
print("== d is a differential and comes from the bracket ==")
rng = random.Random(1)
series = random_graded_series(rng, 2, 2, [1, 2])
check("  d(dF) == 0 on a random arity-2 series: ", coboundary(coboundary(series)).is_zero())
zero2 = FormalSeries.zero(2, 2)
check("  bracket(0_2, F) == dF:                 ", bracket(zero2, series, 3) == coboundary(series))

print()
print("== the product equation, order by order ==")
# constant antisymmetric bivector on the plane: exact product at first order
moyal = FormalSeries(2, 2, {1: PolySymbol(2, 2, {
    ((p_key(1, 1), 1), (p_key(2, 2), 1)): Fraction(1, 2),
    ((p_key(1, 2), 1), (p_key(2, 1), 1)): Fraction(-1, 2),
})})
report = verify_product(moyal, 6)
check("  constant bivector deformation: residuals zero through order 6: ", report.all_zero)

print()
print("== obstructions ==")
h2 = obstruction(moyal, 2)
print(f"  H_2 for the constant bivector: {h2}")
check("  H_2 vanishes: ", h2.is_zero())
print("  a vanishing obstruction means the next order needs no correction at all;")
print("  for x-dependent structures H_n is nonzero and dS_n = -H_n must be solved.")

# the order-n residual always decomposes as dS_n + H_n
rnd = random_graded_series(random.Random(7), 2, 1, [1, 2], max_x_degree=1)
n = 2
residual = verify_product(rnd, n).residuals[n]
decomposed = coboundary_symbol(rnd.order(n), 2) + obstruction(rnd.truncate(n - 1), n, verified=True)
check("  residual_n == d(S_n) + H_n on a random series: ", residual == decomposed)
