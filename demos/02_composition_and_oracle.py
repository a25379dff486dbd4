#!/usr/bin/env python3
"""Composing generating functions: tree expansion vs the numeric fixed point.

An arity-n generating function S = (p_1+...+p_n).x + S~ acts on n inner
functions by a composition defined through implicit equations.  Formally the
composite's deformation is a sum over weighted bipartite trees; numerically
the same value comes from solving the implicit equations by fixed-point
iteration.  The two must agree to the truncation order - that is the oracle
that validates every expansion.
"""

import sys
from fractions import Fraction

from gfoperad import GenFunction, FormalSeries, PolySymbol, compose, numeric_phi
from gfoperad.symbols import p_key, x_key


def check(label, ok):
    """Print a fact the demo states and exit nonzero if it does not hold."""
    print(f"{label}{ok}")
    if not ok:
        sys.exit(f"demo check failed: {label.strip()}")


mono = lambda powers, c: PolySymbol(1, 1, {tuple(sorted(powers)): Fraction(c)})

# d = 1, arity 1: F~ = eps * p^2 x, G~ = eps * x^2 + eps^2 * x^3
F = GenFunction(1, 1, FormalSeries(1, 1, {1: mono([(p_key(1, 1), 2), (x_key(1), 1)], 1)}))
G = GenFunction(1, 1, FormalSeries(1, 1, {
    1: mono([(x_key(1), 2)], 1),
    2: mono([(x_key(1), 3)], 1),
}))

print("== the tree expansion of F(G) ==")
H = compose(F, [G], 5)
for order in H.deformation.order_indices():
    print(f"  eps^{order}:  {H.deformation.order(order)}")

print()
F1, G1, G2 = F.deformation.order(1), G.deformation.order(1), G.deformation.order(2)
edge = G1.diff(x_key(1)) * F1.diff(p_key(1, 1))
check("the eps^2 term is G2 + grad_x G1 * grad_p F1, coefficient exactly 1: ",
      H.deformation.order(2) == G2 + edge)
print("  the only weight-2 tree with mixed colors is the single edge, sigma = 1")

print()
print("== numeric oracle ==")
p0, x0 = 0.7, 0.9
errors = []
for eps in (1e-2, 5e-3, 2.5e-3):
    numeric = numeric_phi(F, [G], [[[p0]]], [x0], eps, tol=1e-15)
    series = H.value([[p0]], [x0], eps)
    errors.append(abs(numeric - series))
    print(f"  eps={eps:<8}  numeric={numeric:.15f}  |numeric - series| = {errors[-1]:.3e}")
print()
ratios = [a / b for a, b in zip(errors, errors[1:])]
check("each halving of eps shrinks the discrepancy by about 2^6 = 64: ",
      all(48 < r < 85 for r in ratios))
print("exactly what a truncation error of order eps^6 predicts.")
