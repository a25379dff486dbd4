#!/usr/bin/env python3
"""Order-by-order solving, gauge freedom, and equivalence of products.

``solve_deformation`` constructs an associative deformation of the trivial
product whose first order is (1/2) p1.alpha(x).p2, solving d S_n = -H_n under
the structure-condition constraints with exact rational elimination.  Its
output can differ from x.bch(p1,p2) beyond the forced orders: products are
unique only up to equivalence, and the equivalence action is implemented too.
"""

import random
import sys

from gfoperad import (
    GenFunction,
    bch_generating_function,
    check_sgs,
    compose,
    extract_poisson,
    invert_morphism,
    is_odd_in_p,
    lie_poisson_structure,
    psi_numeric,
    random_graded_series,
    solve_deformation,
    transform_product,
    verify_product,
)


def check(label, ok):
    """Print a fact the demo states and exit nonzero if it does not hold."""
    print(f"{label}{ok}")
    if not ok:
        sys.exit(f"demo check failed: {label.strip()}")


solvable = lie_poisson_structure(2, {(1, 2, 2): 1})

print("== exact solver vs the bch series ==")
solved = solve_deformation(solvable, 4)
bch = bch_generating_function(solvable, 4)
check("  solver output passes product + structure checks: ",
      verify_product(solved, 4).all_zero and check_sgs(solved, 4).passed)
check("  first orders agree (forced):  ", solved.order(1) == bch.order(1))
print(f"  second orders agree?          {solved.order(2) == bch.order(2)}")
print(f"  solver S_2 = {solved.order(2)}")
print(f"  bch    S_2 = {bch.order(2)}")
print("  both are valid: the product equation pins S_n only up to gauge.")

print()
print("== equivalence by an odd morphism ==")
rng = random.Random(3)
morphism = random_graded_series(rng, 1, 2, [2], max_x_degree=1)
check("  morphism F~, a single order-2 term, is odd in p: ", is_odd_in_p(morphism))
transformed = transform_product(solved, morphism, 4)
check("  transformed product still associative: ", verify_product(transformed, 4).all_zero)
check("  structure conditions preserved:        ", check_sgs(transformed, 4).passed)
check("  induced bivector unchanged:            ",
      extract_poisson(transformed) == extract_poisson(solved))

print()
print("== the morphism group ==")
inverse = invert_morphism(morphism, 4)
f = GenFunction(1, 2, morphism)
g = GenFunction(1, 2, inverse)
check("  F(F^-1) = I exactly to order 4: ", compose(f, [g], 4).deformation.is_zero())
check("  F^-1(F) = I exactly to order 4: ", compose(g, [f], 4).deformation.is_zero())

print()
print("== the symplectomorphism psi_F ==")
eps = 1e-2
p, x = [0.3, -0.2], [0.5, 0.1]
p2, x2 = psi_numeric(morphism, p, x, eps)
print(f"  psi_F({p}, {x}) = ({[round(v, 8) for v in p2]}, {[round(v, 8) for v in x2]})")
p0, x0 = psi_numeric(morphism, [0.0, 0.0], x, eps)
print(f"  psi_F((0, x)) = ({p0}, {x0})")
check("  the zero section is fixed: ", list(p0) == [0.0, 0.0] and list(x0) == x)
print("  finite-difference Jacobians of psi_F preserve the symplectic form;")
print("  see tests/test_acceptance.py for the quantitative check.")
