"""The symplectic groupoid axioms (``tests/groupoid_axioms.py``) hold exactly on
solver and gauge-transform outputs, and catch a perturbation that keeps every
structure condition."""

import random

import pytest

from groupoid_axioms import axiom_failures, first_failing_order
from gfoperad.deformation import verify_product
from gfoperad.groupoid import check_sgs, transform_product
from gfoperad.poisson import PoissonStructure
from gfoperad.solver import heisenberg_structure, lie_poisson_structure, solve_deformation
from gfoperad.symbols import PolySymbol, p_key, random_graded_series, x_key

SO3 = lie_poisson_structure(3, {(1, 2, 3): 1, (2, 3, 1): 1, (1, 3, 2): -1})

STRUCTURES = {
    "so3": SO3,
    "heisenberg": heisenberg_structure(),
    "quadratic": PoissonStructure(2, {(1, 2): PolySymbol(2, 0, {((x_key(1), 2),): 1})}),
    "constant": PoissonStructure(2, {(1, 2): PolySymbol.constant(1, 2, 0)}),
}


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_solver_outputs_satisfy_the_groupoid_axioms(name):
    assert axiom_failures(solve_deformation(STRUCTURES[name], 6), 6) == []


def test_a_gauge_transform_keeps_the_groupoid_axioms():
    # psi_F is symplectic and fixes the zero section, so the transformed product's
    # structure maps obey the same laws over the same bracket
    morphism = random_graded_series(random.Random(5), 1, 3, [2], 2)
    product = solve_deformation(SO3, 4)
    transformed = transform_product(product, morphism, 4)
    assert transformed != product
    assert axiom_failures(transformed, 4) == []


@pytest.mark.parametrize("k, first", [(2, 3), (3, 3), (4, 5)])
def test_a_perturbation_that_keeps_the_structure_conditions_fails_the_axioms(k, first):
    # x2 (p1_1^k p2_1 + (-1)^k p1_1 p2_1^k) vanishes at p2 = 0, at p1 = 0 and at
    # p2 = -p1, but breaks associativity (from order 3 for k = 2 and 3, order 4 for
    # k = 4); the axioms fail from order k + 1 for even k and from order k for odd k
    product = solve_deformation(SO3, 5)
    bump = PolySymbol(3, 2, {
        ((p_key(1, 1), k), (p_key(2, 1), 1), (x_key(2), 1)): 1,
        ((p_key(1, 1), 1), (p_key(2, 1), k), (x_key(2), 1)): (-1) ** k,
    })
    perturbed = product.with_order(k, product.order(k) + bump)
    assert check_sgs(perturbed, 5).passed
    assert not verify_product(perturbed, 5).all_zero
    assert axiom_failures(product, 5) == []
    assert first_failing_order(perturbed, 5) == first
