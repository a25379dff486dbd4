import random
from fractions import Fraction

import numpy as np
import pytest

from gfoperad.deformation import verify_product
from gfoperad.groupoid import (
    SgsError,
    check_sgs,
    extract_poisson,
    invert_morphism,
    is_odd_in_p,
    psi_numeric,
    structure_maps,
    transform_product,
)
from gfoperad.operad import GenFunction, compose
from gfoperad.symbols import (
    FormalSeries,
    PolySymbol,
    p_key,
    random_graded_series,
    x_key,
)
from sample_series import (
    constant_poisson_first_order,
    heisenberg_first_order,
    poly,
    symmetric_band_first_order,
    trivial_product,
)


def random_odd_morphism(rng, dim, order, max_x_degree=2):
    """Graded arity-1 series with one nonzero order of odd p-degree (order even)."""
    assert order % 2 == 0
    series = random_graded_series(rng, 1, dim, [order], max_x_degree)
    assert is_odd_in_p(series)
    return series


def test_check_sgs_zero_passes():
    assert check_sgs(FormalSeries.zero(2, 2), 3).passed


def test_check_sgs_constant_poisson_passes():
    assert check_sgs(constant_poisson_first_order(), 4).passed


def test_check_sgs_symmetric_fails_inverse_condition():
    report = check_sgs(symmetric_band_first_order(), 2)
    assert not report.passed
    name, order, _ = report.first_failure()
    assert name == "S(p,-p,x)" and order == 1


def test_extract_poisson_constant():
    alpha = extract_poisson(constant_poisson_first_order())
    assert alpha.entry(1, 2) == PolySymbol.constant(1, 2, 0)
    assert alpha.entry(2, 1) == PolySymbol.constant(-1, 2, 0)


def test_extract_poisson_zero():
    assert extract_poisson(FormalSeries.zero(2, 2)).is_zero()


def test_extract_poisson_heisenberg():
    alpha = extract_poisson(heisenberg_first_order())
    assert alpha.entry(1, 2) == PolySymbol.variable(x_key(3), 3, 0)
    assert alpha.entry(1, 3).is_zero() and alpha.entry(2, 3).is_zero()


def test_extract_poisson_rejects_symmetric():
    with pytest.raises(SgsError):
        extract_poisson(symmetric_band_first_order())


def test_structure_maps_trivial():
    maps = structure_maps(FormalSeries.zero(2, 2), 3)
    assert all(c.is_zero() for c in maps.source)
    assert all(c.is_zero() for c in maps.target)


def test_structure_maps_constant_poisson():
    s = constant_poisson_first_order()
    maps = structure_maps(s, 2)
    # source = x - (eps/2) alpha p, target = x + (eps/2) alpha p (alpha^{12}=1)
    alpha = [[0, 1], [-1, 0]]
    for i in range(2):
        expected_src = PolySymbol.zero(2, 1)
        expected_tgt = PolySymbol.zero(2, 1)
        for j in range(2):
            if alpha[i][j]:
                v = PolySymbol.variable(p_key(1, j + 1), 2, 1)
                expected_src = expected_src + v.scale(Fraction(-alpha[i][j], 2))
                expected_tgt = expected_tgt + v.scale(Fraction(alpha[i][j], 2))
        assert maps.source[i].order(1) == expected_src
        assert maps.target[i].order(1) == expected_tgt
    # target - source = eps alpha(x) p at first order
    for i in range(2):
        diff = maps.target[i].order(1) - maps.source[i].order(1)
        expected = PolySymbol.variable(p_key(1, 2 - i), 2, 1).scale(1 if i == 0 else -1)
        assert diff == expected


def test_structure_maps_fix_zero_section():
    s = heisenberg_first_order()
    maps = structure_maps(s, 1)
    zero_p = {p_key(1, i): PolySymbol.zero(3, 1) for i in range(1, 4)}
    for comp in maps.source + maps.target:
        for sym in comp.orders.values():
            assert sym.substitute(zero_p, 3, 1).is_zero()


def test_structure_maps_require_sgs():
    with pytest.raises(SgsError):
        structure_maps(symmetric_band_first_order(), 2)


@pytest.mark.parametrize("order", [0, -3])
def test_orders_below_one_are_refused(order):
    with pytest.raises(ValueError):
        invert_morphism(FormalSeries.zero(1, 1), order)
    with pytest.raises(ValueError):
        structure_maps(FormalSeries.zero(2, 2), order)


def test_invert_trivial_and_first_order():
    assert invert_morphism(FormalSeries.zero(1, 1), 3).is_zero()
    f1 = poly(1, 1, {((p_key(1, 1), 2), (x_key(1), 1)): 1})
    f = FormalSeries(1, 1, {1: f1})
    inv = invert_morphism(f, 1)
    assert inv.order(1) == -f1


def test_invert_random_both_sides():
    rng = random.Random(83)
    f = random_graded_series(rng, 1, 2, [1, 2, 3], max_x_degree=1)
    inv = invert_morphism(f, 4)
    wrapped_f = GenFunction(1, 2, f)
    wrapped_inv = GenFunction(1, 2, inv)
    assert compose(wrapped_f, [wrapped_inv], 4).deformation.is_zero()
    assert compose(wrapped_inv, [wrapped_f], 4).deformation.is_zero()


def test_transform_with_zero_morphism_is_identity():
    s = constant_poisson_first_order()
    assert transform_product(s, FormalSeries.zero(2, 1), 3) == s.truncate(3)


def test_transform_preserves_associativity_and_poisson():
    rng = random.Random(89)
    s = constant_poisson_first_order()
    f = random_odd_morphism(rng, 2, order=2)
    transformed = transform_product(s, f, 4)
    assert verify_product(transformed, 4).all_zero
    assert check_sgs(transformed, 4).passed
    assert extract_poisson(transformed) == extract_poisson(s)


def test_non_odd_morphism_breaks_only_the_inverse_condition():
    # the unit conditions survive any morphism; S(p,-p,x) = 0 needs oddness
    rng = random.Random(12)
    s = constant_poisson_first_order()
    even_morphism = random_graded_series(rng, 1, 2, [1], max_x_degree=1)
    assert not is_odd_in_p(even_morphism)
    transformed = transform_product(s, even_morphism, 3)
    assert verify_product(transformed, 3).all_zero  # associativity is kept
    report = check_sgs(transformed, 3)
    assert not report.passed
    name, _, _ = report.first_failure()
    assert name == "S(p,-p,x)"
    assert all(sym.is_zero() for sym in report.right_unit.values())
    assert all(sym.is_zero() for sym in report.left_unit.values())


def test_odd_closure_under_inversion_and_composition():
    rng = random.Random(97)
    f = random_odd_morphism(rng, 2, order=2)
    g = random_odd_morphism(rng, 2, order=4)
    assert is_odd_in_p(invert_morphism(f, 5))
    composed = compose(GenFunction(1, 2, f), [GenFunction(1, 2, g)], 5).deformation
    assert is_odd_in_p(composed)


def test_psi_identity_for_zero_morphism():
    p2, x2 = psi_numeric(FormalSeries.zero(2, 1), [0.3, -0.7], [1.1, 0.2], eps=0.01)
    assert p2 == pytest.approx([0.3, -0.7], abs=1e-14)
    assert x2 == pytest.approx([1.1, 0.2], abs=1e-14)


def test_psi_fixes_zero_section():
    rng = random.Random(101)
    f = random_graded_series(rng, 1, 2, [1, 2], max_x_degree=2)
    p2, x2 = psi_numeric(f, [0.0, 0.0], [0.8, -0.4], eps=0.01)
    assert p2 == pytest.approx([0.0, 0.0], abs=1e-15)
    assert x2 == pytest.approx([0.8, -0.4], abs=1e-15)


def _psi_jacobian(series, p, x, eps, h=1e-5, tol=1e-13):
    d = len(p)
    cols = []
    for k in range(2 * d):
        plus_p, plus_x = list(p), list(x)
        minus_p, minus_x = list(p), list(x)
        if k < d:
            plus_p[k] += h
            minus_p[k] -= h
        else:
            plus_x[k - d] += h
            minus_x[k - d] -= h
        fp = psi_numeric(series, plus_p, plus_x, eps, tol=tol)
        fm = psi_numeric(series, minus_p, minus_x, eps, tol=tol)
        col = [(a - b) / (2 * h) for a, b in zip(fp[0] + fp[1], fm[0] + fm[1])]
        cols.append(col)
    return np.array(cols).T


def test_psi_is_symplectic_numerically():
    rng = random.Random(103)
    d = 2
    omega = np.block(
        [[np.zeros((d, d)), np.eye(d)], [-np.eye(d), np.zeros((d, d))]]
    )
    for _ in range(3):
        f = random_graded_series(rng, 1, d, [1, 2], max_x_degree=2)
        p = [rng.uniform(-0.5, 0.5) for _ in range(d)]
        x = [rng.uniform(-0.5, 0.5) for _ in range(d)]
        jac = _psi_jacobian(f, p, x, eps=0.01)
        assert np.max(np.abs(jac @ omega @ jac.T - omega)) < 1e-6


def test_psi_composition_convention():
    # psi_{F(G)} = psi_F o psi_G (inner applied first)
    rng = random.Random(107)
    d = 2
    f = random_graded_series(rng, 1, d, [1, 2], max_x_degree=1)
    g = random_graded_series(rng, 1, d, [1, 2], max_x_degree=1)
    fg = compose(GenFunction(1, d, f), [GenFunction(1, d, g)], 6).deformation
    eps = 0.01
    for _ in range(3):
        p = [rng.uniform(-0.4, 0.4) for _ in range(d)]
        x = [rng.uniform(-0.4, 0.4) for _ in range(d)]
        via_composite = psi_numeric(fg, p, x, eps, tol=1e-14)
        mid_p, mid_x = psi_numeric(g, p, x, eps, tol=1e-14)
        via_chain = psi_numeric(f, mid_p, mid_x, eps, tol=1e-14)
        for a, b in zip(via_composite[0] + via_composite[1], via_chain[0] + via_chain[1]):
            # the composite series is truncated at order 6; agreement to O(eps^7)
            assert abs(a - b) < 1e-10


def test_unit_conditions_mirror_arity_zero_slots():
    # for an SGS-satisfying product, plugging the arity-0 trivial function
    # into either slot collapses the product to the operad unit
    from gfoperad.operad import identity

    s = GenFunction(2, 2, constant_poisson_first_order())
    assert compose(s, [trivial_product(0, 2), identity(2)], 4) == identity(2)
    assert compose(s, [identity(2), trivial_product(0, 2)], 4) == identity(2)


def test_extracted_structure_is_poisson():
    from gfoperad.poisson import validate_poisson

    assert validate_poisson(extract_poisson(heisenberg_first_order())).ok
