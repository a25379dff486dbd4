import random
from fractions import Fraction

import pytest

from gfoperad.deformation import (
    ProductPreconditionError,
    bracket,
    coboundary,
    coboundary_symbol,
    obstruction,
    verify_product,
)
from gfoperad.solver import lie_poisson_structure, solve_deformation
from gfoperad.symbols import (
    FormalSeries,
    PolySymbol,
    check_grading,
    p_key,
    random_graded_series,
)
from sample_series import (
    constant_poisson_first_order,
    heisenberg_first_order,
    non_jacobi_first_order,
    poly,
    symmetric_band_first_order,
)


def test_coboundary_arity_one_example():
    f = FormalSeries(1, 1, {1: poly(1, 1, {((p_key(1, 1), 2),): 1})})
    df = coboundary(f)
    expected = poly(1, 2, {((p_key(1, 1), 1), (p_key(2, 1), 1)): -2})
    assert df.order(1) == expected


def test_coboundary_of_zero():
    assert coboundary(FormalSeries.zero(2, 2)).is_zero()


def test_coboundary_is_linear():
    rng = random.Random(61)
    a, b = Fraction(3, 2), Fraction(-2, 5)
    f = random_graded_series(rng, 2, 2, [1, 2])
    g = random_graded_series(rng, 2, 2, [1, 2])
    lhs = coboundary(f.scale(a) + g.scale(b))
    rhs = coboundary(f).scale(a) + coboundary(g).scale(b)
    assert lhs == rhs


def test_coboundary_squares_to_zero():
    rng = random.Random(67)
    for arity in (1, 2, 3):
        for dim in (1, 2):
            series = random_graded_series(rng, arity, dim, [1, 2, 3])
            assert coboundary(coboundary(series)).is_zero(), (arity, dim)


def test_coboundary_preserves_grading():
    rng = random.Random(71)
    series = random_graded_series(rng, 2, 2, [1, 2])
    assert check_grading(coboundary(series)).ok


def test_bracket_with_trivial_product_is_coboundary():
    # the sign-convention pin: [0_2, F] = dF for every arity
    rng = random.Random(73)
    for arity in (1, 2, 3):
        f = random_graded_series(rng, arity, 1, [1, 2])
        zero2 = FormalSeries.zero(1, 2)
        assert bracket(zero2, f, order=3) == coboundary(f), arity


def test_bracket_of_trivial_with_itself_vanishes():
    zero2 = FormalSeries.zero(2, 2)
    assert bracket(zero2, zero2, order=3).is_zero()


def test_verify_product_zero_deformation():
    report = verify_product(FormalSeries.zero(1, 2), 4)
    assert report.all_zero


def test_verify_product_constant_symmetric_part_is_still_associative():
    # A constant bilinear deformation p1.A.p2 is associative for every A
    # (the twisted-product phenomenon); a symmetric A breaks the groupoid
    # structure conditions, not the product equation.
    report = verify_product(symmetric_band_first_order(), 4)
    assert report.all_zero


def test_verify_product_non_jacobi_fails_at_order_two():
    report = verify_product(non_jacobi_first_order(), 2)
    assert not report.all_zero
    order, _ = report.first_failure()
    assert order == 2


def test_constant_poisson_is_product():
    report = verify_product(constant_poisson_first_order(), 5)
    assert report.all_zero


def test_half_bracket_of_constant_poisson_vanishes():
    s = constant_poisson_first_order()
    half = bracket(s, s, order=5).scale(Fraction(1, 2))
    assert half.is_zero()


def test_obstruction_order_one_is_zero():
    assert obstruction(FormalSeries.zero(2, 2), 1).is_zero()


def test_obstruction_vanishes_for_constant_poisson():
    assert obstruction(constant_poisson_first_order(), 2).is_zero()


def half_bracket_order(series, n):
    """The bracket route to H_n: the order-n part of (1/2)[S_{<n}, S_{<n}]."""
    truncated = series.truncate(n - 1)
    return bracket(truncated, truncated, n).scale(Fraction(1, 2)).order(n)


def test_obstruction_matches_half_bracket():
    # the product residual read by obstruction against the bracket oracle,
    # on solutions (checked precondition) and on a non-associative series
    alpha = lie_poisson_structure(3, {(1, 2, 3): 1, (2, 3, 1): 1, (1, 3, 2): -1})
    so3 = solve_deformation(alpha, 3)
    for n in (2, 3, 4):
        assert obstruction(so3, n) == half_bracket_order(so3, n), n
    assert not obstruction(so3, 2).is_zero()
    s1 = heisenberg_first_order()
    assert obstruction(s1, 2) == half_bracket_order(s1, 2)
    rng = random.Random(83)
    series = random_graded_series(rng, 2, 2, [1, 2, 3])
    assert not verify_product(series, 2).all_zero
    for n in (2, 3, 4):
        h_n = obstruction(series, n, verified=True)
        assert h_n == half_bracket_order(series, n), n
        assert not h_n.is_zero(), n


def test_residual_equals_dSn_plus_Hn_for_arbitrary_series():
    rng = random.Random(79)
    series = random_graded_series(rng, 2, 1, [1, 2, 3], max_x_degree=1)
    for n in (1, 2, 3):
        residual = verify_product(series, n).residuals[n]
        h_n = obstruction(series.truncate(n - 1), n, verified=True)
        d_sn = coboundary_symbol(series.order(n), 2)
        assert residual == d_sn + h_n, n


def test_obstruction_checks_precondition():
    bad = non_jacobi_first_order()
    with pytest.raises(ProductPreconditionError) as raised:
        obstruction(bad, 3)
    assert raised.value.order == 2
    assert raised.value.residual == verify_product(bad.truncate(2), 2).residuals[2]
    assert not raised.value.residual.is_zero()
