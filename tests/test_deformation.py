import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coboundary_reference import face_map_coboundary
from gfoperad import deformation
from gfoperad.deformation import (
    ProductPreconditionError,
    bracket,
    circ,
    coboundary,
    coboundary_symbol,
    obstruction,
    verify_product,
)
from gfoperad.solver import (
    _order_columns,
    _p_basis,
    heisenberg_structure,
    lie_poisson_structure,
    solve_deformation,
)
from gfoperad.symbols import (
    FormalSeries,
    PolySymbol,
    check_grading,
    p_key,
    random_graded_series,
    x_key,
)
from sample_series import (
    constant_poisson_first_order,
    heisenberg_first_order,
    non_jacobi_first_order,
    poly,
    symmetric_band_first_order,
)
from test_golden import quadratic, so3
from test_solver import ax_b_structure


def test_coboundary_arity_one_example():
    f = FormalSeries(1, 1, {1: poly(1, 1, {((p_key(1, 1), 2),): 1})})
    df = coboundary(f)
    expected = poly(1, 2, {((p_key(1, 1), 1), (p_key(2, 1), 1)): -2})
    assert df.order(1) == expected


@st.composite
def symbols_of_any_arity(draw):
    """Arity 0-4, d 1-3; whole p-blocks often zero, p-parts shared by monomials that
    differ only in their x-part, and non-integer coefficients."""
    arity = draw(st.integers(0, 4))
    dim = draw(st.integers(1, 3))
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        p_powers = {}
        for block in range(1, arity + 1):
            if draw(st.booleans()):  # leave the whole block at exponent zero
                continue
            for i in range(1, dim + 1):
                p_powers[p_key(block, i)] = draw(st.integers(0, 3))
        for _ in range(draw(st.integers(1, 3))):  # x-parts on one p-part
            powers = dict(p_powers)
            for i in range(1, dim + 1):
                powers[x_key(i)] = draw(st.integers(0, 2))
            mono = tuple(sorted((v, e) for v, e in powers.items() if e))
            terms[mono] = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 5)))
    return PolySymbol(dim, arity, terms), arity


def assert_cold_and_warm_match_the_face_maps(sym, arity):
    """The closed form from an empty coboundary cache, then from a filled one."""
    reference = face_map_coboundary(sym, arity)
    deformation._p_coboundary.cache_clear()
    assert coboundary_symbol(sym, arity) == reference
    assert coboundary_symbol(sym, arity) == reference


@settings(max_examples=200, deadline=None)
@given(symbols_of_any_arity())
def test_coboundary_matches_the_face_maps(case):
    assert_cold_and_warm_match_the_face_maps(*case)


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_coboundary_of_one_p_part_under_several_x_parts(arity):
    # p_1^2 p_arity (a single block when arity is 1) times 1, x1 and x1^2 x2
    p_part = ((p_key(1, 1), 2), (p_key(1, 2), 1)) + ((p_key(arity, 2), 1),) * (arity > 1)
    x_parts = [(), ((x_key(1), 1),), ((x_key(1), 2), (x_key(2), 1))]
    terms = {p_part + x_part: Fraction(k + 1, 3) for k, x_part in enumerate(x_parts)}
    assert_cold_and_warm_match_the_face_maps(PolySymbol(2, arity, terms), arity)


def test_cached_coboundary_images_cannot_be_mutated():
    p_part = ((p_key(1, 1), 2), (p_key(2, 1), 1))
    x_part = ((x_key(1), 1),)
    expected = list(deformation.coboundary_monomial(p_part + x_part, 2))
    pure = list(deformation.coboundary_monomial(p_part, 2))
    cached = deformation._p_coboundary(p_part, 2)
    assert type(cached) is tuple and cached
    assert all(type(pair) is tuple and type(pair[0]) is tuple for pair in cached)
    with pytest.raises(TypeError):
        cached[0] = ((), 1)
    # each call hands out a new list; changing it reaches no later call
    for mono in (p_part, p_part + x_part):
        out = deformation.coboundary_monomial(mono, 2)
        out[0] = ((), 99)
        out.append(((), 1))
    assert deformation.coboundary_monomial(p_part + x_part, 2) == expected
    assert deformation.coboundary_monomial(p_part, 2) == pure
    assert deformation._p_coboundary(p_part, 2) == cached


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_order_columns_match_the_face_maps(n, d):
    basis, d_cols, _ = _order_columns(n, d)
    assert basis == _p_basis(n, d)
    for mono, col in zip(basis, d_cols):
        reference = face_map_coboundary(PolySymbol(d, 2, {mono: 1}), 2)
        assert col == reference.terms, mono
        assert all(type(c) is int and c for c in col.values())


def test_coboundary_refuses_a_series_flagged_graded_that_is_not():
    cube = poly(1, 1, {((p_key(1, 1), 3),): 1})
    with pytest.raises(ValueError, match="p-degree 3 at order 1"):
        coboundary(FormalSeries(1, 1, {1: cube}, graded=True))


def test_coboundary_takes_orders_up_to_the_cap_only():
    # order i of a graded arity-1 series has p-degree i+1
    def top_order(order):
        return FormalSeries(1, 1, {order: poly(1, 1, {((p_key(1, 1), order + 1),): 1})})

    assert coboundary(top_order(8)).max_order() == 8
    with pytest.raises(ValueError, match="truncation order 9 exceeds cap 8"):
        coboundary(top_order(9))


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


@settings(max_examples=50, deadline=None)
@given(st.randoms(use_true_random=False))
def test_full_residual_is_the_obstruction_plus_the_coboundary(rng):
    # the solver's postcondition: order n of S(S, I) - S(I, S), from both
    # insertions over every tree of weight <= n, is H_n + dS_n for any S, also
    # one without the opposite symmetry, whose H_n takes both first insertions
    series = random_graded_series(rng, 2, 2, [1, 2, 3])
    assume(opposite_series(series) != series)
    for n in (2, 3):
        expected = obstruction(series, n, verified=True) + coboundary_symbol(series.order(n), 2)
        assert verify_product(series, n).residuals[n] == expected, n


@pytest.mark.parametrize(
    "structure, solved", [(so3, 5), (quadratic, 5)], ids=["so3", "quadratic"]
)
def test_weight_exact_obstruction_is_the_full_residual(structure, solved):
    # the verified path expands only the trees of weight n; the full report
    # of the truncation, from every tree of weight <= n, must agree at order n
    series = solve_deformation(structure(), solved)
    for n in range(2, solved + 2):
        full = verify_product(series.truncate(n - 1), n).residuals[n]
        assert obstruction(series, n, verified=True) == full, n
        assert obstruction(series, n) == full, n
        assert not full.is_zero(), n


def test_obstruction_checks_precondition():
    bad = non_jacobi_first_order()
    with pytest.raises(ProductPreconditionError) as raised:
        obstruction(bad, 3)
    assert raised.value.order == 2
    assert raised.value.residual == verify_product(bad.truncate(2), 2).residuals[2]
    assert not raised.value.residual.is_zero()


SWAP_12 = {1: [(2, 1)], 2: [(1, 1)]}


def opposite(k, s_k):
    """(-1)^k S_k(p2, p1, x): equal to S_k exactly when order k has the opposite symmetry."""
    swapped = s_k.map_blocks(SWAP_12, 2)
    return swapped if k % 2 == 0 else -swapped


def opposite_series(series):
    """The opposite product S^op of an arity-2 series, order by order."""
    return FormalSeries(series.dim, 2, {k: opposite(k, s) for k, s in series.orders.items()})


def count_composes(monkeypatch, outers=None):
    """The order of each ``deformation.compose`` call; its outer series goes to ``outers``."""
    calls = []
    compose = deformation.compose

    def counting(*args, **kwargs):
        calls.append(args[2])
        if outers is not None:
            outers.append(args[0].deformation)
        return compose(*args, **kwargs)

    monkeypatch.setattr(deformation, "compose", counting)
    return calls


@st.composite
def arity_two_series(draw, higher_orders=0):
    """A random graded arity-2 series with orders below n, and the target order n <= 5.

    Order 1 is always drawn, so trees of total weight n exist, and at least
    ``higher_orders`` orders between 2 and n - 1.
    """
    n = draw(st.integers(2 + higher_orders, 5))
    dim = draw(st.integers(1, 2))
    orders = draw(st.sets(st.integers(2, n - 1), min_size=higher_orders)) if n > 2 else set()
    rng = draw(st.randoms(use_true_random=False))
    series = random_graded_series(rng, 2, dim, [1, *sorted(orders)])
    return series, n


def reference_obstruction(series, n):
    # both insertions over every tree of total weight <= n; a tree of total
    # weight w reaches only order w, so order n is the same as from weight n alone
    truncated = series.truncate(n - 1)
    return circ(truncated, truncated, n).order(n)


def symmetrized(k, s_k):
    """(S_k + (-1)^k S_k(p2, p1))/2, which has the opposite symmetry."""
    return (s_k + opposite(k, s_k)).scale(Fraction(1, 2))


@settings(max_examples=100, deadline=None)
@given(arity_two_series())
def test_mirrored_obstruction_equals_both_insertions(case):
    # (S_k + (-1)^k S_k(p2, p1))/2 has the opposite symmetry, so H_n comes
    # from one insertion and its 1<->3 mirror
    series, n = case
    symmetric = FormalSeries(
        series.dim, 2, {k: symmetrized(k, s) for k, s in series.orders.items()}
    )
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = count_composes(monkeypatch)
        h_n = obstruction(symmetric, n, verified=True)
    assert calls == [n]
    assert h_n == reference_obstruction(symmetric, n)


def assert_opposite_insertion(series, n):
    """H_n of ``series`` is the circ reference, from S(S, I) and S^op(S^op, I) unless S^op = S."""
    truncated = series.truncate(n - 1)
    opposite_truncated = opposite_series(truncated)
    outers = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = count_composes(monkeypatch, outers)
        h_n = obstruction(series, n, verified=True)
    if opposite_truncated == truncated:
        assert calls == [n] and outers == [truncated]
    else:
        assert calls == [n, n] and outers == [truncated, opposite_truncated]
    assert h_n == reference_obstruction(series, n)


@settings(max_examples=100, deadline=None)
@given(arity_two_series())
def test_obstruction_without_the_symmetry_takes_the_opposite_insertion(case):
    assert_opposite_insertion(*case)


@settings(max_examples=100, deadline=None)
@given(arity_two_series(higher_orders=1), st.data())
def test_obstruction_of_a_partly_symmetric_series(case, data):
    # order 1 has the opposite symmetry, at least one higher order has not
    series, n = case
    higher = sorted(k for k in series.orders if k > 1)
    assume(higher)
    asymmetric = data.draw(st.sets(st.sampled_from(higher), min_size=1))
    assume(any(opposite(k, series.order(k)) != series.order(k) for k in asymmetric))
    mixed = FormalSeries(
        series.dim,
        2,
        {k: s if k in asymmetric else symmetrized(k, s) for k, s in series.orders.items()},
    )
    assert opposite(1, mixed.order(1)) == mixed.order(1)
    assert_opposite_insertion(mixed, n)


@pytest.mark.parametrize(
    "structure, order", [(so3, 5), (quadratic, 6)], ids=["so3", "quadratic"]
)
def test_solves_take_the_mirrored_obstruction(monkeypatch, structure, order):
    # one compose per obstruction order 2..order and none after it: the
    # postcondition reuses each H_n; a failed symmetry check would show as
    # two per order
    calls = count_composes(monkeypatch)
    solve_deformation(structure(), order)
    assert calls == list(range(2, order + 1))


@pytest.mark.parametrize(
    "structure",
    [so3, heisenberg_structure, ax_b_structure, quadratic],
    ids=["so3", "heisenberg", "ax-b", "quadratic"],
)
def test_solutions_have_the_opposite_symmetry(structure):
    series = solve_deformation(structure(), 6)
    assert series.orders
    for k, s_k in series.orders.items():
        assert opposite(k, s_k) == s_k, k
