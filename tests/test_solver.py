import random
from fractions import Fraction

import pytest

from gfoperad.deformation import verify_product
from gfoperad.groupoid import check_sgs, extract_poisson
from gfoperad.poisson import (
    PoissonStructure,
    poisson_dumps,
    poisson_loads,
    validate_poisson,
)
from gfoperad import solver
from gfoperad.solver import (
    InfeasibleOrderError,
    _linsolve,
    _solve_order,
    bch_generating_function,
    bch_words,
    first_order_deformation,
    heisenberg_structure,
    lie_poisson_structure,
    solve_deformation,
)
from gfoperad.symbols import FormalSeries, PolySymbol, check_grading, p_key, x_key
from sample_series import constant_poisson_first_order, heisenberg_first_order


def constant_structure():
    return PoissonStructure(2, {(1, 2): PolySymbol.constant(1, 2, 0)})


def ax_b_structure():
    # [e1, e2] = e2: alpha^{12} = x_2; the solvable non-nilpotent 2d algebra
    return lie_poisson_structure(2, {(1, 2, 2): 1})


def invalid_structure():
    return PoissonStructure(
        3,
        {
            (1, 2): PolySymbol.variable(x_key(1), 3, 0),
            (1, 3): PolySymbol.variable(x_key(2), 3, 0),
            (2, 3): PolySymbol.constant(1, 3, 0),
        },
    )


def test_validate_constant_and_heisenberg():
    assert validate_poisson(constant_structure()).ok
    assert validate_poisson(heisenberg_structure()).ok


def test_validate_reports_failing_triple():
    report = validate_poisson(invalid_structure())
    assert not report.ok
    assert report.failing_triple == (1, 2, 3)


def test_poisson_json_round_trip():
    alpha = heisenberg_structure()
    assert poisson_loads(poisson_dumps(alpha)) == alpha


def test_first_order_deformation_matches_fixtures():
    assert first_order_deformation(constant_structure()) == constant_poisson_first_order()
    assert first_order_deformation(heisenberg_structure()) == heisenberg_first_order()


def test_solve_zero_structure():
    zero = PoissonStructure(2, {})
    assert solve_deformation(zero, 3).is_zero()


def test_solve_constant_structure_stops_at_first_order():
    series = solve_deformation(constant_structure(), 5)
    assert series.order_indices() == [1]
    assert series.order(1) == constant_poisson_first_order().order(1)


def test_solve_rejects_non_poisson():
    with pytest.raises(ValueError):
        solve_deformation(invalid_structure(), 3)


def test_solve_heisenberg():
    alpha = heisenberg_structure()
    series = solve_deformation(alpha, 3)
    assert verify_product(series, 3).all_zero
    assert check_sgs(series, 3).passed
    assert extract_poisson(series) == alpha


def test_solve_ax_b_algebra():
    alpha = ax_b_structure()
    series = solve_deformation(alpha, 3)
    assert verify_product(series, 3).all_zero
    assert check_sgs(series, 3).passed
    assert extract_poisson(series) == alpha
    assert check_grading(series).ok
    assert not series.order(2).is_zero()


def test_solve_ax_b_to_order_five():
    # all orders stay nonzero for the solvable algebra; the solver's own
    # postcondition re-verifies the product equation and structure conditions
    series = solve_deformation(ax_b_structure(), 5)
    assert series.order_indices() == [1, 2, 3, 4, 5]


def test_solve_quadratic_structure():
    # any bivector on the plane is Poisson; exercise the non-linear path
    alpha = PoissonStructure(2, {(1, 2): PolySymbol(2, 0, {((x_key(1), 2),): Fraction(1)})})
    series = solve_deformation(alpha, 3)
    assert verify_product(series, 3).all_zero
    assert check_sgs(series, 3).passed
    assert extract_poisson(series) == alpha


def test_linsolve_consistent_and_inconsistent():
    values = _linsolve(
        [
            ({0: Fraction(2), 1: Fraction(1)}, {"a": Fraction(5)}),
            ({1: Fraction(1)}, {"a": Fraction(1)}),
        ]
    )
    assert values == {0: {"a": Fraction(2)}, 1: {"a": Fraction(1)}}
    with pytest.raises(ValueError):
        _linsolve(
            [
                ({0: Fraction(1)}, {"a": Fraction(1)}),
                ({0: Fraction(2)}, {"a": Fraction(3)}),
            ]
        )


def test_linsolve_inconsistent_for_one_key_only():
    # 2 * (x0 = 1) agrees with the second row for "a" but not for "b"
    with pytest.raises(ValueError) as info:
        _linsolve(
            [
                ({0: Fraction(1)}, {"a": Fraction(1), "b": Fraction(1)}),
                ({0: Fraction(2)}, {"a": Fraction(2), "b": Fraction(3)}),
            ]
        )
    assert info.value.args[1] == "b"


def test_linsolve_two_keys_equal_two_one_key_solves():
    # column 3 stays free; the third row back-substitutes into both earlier pivots
    rows = [
        ({0: Fraction(2), 1: Fraction(1), 3: Fraction(1)}, {"a": Fraction(5), "b": Fraction(1)}),
        ({1: Fraction(1), 2: Fraction(3)}, {"a": Fraction(1)}),
        ({0: Fraction(1), 2: Fraction(-1), 3: Fraction(2)}, {"a": Fraction(1), "b": Fraction(2)}),
    ]
    both = _linsolve(rows)
    for key in ("a", "b"):
        alone = _linsolve([(row, {key: rhs[key]} if key in rhs else {}) for row, rhs in rows])
        assert {c: v[key] for c, v in both.items() if key in v} == {
            c: v[key] for c, v in alone.items() if key in v
        }


def test_infeasible_order_names_the_order():
    # p1.p2.p3 is no coboundary of an arity-2 symbol, with or without x1
    p_part = tuple((p_key(b, 1), 1) for b in (1, 2, 3))
    h = PolySymbol(1, 3, {p_part: Fraction(1), p_part + ((x_key(1), 1),): Fraction(1)})
    with pytest.raises(InfeasibleOrderError) as info:
        _solve_order(h, 2, 1)
    assert info.value.order == 2
    assert "x-monomial ()" in str(info.value)


def test_one_elimination_per_order(monkeypatch):
    # so(3) to order 4 has a nonzero H_n at orders 2, 3 and 4
    calls = []
    linsolve = solver._linsolve

    def counting(equations):
        calls.append(None)
        return linsolve(equations)

    monkeypatch.setattr(solver, "_linsolve", counting)
    so3 = lie_poisson_structure(3, {(1, 2, 3): 1, (2, 3, 1): 1, (1, 3, 2): -1})
    solve_deformation(so3, 4)
    assert len(calls) == 3


def lie_bracket(constants, dim, u, v):
    out = [PolySymbol.zero(dim, 2) for _ in range(dim)]
    for (i, j, k), c in constants.items():
        term = (u[i - 1] * v[j - 1] - u[j - 1] * v[i - 1]).scale(c)
        out[k - 1] = out[k - 1] + term
    return out


def x_dot(vec, dim):
    total = PolySymbol.zero(dim, 2)
    for k in range(dim):
        total = total + vec[k] * PolySymbol.variable(x_key(k + 1), dim, 2)
    return total


def test_bch_classical_coefficients_on_solvable_algebra():
    constants = {(1, 2, 2): Fraction(1)}
    dim = 2
    alpha = ax_b_structure()
    series = bch_generating_function(alpha, 4)
    p1 = [PolySymbol.variable(p_key(1, i), dim, 2) for i in range(1, dim + 1)]
    p2 = [PolySymbol.variable(p_key(2, i), dim, 2) for i in range(1, dim + 1)]
    br = lambda u, v: lie_bracket(constants, dim, u, v)
    # order 1: (1/2) x.[p1,p2]
    assert series.order(1) == x_dot(br(p1, p2), dim).scale(Fraction(1, 2))
    # order 2: (1/12) x.([p1,[p1,p2]] + [p2,[p2,p1]])
    expected2 = (
        x_dot(br(p1, br(p1, p2)), dim) + x_dot(br(p2, br(p2, p1)), dim)
    ).scale(Fraction(1, 12))
    assert series.order(2) == expected2
    # order 3: -(1/24) x.[p2,[p1,[p1,p2]]]
    expected3 = x_dot(br(p2, br(p1, br(p1, p2))), dim).scale(Fraction(-1, 24))
    assert series.order(3) == expected3
    assert not series.order(4).is_zero()


def test_bch_abelian_is_zero():
    abelian = PoissonStructure(2, {})
    assert bch_generating_function(abelian, 4).is_zero()


def test_bch_heisenberg_is_first_order_only():
    series = bch_generating_function(heisenberg_structure(), 5)
    assert series.order_indices() == [1]
    assert series == heisenberg_first_order()


def test_bch_heisenberg_is_a_product_with_structure():
    series = bch_generating_function(heisenberg_structure(), 5)
    assert verify_product(series, 5).all_zero
    assert check_sgs(series, 5).passed


def test_bch_solvable_algebra_is_a_product():
    # exact associativity through order 5 also pins the degree-6 bch
    # coefficients: any wrong word coefficient breaks the zero residuals
    series = bch_generating_function(ax_b_structure(), 5)
    assert check_grading(series).ok
    assert verify_product(series, 5).all_zero
    assert check_sgs(series, 5).passed


def test_bch_requires_linear_structure():
    quad = PoissonStructure(2, {(1, 2): PolySymbol(2, 0, {((x_key(1), 2),): Fraction(1)})})
    with pytest.raises(ValueError):
        bch_generating_function(quad, 3)


def test_bch_words_low_degrees():
    words = bch_words(3)
    assert words[(0,)] == 1 and words[(1,)] == 1
    assert words[(0, 1)] == Fraction(1, 2)
    assert words[(1, 0)] == Fraction(-1, 2)


def test_solver_and_bch_agree_at_first_order():
    alpha = ax_b_structure()
    solved = solve_deformation(alpha, 2)
    bch = bch_generating_function(alpha, 2)
    assert solved.order(1) == bch.order(1)
    # higher orders may legitimately differ by gauge; both already verified


def test_order_columns_expand_without_substitute(monkeypatch):
    # the coboundary and inverse-condition columns expand p-blocks in closed
    # form; the generic substitute is never reached
    calls = []
    substitute = PolySymbol.substitute

    def counted(self, *args, **kwargs):
        calls.append(self)
        return substitute(self, *args, **kwargs)

    monkeypatch.setattr(PolySymbol, "substitute", counted)
    basis, d_cols, sgs_cols = solver._order_columns(4, 3)
    assert len(basis) == len(d_cols) == len(sgs_cols) > 0
    assert calls == []


def test_inverse_columns_match_map_blocks():
    # the closed-form S(p, -p, x) column of every basis monomial of orders 2-6
    count = 0
    for n in range(2, 7):
        for d in (2, 3):
            for mono in solver._p_basis(n, d):
                reference = PolySymbol(d, 2, {mono: 1}).map_blocks({2: [(1, -1)]}, 2)
                assert solver._inverse_column(mono) == reference.terms, mono
                count += 1
    assert count == 1723
