"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are pinned here; symbolic checks are exact.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from gfoperad.deformation import bracket, coboundary, verify_product
from gfoperad.groupoid import (
    check_sgs,
    extract_poisson,
    invert_morphism,
    psi_numeric,
    transform_product,
)
from gfoperad.operad import GenFunction, compose, identity, numeric_phi
from gfoperad.solver import (
    bch_generating_function,
    heisenberg_structure,
    lie_poisson_structure,
    solve_deformation,
)
from gfoperad.symbols import (
    FormalSeries,
    PolySymbol,
    p_key,
    random_graded_series,
    x_key,
)
from gfoperad.trees import enumerate_unrooted, symmetry_coefficient
from labeled_trees import distinct_relabelings, structure_of_rooted
from sample_series import constant_poisson_first_order


def report(number, label, started, budget):
    elapsed = time.time() - started
    print(f"ACCEPTANCE {number:>2}: PASS  {label}  ({elapsed:.2f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s runtime target"


def test_criterion_01_tree_calculus():
    started = time.time()
    from gfoperad.trees import automorphism_count

    for top in enumerate_unrooted(6):
        sigma = symmetry_coefficient(top)
        assert sigma == automorphism_count(top), top.encoding
        n, edges, colors, weights = structure_of_rooted(top.canonical)
        copies = len(distinct_relabelings(n, edges, colors, weights))
        assert copies * sigma == math.factorial(n), top.encoding
    report(1, "sigma = |Aut| and labeled-count * sigma = |t|! for ||t|| <= 6", started, 10)


def test_criterion_02_coboundary():
    started = time.time()
    rng = random.Random(202)
    count = 0
    while count < 50:
        arity = 1 + count % 3
        dim = 1 + count % 2
        orders = [o for o in (1, 2, 3) if rng.random() < 0.8] or [1]
        series = random_graded_series(rng, arity, dim, orders, max_x_degree=2)
        assert coboundary(coboundary(series)).is_zero()
        count += 1
    for arity in (1, 2, 3):
        series = random_graded_series(rng, arity, 1, [1, 2])
        zero2 = FormalSeries.zero(1, 2)
        assert bracket(zero2, series, 3) == coboundary(series)
    report(2, "d^2 = 0 on 50 random graded series; bracket(0_2, F) = dF", started, 30)


def test_criterion_03_oracle_agreement():
    started = time.time()
    rng = random.Random(303)
    order = 5
    target = 2 ** (order + 1)
    for trial in range(10):
        f = GenFunction(1, 1, random_graded_series(rng, 1, 1, [1, 2], max_x_degree=3))
        g = GenFunction(1, 1, random_graded_series(rng, 1, 1, [1, 2], max_x_degree=3))
        composed = compose(f, [g], order)
        p0 = rng.uniform(0.3, 0.9)
        x0 = rng.uniform(0.3, 0.9)
        diffs = []
        for eps in (1e-2, 5e-3):
            numeric = numeric_phi(f, [g], [[[p0]]], [x0], eps, tol=1e-15)
            series_value = composed.value([[p0]], [x0], eps)
            diffs.append(abs(numeric - series_value))
        ratio = diffs[0] / diffs[1]
        assert 0.8 * target <= ratio <= 1.2 * target, (trial, ratio)
    report(3, "numeric-vs-series discrepancy shrinks by 2^6 +/- 20% under eps halving", started, 30)


def test_criterion_04_cross_term_coefficient():
    started = time.time()
    rng = random.Random(404)
    for _ in range(5):
        f = GenFunction(1, 2, random_graded_series(rng, 1, 2, [1], max_x_degree=2))
        g = GenFunction(1, 2, random_graded_series(rng, 1, 2, [1], max_x_degree=2))
        h = compose(f, [g], 2)
        f1 = f.deformation.order(1)
        g1 = g.deformation.order(1)
        taylor_cross = PolySymbol.zero(2, 1)
        for i in range(1, 3):
            taylor_cross = taylor_cross + g1.diff(x_key(i)) * f1.diff(p_key(1, i))
        assert h.deformation.order(2) == taylor_cross
    report(4, "eps^2 cross term has coefficient exactly 1 (edge tree)", started, 30)


def test_criterion_05_constant_poisson():
    started = time.time()
    series = constant_poisson_first_order()
    rep = verify_product(series, 8)
    assert rep.all_zero
    assert all(sym.is_zero() for sym in rep.residuals.values())
    assert check_sgs(series, 8).passed
    report(5, "constant Poisson (d=2): exact zero residuals through order 8 + SGS", started, 60)


def test_criterion_06_bch_heisenberg():
    started = time.time()
    alpha = heisenberg_structure()
    series = bch_generating_function(alpha, 5)
    assert verify_product(series, 5).all_zero
    assert check_sgs(series, 5).passed

    def x_dot_bracket(constants, dim, shape):
        # shape: nested tuple like (0, (0, 1)) meaning [p1, [p1, p2]]
        def value(node):
            if isinstance(node, int):
                return [
                    PolySymbol.variable(p_key(node + 1, i), dim, 2)
                    for i in range(1, dim + 1)
                ]
            u, v = value(node[0]), value(node[1])
            out = [PolySymbol.zero(dim, 2) for _ in range(dim)]
            for (i, j, k), c in constants.items():
                term = (u[i - 1] * v[j - 1] - u[j - 1] * v[i - 1]).scale(c)
                out[k - 1] = out[k - 1] + term
            return out

        vec = value(shape)
        total = PolySymbol.zero(dim, 2)
        for k in range(dim):
            total = total + vec[k] * PolySymbol.variable(x_key(k + 1), dim, 2)
        return total

    heis = {(1, 2, 3): Fraction(1)}
    half = x_dot_bracket(heis, 3, (0, 1)).scale(Fraction(1, 2))
    twelfth = (
        x_dot_bracket(heis, 3, (0, (0, 1))) + x_dot_bracket(heis, 3, (1, (1, 0)))
    ).scale(Fraction(1, 12))
    assert series.order(1) == half
    assert series.order(2) == twelfth  # both sides vanish for the nilpotent algebra

    # the same patterns, nontrivially, on the solvable algebra [e1,e2] = e2
    solvable = lie_poisson_structure(2, {(1, 2, 2): 1})
    sol_series = bch_generating_function(solvable, 5)
    cs = {(1, 2, 2): Fraction(1)}
    assert sol_series.order(1) == x_dot_bracket(cs, 2, (0, 1)).scale(Fraction(1, 2))
    expected2 = (
        x_dot_bracket(cs, 2, (0, (0, 1))) + x_dot_bracket(cs, 2, (1, (1, 0)))
    ).scale(Fraction(1, 12))
    assert not expected2.is_zero()
    assert sol_series.order(2) == expected2
    assert verify_product(sol_series, 5).all_zero
    report(6, "bch generating function (Heisenberg, order 5): product + SGS + 1/2, 1/12 patterns", started, 120)


def test_criterion_07_solver_heisenberg():
    started = time.time()
    alpha = heisenberg_structure()
    series = solve_deformation(alpha, 4)
    assert verify_product(series, 4).all_zero
    assert check_sgs(series, 4).passed
    assert extract_poisson(series) == alpha
    report(7, "solve_deformation (Heisenberg, order 4): product + SGS + bivector round trip", started, 120)


def test_criterion_08_equivalence():
    started = time.time()
    rng = random.Random(808)
    series = constant_poisson_first_order()
    # random odd morphism: single nonzero order of odd p-degree
    from gfoperad.groupoid import is_odd_in_p

    morphism = random_graded_series(rng, 1, 2, [2], max_x_degree=2)
    assert is_odd_in_p(morphism)
    transformed = transform_product(series, morphism, 4)
    assert verify_product(transformed, 4).all_zero
    assert extract_poisson(transformed) == extract_poisson(series)
    inverse = invert_morphism(morphism, 4)
    f = GenFunction(1, 2, morphism)
    g = GenFunction(1, 2, inverse)
    assert compose(f, [g], 4).deformation.is_zero()
    assert compose(g, [f], 4).deformation.is_zero()
    report(8, "odd-morphism transform keeps the product and the bivector; two-sided inverse", started, 120)


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
        cols.append([(a - b) / (2 * h) for a, b in zip(fp[0] + fp[1], fm[0] + fm[1])])
    return np.array(cols).T


def test_criterion_09_symplectomorphism():
    started = time.time()
    rng = random.Random(909)
    d = 2
    eps = 1e-2
    omega = np.block([[np.zeros((d, d)), np.eye(d)], [-np.eye(d), np.zeros((d, d))]])
    for _ in range(3):
        series = random_graded_series(rng, 1, d, [1, 2], max_x_degree=2)
        for _ in range(5):
            p = [rng.uniform(-0.5, 0.5) for _ in range(d)]
            x = [rng.uniform(-0.5, 0.5) for _ in range(d)]
            jac = _psi_jacobian(series, p, x, eps)
            assert np.max(np.abs(jac @ omega @ jac.T - omega)) < 1e-6
        p2, x2 = psi_numeric(series, [0.0] * d, [0.4, -0.2], eps, tol=1e-13)
        assert max(abs(v) for v in p2) < 1e-13
        assert abs(x2[0] - 0.4) < 1e-13 and abs(x2[1] + 0.2) < 1e-13
    report(9, "finite-difference Jacobians satisfy J Omega J^T = Omega to 1e-6; psi fixes (0,x)", started, 120)


def test_criterion_10_operad_axioms():
    started = time.time()
    rng = random.Random(1010)
    for arity in (1, 2, 3):
        f = GenFunction(arity, 2, random_graded_series(rng, arity, 2, [1, 2, 3]))
        assert compose(f, [identity(2)] * arity, 4) == f
    f = GenFunction(2, 1, random_graded_series(rng, 2, 1, [1, 2]))
    g1 = GenFunction(1, 1, random_graded_series(rng, 1, 1, [1, 2]))
    g2 = GenFunction(2, 1, random_graded_series(rng, 2, 1, [1]))
    h1 = GenFunction(1, 1, random_graded_series(rng, 1, 1, [1, 2]))
    h2 = GenFunction(1, 1, random_graded_series(rng, 1, 1, [1]))
    h3 = GenFunction(1, 1, random_graded_series(rng, 1, 1, [2]))
    lhs = compose(compose(f, [g1, g2], 4), [h1, h2, h3], 4)
    rhs = compose(f, [compose(g1, [h1], 4), compose(g2, [h2, h3], 4)], 4)
    assert lhs == rhs
    report(10, "unit law F(I,..,I) = F and nested-composition associativity, exact", started, 60)
