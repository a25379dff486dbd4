"""Groupoid structure of arity-2 deformations and equivalence of products.

An associative S = S0 + S~ that also satisfies the structure conditions

    S(p, 0, x) = S(0, p, x) = p.x       and       S(p, -p, x) = 0

generates a Poisson structure alpha = 2 grad_{p1} grad_{p2} S(0,0,x) on the
base together with source/target maps; arity-1 functions act on products by
F(S)(F^{-1}, F^{-1}) and generate near-identity symplectomorphisms psi_F.

The trivial part satisfies the structure conditions on its own, so they are
enforced as exact substitution identities on the deformation S~.  For the
composition of symplectomorphisms the convention is psi_{F(G)} = psi_F o psi_G
(inner function applied first), matching the composition of the underlying
canonical relations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from gfoperad.operad import GenFunction, NonConvergenceError, check_order, compose
from gfoperad.poisson import PoissonStructure
from gfoperad.symbols import (
    FormalSeries,
    monomial_p_degree,
    p_key,
    series_eval,
    x_key,
)


#: psi_numeric gives up after this many fixed-point steps.
_PSI_MAX_ITER = 200


class SgsError(ValueError):
    """A deformation violates the groupoid structure conditions."""


@dataclass
class SgsReport:
    """Per-order residuals of the three structure conditions."""

    right_unit: dict  # order -> S~_n(p, 0, x)
    left_unit: dict  # order -> S~_n(0, p, x)
    inverse: dict  # order -> S~_n(p, -p, x)
    max_order: int

    @property
    def passed(self) -> bool:
        return all(
            sym.is_zero()
            for group in (self.right_unit, self.left_unit, self.inverse)
            for sym in group.values()
        )

    def first_failure(self):
        for name, group in (
            ("S(p,0,x)", self.right_unit),
            ("S(0,p,x)", self.left_unit),
            ("S(p,-p,x)", self.inverse),
        ):
            for order in sorted(group):
                if not group[order].is_zero():
                    return name, order, group[order]
        return None


def check_sgs(deformation: FormalSeries, order: int | None = None) -> SgsReport:
    """Exact substitution checks of the structure conditions, per order."""
    if deformation.blocks != 2:
        raise ValueError("structure conditions apply to arity-2 deformations")
    max_order = deformation.max_order() if order is None else order
    right, left, inv = {}, {}, {}
    for n in range(1, max_order + 1):
        sym = deformation.order(n)
        right[n] = sym.map_blocks({2: []}, 2)
        left[n] = sym.map_blocks({1: []}, 2)
        inv[n] = sym.map_blocks({2: [(1, -1)]}, 2)
    return SgsReport(right, left, inv, max_order)


def extract_poisson(deformation: FormalSeries) -> PoissonStructure:
    """alpha^{kl}(x) = 2 d^2 S~^(1) / dp1^k dp2^l at p = 0; must be antisymmetric."""
    if deformation.blocks != 2:
        raise ValueError("expected an arity-2 deformation")
    d = deformation.dim
    s1 = deformation.order(1)
    matrix = []
    for k in range(1, d + 1):
        row = []
        for l in range(1, d + 1):
            second = s1.diff(p_key(1, k)).diff(p_key(2, l))
            row.append(second.map_blocks({1: [], 2: []}, 0).scale(2))
        matrix.append(row)
    try:
        return PoissonStructure.from_matrix(d, matrix)
    except ValueError as exc:
        raise SgsError(f"extracted bivector is not antisymmetric: {exc}") from exc


@dataclass
class StructureMaps:
    """Source/target corrections (the maps are x + correction); unit and
    inverse are the fixed affine maps (p,x) -> (0,x) and (p,x) -> (-p,x)."""

    dim: int
    source: tuple  # FormalSeries per component, arity 1
    target: tuple  # FormalSeries per component, arity 1


def structure_maps(deformation: FormalSeries, order: int) -> StructureMaps:
    """Source x + grad_{p2} S~(p,0,x) and target x + grad_{p1} S~(0,p,x)."""
    check_order(order)
    report = check_sgs(deformation, order)
    if not report.passed:
        name, n, residual = report.first_failure()
        raise SgsError(f"structure condition {name} fails at order {n}: {residual}")
    d = deformation.dim
    source = []
    target = []
    for i in range(1, d + 1):
        src_orders = {}
        tgt_orders = {}
        for n in range(1, order + 1):
            sym = deformation.order(n)
            # S~(p, 0, x) keeps p_1, S~(0, p, x) moves p_2 to block 1
            src_orders[n] = sym.diff(p_key(2, i)).map_blocks({2: []}, 1)
            tgt_orders[n] = sym.diff(p_key(1, i)).map_blocks({1: [], 2: [(1, 1)]}, 1)
        source.append(FormalSeries(d, 1, src_orders, graded=False))
        target.append(FormalSeries(d, 1, tgt_orders, graded=False))
    return StructureMaps(d, tuple(source), tuple(target))


def invert_morphism(morphism: FormalSeries, order: int) -> FormalSeries:
    """The arity-1 series G~ with F(G) = I up to the given order.

    Order n of F(G) is F~_n + G~_n + (tree terms in lower orders), so G~ is
    built order by order, each step expanding only the trees of total weight
    n; the same series is automatically a left and right inverse.
    """
    if morphism.blocks != 1:
        raise ValueError("only arity-1 morphisms can be inverted")
    check_order(order)
    dim = morphism.dim
    inverse = FormalSeries.zero(dim, 1)
    for n in range(1, order + 1):
        current = compose(
            GenFunction(1, dim, morphism.truncate(order)),
            [GenFunction(1, dim, inverse)],
            n,
            _min_weight=n,
        ).deformation
        residual = current.order(n)
        if not residual.is_zero():
            inverse = inverse.with_order(n, -residual)
    return inverse


def transform_product(
    deformation: FormalSeries, morphism: FormalSeries, order: int
) -> FormalSeries:
    """Equivalence action F(S)(F^{-1}, F^{-1}) on an arity-2 deformation."""
    if deformation.blocks != 2 or morphism.blocks != 1:
        raise ValueError("need an arity-2 deformation and an arity-1 morphism")
    dim = deformation.dim
    inverse = invert_morphism(morphism, order)
    outer = compose(GenFunction(1, dim, morphism), [GenFunction(2, dim, deformation)], order)
    finv = GenFunction(1, dim, inverse)
    return compose(outer, [finv, finv], order).deformation


def is_odd_in_p(series: FormalSeries) -> bool:
    """True when every monomial of every order has odd total p-degree."""
    return all(
        monomial_p_degree(mono) % 2 == 1
        for sym in series.orders.values()
        for mono in sym.numerators
    )


def psi_numeric(
    morphism: FormalSeries,
    p1,
    x1,
    eps: float,
    tol: float = 1e-12,
):
    """The symplectomorphism generated by F = p.x + F~ at one point.

    Solves x_1 = grad_p F(p_1, x_2) for x_2 by fixed-point iteration, then
    returns (p_2, x_2) with p_2 = grad_x F(p_1, x_2).  Fixes (0, x) exactly.
    """
    if morphism.blocks != 1:
        raise ValueError("psi is generated by arity-1 functions")
    d = morphism.dim
    grad_p = [morphism.diff(p_key(1, i)) for i in range(1, d + 1)]
    grad_x = [morphism.diff(x_key(i)) for i in range(1, d + 1)]
    p1 = [float(v) for v in p1]
    x1 = [float(v) for v in x1]
    x2 = list(x1)
    for _ in range(_PSI_MAX_ITER):
        new_x2 = [
            x1[i] - series_eval(grad_p[i], [p1], x2, eps) for i in range(d)
        ]
        delta = max(abs(a - b) for a, b in zip(new_x2, x2))
        if any(not math.isfinite(v) for v in new_x2):
            raise NonConvergenceError("psi iteration produced a non-finite value")
        x2 = new_x2
        if delta <= tol:
            break
    else:
        raise NonConvergenceError(f"psi did not converge within {_PSI_MAX_ITER} iterations")
    p2 = [p1[i] + series_eval(grad_x[i], [p1], x2, eps) for i in range(d)]
    return p2, x2
