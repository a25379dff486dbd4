"""Generating functions and their operadic composition.

An arity-n generating function is S = S0 + S~ where S0(p,x) = (p_1+...+p_n).x
is the trivial part and S~ a graded deformation series.  Composing an outer
arity-n function with inner functions of arities k_1..k_n is done two ways:

* formally, by the weighted-bipartite-tree expansion: the deformation of the
  composite is the sum over unrooted topological trees t (weight ``||t||`` =
  epsilon order, 1/sigma(t) coefficient) of the elementary function C_t built
  from the outer orders (black vertices, differentiated in the outer's n
  p-blocks) and the inner orders (white vertices, each slot differentiated in
  the one shared x and contracted against its own components), evaluated at
  the trivial base point p_outer = (sum of each inner block's p, ...), a
  linear map on p alone;

* numerically, by solving the implicit system p_F = grad_x G(p_G, x_G),
  x_G = grad_p F(p_F, x_F) by fixed-point iteration (a contraction for small
  eps) and returning Phi = G + F - x_G.p_F, which is the oracle every
  truncation is checked against.
"""

from __future__ import annotations

import math
from fractions import Fraction

from gfoperad.elementary import elementary_function
from gfoperad.symbols import (
    FormalSeries,
    PolySymbol,
    ShapeError,
    _accumulate,
    check_grading,
    p_key,
    series_eval,
    x_key,
)
from gfoperad.trees import BLACK, WHITE, enumerate_unrooted, symmetry_coefficient

#: Cap on the truncation order of compositions and solves (tree counts grow fast).
DEFAULT_ORDER_CAP = 8

#: numeric_phi refuses larger deformation parameters by default.
DEFAULT_EPS_LIMIT = 0.1


class NonConvergenceError(RuntimeError):
    """The fixed-point iteration failed to reach the requested tolerance."""


class GenFunction:
    """S = S0 + S~: trivial part plus graded deformation series."""

    __slots__ = ("arity", "dim", "deformation")

    def __init__(self, arity: int, dim: int, deformation: FormalSeries):
        if arity < 0:
            raise ValueError("arity must be non-negative")
        if deformation.dim != dim or deformation.blocks != arity:
            raise ShapeError(
                f"deformation shape ({deformation.dim},{deformation.blocks}) "
                f"does not match GenFunction (dim={dim}, arity={arity})"
            )
        if not deformation.graded:
            raise ValueError("GenFunction deformations must carry the graded flag")
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "deformation", deformation)

    def __setattr__(self, name, value):
        raise AttributeError("GenFunction is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, GenFunction)
            and self.arity == other.arity
            and self.dim == other.dim
            and self.deformation == other.deformation
        )

    def __repr__(self):
        return f"GenFunction(arity={self.arity}, dim={self.dim}, {self.deformation!r})"

    def value(self, p_blocks, x_values, eps):
        """Full evaluation S0 + deformation at a point; exact on rationals."""
        if len(p_blocks) != self.arity:
            raise ShapeError(f"expected {self.arity} p-blocks, got {len(p_blocks)}")
        trivial = 0
        for block in p_blocks:
            for pi, xi in zip(block, x_values):
                trivial = trivial + pi * xi
        return trivial + series_eval(self.deformation, p_blocks, x_values, eps)


def identity(dim: int) -> GenFunction:
    """The operad unit I(p, x) = p.x (zero deformation, arity 1)."""
    return GenFunction(1, dim, FormalSeries.zero(dim, 1))


def trivial_product(arity: int, dim: int) -> GenFunction:
    """S0(p_1..p_n, x) = (p_1+...+p_n).x; arity 0 gives the zero function."""
    return GenFunction(arity, dim, FormalSeries.zero(dim, arity))


def _move_blocks(series: FormalSeries, rows, blocks: int, order: int) -> FormalSeries:
    """The orders <= ``order`` of ``series``, each moved by ``map_blocks(rows, blocks)``."""
    return FormalSeries(
        series.dim,
        blocks,
        {o: s.map_blocks(rows, blocks) for o, s in series.orders.items() if o <= order},
        graded=False,
    )


def compose(outer: GenFunction, inners, order: int) -> GenFunction:
    """Operadic composition, truncated at epsilon^order <= DEFAULT_ORDER_CAP.

    Sums C_t over unrooted topological trees with total weight <= order; tree
    vertex weights are restricted to the orders actually present in the outer
    (black) and inner (white) deformations.

    The expansion runs in shape (d, K+n), K the sum of the inner arities, and
    every input keeps the one x: slot b's inner p-blocks move to blocks
    offset_b+1..offset_b+k_b, its output numbers, and the outer's p_b to block
    K+b.  At the base point one ``map_blocks`` per weight sends block K+b to
    the sum of slot b's inner blocks (one block for arity 1, zero for arity 0).
    """
    if order < 1:
        raise ValueError("truncation order must be >= 1")
    if order > DEFAULT_ORDER_CAP:
        raise ValueError(f"truncation order {order} exceeds cap {DEFAULT_ORDER_CAP}")
    d = outer.dim
    n = outer.arity
    if len(inners) != n:
        raise ValueError(f"outer arity {n} needs {n} inner functions, got {len(inners)}")
    for g in inners:
        if g.dim != d:
            raise ShapeError("all functions must share one base dimension")
    if n == 0:
        return GenFunction(0, d, outer.deformation.truncate(order))

    K = sum(g.arity for g in inners)
    blocks = K + n
    inputs_graded = check_grading(outer.deformation).ok and all(
        check_grading(g.deformation).ok for g in inners
    )

    whites = []
    base_point = {}
    offset = 0
    for b, g in enumerate(inners, start=1):
        rows = {l: [(offset + l, 1)] for l in range(1, g.arity + 1)}
        whites.append(_move_blocks(g.deformation, rows, blocks, order))
        base_point[K + b] = [row[0] for row in rows.values()]
        offset += g.arity
    whites = tuple(whites)
    rows = {b: [(K + b, 1)] for b in range(1, n + 1)}
    black = _move_blocks(outer.deformation, rows, blocks, order)

    allowed = {BLACK: set(black.orders), WHITE: {o for g in whites for o in g.orders}}
    sums = {}
    memo = {}
    for top in enumerate_unrooted(order, allowed_weights=allowed):
        value = elementary_function(top, black, whites, K + 1, memo)
        if value.is_zero():
            continue
        weight_terms = sums.setdefault(top.total_weight, {})
        _accumulate(weight_terms, value.terms.items(), Fraction(1, symmetry_coefficient(top)))

    result_orders = {
        weight: PolySymbol._trusted(d, blocks, terms).map_blocks(base_point, K)
        for weight, terms in sums.items()
    }

    series = FormalSeries(d, K, result_orders, graded=True)
    if inputs_graded:
        # grading closure: graded inputs must compose to a graded result
        report = check_grading(series)
        if not report.ok:
            raise AssertionError(f"composition broke the grading: {report.violations[:3]}")
    return GenFunction(K, d, series)


def _series_gradient(series: FormalSeries, var) -> FormalSeries:
    return FormalSeries(
        series.dim,
        series.blocks,
        {o: s.diff(var) for o, s in series.orders.items()},
        graded=False,
    )


def numeric_phi(
    outer: GenFunction,
    inners,
    p_points,
    x_point,
    eps: float,
    tol: float = 1e-12,
    max_iter: int = 200,
    eps_limit: float = DEFAULT_EPS_LIMIT,
) -> float:
    """Solve the implicit composition equations numerically and return Phi.

    ``p_points``: per inner function, a list of its length-d p-blocks;
    ``x_point``: the outer base point.  Starts from the trivial base point
    (p^0, x^0) and iterates the fixed-point map; raises
    :class:`NonConvergenceError` outside the contraction regime.  The returned
    value is stationary in the internal variables, so an O(tol) fixed-point
    error perturbs Phi only at O(tol^2).
    """
    if not abs(eps) <= eps_limit:
        raise ValueError(f"|eps| = {abs(eps)} is not within limit {eps_limit}")
    d = outer.dim
    n = outer.arity
    if len(p_points) != n:
        raise ShapeError(f"expected {n} inner points, got {len(p_points)}")
    for g, blocks in zip(inners, p_points):
        if len(blocks) != g.arity:
            raise ShapeError("inner point block count mismatch")

    p_sigma = [
        [float(sum(block[i] for block in p_points[b])) for i in range(d)]
        for b in range(n)
    ]
    x0 = [float(v) for v in x_point]

    outer_grads = [
        [_series_gradient(outer.deformation, p_key(b, i)) for i in range(1, d + 1)]
        for b in range(1, n + 1)
    ]
    inner_grads = [
        [_series_gradient(g.deformation, x_key(i)) for i in range(1, d + 1)]
        for g in inners
    ]

    p_f = [list(p_sigma[b]) for b in range(n)]
    x_g = [list(x0) for _ in range(n)]

    for _ in range(max_iter):
        new_p = [
            [
                p_sigma[b][i]
                + series_eval(inner_grads[b][i], p_points[b], x_g[b], eps)
                for i in range(d)
            ]
            for b in range(n)
        ]
        new_x = [
            [
                x0[i] + series_eval(outer_grads[b][i], p_f, x0, eps)
                for i in range(d)
            ]
            for b in range(n)
        ]
        delta = 0.0
        for b in range(n):
            for i in range(d):
                if not (math.isfinite(new_p[b][i]) and math.isfinite(new_x[b][i])):
                    raise NonConvergenceError("iteration produced a non-finite value")
                delta = max(delta, abs(new_p[b][i] - p_f[b][i]), abs(new_x[b][i] - x_g[b][i]))
        p_f, x_g = new_p, new_x
        if delta <= tol:
            break
    else:
        raise NonConvergenceError(
            f"no fixed point within {max_iter} iterations (last step {delta:.3e})"
        )

    phi = 0.0
    for b, g in enumerate(inners):
        phi += g.value(p_points[b], x_g[b], eps)
    phi += outer.value(p_f, x0, eps)
    for b in range(n):
        for i in range(d):
            phi -= x_g[b][i] * p_f[b][i]
    return phi
