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
from functools import lru_cache
from itertools import groupby
from operator import attrgetter

from gfoperad.elementary import Expansion, elementary_function
from gfoperad.symbols import (
    FormalSeries,
    PolySymbol,
    ShapeError,
    add_scaled,
    check_grading,
    p_key,
    packed_base_point,
    series_eval,
    x_key,
)
from gfoperad.trees import BLACK, WHITE, enumerate_unrooted, symmetry_coefficient

#: Cap on the truncation order of compositions and solves (tree counts grow fast).
DEFAULT_ORDER_CAP = 8

#: numeric_phi refuses larger deformation parameters by default.
DEFAULT_EPS_LIMIT = 0.1

#: numeric_phi gives up after this many fixed-point steps.
_PHI_MAX_ITER = 200


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


def check_order(order: int) -> None:
    """The one order-range policy: ``ValueError`` outside 1..DEFAULT_ORDER_CAP."""
    if order < 1:
        raise ValueError(f"truncation order must be >= 1, got {order}")
    if order > DEFAULT_ORDER_CAP:
        raise ValueError(f"truncation order {order} exceeds cap {DEFAULT_ORDER_CAP}")


def identity(dim: int) -> GenFunction:
    """The operad unit I(p, x) = p.x (zero deformation, arity 1)."""
    return GenFunction(1, dim, FormalSeries.zero(dim, 1))


@lru_cache(maxsize=None)
def _valence_labels(t, above: int) -> frozenset:
    """The (colour, weight, valence) labels of the vertices of the rooted tree
    ``t``, whose root has ``above`` tree neighbours besides its children (1
    for a subtree under a parent, 0 for a whole tree)."""
    labels = {(t.color, t.weight, len(t.children) + above)}
    for child in t.children:
        labels |= _valence_labels(child, 1)
    return frozenset(labels)


def select_trees(max_weight: int, bounds: dict) -> list:
    """The unrooted trees of total weight <= ``max_weight``, in enumeration
    order, whose every vertex of colour c and weight w has at most
    ``bounds[c, w]`` tree neighbours; a (colour, weight) without an entry
    admits no vertex.

    This is the one way trees are selected; the enumeration and each tree's
    labels are cached, so a selection repeats no enumeration.
    """
    allowed = {(c, w, v) for (c, w), bound in bounds.items() for v in range(bound + 1)}
    return [
        top
        for top in enumerate_unrooted(max_weight)
        if _valence_labels(top.canonical, 0) <= allowed
    ]


def _variables(series: FormalSeries) -> set:
    """The variables of the orders of ``series``."""
    return {v for s in series.orders.values() for m in s.numerators for v, _ in m}


def _max_degree(sym: PolySymbol, variables) -> int:
    """The largest degree of a monomial of ``sym`` in ``variables``; 0 for zero."""
    return max((sum(e for v, e in m if v in variables) for m in sym.numerators), default=0)


def compose(
    outer: GenFunction,
    inners,
    order: int,
    *,
    _min_weight: int = 1,
) -> GenFunction:
    """Operadic composition, truncated at epsilon^order <= DEFAULT_ORDER_CAP.

    Sums C_t over the unrooted topological trees with total weight <= order
    that :func:`select_trees` keeps under valence bounds computed once per
    call.  An edge takes the p-derivative of component i of its black
    (outer) end in the block of the slot its white (inner) end reads, and
    the x-derivative of component i of the white end; a slot whose inner
    deformation is zero is dead, since its white differential is zero.  Let
    X be the x-components of the inners' orders and P the components of the
    live slots' p-variables in the outer's orders.  A black vertex of
    weight w has at most as many neighbours as the outer's order w has
    degree in the live slots' p-variables of a component in X, a white
    vertex of weight w at most the largest degree of order w over the slots
    in the x-variables of a component in P, and a vertex of an absent order
    none; a tree past a bound has C_t = 0, and skipping it changes no
    output.

    The expansion runs in shape (d, K+n), K the sum of the inner arities, and
    every input keeps the one x.  No input is moved: one
    :class:`~gfoperad.elementary.Expansion` packs each order <= ``order``
    once, with its p-blocks offset as it packs, slot b's inner p-blocks to
    blocks offset_b+1..offset_b+k_b, its output numbers, and the outer's p_b
    to block K+b.  Every contraction runs on the packed orders, and each C_t
    stays packed.  The trees of one total weight are summed on the packed
    keys, each C_t at 1/sigma(t), and the base point,
    :func:`~gfoperad.symbols.packed_base_point`, sends block K+b of that sum
    to the sum of slot b's inner blocks (one block for arity 1, zero for
    arity 0), still on packed keys.  Each weight is then decoded once, into
    the K-block layout.  When the inputs are graded, the grading closure is
    checked on the packed sums before the decode, one multiply per key
    (``PackedLayout.p_degrees``); a violation raises ``AssertionError`` with
    the first three violations that ``check_grading`` reports.

    The private ``_min_weight`` skips the trees of smaller total weight, so
    the orders below it come out zero; ``obstruction`` and ``invert_morphism``
    use it to expand only the trees of the one order they read.
    """
    check_order(order)
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
    inputs_graded = check_grading(outer.deformation).ok and all(
        check_grading(g.deformation).ok for g in inners
    )

    offsets = []
    slots = []
    offset = 0
    for g in inners:
        offsets.append(offset)
        slots.append(range(offset + 1, offset + g.arity + 1))
        offset += g.arity
    black = outer.deformation.truncate(order)
    whites = tuple(g.deformation.truncate(order) for g in inners)

    # the inputs are not moved: the live slot b's outer block b is packed as block K+b
    live = {b for b, g in enumerate(whites, start=1) if g.orders}
    xs = {v[1] for g in whites for v in _variables(g) if v[0] == "x"}
    ps = {v[2] for v in _variables(black) if v[0] == "p" and v[1] in live}
    black_vars = {p_key(b, i) for b in live for i in xs}
    white_vars = {x_key(i) for i in ps}
    bounds = {(BLACK, w): _max_degree(s, black_vars) for w, s in black.orders.items()}
    for g in whites:
        for w, s in g.orders.items():
            bounds[WHITE, w] = max(bounds.get((WHITE, w), 0), _max_degree(s, white_vars))
    trees = select_trees(order, bounds)
    expansion = Expansion(black, whites, order, K + 1, offsets)

    result_orders = {}
    graded = True
    # the trees come sorted by total weight, so each weight is one group
    for weight, group in groupby(trees, key=attrgetter("total_weight")):
        if weight < _min_weight:
            continue
        num, den = {}, 1
        for top in group:
            ct = elementary_function(top, expansion)
            if ct.numerators:
                sigma = symmetry_coefficient(top)
                den = add_scaled(num, den, ct.numerators.items(), 1, sigma * ct.denominator)
        layout, num = packed_base_point(expansion.layout, num, slots)
        # grading closure: graded inputs must compose to a graded result
        if inputs_graded and not layout.p_degrees(num) <= {weight + 1}:
            graded = False
        result_orders[weight] = layout.decode(num, den)

    series = FormalSeries(d, K, result_orders, graded=True)
    if not graded:
        report = check_grading(series)
        raise AssertionError(f"composition broke the grading: {report.violations[:3]}")
    return GenFunction(K, d, series)


def numeric_phi(
    outer: GenFunction,
    inners,
    p_points,
    x_point,
    eps: float,
    tol: float = 1e-12,
) -> float:
    """Solve the implicit composition equations numerically and return Phi.

    ``p_points``: per inner function, a list of its length-d p-blocks;
    ``x_point``: the outer base point.  Starts from the trivial base point
    (p^0, x^0) and iterates the fixed-point map; raises
    :class:`NonConvergenceError` outside the contraction regime.  The returned
    value is stationary in the internal variables, so an O(tol) fixed-point
    error perturbs Phi only at O(tol^2).
    """
    if not abs(eps) <= DEFAULT_EPS_LIMIT:
        raise ValueError(f"|eps| = {abs(eps)} is not within limit {DEFAULT_EPS_LIMIT}")
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
        [outer.deformation.diff(p_key(b, i)) for i in range(1, d + 1)]
        for b in range(1, n + 1)
    ]
    inner_grads = [
        [g.deformation.diff(x_key(i)) for i in range(1, d + 1)]
        for g in inners
    ]

    p_f = [list(p_sigma[b]) for b in range(n)]
    x_g = [list(x0) for _ in range(n)]

    for _ in range(_PHI_MAX_ITER):
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
            f"no fixed point within {_PHI_MAX_ITER} iterations (last step {delta:.3e})"
        )

    phi = 0.0
    for b, g in enumerate(inners):
        phi += g.value(p_points[b], x_g[b], eps)
    phi += outer.value(p_f, x0, eps)
    for b in range(n):
        for i in range(d):
            phi -= x_g[b][i] * p_f[b][i]
    return phi
