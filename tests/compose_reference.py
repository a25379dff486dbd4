"""Two independent routes to the composite deformation, for checking ``compose``.

* :func:`workspace_compose` is the earlier tree expansion.  It embeds every
  input into an (n*d)-dimensional workspace with one set of glue x-variables
  per slot, so a white vertex reads one combined inner series, and maps each
  weight's sum to the base point with one general ``substitute``.

* :func:`picard_compose` uses no trees.  It iterates the implicit equations
  p_F = p_sigma + grad_x G~(q, x_G) and x_G = x + grad_p F~(p_F, x) over exact
  polynomials and returns the stationary value
  Phi~ = sum_b G~_b(q_b, x_G,b) + F~(p_F, x) - sum_b (p_F,b - p_sigma,b).(x_G,b - x),
  which is Phi = sum_b G_b + F - sum_b x_G,b.p_F,b less the trivial part q.x.
  It sets eps = 1 and reads order i as p-degree i+1, so it needs graded
  inputs, and keeps p-degree <= order+1 in Phi~.  Since F~ and G~ start at
  p-degree 2, Phi~ there needs p_F only to p-degree order and x_G only to
  order-1, and those parts of the map depend only on those parts of its
  input; every sweep truncates there.  The errors in p_F and x_G start at
  p-degree 2 and 1 and each rise by at least one per sweep, so the truncated
  map reaches its fixed point within order-1 sweeps; the iteration stops at
  the first sweep that changes nothing and fails if order+1 sweeps do not
  get there.
"""

from __future__ import annotations

from fractions import Fraction

from gfoperad.elementary import elementary_function
from gfoperad.operad import GenFunction
from gfoperad.symbols import (
    FormalSeries,
    PolySymbol,
    _accumulate,
    monomial_p_degree,
    p_key,
    x_key,
)
from gfoperad.trees import BLACK, WHITE, enumerate_unrooted, symmetry_coefficient


def _embed(series: FormalSeries, mapping, w_dim, w_blocks, order) -> FormalSeries:
    """Rename every order <= ``order`` of ``series`` into the workspace."""
    return FormalSeries(
        w_dim,
        w_blocks,
        {
            o: s.remap_variables(mapping, w_dim, w_blocks)
            for o, s in series.orders.items()
            if o <= order
        },
        graded=False,
    )


def workspace_compose(outer: GenFunction, inners, order: int) -> GenFunction:
    """The composite through the (n*d, K+1) glue workspace.

    Blocks 1..K hold the inner p-blocks at their output numbers, block K+1 the
    flattened outer p (slot b at components (b-1)d+1..bd), and x-variables
    (b-1)d+1..bd inner slot b's x (the glue); the outer's x shares x 1..d with
    slot 1's glue.  One ``substitute`` per weight maps into shape (d, K):
    slot b's outer p goes to the sum of its inner blocks and glue x to x.
    """
    d = outer.dim
    n = outer.arity
    if n == 0:
        return GenFunction(0, d, outer.deformation.truncate(order))
    K = sum(g.arity for g in inners)
    w_dim = d * n
    w_blocks = K + 1

    outer_map = {}
    images = {}
    composite = FormalSeries.zero(w_dim, w_blocks, graded=False)
    offset = 0
    for b, g in enumerate(inners, start=1):
        inner_map = {}
        for i in range(1, d + 1):
            glue = (b - 1) * d + i
            block_vars = [p_key(offset + l, i) for l in range(1, g.arity + 1)]
            inner_map.update((p_key(l, i), var) for l, var in enumerate(block_vars, start=1))
            inner_map[x_key(i)] = x_key(glue)
            outer_map[p_key(b, i)] = p_key(K + 1, glue)
            images[p_key(K + 1, glue)] = PolySymbol(d, K, {((v, 1),): 1 for v in block_vars})
            if glue != i:
                images[x_key(glue)] = PolySymbol.variable(x_key(i), d, K)
        composite = composite + _embed(g.deformation, inner_map, w_dim, w_blocks, order)
        offset += g.arity
    outer_w = _embed(outer.deformation, outer_map, w_dim, w_blocks, order)

    allowed = {BLACK: set(outer_w.orders), WHITE: set(composite.orders)}
    sums = {}
    memo = {}
    for top in enumerate_unrooted(order, allowed_weights=allowed):
        # one slot of dimension n*d: the glue x carries every inner slot
        value = elementary_function(top, outer_w, (composite,), K + 1, memo)
        weight_terms = sums.setdefault(top.total_weight, {})
        _accumulate(weight_terms, value.terms.items(), Fraction(1, symmetry_coefficient(top)))

    result_orders = {
        weight: PolySymbol._trusted(w_dim, w_blocks, terms).substitute(images, d, K)
        for weight, terms in sums.items()
    }
    return GenFunction(K, d, FormalSeries(d, K, result_orders, graded=True))


def picard_compose(outer: GenFunction, inners, order: int) -> GenFunction:
    """The composite of graded inputs by Picard iteration; no trees (module docstring)."""
    d = outer.dim
    n = outer.arity
    K = sum(g.arity for g in inners)

    def cut(sym, top):
        terms = {m: c for m, c in sym.terms.items() if monomial_p_degree(m) <= top}
        return PolySymbol(d, K, terms)

    def at_eps_one(series):
        total = PolySymbol.zero(series.dim, series.blocks)
        for o, s in series.orders.items():
            if o <= order:
                total = total + s
        return total

    def var(v):
        return PolySymbol.variable(v, d, K)

    x = [var(x_key(i)) for i in range(1, d + 1)]
    inner_p = []  # per slot: its p-variables -> the composite's p-variables
    p_sigma = []
    offset = 0
    for g in inners:
        inner_p.append(
            {
                p_key(l, i): var(p_key(offset + l, i))
                for l in range(1, g.arity + 1)
                for i in range(1, d + 1)
            }
        )
        p_sigma.append(
            [
                sum((var(p_key(offset + l, i)) for l in range(1, g.arity + 1)), PolySymbol.zero(d, K))
                for i in range(1, d + 1)
            ]
        )
        offset += g.arity

    f = at_eps_one(outer.deformation)
    gs = [at_eps_one(g.deformation) for g in inners]
    f_grad = [[f.diff(p_key(b, i)) for i in range(1, d + 1)] for b in range(1, n + 1)]
    g_grad = [[g.diff(x_key(i)) for i in range(1, d + 1)] for g in gs]

    def inner_at(b, sym, x_g):
        mapping = dict(inner_p[b])
        mapping.update((x_key(i), x_g[i - 1]) for i in range(1, d + 1))
        return sym.substitute(mapping, d, K)

    def outer_at(sym, p_f):
        mapping = {p_key(b, i): p_f[b - 1][i - 1] for b in range(1, n + 1) for i in range(1, d + 1)}
        return sym.substitute(mapping, d, K)

    p_f = [list(row) for row in p_sigma]
    x_g = [list(x) for _ in range(n)]
    for _ in range(order + 1):
        sweep = (
            [
                [cut(p_sigma[b][i] + inner_at(b, g_grad[b][i], x_g[b]), order) for i in range(d)]
                for b in range(n)
            ],
            [[cut(x[i] + outer_at(f_grad[b][i], p_f), order - 1) for i in range(d)] for b in range(n)],
        )
        if sweep == (p_f, x_g):
            break
        p_f, x_g = sweep
    else:
        raise AssertionError(f"no fixed point within {order + 1} sweeps")

    phi = outer_at(f, p_f)
    for b in range(n):
        phi = phi + inner_at(b, gs[b], x_g[b])
        for i in range(d):
            phi = phi - (p_f[b][i] - p_sigma[b][i]) * (x_g[b][i] - x[i])
    phi = cut(phi, order + 1)

    by_order = {}
    for mono, coeff in phi.terms.items():
        degree = monomial_p_degree(mono)
        assert degree >= 2, f"term {mono} below p-degree 2"
        by_order.setdefault(degree - 1, {})[mono] = coeff
    orders = {o: PolySymbol(d, K, terms) for o, terms in by_order.items()}
    return GenFunction(K, d, FormalSeries(d, K, orders, graded=True))
