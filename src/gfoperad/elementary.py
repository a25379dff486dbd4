"""Elementary differentials and elementary functions of weighted bipartite trees.

Given order-indexed series over one symbol shape, ``black`` (the F orders) and
``whites`` (the G orders, one series per slot, n slots), every rooted tree
encodes a polynomial expression: the length-(n*dim) elementary differential
DC_t and the scalar elementary function C_t, built recursively by contracting
derivative tensors against the children's differentials.  A black vertex is
differentiated in the n*dim variables p[p_block+b-1][i] (slot b, component
i).  A white vertex is differentiated in x slot by slot, each slot against its
own components of the children: its DC_t concatenates the slot gradients and
its C_t sums the slots.  Any further variables are inert parameters, and
orders absent from a series act as the zero function.
"""

from __future__ import annotations

from gfoperad.symbols import (
    FormalSeries,
    PolySymbol,
    contracted_gradient,
    directional_contract,
    p_key,
)
from gfoperad.trees import WHITE, RootedTree, TopTree


def _contractions(t: RootedTree, black: FormalSeries, whites: tuple, p_block: int, children):
    """The (order, directions, variables) of each contraction at the root of ``t``."""
    dim = black.dim
    if t.color == WHITE:
        return [
            (g.order(t.weight), [c[k * dim : (k + 1) * dim] for c in children], "x")
            for k, g in enumerate(whites)
        ]
    against = [p_key(p_block + k, i) for k in range(len(whites)) for i in range(1, dim + 1)]
    return [(black.order(t.weight), children, against)]


def elementary_differential(
    t: RootedTree, black: FormalSeries, whites: tuple, p_block: int = 1, memo=None
) -> tuple:
    """DC_t: the gradient of the root's order, one index free, contracted
    against the children's differentials; a tuple of n*dim symbols."""
    if memo is None:
        memo = {}
    cached = memo.get(t)
    if cached is not None:
        return cached
    children = [elementary_differential(c, black, whites, p_block, memo) for c in t.children]
    parts = _contractions(t, black, whites, p_block, children)
    result = memo[t] = sum((contracted_gradient(*part) for part in parts), ())
    return result


def elementary_function(
    t, black: FormalSeries, whites: tuple, p_block: int = 1, memo=None
) -> PolySymbol:
    """C_t: the scalar a tree encodes; root-independent on unrooted classes."""
    if isinstance(t, TopTree):
        t = t.canonical
    if memo is None:
        memo = {}
    children = [elementary_differential(c, black, whites, p_block, memo) for c in t.children]
    parts = _contractions(t, black, whites, p_block, children)
    values = [directional_contract(*part) for part in parts]
    return sum(values[1:], values[0])
