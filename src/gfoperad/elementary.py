"""Elementary differentials and elementary functions of weighted bipartite trees.

Given two order-indexed series over one symbol shape, ``black`` (the F orders,
differentiated in the p-variables of block ``p_block``) and ``white`` (the G
orders, differentiated in the x-variables), every rooted tree encodes a
polynomial expression: the length-dim elementary differential DC_t and the
scalar elementary function C_t, built recursively by contracting derivative
tensors against the children's differentials.  Any further variables are inert
parameters, and orders absent from a series act as the zero function.
"""

from __future__ import annotations

from gfoperad.symbols import (
    FormalSeries,
    PolySymbol,
    contracted_gradient,
    directional_contract,
)
from gfoperad.trees import WHITE, RootedTree, TopTree


def _vertex(t: RootedTree, black: FormalSeries, white: FormalSeries, p_block: int):
    """The order a vertex reads and the variables it is differentiated in."""
    if t.color == WHITE:
        return white.order(t.weight), "x"
    return black.order(t.weight), ("p", p_block)


def elementary_differential(
    t: RootedTree, black: FormalSeries, white: FormalSeries, p_block: int = 1, memo=None
) -> tuple:
    """DC_t: the gradient of the root's order, one index free, contracted
    against the children's differentials; a tuple of dim symbols."""
    if memo is None:
        memo = {}
    cached = memo.get(t)
    if cached is not None:
        return cached
    children = [elementary_differential(c, black, white, p_block, memo) for c in t.children]
    f, against = _vertex(t, black, white, p_block)
    result = memo[t] = contracted_gradient(f, children, against)
    return result


def elementary_function(
    t, black: FormalSeries, white: FormalSeries, p_block: int = 1, memo=None
) -> PolySymbol:
    """C_t: the scalar a tree encodes; root-independent on unrooted classes."""
    if isinstance(t, TopTree):
        t = t.canonical
    if memo is None:
        memo = {}
    children = [elementary_differential(c, black, white, p_block, memo) for c in t.children]
    f, against = _vertex(t, black, white, p_block)
    return directional_contract(f, children, against)
