"""The tree expansion on ``PolySymbol`` values, kept as a reference for the packed one.

:func:`elementary_differential` and :func:`elementary_function` take the
outer (black) series, one inner (white) series per slot and the first outer
p-block directly, as the library did before it packed its inputs, and return
a tuple of n*dim symbols and a symbol.  Every contraction goes through
``PolySymbol.diff``, products and sums (:func:`contract`), so nothing here
reads a packed layout.
"""

from __future__ import annotations

from gfoperad.symbols import FormalSeries, PolySymbol, p_key, x_key
from gfoperad.trees import WHITE, RootedTree, TopTree


def contract(f: PolySymbol, variables, directions) -> PolySymbol:
    """sum_k directions[0][k] * contract(d f / d variables[k], directions[1:])."""
    if not directions:
        return f
    total = PolySymbol.zero(f.dim, f.blocks)
    for var, component in zip(variables, directions[0]):
        if not component.is_zero():
            total = total + component * contract(f.diff(var), variables, directions[1:])
    return total


def _contractions(t: RootedTree, black: FormalSeries, whites: tuple, p_block: int, children):
    """The (order, directions, variables) of each contraction at the root of ``t``."""
    dim = black.dim
    if t.color == WHITE:
        x_vars = [x_key(i) for i in range(1, dim + 1)]
        return [
            (g.order(t.weight), [c[k * dim : (k + 1) * dim] for c in children], x_vars)
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
    result = ()
    for f, directions, variables in _contractions(t, black, whites, p_block, children):
        result += tuple(contract(f.diff(v), variables, directions) for v in variables)
    memo[t] = result
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
    values = [
        contract(f, variables, directions)
        for f, directions, variables in _contractions(t, black, whites, p_block, children)
    ]
    return sum(values[1:], values[0])
