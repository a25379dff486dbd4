"""Elementary differentials and elementary functions of weighted bipartite trees.

Given a pair of order-indexed collections F (functions of the p-variables of
one designated block, black side) and G (functions of the x-variables, white
side) over a shared flattened dimension m, every rooted tree encodes a
polynomial expression: the vector-valued elementary differential DC_t and the
scalar elementary function C_t, built recursively by contracting derivative
tensors against the children's differentials.

A black-rooted differential is a vector in the x-slot (it feeds x-type
updates), a white-rooted one is a covector in the p-slot.  The pairing used in
the Butcher-product identity contracts one of each.
"""

from __future__ import annotations

from dataclasses import dataclass

from gfoperad.symbols import (
    FormalSeries,
    PolySymbol,
    _accumulate,
    contracted_gradient,
    directional_contract,
)
from gfoperad.trees import WHITE, RootedTree, TopTree

#: Slot tags: where the vector lives (and hence what it may be paired with).
P_SLOT = "p"
X_SLOT = "x"


@dataclass(frozen=True)
class SlotVector:
    """Length-m vector of symbols with a declared slot tag."""

    tag: str
    components: tuple

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return len(self.components)


def pair(a: SlotVector, b: SlotVector) -> PolySymbol:
    """Natural pairing of a p-slot covector with an x-slot vector."""
    if a.tag == b.tag:
        raise ValueError(f"pairing requires opposite slot tags, both are {a.tag!r}")
    if len(a) != len(b):
        raise ValueError("pairing length mismatch")
    first = a.components[0]
    total = {}
    for u, v in zip(a.components, b.components):
        prod = u * v
        first._require_shape(prod)
        _accumulate(total, prod.terms.items())
    return PolySymbol._trusted(first.dim, first.blocks, total)


class SeriesPair:
    """The data (F, G) an expansion runs on.

    ``f`` holds the black-side orders (differentiated in p-block ``p_block``),
    ``g`` the white-side orders (differentiated in the x-variables).  Both live
    in symbols of one shared shape; any further variables are inert parameters.
    Orders absent from a series act as the zero function.
    """

    __slots__ = ("f", "g", "dim", "blocks", "p_block")

    def __init__(self, f: FormalSeries, g: FormalSeries, p_block: int = 1):
        if f.dim != g.dim or f.blocks != g.blocks:
            raise ValueError("SeriesPair requires F and G on one symbol shape")
        self.f = f
        self.g = g
        self.dim = f.dim
        self.blocks = f.blocks
        self.p_block = p_block

    def black_order(self, j: int) -> PolySymbol:
        return self.f.order(j)

    def white_order(self, i: int) -> PolySymbol:
        return self.g.order(i)


def elementary_differential(t: RootedTree, data: SeriesPair, memo=None) -> SlotVector:
    """DC_t: a tagged length-m vector of symbols.

    White root: one free x-derivative index of the corresponding G order,
    contracted against the children's differentials.  Black root: the same
    with p-derivatives of the F order.
    """
    if memo is None:
        memo = {}
    cached = memo.get(t)
    if cached is not None:
        return cached
    child_vectors = [elementary_differential(c, data, memo).components for c in t.children]
    if t.color == WHITE:
        base = data.white_order(t.weight)
        comps = contracted_gradient(base, child_vectors, "x")
        result = SlotVector(P_SLOT, tuple(comps))
    else:
        base = data.black_order(t.weight)
        comps = contracted_gradient(base, child_vectors, ("p", data.p_block))
        result = SlotVector(X_SLOT, tuple(comps))
    memo[t] = result
    return result


def elementary_function(t, data: SeriesPair, memo=None) -> PolySymbol:
    """C_t: the scalar a tree encodes; root-independent on unrooted classes."""
    if isinstance(t, TopTree):
        t = t.canonical
    if memo is None:
        memo = {}
    child_vectors = [elementary_differential(c, data, memo).components for c in t.children]
    if t.color == WHITE:
        return directional_contract(data.white_order(t.weight), child_vectors, "x")
    return directional_contract(
        data.black_order(t.weight), child_vectors, ("p", data.p_block)
    )
