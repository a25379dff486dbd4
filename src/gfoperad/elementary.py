"""Elementary functions of weighted bipartite trees, on packed exponents.

Given order-indexed series over one base dimension, ``black`` (the F orders)
and ``whites`` (the G orders, one series per slot, n slots), every rooted tree
encodes a polynomial expression: the length-(n*dim) elementary differential
DC_t and the scalar elementary function C_t, built recursively by contracting
derivative tensors against the children's differentials.  A black vertex is
differentiated in the n*dim variables p[p_block+b-1][i] (slot b, component
i).  A white vertex is differentiated in x slot by slot, each slot against its
own components of the children: its DC_t concatenates the slot gradients and
its C_t sums the slots.  Any further variables are inert parameters, and
orders absent from a series act as the zero function.

An :class:`Expansion` packs every input order it can read once, into the
process's shared :class:`~gfoperad.symbols.PackedLayout` of its shape and
field width, and moves each series' p-blocks while packing.  Every DC_t and
every contraction then works on packed polynomials, and each C_t leaves
undecoded, as a :class:`~gfoperad.symbols.PackedPolynomial`: ``compose`` sums
the trees of one weight and applies its base point on the packed keys, and
decodes once per weight.
"""

from __future__ import annotations

from gfoperad.symbols import (
    FormalSeries,
    PackedPolynomial,
    add_scaled,
    contracted_gradient,
    directional_contract,
    p_key,
    packed_layout,
)
from gfoperad.trees import WHITE, TopTree

#: the packed zero, read for an absent order; no contraction writes into it
_ZERO = ({}, 1)


class Expansion:
    """The packed inputs of one tree expansion, and its memo of differentials.

    Only the orders <= ``max_weight`` are packed, since a tree of that total
    weight reads no other.  The layout has the base dimension and
    p_block - 1 + black.blocks p-blocks: black's block b is packed as block
    p_block - 1 + b, and slot k's block l as ``offsets[k]`` + l (default 0).
    Its fields hold exponents up to max_weight * D, D the largest total
    degree of a packed monomial: such a tree has at most max_weight vertices,
    C_t and every DC_t below it are products of at most that many derivatives
    of input orders, and differentiation only lowers exponents.

    The layout comes from :func:`~gfoperad.symbols.packed_layout`, so it is
    shared with every other expansion and base point of its shape and field
    width in the process, and nothing here mutates it.
    """

    __slots__ = ("layout", "max_weight", "black", "whites", "x_fields", "p_fields", "memo")

    def __init__(
        self, black: FormalSeries, whites: tuple, max_weight: int, p_block: int = 1, offsets=None
    ):
        if offsets is None:
            offsets = (0,) * len(whites)
        placed = [
            ({w: s for w, s in series.orders.items() if w <= max_weight}, offset)
            for series, offset in [(black, p_block - 1), *zip(whites, offsets)]
        ]
        degree = max((s.degree() for orders, _ in placed for s in orders.values()), default=0)
        dim = black.dim
        layout = packed_layout(dim, p_block - 1 + black.blocks, max_weight * degree)
        packed = [
            {w: layout.encode(s, offset) for w, s in orders.items()} for orders, offset in placed
        ]
        self.layout = layout
        self.max_weight = max_weight
        self.black = packed[0]
        self.whites = tuple(packed[1:])
        self.x_fields = layout.fields("x")
        self.p_fields = layout.fields(
            [p_key(p_block + k, i) for k in range(len(whites)) for i in range(1, dim + 1)]
        )
        self.memo = {}

    def contractions(self, t, children):
        """The (order, directions, fields) of each contraction at the root of ``t``."""
        if t.color == WHITE:
            dim = self.layout.dim
            return [
                (
                    g.get(t.weight, _ZERO),
                    [c[k * dim : (k + 1) * dim] for c in children],
                    self.x_fields,
                )
                for k, g in enumerate(self.whites)
            ]
        return [(self.black.get(t.weight, _ZERO), children, self.p_fields)]

    def differential(self, t) -> tuple:
        """DC_t: the gradient of the root's order, one index free, contracted
        against the children's differentials; a tuple of n*dim packed polynomials."""
        cached = self.memo.get(t)
        if cached is not None:
            return cached
        children = [self.differential(c) for c in t.children]
        parts = self.contractions(t, children)
        result = self.memo[t] = sum((contracted_gradient(self.layout, *part) for part in parts), ())
        return result


def elementary_function(t, expansion: Expansion) -> PackedPolynomial:
    """C_t: the scalar a tree encodes, root-independent on unrooted classes,
    packed in the expansion's layout; ``.decode()`` gives the symbol."""
    if isinstance(t, TopTree):
        t = t.canonical
    if t.total_weight > expansion.max_weight:
        raise ValueError(
            f"tree weight {t.total_weight} exceeds the expansion's {expansion.max_weight}"
        )
    children = [expansion.differential(c) for c in t.children]
    layout = expansion.layout
    parts = expansion.contractions(t, children)
    total, den = directional_contract(layout, *parts[0])
    for part in parts[1:]:
        num, other = directional_contract(layout, *part)
        den = add_scaled(total, den, num.items(), 1, other)
    return PackedPolynomial(layout, total, den)
