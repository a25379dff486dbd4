"""The deformation complex on graded series.

The coboundary d sends an arity-n series to the arity-(n+1) series

    dF(p_1..p_{n+1}, x) = F(p_1..p_n, x)
                          + sum_j (-1)^(n+j-1) F(p_1.., p_j + p_{j+1}, .., p_{n+1}, x)
                          + (-1)^(n-1) F(p_2..p_{n+1}, x),

realized as n+2 face maps, each one ``PolySymbol.map_blocks`` call: it sends
each p-block to a sum of p-blocks and expands the merged powers
(p_j + p_{j+1})^e by integer binomials.  The Gerstenhaber-type bracket is
assembled from slot insertions through :func:`gfoperad.operad.compose` with
identity fillers, with the classical slot signs (-1)^((i-1)(l-1)); the
convention is pinned by bracket(0_2, F) = dF, which holds for every arity.

For an arity-2 deformation S~ the product equation is the vanishing of
S(S,I) - S(I,S) order by order; ``verify_product`` reports those residuals.
The inhomogeneity H_n is the order-n residual of the truncation S_{<n}, so the
product equation at order n reads dS_n + H_n = 0.  For arity 2, bracket(S, S)
= 2 circ(S, S) = 2 (S(S,I) - S(I,S)), so H_n is also the order-n part of
(1/2)[S~, S~], which ``bracket`` computes by a second route.
"""

from __future__ import annotations

from dataclasses import dataclass

from gfoperad.operad import GenFunction, compose, identity
from gfoperad.symbols import FormalSeries, PolySymbol, _accumulate


@dataclass
class CochainReport:
    """Per-order residual symbols of the product equation."""

    residuals: dict  # order -> PolySymbol (arity-3 slot)
    max_order: int

    @property
    def all_zero(self) -> bool:
        return all(sym.is_zero() for sym in self.residuals.values())

    def first_failure(self):
        for order in sorted(self.residuals):
            if not self.residuals[order].is_zero():
                return order, self.residuals[order]
        return None


def coboundary_symbol(sym: PolySymbol, arity: int) -> PolySymbol:
    """Apply the coboundary to one arity-``arity`` symbol, face map by face map.

    Face k of the n+2 drops p_1 (k = 0), merges p_k + p_{k+1} (1 <= k <= n)
    or drops p_{n+1} (k = n+1), shifting the blocks above k up by one; it
    enters with sign (-1)^(n+k+1).
    """
    if sym.blocks != arity:
        raise ValueError(f"symbol has {sym.blocks} blocks, expected {arity}")
    n = arity
    total = {}
    for k in range(n + 2):
        rows = {b: [(b + 1, 1)] for b in range(k + 1, n + 1)}
        if 1 <= k <= n:
            rows[k] = [(k, 1), (k + 1, 1)]
        face = sym.map_blocks(rows, n + 1)
        _accumulate(total, face.terms.items(), -1 if (n + k + 1) % 2 else None)
    return PolySymbol._trusted(sym.dim, n + 1, total)


def coboundary(series: FormalSeries) -> FormalSeries:
    """Order-by-order coboundary; graded input, graded output (p-degrees kept)."""
    if not series.graded:
        raise ValueError("coboundary expects a graded series")
    arity = series.blocks
    return FormalSeries(
        series.dim,
        arity + 1,
        {i: coboundary_symbol(s, arity) for i, s in series.orders.items()},
        graded=True,
    )


def _insert(outer: FormalSeries, inner: FormalSeries, slot: int, order: int) -> FormalSeries:
    """Deformation of outer composed with ``inner`` in one slot, identities elsewhere."""
    dim = outer.dim
    fillers = []
    for position in range(1, outer.blocks + 1):
        if position == slot:
            fillers.append(GenFunction(inner.blocks, dim, inner))
        else:
            fillers.append(identity(dim))
    return compose(GenFunction(outer.blocks, dim, outer), fillers, order).deformation


def circ(F: FormalSeries, G: FormalSeries, order: int) -> FormalSeries:
    """Sum of slot insertions F(0_1,..,G,..,0_1) with signs (-1)^((i-1)(l-1))."""
    k, l = F.blocks, G.blocks
    if k + l < 1:
        raise ValueError("circ needs an operand of positive arity, got two of arity 0")
    total = FormalSeries.zero(F.dim, k + l - 1)
    for i in range(1, k + 1):
        piece = _insert(F, G, i, order)
        sign = -1 if ((i - 1) * (l - 1)) % 2 else 1
        total = total + piece.scale(sign)
    return total


def bracket(F: FormalSeries, G: FormalSeries, order: int) -> FormalSeries:
    """Gerstenhaber bracket [F, G] = F o G - (-1)^((k-1)(l-1)) G o F."""
    if F.dim != G.dim:
        raise ValueError("bracket operands must share the base dimension")
    k, l = F.blocks, G.blocks
    sign = -1 if ((k - 1) * (l - 1)) % 2 else 1
    return circ(F, G, order) - circ(G, F, order).scale(sign)


def verify_product(deformation: FormalSeries, order: int) -> CochainReport:
    """Residuals of S(S, I) - S(I, S) for S = S0 + S~, per order up to ``order``."""
    if deformation.blocks != 2:
        raise ValueError("a product candidate must have arity 2")
    dim = deformation.dim
    S = GenFunction(2, dim, deformation)
    one = identity(dim)
    left = compose(S, [S, one], order).deformation
    right = compose(S, [one, S], order).deformation
    diff = left - right
    residuals = {n: diff.order(n) for n in range(1, order + 1)}
    return CochainReport(residuals, order)


class ProductPreconditionError(ValueError):
    """The partial deformation fails the product equation below the target order."""

    def __init__(self, order, residual):
        self.order = order
        self.residual = residual
        super().__init__(f"product equation already fails at order {order}: {residual}")


def obstruction(partial: FormalSeries, n: int, verified: bool = False) -> PolySymbol:
    """H_n: the order-n product residual of S_{<n}, the orders of ``partial`` below n.

    H_n is the order-n part of (1/2)[S~, S~], since bracket(S, S) = 2 circ(S, S)
    for arity 2.  Unless ``verified``, the first nonzero lower residual of the
    same report raises :class:`ProductPreconditionError`; dS_n + H_n = 0 is
    then the order-n equation.
    """
    if partial.blocks != 2:
        raise ValueError("expected an arity-2 deformation")
    if n <= 1:
        return PolySymbol.zero(partial.dim, 3)
    report = verify_product(partial.truncate(n - 1), n)
    if not verified:
        failure = report.first_failure()
        if failure is not None and failure[0] < n:
            raise ProductPreconditionError(*failure)
    return report.residuals[n]
