"""The deformation complex on graded series.

The coboundary d sends an arity-n series to the arity-(n+1) series

    dF(p_1..p_{n+1}, x) = F(p_1..p_n, x)
                          + sum_j (-1)^(n+j-1) F(p_1.., p_j + p_{j+1}, .., p_{n+1}, x)
                          + (-1)^(n-1) F(p_2..p_{n+1}, x),

the signed sum of n+2 face maps.  On a monomial whose p-block k has exponent
vector a_k, neighbouring faces cancel exactly: dropping p_1 against the c = 0
term of merge 1, the c = a_k term of merge k against the c = 0 term of merge
k+1, and dropping p_{n+1} against the c = a_n term of merge n, where merge k
expands (p_k + p_{k+1})^{a_k} = sum_c C(a_k, c) p_k^c p_{k+1}^{a_k - c}.
What is left is the reduced coproduct: for each block k, its proper
splittings 0 != c != a_k with the integer weight prod_i C(a_{k,i}, c_i) and
the sign (-1)^(n+k+1) of merge k, and for each block with a_k = 0, whose one
merge term had to cancel both neighbours, a single correction term with the
opposite sign.  ``coboundary_monomial`` writes these integer terms directly;
they depend only on the monomial's p-part and the arity, so each p-part's
image is computed once per process and cached as an immutable tuple, and the
x-part is appended to each image monomial.

The Gerstenhaber-type bracket is assembled from slot insertions through
:func:`gfoperad.operad.compose` with identity fillers, with the classical slot
signs (-1)^((i-1)(l-1)); the convention is pinned by bracket(0_2, F) = dF,
which holds for every arity.

For an arity-2 deformation S~ the product equation is the vanishing of
S(S,I) - S(I,S) = circ(S~, S~) order by order; ``verify_product`` reports
those residuals from both insertions.  The inhomogeneity H_n is the order-n
residual of the truncation S_{<n}, so the product equation at order n reads
dS_n + H_n = 0; since bracket(S, S) = 2 circ(S, S), H_n is the order-n part
of (1/2)[S~, S~].  For the opposite product S^op_eps(p1, p2, x) =
S_{-eps}(p2, p1, x), of order k (-1)^k S_k(p2, p1, x), every arity-2 S has

    S(I,S)_n(p1, p2, p3, x) = (-1)^n S^op(S^op,I)_n(p3, p2, p1, x),

so ``obstruction`` needs first insertions only; with the opposite symmetry
S^op = S (f *_{-eps} g = g *_eps f, which every solver output has) it needs
one.  The independent oracles are the tree-free Picard composition
(``tests/compose_reference.py``) and ``numeric_phi``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from gfoperad.operad import GenFunction, check_order, compose, identity
from gfoperad.symbols import (
    FormalSeries,
    PolySymbol,
    accumulate,
    check_grading,
    p_key,
    split_monomial,
)


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


@lru_cache(maxsize=None)
def p_pair(block: int, comp: int, exp: int) -> tuple:
    """The (variable, exponent) pair of p[block][comp]^exp, one object per process."""
    return (p_key(block, comp), exp)


#: every distinct image monomial of :func:`_p_coboundary`, one object per process
_P_IMAGES = {}


@lru_cache(maxsize=None)
def _p_coboundary(p_part, arity: int) -> tuple:
    """d of one arity-``arity`` p-monomial as an immutable tuple of (monomial, nonzero int) pairs.

    The reduced coproduct of the module docstring, computed once per
    (p-part, arity) and process and shared by every caller, so it is never
    mutated.  A monomial may appear in more than one pair.  The images share
    their (variable, exponent) pairs (:func:`p_pair`), and equal images are
    one object (``_P_IMAGES``), which keeps the cache small: at most a few
    hundred distinct pairs stand behind its monomials, and each image
    monomial of two p-parts is stored once.
    """
    n = arity
    blocks = [[] for _ in range(n + 1)]  # blocks[k]: the (component, exponent) of p_k
    for var, exp in p_part:
        blocks[var[1]].append((var[2], exp))
    out = []
    for k in range(1, n + 1):
        sign = -1 if (n + k) % 2 == 0 else 1
        below = tuple(p_pair(j, i, e) for j in range(1, k) for i, e in blocks[j])
        above = tuple(p_pair(j + 1, i, e) for j in range(k + 1, n + 1) for i, e in blocks[j])
        if not blocks[k]:
            image = below + above
            out.append((_P_IMAGES.setdefault(image, image), -sign))
            continue
        splits = [((), (), sign)]  # (p_k part, p_{k+1} part, signed weight)
        for i, e in blocks[k]:
            splits = [
                (
                    low + (p_pair(k, i, c),) if c else low,
                    high + (p_pair(k + 1, i, e - c),) if c < e else high,
                    weight * math.comb(e, c),
                )
                for low, high, weight in splits
                for c in range(e + 1)
            ]
        for low, high, w in splits:
            if low and high:
                image = below + low + high + above
                out.append((_P_IMAGES.setdefault(image, image), w))
    return tuple(out)


def coboundary_monomial(mono, arity: int) -> list:
    """d of one arity-``arity`` monomial as a new list of (monomial, nonzero int) pairs.

    The p-part's image comes from a per-process cache of the reduced
    coproduct (:func:`_p_coboundary`), and the x-part, which d does not touch
    and which sorts after every p-variable, is appended to each image
    monomial.  A monomial may appear in more than one pair.
    """
    p_part, x_part = split_monomial(mono)
    images = _p_coboundary(p_part, arity)
    if not x_part:
        return list(images)
    return [(image + x_part, w) for image, w in images]


def coboundary_symbol(sym: PolySymbol, arity: int) -> PolySymbol:
    """Apply the coboundary to one arity-``arity`` symbol, monomial by monomial.

    The images of the symbol's int numerators are summed over its one
    denominator by the kernel's :func:`~gfoperad.symbols.accumulate`, which
    drops what cancels.  Each image monomial of :func:`coboundary_monomial` is
    already canonical, so the sum becomes a symbol through
    :meth:`PolySymbol.from_numerators`, which divides out the common factor.
    """
    if sym.blocks != arity:
        raise ValueError(f"symbol has {sym.blocks} blocks, expected {arity}")
    total = {}
    for mono, num in sym.numerators.items():
        accumulate(total, coboundary_monomial(mono, arity), num)
    return PolySymbol.from_numerators(sym.dim, arity + 1, total, sym.denominator)


def coboundary(series: FormalSeries) -> FormalSeries:
    """Order-by-order coboundary; graded input (flag and terms), graded output.

    The highest stored order must pass :func:`~gfoperad.operad.check_order`,
    as every other truncation order does.
    """
    if not series.graded:
        raise ValueError("coboundary expects a graded series")
    if not series.is_zero():
        check_order(series.max_order())
    report = check_grading(series)
    if not report.ok:
        order, mono, degree = report.violations[0]
        raise ValueError(f"series flagged graded has p-degree {degree} at order {order}: {mono}")
    arity = series.blocks
    return FormalSeries(
        series.dim,
        arity + 1,
        {i: coboundary_symbol(s, arity) for i, s in series.orders.items()},
        graded=True,
    )


def circ(F: FormalSeries, G: FormalSeries, order: int) -> FormalSeries:
    """Sum of slot insertions F(0_1,..,G,..,0_1) with signs (-1)^((i-1)(l-1)).

    Each insertion is one ``compose`` with identity fillers.
    """
    k, l = F.blocks, G.blocks
    if k + l < 1:
        raise ValueError("circ needs an operand of positive arity, got two of arity 0")
    outer, inner, one = GenFunction(k, F.dim, F), GenFunction(l, F.dim, G), identity(F.dim)
    total = FormalSeries.zero(F.dim, k + l - 1)
    for i in range(1, k + 1):
        fillers = [inner if position == i else one for position in range(1, k + 1)]
        piece = compose(outer, fillers, order)
        if ((i - 1) * (l - 1)) % 2:
            total = total - piece.deformation
        else:
            total = total + piece.deformation
    return total


def bracket(F: FormalSeries, G: FormalSeries, order: int) -> FormalSeries:
    """Gerstenhaber bracket [F, G] = F o G - (-1)^((k-1)(l-1)) G o F."""
    if F.dim != G.dim:
        raise ValueError("bracket operands must share the base dimension")
    k, l = F.blocks, G.blocks
    if ((k - 1) * (l - 1)) % 2:
        return circ(F, G, order) + circ(G, F, order)
    return circ(F, G, order) - circ(G, F, order)


def verify_product(deformation: FormalSeries, order: int) -> CochainReport:
    """Residuals of S(S, I) - S(I, S) = circ(S~, S~), per order up to ``order``."""
    if deformation.blocks != 2:
        raise ValueError("a product candidate must have arity 2")
    diff = circ(deformation, deformation, order)
    residuals = {n: diff.order(n) for n in range(1, order + 1)}
    return CochainReport(residuals, order)


class ProductPreconditionError(ValueError):
    """The partial deformation fails the product equation below the target order."""

    def __init__(self, order, residual):
        self.order = order
        self.residual = residual
        super().__init__(f"product equation already fails at order {order}: {residual}")


def _first_insertion(S: FormalSeries, n: int) -> PolySymbol:
    """Order n of S(S, I) for an arity-2 S, from the trees of total weight n."""
    product = GenFunction(2, S.dim, S)
    return compose(product, (product, identity(S.dim)), n, _min_weight=n).deformation.order(n)


def obstruction(partial: FormalSeries, n: int, verified: bool = False) -> PolySymbol:
    """H_n: the order-n product residual of S_{<n}, the orders of ``partial`` below n.

    H_n, the order-n part of circ(S_{<n}, S_{<n}) = (1/2)[S~, S~], is
    A_n - (-1)^n B_n(1<->3) for A = S(S, I) and B = S^op(S^op, I) (module
    docstring), where B_n = A_n if S_{<n} is its own opposite.  Unless
    ``verified``, the first nonzero residual of ``verify_product`` below n
    raises :class:`ProductPreconditionError` first; dS_n + H_n = 0 is then the
    order-n equation.
    """
    if partial.blocks != 2:
        raise ValueError("expected an arity-2 deformation")
    if n <= 1:
        return PolySymbol.zero(partial.dim, 3)
    truncated = partial.truncate(n - 1)
    if not verified:
        failure = verify_product(truncated, n - 1).first_failure()
        if failure is not None:
            raise ProductPreconditionError(*failure)
    swap_12 = {1: [(2, 1)], 2: [(1, 1)]}
    orders = {k: s.map_blocks(swap_12, 2).scale((-1) ** k) for k, s in truncated.orders.items()}
    opposite = FormalSeries(partial.dim, 2, orders)
    a_n = _first_insertion(truncated, n)
    b_n = a_n if opposite == truncated else _first_insertion(opposite, n)
    mirror = b_n.map_blocks({1: [(3, 1)], 3: [(1, 1)]}, 3)
    return a_n - mirror if n % 2 == 0 else a_n + mirror
