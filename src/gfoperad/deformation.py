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
opposite sign.  ``coboundary_monomial`` writes these integer terms directly.

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
from fractions import Fraction

from gfoperad.operad import GenFunction, check_order, compose, identity
from gfoperad.symbols import FormalSeries, PolySymbol, check_grading, p_key


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


def coboundary_monomial(mono, arity: int) -> list:
    """d of one arity-``arity`` monomial as (monomial, nonzero int) pairs.

    The reduced coproduct of the module docstring; the x-part rides along.  A
    monomial may appear in more than one pair.
    """
    n = arity
    blocks = [[] for _ in range(n + 1)]  # blocks[k]: the (component, exponent) of p_k
    x_part = ()
    for index, (var, exp) in enumerate(mono):
        if var[0] != "p":
            x_part = mono[index:]  # x-variables sort after every p-variable
            break
        blocks[var[1]].append((var[2], exp))
    out = []
    for k in range(1, n + 1):
        sign = -1 if (n + k) % 2 == 0 else 1
        below = tuple((p_key(j, i), e) for j in range(1, k) for i, e in blocks[j])
        above = tuple((p_key(j + 1, i), e) for j in range(k + 1, n + 1) for i, e in blocks[j])
        above += x_part
        if not blocks[k]:
            out.append((below + above, -sign))
            continue
        splits = [((), (), sign)]  # (p_k part, p_{k+1} part, signed weight)
        for i, e in blocks[k]:
            low_var, high_var = p_key(k, i), p_key(k + 1, i)
            splits = [
                (
                    low + ((low_var, c),) if c else low,
                    high + ((high_var, e - c),) if c < e else high,
                    weight * math.comb(e, c),
                )
                for low, high, weight in splits
                for c in range(e + 1)
            ]
        out.extend((below + low + high + above, w) for low, high, w in splits if low and high)
    return out


def coboundary_symbol(sym: PolySymbol, arity: int) -> PolySymbol:
    """Apply the coboundary to one arity-``arity`` symbol, monomial by monomial.

    The images are summed as int numerators over the coefficients' common
    denominator, which divides out once at the end.
    """
    if sym.blocks != arity:
        raise ValueError(f"symbol has {sym.blocks} blocks, expected {arity}")
    terms = sym.terms
    den = math.lcm(*(coeff.denominator for coeff in terms.values()))
    total = {}
    for mono, coeff in terms.items():
        num = coeff.numerator * (den // coeff.denominator)
        for image, weight in coboundary_monomial(mono, arity):
            total[image] = total.get(image, 0) + num * weight
    return PolySymbol(sym.dim, arity + 1, total).scale(Fraction(1, den))


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
