"""An exact gauge-equivalence oracle for arity-2 deformations.

Two graded deformations with the same first order are equivalent under the
action F(S)(F^-1, F^-1) of ``groupoid.transform_product``.  The arity-1
series F is found order by order in closed form: with D the order-n
difference between the transform of S by F_{<n} and B, the order-n
correction is F_n = -D(p, p) / (2^{n+1} - 2).  At p1 = p2 = p the arity-1
coboundary F(p1 + p2) - F(p1) - F(p2) of p-degree k is (2^k - 2) F(p),
which is injective for k >= 2, so F_n is unique; a D that is no coboundary
leaves a difference that the final exact comparison reports.
"""

from fractions import Fraction

from gfoperad.groupoid import transform_product
from gfoperad.symbols import FormalSeries


def equivalence_morphism(deformation: FormalSeries, target: FormalSeries, order: int) -> FormalSeries:
    """The arity-1 F with transform_product(deformation, F, order) == target.

    Raises AssertionError when the two are not equivalent up to ``order``.
    """
    morphism = FormalSeries.zero(deformation.dim, 1)
    for n in range(2, order + 1):
        difference = transform_product(deformation, morphism, n).order(n) - target.order(n)
        if not difference.is_zero():
            diagonal = difference.map_blocks({1: [(1, 1)], 2: [(1, 1)]}, 1)
            morphism = morphism.with_order(n, diagonal.scale(Fraction(-1, 2 ** (n + 1) - 2)))
    transformed = transform_product(deformation, morphism, order)
    for n in range(1, order + 1):
        if transformed.order(n) != target.order(n):
            raise AssertionError(f"no equivalence at order {n}")
    return morphism
