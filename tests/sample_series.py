"""Shared hand-built series used across the test modules."""

from fractions import Fraction

from gfoperad.operad import GenFunction
from gfoperad.symbols import FormalSeries, PolySymbol, p_key, x_key


def trivial_product(arity, dim):
    """S0(p_1..p_n, x) = (p_1+...+p_n).x; arity 0 gives the zero function."""
    return GenFunction(arity, dim, FormalSeries.zero(dim, arity))


def poly(dim, blocks, terms):
    return PolySymbol(dim, blocks, {tuple(sorted(m)): Fraction(c) for m, c in terms.items()})


def constant_poisson_first_order():
    """S~(1) = (1/2) p1.alpha.p2 for d = 2, alpha^{12} = 1."""
    return FormalSeries(
        2,
        2,
        {
            1: poly(
                2,
                2,
                {
                    ((p_key(1, 1), 1), (p_key(2, 2), 1)): Fraction(1, 2),
                    ((p_key(1, 2), 1), (p_key(2, 1), 1)): Fraction(-1, 2),
                },
            )
        },
    )


def heisenberg_first_order():
    """S~(1) = (1/2) p1.alpha(x).p2 for d = 3, alpha^{12} = x_3."""
    return FormalSeries(
        3,
        2,
        {
            1: poly(
                3,
                2,
                {
                    ((p_key(1, 1), 1), (p_key(2, 2), 1), (x_key(3), 1)): Fraction(1, 2),
                    ((p_key(1, 2), 1), (p_key(2, 1), 1), (x_key(3), 1)): Fraction(-1, 2),
                },
            )
        },
    )


def non_jacobi_first_order():
    """S~(1) = (1/2) p1.alpha(x).p2 for d = 3 with alpha^{12} = x_1,
    alpha^{13} = x_2, alpha^{23} = 1: antisymmetric but not Poisson."""
    return FormalSeries(
        3,
        2,
        {
            1: poly(
                3,
                2,
                {
                    ((p_key(1, 1), 1), (p_key(2, 2), 1), (x_key(1), 1)): Fraction(1, 2),
                    ((p_key(1, 2), 1), (p_key(2, 1), 1), (x_key(1), 1)): Fraction(-1, 2),
                    ((p_key(1, 1), 1), (p_key(2, 3), 1), (x_key(2), 1)): Fraction(1, 2),
                    ((p_key(1, 3), 1), (p_key(2, 1), 1), (x_key(2), 1)): Fraction(-1, 2),
                    ((p_key(1, 2), 1), (p_key(2, 3), 1)): Fraction(1, 2),
                    ((p_key(1, 3), 1), (p_key(2, 2), 1)): Fraction(-1, 2),
                },
            )
        },
    )


def symmetric_band_first_order():
    """S~(1) = p1.A.p2 with A symmetric (A = identity, d = 2): not a product."""
    return FormalSeries(
        2,
        2,
        {
            1: poly(
                2,
                2,
                {
                    ((p_key(1, 1), 1), (p_key(2, 1), 1)): 1,
                    ((p_key(1, 2), 1), (p_key(2, 2), 1)): 1,
                },
            )
        },
    )
