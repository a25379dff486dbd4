"""The integer-numerator paths: the solver's solutions and the coboundary images.

``_solve_order`` and ``coboundary_symbol`` build their results from int
numerators over one denominator through ``PolySymbol.from_numerators``, which
validates nothing.  Each result must be exactly what the validating
constructor makes of its own terms: the same terms in the same order, with
no factor common to the denominator and every numerator.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coboundary_reference import face_map_coboundary
from gfoperad import solver
from gfoperad.deformation import coboundary_symbol
from gfoperad.solver import solve_deformation
from gfoperad.symbols import PolySymbol, p_key, x_key
from test_solver import ax_b_structure, quadratic_structure, so3_structure


def assert_canonical(sym):
    rebuilt = PolySymbol(sym.dim, sym.blocks, sym.terms)
    assert rebuilt == sym
    assert list(rebuilt.terms.items()) == list(sym.terms.items())
    assert math.gcd(sym.denominator, *sym.numerators.values()) == 1
    assert all(type(num) is int and num for num in sym.numerators.values())


@pytest.mark.parametrize(
    "build, order",
    [(so3_structure, 6), (quadratic_structure, 8), (ax_b_structure, 6)],
    ids=["so3", "quadratic", "ax-b"],
)
def test_solutions_and_coboundaries_of_a_solve_are_canonical(monkeypatch, build, order):
    solved, images = [], []
    solve_order, coboundary = solver._solve_order, solver.coboundary_symbol

    def solve_checked(h_n, n, d):
        s_n = solve_order(h_n, n, d)
        assert_canonical(s_n)
        solved.append(n)
        return s_n

    def coboundary_checked(sym, arity):
        image = coboundary(sym, arity)
        assert_canonical(image)
        images.append(image)
        return image

    monkeypatch.setattr(solver, "_solve_order", solve_checked)
    monkeypatch.setattr(solver, "coboundary_symbol", coboundary_checked)
    solve_deformation(build(), order)
    assert solved == list(range(2, order + 1))
    assert len(images) == order  # order 1 and every solved order are checked


@st.composite
def symbols_of_shape(draw, dim, arity):
    """Up to four terms; whole p-blocks often zero, denominators 1 to 7."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        powers = {}
        for block in range(1, arity + 1):
            if draw(st.booleans()):
                continue
            for i in range(1, dim + 1):
                powers[p_key(block, i)] = draw(st.integers(0, 3))
        for i in range(1, dim + 1):
            powers[x_key(i)] = draw(st.integers(0, 2))
        mono = tuple(sorted((v, e) for v, e in powers.items() if e))
        terms[mono] = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 7)))
    return PolySymbol(dim, arity, terms)


@st.composite
def cancelling_symbols(draw):
    """dG + F: d(dG) = 0 cancels in the image; G and F have unrelated denominators."""
    dim, arity = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    g = draw(symbols_of_shape(dim, arity))
    f = draw(symbols_of_shape(dim, arity + 1))
    return face_map_coboundary(g, arity) + f, arity + 1


@settings(max_examples=100, deadline=None)
@given(cancelling_symbols())
def test_coboundary_of_cancelling_images_matches_the_face_maps(case):
    sym, arity = case
    image = coboundary_symbol(sym, arity)
    assert image == face_map_coboundary(sym, arity)
    assert_canonical(image)


def test_coboundary_divides_out_a_factor_the_images_share():
    # d(p1_1^2 / 2) = -2 p1_1 p2_1 / 2 = -p1_1 p2_1
    image = coboundary_symbol(PolySymbol(1, 1, {((p_key(1, 1), 2),): Fraction(1, 2)}), 1)
    assert image.denominator == 1
    assert dict(image.numerators) == {((p_key(1, 1), 1), (p_key(2, 1), 1)): -1}
    assert_canonical(image)


def test_the_integer_surface_reads_without_a_copy():
    sym = PolySymbol(1, 0, {((x_key(1), 1),): Fraction(3, 4), (): Fraction(1, 6)})
    assert sym.denominator == 12
    assert dict(sym.numerators) == {((x_key(1), 1),): 9, (): 2}
    with pytest.raises(TypeError):
        sym.numerators[()] = 1
    numerators = {((x_key(1), 2),): 4, (): -6}
    built = PolySymbol.from_numerators(1, 0, numerators, 8)
    # the dict is taken over, and the common factor 2 divided out of it in place
    assert built.denominator == 4 and numerators == {((x_key(1), 2),): 2, (): -3}
    assert built == PolySymbol(1, 0, {((x_key(1), 2),): Fraction(1, 2), (): Fraction(-3, 4)})
