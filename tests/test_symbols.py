import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from json_reference import poisson_to_obj, poly_to_obj, series_to_obj

from gfoperad.poisson import PoissonStructure, poisson_dumps
from gfoperad.solver import lie_poisson_structure
from gfoperad.symbols import (
    FormalSeries,
    PackedLayout,
    PolySymbol,
    ShapeError,
    check_grading,
    contracted_gradient,
    directional_contract,
    json_dumps,
    p_key,
    poly_from_obj,
    random_graded_series,
    series_dumps,
    series_eval,
    series_loads,
    x_key,
)


def packed_contraction(f, directions, against, gradient=False):
    """The library's contraction of symbols: pack into f's shape, contract, decode.

    The layout holds f's degree plus the largest degree of each direction, a
    bound on every exponent the contraction makes.  ``gradient`` calls
    ``contracted_gradient`` and returns a tuple of symbols.
    """
    degree = f.degree() + sum(max((c.degree() for c in d), default=0) for d in directions)
    layout = PackedLayout(f.dim, f.blocks, degree)
    fields = layout.fields(against)
    packed_f = layout.encode(f)
    packed_directions = [[layout.encode(c) for c in d] for d in directions]
    if gradient:
        components = contracted_gradient(layout, packed_f, packed_directions, fields)
        return tuple(layout.decode(*c) for c in components)
    return layout.decode(*directional_contract(layout, packed_f, packed_directions, fields))


def sym(dim, blocks, terms):
    return PolySymbol(dim, blocks, {tuple(sorted(m)): Fraction(c) for m, c in terms.items()})


def var(v, dim, blocks):
    return PolySymbol.variable(v, dim, blocks)


def random_poly(rng, dim, blocks, terms=4, max_deg=3):
    variables = [p_key(b, i) for b in range(1, blocks + 1) for i in range(1, dim + 1)]
    variables += [x_key(i) for i in range(1, dim + 1)]
    acc = {}
    for _ in range(terms):
        mono = {}
        for _ in range(rng.randint(0, max_deg)):
            v = rng.choice(variables)
            mono[v] = mono.get(v, 0) + 1
        key = tuple(sorted(mono.items()))
        acc[key] = acc.get(key, 0) + Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return PolySymbol(dim, blocks, acc)


def test_add_cancels_to_zero():
    a = sym(1, 1, {((p_key(1, 1), 1), (x_key(1), 1)): 1})
    b = sym(1, 1, {((p_key(1, 1), 1), (x_key(1), 1)): -1})
    assert (a + b).is_zero()


def test_multiply_blocks():
    a = var(p_key(1, 1), 1, 2)
    b = var(p_key(2, 1), 1, 2)
    assert a * b == sym(1, 2, {((p_key(1, 1), 1), (p_key(2, 1), 1)): 1})


def test_scale_halves():
    two_xsq = sym(1, 0, {((x_key(1), 2),): 2})
    assert two_xsq.scale(Fraction(1, 2)) == sym(1, 0, {((x_key(1), 2),): 1})


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        var(x_key(1), 1, 0) + var(x_key(1), 2, 0)
    with pytest.raises(ShapeError):
        PolySymbol(1, 1, {((p_key(2, 1), 1),): Fraction(1)})


ONE_X = PolySymbol.variable(x_key(1), 1, 0)
P1 = PolySymbol.variable(p_key(1, 1), 1, 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: PolySymbol(2, 2, {((("p", 1.5, 1), 1),): 1}),
        lambda: PolySymbol(2, 2, {((("p", 1, 1.0), 1),): 1}),
        lambda: PolySymbol(2, 2, {((("p", True, 1), 1),): 1}),
        lambda: PolySymbol(1, 0, {((("x", 1.0), 1),): 1}),
        lambda: PolySymbol(1, 0, {((x_key(1), 1.5),): 1}),
        lambda: PolySymbol(1, 0, {((x_key(1), 2.0),): 1}),
        lambda: PolySymbol(1, 0, {((x_key(1), True),): 1}),
        lambda: PolySymbol(1, 0, {((x_key(1), 1),): 0.1}),
        lambda: PolySymbol(1, 0, {((x_key(1), 1),): True}),
        lambda: PolySymbol(1, 0, {((x_key(1), 1),): "1/2"}),
        lambda: PolySymbol.constant(0.1, 1, 0),
        lambda: PolySymbol.variable(("x", 1.0), 1, 0),
        lambda: ONE_X.scale(0.1),
        lambda: ONE_X * 0.5,
        lambda: 0.5 * ONE_X,
        lambda: ONE_X + 0.5,
        lambda: ONE_X - 0.5,
        lambda: PolySymbol.linear_combination(1, 0, [(0.1, ONE_X)]),
        lambda: P1.map_blocks({1: [(1, 0.5)]}, 1),
        lambda: P1.map_blocks({1: [(1.0, 1)]}, 1),
        lambda: P1.map_blocks({1.0: [(1, 1)]}, 1),
        lambda: P1.substitute({p_key(1, 1): 0.5}, 1, 1),
        lambda: FormalSeries(1, 0, {True: ONE_X}),
    ],
    ids=[
        "float-block",
        "float-component",
        "bool-block",
        "float-x-component",
        "float-exponent",
        "integral-float-exponent",
        "bool-exponent",
        "float-coefficient",
        "bool-coefficient",
        "string-coefficient",
        "float-constant",
        "float-variable",
        "float-scale",
        "float-product",
        "float-left-product",
        "float-sum",
        "float-difference",
        "float-factor",
        "float-row-coefficient",
        "float-target-block",
        "float-source-block",
        "float-substitution",
        "bool-order",
    ],
)
def test_no_float_or_bool_becomes_an_exact_value(build):
    # Fraction(0.1) would be 3602879701896397/36028797018963968, and an
    # exponent 1.5 would square to 3.0
    with pytest.raises(ValueError):
        build()


def test_ints_and_fractions_stay_exact_inputs():
    half = Fraction(1, 2)
    a = PolySymbol(2, 2, {((p_key(2, 1), 1), (x_key(2), 3)): half, ((x_key(1), 1),): 3})
    assert a.terms == {((p_key(2, 1), 1), (x_key(2), 3)): half, ((x_key(1), 1),): Fraction(3)}
    assert PolySymbol.constant(half, 1, 0) + 1 == PolySymbol.constant(Fraction(3, 2), 1, 0)
    assert ONE_X.scale(3) == ONE_X * 3 == 3 * ONE_X == ONE_X.scale(Fraction(3))
    pairs = [(half, ONE_X), (1, ONE_X)]
    assert PolySymbol.linear_combination(1, 0, pairs) == ONE_X.scale(Fraction(3, 2))
    # the rows of map_blocks take ints only: every change of variables has coefficients +-1
    with pytest.raises(ValueError, match="row coefficient must be an int"):
        P1.map_blocks({1: [(1, half)]}, 1)
    assert P1.substitute({p_key(1, 1): half}, 1, 1) == PolySymbol.constant(half, 1, 1)
    alpha = lie_poisson_structure(3, {(1, 2, 3): half})
    assert alpha.entry(1, 2) == PolySymbol(3, 0, {((x_key(3), 1),): half})


@pytest.mark.parametrize(
    "constants", [{(1, 2, 3): 0.1}, {(1.0, 2, 3): 1}, {(1, 2.0, 3): 1}, {(1, 2, 3.0): 1}]
)
def test_lie_poisson_structure_rejects_floats(constants):
    with pytest.raises(ValueError):
        lie_poisson_structure(3, constants)


def test_ring_axioms_random():
    rng = random.Random(3)
    for _ in range(20):
        a = random_poly(rng, 2, 2)
        b = random_poly(rng, 2, 2)
        c = random_poly(rng, 2, 2)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_grad_examples():
    f = sym(1, 1, {((p_key(1, 1), 1), (x_key(1), 1)): 1})
    assert f.diff(p_key(1, 1)) == var(x_key(1), 1, 1)
    assert f.diff(x_key(1)) == var(p_key(1, 1), 1, 1)
    g = sym(1, 1, {((x_key(1), 2),): 1})
    assert g.diff(p_key(1, 1)).is_zero()
    with pytest.raises(ShapeError):
        f.diff(p_key(2, 1))


def test_directional_contract_first_order():
    f = sym(1, 0, {((x_key(1), 2),): 1})
    one = PolySymbol.constant(1, 1, 0)
    out = packed_contraction(f, [(one,)], "x")
    assert out == sym(1, 0, {((x_key(1), 1),): 2})


def test_directional_contract_hessian_example():
    # f = p[1][1]^2 p[1][2]; second p-derivative contracted with constant u, v
    f = sym(2, 1, {((p_key(1, 1), 2), (p_key(1, 2), 1)): 1})
    u = [PolySymbol.constant(c, 2, 1) for c in (1, 2)]
    v = [PolySymbol.constant(c, 2, 1) for c in (3, 5)]
    block_1 = [p_key(1, 1), p_key(1, 2)]
    out = packed_contraction(f, [u, v], block_1)
    # 2*p2*u1*v1 + 2*p1*(u1*v2 + u2*v1) = 6 p2 + 22 p1
    expected = sym(2, 1, {((p_key(1, 2), 1),): 6, ((p_key(1, 1), 1),): 22})
    assert out == expected
    assert packed_contraction(f, [v, u], block_1) == out


def test_directional_contract_symmetric_and_multilinear():
    rng = random.Random(5)
    for _ in range(10):
        f = random_poly(rng, 2, 1, terms=5, max_deg=4)
        u = [random_poly(rng, 2, 1, terms=2, max_deg=1) for _ in range(2)]
        v = [random_poly(rng, 2, 1, terms=2, max_deg=1) for _ in range(2)]
        w = [a + b for a, b in zip(u, v)]
        assert packed_contraction(f, [u, v], "x") == packed_contraction(f, [v, u], "x")
        lhs = packed_contraction(f, [w, v], "x")
        rhs = packed_contraction(f, [u, v], "x") + packed_contraction(f, [v, v], "x")
        assert lhs == rhs


def test_contracted_gradient_matches_full_contract():
    rng = random.Random(9)
    f = random_poly(rng, 2, 1, terms=5, max_deg=4)
    u = [random_poly(rng, 2, 1, terms=2, max_deg=1) for _ in range(2)]
    grad_vec = packed_contraction(f, [u], "x", gradient=True)
    basis = [
        [PolySymbol.constant(1 if i == j else 0, 2, 1) for j in range(2)]
        for i in range(2)
    ]
    for i in range(2):
        assert packed_contraction(f, [u, basis[i]], "x") == grad_vec[i]


def test_contraction_variables_must_lie_in_the_shape():
    f = sym(2, 1, {((p_key(1, 1), 2),): 1})
    u = [PolySymbol.constant(1, 2, 1)] * 2
    with pytest.raises(ShapeError):
        packed_contraction(f, [u], [p_key(2, 1), p_key(2, 2)])
    with pytest.raises(ShapeError):
        packed_contraction(f, [u], [p_key(1, 1), p_key(1, 3)], gradient=True)
    with pytest.raises(ShapeError):
        packed_contraction(f, [u], [p_key(1, 1)])  # direction longer than the list
    with pytest.raises(ShapeError):
        packed_contraction(f, [u], [p_key(1, 1)], gradient=True)
    with pytest.raises(ValueError):
        packed_contraction(f, [u], ("p", 1))  # the block form is gone
    layout = PackedLayout(2, 1, 4)
    with pytest.raises(ShapeError):
        layout.encode(sym(2, 2, {((p_key(2, 1), 1),): 1}))  # a block past the layout
    with pytest.raises(ShapeError):
        layout.encode(f, 1)  # moved past the layout
    with pytest.raises(ShapeError):
        layout.encode(sym(1, 1, {((p_key(1, 1), 1),): 1}))  # another dim


def test_packed_layout_fields_have_one_spare_bit():
    # a field holds every exponent up to the degree, plus one bit that no exponent reaches
    for degree in (0, 1, 2, 3, 7, 8, 42):
        layout = PackedLayout(2, 3, degree)
        assert layout.width == degree.bit_length() + 1
        assert layout.mask == (1 << layout.width) - 1
        assert sorted(layout.shift.values()) == [layout.width * k for k in range(8)]
    layout = PackedLayout(2, 1, 5)
    # canonical variable order, the first variable lowest
    variables = (p_key(1, 1), p_key(1, 2), x_key(1), x_key(2))
    assert [layout.shift[v] for v in variables] == [0, 4, 8, 12]


def test_eval_examples():
    f = sym(1, 1, {((p_key(1, 1), 1), (x_key(1), 1)): 1})
    assert f.eval([[2]], [3]) == 6
    empty = FormalSeries.zero(1, 1)
    assert series_eval(empty, [[1]], [1], Fraction(1, 2)) == 0
    series = FormalSeries(
        1,
        1,
        {
            1: sym(1, 1, {((x_key(1), 1),): 1}),
            2: sym(1, 1, {((x_key(1), 2),): 1}),
            3: sym(1, 1, {((x_key(1), 3),): 1}),
        },
        graded=False,
    )
    assert series_eval(series, [[0]], [2], Fraction(1, 2)) == 3
    assert series_eval(series.truncate(2), [[0]], [2], Fraction(1, 2)) == 2


def test_gradient_matches_finite_differences():
    # |f(pt + h e) - f(pt) - df*h| must shrink like h^2: ratio ~ 4 per halving.
    rng = random.Random(21)
    checked = 0
    while checked < 5:
        f = random_poly(rng, 2, 1, terms=5, max_deg=3)
        p0 = [[Fraction(rng.randint(-3, 3), 2) for _ in range(2)]]
        x0 = [Fraction(rng.randint(-3, 3), 2) for _ in range(2)]
        dfdx = f.diff(x_key(1))
        h = Fraction(1, 8)
        errors = []
        for _ in range(4):
            shifted = f.eval(p0, [x0[0] + h, x0[1]])
            err = abs(shifted - f.eval(p0, x0) - dfdx.eval(p0, x0) * h)
            errors.append(err)
            h /= 2
        if any(e == 0 for e in errors):
            continue  # f linear in the probed direction; resample
        checked += 1
        for a, b in zip(errors, errors[1:]):
            ratio = a / b
            assert 3 <= ratio <= 5, float(ratio)


def test_check_grading():
    ok = FormalSeries(
        1, 2, {1: sym(1, 2, {((p_key(1, 1), 1), (p_key(2, 1), 1), (x_key(1), 1)): 1})}
    )
    assert check_grading(ok).ok
    bad = FormalSeries(1, 1, {1: var(p_key(1, 1), 1, 1)})
    report = check_grading(bad)
    assert not report.ok and report.violations[0][0] == 1
    ok2 = FormalSeries(1, 2, {2: sym(1, 2, {((p_key(1, 1), 2), (p_key(2, 1), 1)): 1})})
    assert check_grading(ok2).ok


def test_check_grading_matches_a_walk_over_every_variable():
    # flagged graded, but each order mixes monomials of other p-degrees, some of them with x
    rng = random.Random(11)
    p_vars = [p_key(b, c) for b in (1, 2) for c in (1, 2)]
    orders = {}
    for i in (1, 2, 3, 4):
        terms = {}
        for _ in range(12):
            mono = {}
            for v in rng.choices(p_vars, k=rng.randint(0, 6)) + rng.choices(
                [x_key(1), x_key(2)], k=rng.randint(0, 3)
            ):
                mono[v] = mono.get(v, 0) + 1
            terms[tuple(sorted(mono.items()))] = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        orders[i] = sym(2, 2, terms)
    series = FormalSeries(2, 2, orders)

    def p_degree(mono):
        return sum(e for v, e in mono if v[0] == "p")

    expected = [
        (i, str(sym(2, 2, {mono: 1})), p_degree(mono))
        for i, s in sorted(series.orders.items())
        for mono in s.numerators
        if p_degree(mono) != i + 1
    ]
    report = check_grading(series)
    assert series.graded and len(expected) > 10
    assert report.ok is False
    assert report.violations == expected
    graded = {
        i: sym(2, 2, {m: c for m, c in s.terms.items() if p_degree(m) == i + 1})
        for i, s in orders.items()
    }
    assert check_grading(FormalSeries(2, 2, graded)).ok


def test_substitute_binomial():
    f = sym(1, 2, {((p_key(1, 1), 2),): 1})
    image = var(p_key(1, 1), 1, 2) + var(p_key(2, 1), 1, 2)
    out = f.substitute({p_key(1, 1): image}, 1, 2)
    expected = sym(
        1,
        2,
        {
            ((p_key(1, 1), 2),): 1,
            ((p_key(1, 1), 1), (p_key(2, 1), 1)): 2,
            ((p_key(2, 1), 2),): 1,
        },
    )
    assert out == expected


def test_remap_and_reshape():
    f = sym(1, 1, {((p_key(1, 1), 1), (x_key(1), 1)): 3})
    g = f.remap_variables({p_key(1, 1): p_key(2, 1)}, 1, 2)
    assert g == sym(1, 2, {((p_key(2, 1), 1), (x_key(1), 1)): 3})
    wide = f.map_blocks({}, 3)
    assert wide.blocks == 3
    with pytest.raises(ShapeError):
        g.map_blocks({}, 1)
    with pytest.raises(ShapeError):
        f.map_blocks({2: []}, 1)
    with pytest.raises(ShapeError):
        f.map_blocks({1: [(2, 1)]}, 1)
    # p1 goes to zero, but the kept p2 still lies outside the result shape
    p1p2 = sym(2, 2, {((p_key(1, 1), 1), (p_key(2, 2), 1)): 1})
    with pytest.raises(ShapeError, match=r"\('p', 2, 2\)"):
        p1p2.map_blocks({1: []}, 1)
    with pytest.raises(ShapeError, match=r"\('p', 2, 2\)"):
        p1p2.map_blocks({1: [(1, 1), (1, -1)]}, 1)


def test_substitute_and_remap_refuse_a_shape_outside_the_result():
    f = sym(1, 2, {((p_key(1, 1), 1), (p_key(2, 1), 1)): 3})
    with pytest.raises(ShapeError):  # an image of another shape
        f.substitute({p_key(1, 1): var(p_key(1, 1), 1, 1)}, 1, 2)
    with pytest.raises(ShapeError):  # kept p[2][1] is outside shape (1, 1)
        f.substitute({p_key(1, 1): var(p_key(1, 1), 1, 1)}, 1, 1)
    with pytest.raises(ShapeError):  # the target p[3][1] is outside shape (1, 2)
        f.remap_variables({p_key(1, 1): p_key(3, 1)}, 1, 2)


def test_json_round_trip_and_stability():
    rng = random.Random(13)
    series = random_graded_series(rng, 2, 2, [1, 2, 3])
    text = series_dumps(series)
    again = series_loads(text)
    assert again == series
    assert series_dumps(again) == text


def test_poly_obj_round_trip():
    rng = random.Random(17)
    f = random_poly(rng, 2, 2, terms=6, max_deg=4)
    assert poly_from_obj(poly_to_obj(f), 2, 2) == f


# numerators and denominators of up to 36 digits
JSON_COEFFS = st.builds(Fraction, st.integers(-(10**35), 10**35), st.integers(1, 10**35))


def json_polys(dim, blocks):
    variables = [p_key(b, i) for b in range(1, blocks + 1) for i in range(1, dim + 1)]
    variables += [x_key(i) for i in range(1, dim + 1)]
    monomials = st.dictionaries(st.sampled_from(variables), st.integers(1, 3), max_size=4)
    monomials = monomials.map(lambda powers: tuple(sorted(powers.items())))
    terms = st.dictionaries(monomials, JSON_COEFFS, max_size=4)
    return terms.map(lambda t: PolySymbol(dim, blocks, t))


@st.composite
def json_series(draw):
    dim, arity = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    orders = draw(st.dictionaries(st.integers(1, 4), json_polys(dim, arity), max_size=3))
    return FormalSeries(dim, arity, orders, graded=draw(st.booleans()))


@st.composite
def json_poisson(draw):
    dim = draw(st.integers(1, 3))
    pairs = [(i, j) for i in range(1, dim + 1) for j in range(i + 1, dim + 1)]
    entries = st.dictionaries(st.sampled_from(pairs), json_polys(dim, 0)) if pairs else st.just({})
    return PoissonStructure(dim, draw(entries))


HUGE = Fraction(-(10**31 + 7), 3**70)


# no x, and one variable at two exponents
P_ONLY = {((p_key(1, 3), 2), (p_key(2, 1), 1)): 5, ((p_key(1, 3), 3),): -1}


@settings(max_examples=80, deadline=None)
@given(json_series())
@example(FormalSeries.zero(2, 2))
@example(FormalSeries(2, 1, {1: sym(2, 1, {((x_key(1), 2), (x_key(2), 1)): Fraction(-3, 4)})}))
@example(FormalSeries(3, 2, {2: sym(3, 2, P_ONLY)}, graded=False))
@example(FormalSeries(1, 1, {3: sym(1, 1, {((p_key(1, 1), 4), (x_key(1), 1)): HUGE})}))
def test_series_writer_matches_the_stdlib_encoder(series):
    assert series_dumps(series) == json.dumps(series_to_obj(series), indent=2)
    # the maps document nests series two levels deep, next to an empty list
    maps = {"dim": series.dim, "source": (series, series), "target": ()}
    reference = {**maps, "source": [series_to_obj(series)] * 2, "target": []}
    assert json_dumps(maps) == json.dumps(reference, indent=2)


@settings(max_examples=40, deadline=None)
@given(json_poisson())
@example(PoissonStructure(3, {}))
@example(PoissonStructure(2, {(1, 2): sym(2, 0, {(): HUGE, ((x_key(1), 2),): 1})}))
def test_poisson_writer_matches_the_stdlib_encoder(alpha):
    assert poisson_dumps(alpha) == json.dumps(poisson_to_obj(alpha), indent=2)


def test_random_graded_series_is_graded():
    rng = random.Random(19)
    for arity in (1, 2, 3):
        series = random_graded_series(rng, arity, 2, [1, 2])
        assert check_grading(series).ok


def test_random_graded_series_of_arity_zero_is_zero():
    # order i needs p-degree i+1, and an arity-0 series has no p-variables
    series = random_graded_series(random.Random(3), 0, 2, [1, 2, 3])
    assert series == FormalSeries.zero(2, 0)
    assert series.graded
