"""The integer-numerator kernel against the tuple/Fraction reference, exactly.

Every public operation's ``terms`` view must equal what
``tests/kernel_reference.py`` computes from the operands' views, and every
result must be in canonical form: symbols built by different routes are ``==``
and hash-equal.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kernel_reference as ref
from gfoperad.symbols import (
    PackedLayout,
    PolySymbol,
    ShapeError,
    contracted_gradient,
    directional_contract,
    monomial_p_degree,
    p_key,
    packed_base_point,
    packed_layout,
    x_key,
)
from test_symbols import packed_contraction

DIM, BLOCKS = 2, 2
VARIABLES = [p_key(b, i) for b in (1, 2) for i in (1, 2)] + [x_key(1), x_key(2)]
# denominators with shared and coprime factors, so the lcm differs from both operands'
COEFFS = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 4, 6, 9]))
MONOMIALS = st.dictionaries(st.sampled_from(VARIABLES), st.integers(1, 3), max_size=3).map(
    lambda powers: tuple(sorted(powers.items()))
)
POLYS = st.dictionaries(MONOMIALS, COEFFS, max_size=5).map(
    lambda terms: PolySymbol(DIM, BLOCKS, terms)
)
SETTINGS = settings(max_examples=80, deadline=None)

X = PolySymbol.variable(x_key(1), DIM, BLOCKS)


def assert_canonical(sym):
    """Integer numerators over a positive denominator that shares no factor with all of them."""
    num, den = sym._num, sym._den
    assert type(den) is int and den >= 1
    assert all(type(c) is int and c != 0 for c in num.values())
    assert gcd(den, *num.values()) == 1
    # the constructor reaches the same form from the Fraction view
    rebuilt = PolySymbol(sym.dim, sym.blocks, dict(sym.terms))
    assert rebuilt == sym and hash(rebuilt) == hash(sym)
    assert (rebuilt._num, rebuilt._den) == (num, den)


def assert_matches(result, expected):
    assert_canonical(result)
    assert dict(result.terms) == expected


def test_equal_values_built_by_different_routes_are_equal_and_hash_equal():
    half = X.scale(Fraction(1, 2))
    assert half + half == X and hash(half + half) == hash(X)
    assert X.scale(Fraction(1, 6)).scale(3) == half
    assert hash(X.scale(Fraction(1, 6)).scale(3)) == hash(half)
    third = X.scale(Fraction(1, 3))
    cancelled = PolySymbol.linear_combination(DIM, BLOCKS, [(1, half), (-3, third), (3, half)])
    assert cancelled == X
    zero = half - half
    assert zero == PolySymbol.zero(DIM, BLOCKS) and hash(zero) == hash(PolySymbol.zero(DIM, BLOCKS))
    assert zero.is_zero() and dict(zero.terms) == {} and zero._den == 1


def test_terms_is_a_read_only_view():
    view = X.scale(Fraction(1, 2)).terms
    assert view == {((x_key(1), 1),): Fraction(1, 2)}
    with pytest.raises(TypeError):
        view[()] = Fraction(1)


@SETTINGS
@given(POLYS, POLYS, COEFFS)
@example(X.scale(Fraction(1, 2)), X.scale(Fraction(-1, 2)), Fraction(0))
def test_ring_operations_match_the_reference(a, b, k):
    ta, tb = dict(a.terms), dict(b.terms)
    assert_matches(a + b, ref.add(ta, tb))
    assert_matches(a - b, ref.add(ta, ref.neg(tb)))
    assert_matches(-a, ref.neg(ta))
    assert_matches(a.scale(k), ref.scale(ta, k))
    assert_matches(a * b, ref.mul(ta, tb))
    assert_matches(a - a, {})


@st.composite
def combinations(draw):
    """(factor, symbol) pairs over mixed denominators; half of the draws cancel to zero."""
    pairs = draw(st.lists(st.tuples(COEFFS, POLYS), max_size=4))
    if draw(st.booleans()):
        pairs += [(-factor, sym) for factor, sym in draw(st.permutations(pairs))]
    return pairs


@SETTINGS
@given(combinations())
def test_linear_combination_matches_the_reference(pairs):
    result = PolySymbol.linear_combination(DIM, BLOCKS, iter(pairs))
    assert_matches(result, ref.linear_combination((f, dict(s.terms)) for f, s in pairs))


@SETTINGS
@given(POLYS, st.sampled_from(VARIABLES))
def test_diff_matches_the_reference(a, var):
    assert_matches(a.diff(var), ref.diff(dict(a.terms), var))


@st.composite
def block_maps(draw):
    """(rows, blocks): rows of int coefficients; a row may repeat a target, cancel, land on
    a kept block or be empty."""
    blocks = draw(st.sampled_from([2, 3]))
    row = st.lists(st.tuples(st.integers(1, blocks), st.integers(-3, 3)), max_size=3)
    return draw(st.dictionaries(st.sampled_from([1, 2]), row, max_size=2)), blocks


@SETTINGS
@given(POLYS, block_maps())
@example(
    # p1 of degree 3 and p2 of degree 1 gain different powers of the row coefficients
    PolySymbol(
        DIM, BLOCKS, {((p_key(1, 1), 3),): 1, ((p_key(2, 1), 1), (x_key(1), 1)): Fraction(1, 2)}
    ),
    ({1: [(1, 2), (2, -3)], 2: [(2, 3)]}, 2),
)
def test_map_blocks_matches_the_reference(a, rows_blocks):
    rows, blocks = rows_blocks
    result = a.map_blocks(rows, blocks)
    assert (result.dim, result.blocks) == (DIM, blocks)
    assert_matches(result, ref.map_blocks(dict(a.terms), rows))


def polys_in(blocks):
    """Symbols of shape (DIM, blocks) over mixed denominators."""
    variables = [p_key(b, i) for b in range(1, blocks + 1) for i in (1, 2)] + [x_key(1), x_key(2)]
    monomials = st.dictionaries(st.sampled_from(variables), st.integers(1, 3), max_size=4)
    return st.dictionaries(monomials.map(lambda powers: tuple(sorted(powers.items()))), COEFFS, max_size=5).map(
        lambda terms: PolySymbol(DIM, blocks, terms)
    )


@st.composite
def block_relabelings(draw):
    """(symbol, rows, blocks) with at most one target per row: permutations and swaps,
    moves into a wider or a narrower shape, empty rows, int coefficients, maps that send
    two surviving blocks to one, and identity rows b -> b (some blocks absent) into a
    wider or an equal shape."""
    source = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["permutation", "swap", "move", "identity"]))
    sign = st.sampled_from([1, -1])
    if kind == "identity":
        blocks = draw(st.integers(source, 4))
        rows = {b: [(b, 1)] for b in draw(st.sets(st.integers(1, source)))}
    elif kind == "permutation":
        blocks = source
        images = draw(st.permutations(range(1, source + 1)))
        rows = {b: [(t, draw(sign))] for b, t in zip(range(1, source + 1), images)}
    elif kind == "swap":
        blocks = source = max(source, 2)
        i, j = sorted(draw(st.lists(st.integers(1, source), min_size=2, max_size=2, unique=True)))
        rows = {i: [(j, 1)], j: [(i, 1)]}
    else:
        blocks = draw(st.integers(1, 4))
        nonzero = st.integers(-3, 3).filter(bool)
        rows = {}
        for b in range(1, source + 1):
            # a block past the result shape cannot be kept
            choices = ["empty", "target"] + ["kept"] * (b <= blocks)
            choice = draw(st.sampled_from(choices))
            if choice == "empty":
                rows[b] = draw(st.sampled_from([[], [(1, 1), (1, -1)]]))
            elif choice == "target":
                t = draw(st.integers(1, blocks))
                c = draw(nonzero)
                # the same target twice sums to one coefficient
                rows[b] = draw(st.sampled_from([[(t, c)], [(t, 2 * c), (t, -c)]]))
    return draw(polys_in(source)), rows, blocks


def sample(blocks):
    """Terms in the first and the last p-block, some shared, with x-parts and a constant."""

    def mono(*pairs):
        powers = {}
        for var, exp in pairs:
            powers[var] = powers.get(var, 0) + exp
        return tuple(sorted(powers.items()))

    f1, f2 = p_key(1, 1), p_key(1, 2)
    l1, l2 = p_key(blocks, 1), p_key(blocks, 2)
    return PolySymbol(
        DIM,
        blocks,
        {
            mono((f1, 2), (x_key(1), 1)): Fraction(1, 2),
            mono((f2, 1), (l1, 1)): -3,
            mono((f1, 1), (l2, 2), (x_key(2), 2)): Fraction(-2, 3),
            mono((l1, 2), (x_key(1), 1)): 1,
            (): 5,
        },
    )


SAMPLE = {blocks: sample(blocks) for blocks in (1, 2, 3)}

#: a symbol without p-blocks, as the solver's Poisson bivector before its lift
NO_BLOCKS = PolySymbol(DIM, 0, {((x_key(1), 2),): Fraction(1, 2), ((x_key(2), 1),): -3, (): 5})


@SETTINGS
@given(block_relabelings())
# compose, in S(S, I): the first inner, the identity and the outer move into shape (d, 5);
# the first inner renames no block, so only its shape widens
@example((SAMPLE[2], {1: [(1, 1)], 2: [(2, 1)]}, 5))
@example((SAMPLE[1], {1: [(3, 1)]}, 5))
@example((SAMPLE[2], {1: [(4, 1)], 2: [(5, 1)]}, 5))
# the solver lifts the bivector into one block; identity rows into an equal shape
@example((NO_BLOCKS, {}, 2))
@example((SAMPLE[2], {1: [(1, 1)]}, 2))
@example((SAMPLE[3], {}, 3))
# obstruction: the opposite product's swap and the mirror p1 <-> p3
@example((SAMPLE[2], {1: [(2, 1)], 2: [(1, 1)]}, 2))
@example((SAMPLE[3], {1: [(3, 1)], 3: [(1, 1)]}, 3))
# check_sgs: S(p, 0, x), S(0, p, x) and S(p, -p, x)
@example((SAMPLE[2], {2: []}, 2))
@example((SAMPLE[2], {1: []}, 2))
@example((SAMPLE[2], {2: [(1, -1)]}, 2))
# structure_maps: S(p, 0, x) and S(0, p, x) into one block
@example((SAMPLE[2], {2: []}, 1))
@example((SAMPLE[2], {1: [], 2: [(1, 1)]}, 1))
def test_relabelings_match_the_reference(case):
    a, rows, blocks = case
    result = a.map_blocks(rows, blocks)
    assert (result.dim, result.blocks) == (DIM, blocks)
    assert_matches(result, ref.map_blocks(dict(a.terms), rows))


@pytest.mark.parametrize("coeff", [True, 1.0, False, -2.0, Fraction(1), Fraction(1, 2)])
@pytest.mark.parametrize("identity", [True, False])
def test_bool_and_float_row_coefficients_raise(coeff, identity):
    rows = {1: [(1, coeff)], 2: [(2, 1)]} if identity else {1: [(2, coeff)]}
    with pytest.raises(ValueError, match="row coefficient"):
        SAMPLE[2].map_blocks(rows, 3)


@pytest.mark.parametrize(
    "rows",
    [{}, {1: [(1, 1)]}, {1: [(1, 1)], 2: [(2, 1)]}, {1: [(2, 1)]}, {1: [(1, 1), (2, 1)]}],
)
def test_identity_rows_into_a_narrower_shape_check_the_kept_blocks(rows):
    # block 3 of SAMPLE[3] is kept and lies past shape (DIM, 2); the last two rows take
    # the multinomial path, the first of them as a relabelling that merges blocks 1 and 2
    with pytest.raises(ShapeError, match="outside shape"):
        SAMPLE[3].map_blocks(rows, 2)


#: total degrees at a field-width boundary of the packed multinomial path: a
#: field is bit_length(D) + 1 bits wide, so 3 and 4, 7 and 8 straddle a step
BOUNDARY_DEGREES = [3, 4, 7, 8]


@st.composite
def base_points(draw):
    """(symbol, rows, blocks) in the shape of compose's base point: a symbol in (d, K+n)
    blocks, d 2 or 3, and rows {K+b: 2-3 targets among 1..K} with int coefficients onto
    blocks that are also kept.  One term is a single variable whose exponent D sits at a
    width boundary, so one field holds a whole degree, and a zero row may stand next to a
    multi-target row."""
    dim = draw(st.sampled_from([2, 3]))
    kept = draw(st.integers(2, 4))
    slots = draw(st.integers(1, 2))
    blocks = kept + slots
    coeff = st.integers(-3, 3).filter(bool)
    rows = {}
    for b in range(kept + 1, blocks + 1):
        targets = draw(st.lists(st.integers(1, kept), min_size=2, max_size=3, unique=True))
        rows[b] = [(t, draw(coeff)) for t in targets]
    if draw(st.booleans()):
        # a kept block, or the other slot's block, goes to zero; one multi-target row stays
        rows[draw(st.sampled_from(list(range(1, kept + 1)) + sorted(rows)[1:]))] = []
    variables = [p_key(b, i) for b in range(1, blocks + 1) for i in range(1, dim + 1)]
    variables += [x_key(i) for i in range(1, dim + 1)]
    degree = draw(st.sampled_from(BOUNDARY_DEGREES))
    powers = st.dictionaries(st.sampled_from(variables), st.integers(1, 3), max_size=3)
    monomials = powers.map(lambda powers: tuple(sorted(powers.items())))
    terms = draw(st.dictionaries(monomials, COEFFS, max_size=4))
    terms = {m: c for m, c in terms.items() if sum(e for _, e in m) <= degree}
    terms[((draw(st.sampled_from(variables)), degree),)] = draw(COEFFS.filter(bool))
    return PolySymbol(dim, blocks, terms), rows, kept


def base_point_sample(kept, slots):
    """A symbol of shape (DIM, kept + slots) with terms in the first and the last slot
    block, kept blocks and x; its largest degree, 8, is one power of one variable."""
    first, last = kept + 1, kept + slots
    return PolySymbol(
        DIM,
        kept + slots,
        {
            ((p_key(1, 1), 1), (p_key(first, 1), 2), (x_key(2), 1)): Fraction(1, 2),
            ((p_key(kept, 2), 2), (p_key(last, 2), 3)): -3,
            ((p_key(first, 2), 1), (p_key(last, 1), 1), (x_key(1), 2)): Fraction(-2, 3),
            ((p_key(last, 1), 8),): 1,
            ((x_key(1), 7),): 5,
        },
    )


@SETTINGS
@given(base_points())
# the base points of the arities-2-1 and arities-1-3 compose goldens
@example((base_point_sample(3, 2), {4: [(1, 1), (2, 1)], 5: [(3, 1)]}, 3))
@example((base_point_sample(4, 2), {5: [(1, 1)], 6: [(2, 1), (3, 1), (4, 1)]}, 4))
def test_base_points_match_the_reference(case):
    a, rows, blocks = case
    result = a.map_blocks(rows, blocks)
    assert (result.dim, result.blocks) == (a.dim, blocks)
    assert_matches(result, ref.map_blocks(dict(a.terms), rows))


def at_the_field_bound(draw, variables, degree) -> PolySymbol:
    """Terms of total degree <= ``degree`` in ``variables``: a few drawn ones, and
    two of degree ``degree``, one a power of one variable and one spread over
    several, so that one field, or one running sum of fields, holds a whole degree."""
    dim = variables[-1][1]
    blocks = max((v[1] for v in variables if v[0] == "p"), default=0)

    def monomial(picks):
        powers = {}
        for var in picks:
            powers[var] = powers.get(var, 0) + 1
        return tuple(sorted(powers.items()))

    picks = st.lists(st.sampled_from(variables), max_size=degree)
    terms = {monomial(p): c for p, c in draw(st.lists(st.tuples(picks, COEFFS), max_size=4))}
    terms[monomial([draw(st.sampled_from(variables))] * degree)] = draw(COEFFS.filter(bool))
    spread = st.lists(st.sampled_from(variables), min_size=degree, max_size=degree)
    terms[monomial(draw(spread))] = draw(COEFFS.filter(bool))
    return PolySymbol(dim, blocks, terms)


@st.composite
def packed_base_points(draw):
    """(symbol, slots, degree) in the shape of compose's packed base point: slot
    arities among 0..3, so a slot may drop its outer block, shift it to one block
    or expand it over two or three, and a symbol of shape (d, K + n) whose total
    degree reaches the layout's degree, at a field-width boundary."""
    dim = draw(st.sampled_from([2, 3]))
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    slots, offset = [], 0
    for arity in arities:
        slots.append(range(offset + 1, offset + arity + 1))
        offset += arity
    blocks = offset + len(slots)
    variables = [p_key(b, i) for b in range(1, blocks + 1) for i in range(1, dim + 1)]
    variables += [x_key(i) for i in range(1, dim + 1)]
    degree = draw(st.sampled_from(BOUNDARY_DEGREES))
    return at_the_field_bound(draw, variables, degree), slots, degree


@SETTINGS
@given(packed_base_points())
def test_the_packed_base_point_matches_the_reference(case):
    a, slots, degree = case
    kept = a.blocks - len(slots)
    layout = packed_layout(a.dim, a.blocks, degree)
    num, den = layout.encode(a)
    out, image = packed_base_point(layout, num, slots)
    assert not num  # read and emptied
    assert (out.dim, out.blocks, out.width) == (a.dim, kept, layout.width)
    rows = {kept + b: [(t, 1) for t in slot] for b, slot in enumerate(slots, start=1)}
    assert_matches(out.decode(image, den), ref.map_blocks(dict(a.terms), rows))


@st.composite
def p_degree_cases(draw):
    """A symbol of shape (d, blocks) whose total degree reaches its layout's degree."""
    dim = draw(st.sampled_from([1, 2, 3]))
    blocks = draw(st.integers(0, 3))
    variables = [p_key(b, i) for b in range(1, blocks + 1) for i in range(1, dim + 1)]
    variables += [x_key(i) for i in range(1, dim + 1)]
    degree = draw(st.sampled_from(BOUNDARY_DEGREES))
    return at_the_field_bound(draw, variables, degree), degree


@SETTINGS
@given(p_degree_cases())
def test_packed_p_degrees_match_monomial_p_degree_at_the_field_bound(case):
    a, degree = case
    layout = PackedLayout(a.dim, a.blocks, degree)
    for mono in a.numerators:
        num, _ = layout.encode(PolySymbol(a.dim, a.blocks, {mono: 1}))
        assert layout.p_degrees(num) == {monomial_p_degree(mono)}
    assert layout.p_degrees(layout.encode(a)[0]) == {monomial_p_degree(m) for m in a.numerators}


#: (rows, blocks, error, text) of the multi-target path on one symbol: the zero row
#: of block 1 kills p[1][1] p[3][1]^2, whose kept p[3][1] lies past two blocks
MULTI_TARGET_ERRORS = [
    (
        {1: [], 2: [(1, 1), (2, 1)]},
        2,
        ShapeError,
        "variable ('p', 3, 1) outside shape dim=2, blocks=2",
    ),
    ({2: [(1, 1), (3, 1)]}, 2, ShapeError, "target p-block 3 out of range 1..2"),
    (
        {2: [(1, 1), (2, 0.5)]},
        3,
        ValueError,
        "row coefficient must be an int, got 0.5",
    ),
]


@pytest.mark.parametrize("rows, blocks, error, text", MULTI_TARGET_ERRORS)
def test_multi_target_rows_raise_the_same_errors(rows, blocks, error, text):
    a = PolySymbol(DIM, 3, {((p_key(1, 1), 1), (p_key(3, 1), 2)): 1, ((p_key(2, 1), 2),): 3})
    with pytest.raises(error) as raised:
        a.map_blocks(rows, blocks)
    assert str(raised.value) == text


AGAINST = st.sampled_from(["x", [p_key(1, 1), p_key(1, 2)], [p_key(2, 2), x_key(1)]])


@SETTINGS
@given(POLYS, st.lists(st.tuples(POLYS, POLYS), max_size=3), AGAINST)
def test_contractions_match_the_reference(f, directions, against):
    variables = [x_key(1), x_key(2)] if against == "x" else against
    tf = dict(f.terms)
    tdirs = [[dict(c.terms) for c in d] for d in directions]
    assert_matches(packed_contraction(f, directions, against), ref.contract(tf, variables, tdirs))
    gradient = packed_contraction(f, directions, against, gradient=True)
    for var, comp in zip(variables, gradient):
        assert_matches(comp, ref.contract(ref.diff(tf, var), variables, tdirs))


#: exponents past a few bits, so that fields of several bits are packed side by side
WIDE_POLYS = st.dictionaries(
    st.dictionaries(st.sampled_from(VARIABLES), st.integers(1, 40), max_size=3).map(
        lambda powers: tuple(sorted(powers.items()))
    ),
    COEFFS,
    max_size=4,
).map(lambda terms: PolySymbol(DIM, BLOCKS, terms))


def largest_exponents(sym) -> dict:
    """Each variable's largest exponent in ``sym``."""
    out = {}
    for mono in sym.numerators:
        for var, exp in mono:
            out[var] = max(out.get(var, 0), exp)
    return out


@SETTINGS
@given(WIDE_POLYS)
@example(PolySymbol(DIM, BLOCKS, {((p_key(1, 1), 32), (x_key(2), 1)): 1, ((p_key(1, 2), 31),): 2}))
def test_packing_round_trips_at_the_field_bound(a):
    # the largest exponent is the layout's degree, so it fills its field up to the spare bit
    layout = PackedLayout(DIM, BLOCKS, max(largest_exponents(a).values(), default=0))
    assert layout.decode(*layout.encode(a)) == a


@SETTINGS
@given(WIDE_POLYS, st.lists(st.tuples(WIDE_POLYS, WIDE_POLYS), max_size=2), AGAINST)
def test_packed_contractions_match_the_reference_at_the_field_bound(f, directions, against):
    # the layout's degree is the tightest bound a contraction can reach, variable by
    # variable: f's largest exponent plus each direction's
    bound = largest_exponents(f)
    for d in directions:
        for var in VARIABLES:
            bound[var] = bound.get(var, 0) + max(largest_exponents(c).get(var, 0) for c in d)
    layout = PackedLayout(DIM, BLOCKS, max(bound.values(), default=0))
    variables = [x_key(1), x_key(2)] if against == "x" else against
    fields = layout.fields(against)
    packed_f = layout.encode(f)
    packed_directions = [[layout.encode(c) for c in d] for d in directions]
    tf = dict(f.terms)
    tdirs = [[dict(c.terms) for c in d] for d in directions]
    result = directional_contract(layout, packed_f, packed_directions, fields)
    assert_matches(layout.decode(*result), ref.contract(tf, variables, tdirs))
    gradient = contracted_gradient(layout, packed_f, packed_directions, fields)
    for var, comp in zip(variables, gradient):
        assert_matches(layout.decode(*comp), ref.contract(ref.diff(tf, var), variables, tdirs))
