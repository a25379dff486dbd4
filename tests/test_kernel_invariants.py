"""Property tests of the PolySymbol term invariant and of substitution.

Every kernel result must hold only canonical monomials (strictly increasing
variables, exponents >= 1) with nonzero Fraction coefficients, in a numerator
dict of its own.  ``substitute``, ``remap_variables`` and ``map_blocks`` are
checked against a naive term-by-term fold that uses only the public
constructors, ``*`` and ``+``, ``linear_combination`` against the fold of
``scale`` and ``+``, and the contractions against a naive sum over every index
tuple.  The row helpers that every sum goes through, in the kernel and in the
solver, are checked against ``Fraction`` dict arithmetic.
"""

import itertools
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gfoperad.symbols import (
    PolySymbol,
    ShapeError,
    add_scaled,
    content_out,
    p_key,
    x_key,
)
from test_symbols import packed_contraction

DIM, BLOCKS = 2, 2
VARIABLES = [p_key(b, i) for b in (1, 2) for i in (1, 2)] + [x_key(1), x_key(2)]
# small numerators over few denominators, so sums and products cancel often
COEFFS = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))
MONOMIALS = st.dictionaries(st.sampled_from(VARIABLES), st.integers(1, 2), max_size=3).map(
    lambda powers: tuple(sorted(powers.items()))
)
POLYS = st.dictionaries(MONOMIALS, COEFFS, max_size=5).map(
    lambda terms: PolySymbol(DIM, BLOCKS, terms)
)
SETTINGS = settings(max_examples=60, deadline=None)


def assert_clean(result, *operands, blocks=BLOCKS):
    assert (result.dim, result.blocks) == (DIM, blocks)
    for mono, coeff in result.terms.items():
        assert type(coeff) is Fraction and coeff != 0
        names = [var for var, _ in mono]
        assert names == sorted(set(names))
        assert all(type(exp) is int and exp >= 1 for _, exp in mono)
    for operand in operands:
        assert result._num is not operand._num


def naive_substitute(sym, mapping, dim=DIM, blocks=BLOCKS):
    """Fold term by term from the shape of ``sym`` into shape (dim, blocks)."""
    result = PolySymbol.zero(dim, blocks)
    for mono, coeff in sym.terms.items():
        term = PolySymbol.constant(coeff, dim, blocks)
        for var, exp in mono:
            image = mapping[var] if var in mapping else PolySymbol.variable(var, dim, blocks)
            for _ in range(exp):
                term = term * image
        result = result + term
    return result


@SETTINGS
@given(POLYS, POLYS, st.integers(-2, 2))
def test_ring_operations_keep_the_invariant(a, b, k):
    for result in (a + b, a - b, a * b, -a):
        assert_clean(result, a, b)
    assert_clean(a.scale(k), a)
    assert (a - a).is_zero()
    assert a + b == b + a and a * b == b * a


@st.composite
def combinations(draw):
    """(factor, symbol) pairs; half of the draws append the negated pairs, which cancel."""
    pairs = draw(st.lists(st.tuples(COEFFS, POLYS), max_size=4))
    if draw(st.booleans()):
        pairs += [(-factor, sym) for factor, sym in draw(st.permutations(pairs))]
    return pairs


@SETTINGS
@given(combinations())
def test_linear_combination_matches_the_fold_of_scale_and_add(pairs):
    result = PolySymbol.linear_combination(DIM, BLOCKS, iter(pairs))
    assert_clean(result, *(sym for _, sym in pairs))
    fold = PolySymbol.zero(DIM, BLOCKS)
    for factor, sym in pairs:
        fold = fold + sym.scale(factor)
    assert result == fold


@SETTINGS
@given(st.lists(st.tuples(COEFFS, POLYS), max_size=2), POLYS, st.sampled_from(["dim", "blocks"]))
def test_linear_combination_rejects_a_pair_of_the_wrong_shape(pairs, a, wrong):
    other = PolySymbol.zero(DIM + 1, BLOCKS) if wrong == "dim" else a.map_blocks({}, BLOCKS + 1)
    with pytest.raises(ShapeError):
        PolySymbol.linear_combination(DIM, BLOCKS, pairs + [(1, other)])


# sparse int rows keyed by monomials over small denominators
ROWS = st.dictionaries(MONOMIALS, st.integers(-3, 3).filter(bool), max_size=5)
DENOMINATORS = st.integers(1, 12)


@st.composite
def row_sums(draw):
    """(acc, den, items, num, other) for ``add_scaled``.

    Half of the draws add over den * m numerators that cancel some entries of
    ``acc`` exactly, so the sum rescales ``acc`` (m > 1) and deletes entries.
    """
    acc, den = draw(ROWS), draw(DENOMINATORS)
    if acc and draw(st.booleans()):
        m = draw(st.integers(1, 3))
        items = draw(ROWS)
        items.update({k: -acc[k] * m for k in draw(st.sets(st.sampled_from(sorted(acc))))})
        return acc, den, items, 1, den * m
    num = draw(st.integers(-3, 3).filter(bool))
    return acc, den, draw(ROWS), num, draw(DENOMINATORS)


@settings(max_examples=300, deadline=None)
@given(row_sums())
def test_add_scaled_matches_fraction_arithmetic(case):
    acc, den, items, num, other = case
    expected = {k: Fraction(v, den) for k, v in acc.items()}
    for k, v in items.items():
        expected[k] = expected.get(k, 0) + Fraction(num * v, other)
    expected = {k: v for k, v in expected.items() if v}
    before = dict(acc)
    new_den = add_scaled(acc, den, items.items(), num, other)
    assert new_den == lcm(den, other)
    assert all(type(v) is int and v != 0 for v in acc.values())
    assert {k: Fraction(v, new_den) for k, v in acc.items()} == expected
    if den % other == 0:
        # no rescale: every entry the items do not reach keeps its numerator
        assert {k: v for k, v in acc.items() if k not in items} == {
            k: v for k, v in before.items() if k not in items
        }


@SETTINGS
@given(ROWS, DENOMINATORS, st.integers(1, 6))
def test_content_out_divides_out_the_common_factor(row, den, k):
    row = {key: v * k for key, v in row.items()}
    values = {key: Fraction(v, den * k) for key, v in row.items()}
    reduced = content_out(row, den * k)
    assert gcd(reduced, *row.values()) == 1
    assert {key: Fraction(v, reduced) for key, v in row.items()} == values
    if not row:
        assert reduced == 1


@SETTINGS
@given(POLYS)
def test_ordered_terms_sort_by_total_degree_then_monomial(a):
    # the order the JSON writer emits terms in
    reference = sorted(a.terms.items(), key=lambda kv: (sum(e for _, e in kv[0]), kv[0]))
    assert a.ordered_terms() == reference


@SETTINGS
@given(POLYS, st.sampled_from(VARIABLES))
def test_diff_and_map_blocks_keep_the_invariant(a, var):
    assert_clean(a.diff(var), a)
    assert_clean(a.map_blocks({}, BLOCKS), a)


@SETTINGS
@given(POLYS, st.dictionaries(st.sampled_from(VARIABLES), POLYS, max_size=3))
@example(
    # (1 + x1 + x1^2)^2 reaches x1^2 and x1^3 twice each
    PolySymbol(DIM, BLOCKS, {((p_key(1, 1), 1), (x_key(1), 2)): 1}),
    {x_key(1): PolySymbol(DIM, BLOCKS, {(): 1, ((x_key(1), 1),): 1, ((x_key(1), 2),): 1})},
)
def test_substitute_matches_naive_fold(a, mapping):
    result = a.substitute(mapping, DIM, BLOCKS)
    assert_clean(result, a, *mapping.values())
    assert result == naive_substitute(a, mapping)


@st.composite
def base_points(draw):
    """(symbol, images, inner blocks B): the base point of an arity-2 outer.

    The symbol lives in the composition workspace of shape (2*DIM, B+1): inner
    blocks 1..B, the flattened outer p in block B+1 and two glue copies of x.
    Slot s of inner arity a sends its outer p to the sum of its a blocks (zero
    for a = 0, a rename for a = 1), and slot 2's glue x lands on x 1..DIM,
    which slot 1 keeps.
    """
    arities = draw(st.tuples(st.integers(0, 3), st.integers(0, 3)))
    inner = sum(arities)
    variables = [p_key(b, i) for b in range(1, inner + 1) for i in range(1, DIM + 1)]
    variables += [p_key(inner + 1, i) for i in range(1, 2 * DIM + 1)]
    variables += [x_key(i) for i in range(1, 2 * DIM + 1)]
    monomials = st.dictionaries(st.sampled_from(variables), st.integers(1, 3), max_size=4)
    monomials = monomials.map(lambda powers: tuple(sorted(powers.items())))
    terms = draw(st.dictionaries(monomials, COEFFS, max_size=5))
    images = {}
    offset = 0
    for slot, arity in enumerate(arities, start=1):
        for i in range(1, DIM + 1):
            glue = (slot - 1) * DIM + i
            block_sum = PolySymbol(
                DIM, inner, {((p_key(offset + l, i), 1),): 1 for l in range(1, arity + 1)}
            )
            # a zero image may come as the constant 0
            images[p_key(inner + 1, glue)] = block_sum if arity or draw(st.booleans()) else 0
            if glue != i:
                images[x_key(glue)] = PolySymbol.variable(x_key(i), DIM, inner)
        offset += arity
    return PolySymbol(2 * DIM, inner + 1, terms), images, inner


@SETTINGS
@given(base_points())
def test_base_point_substitute_matches_naive_fold(case):
    a, images, inner = case
    result = a.substitute(images, DIM, inner)
    assert_clean(result, a, blocks=inner)
    assert result == naive_substitute(a, images, DIM, inner)


# exponents up to 5 reach the binomials of the higher solver orders
HIGH_POWERS = st.dictionaries(st.sampled_from(VARIABLES), st.integers(1, 5), max_size=3).map(
    lambda powers: tuple(sorted(powers.items()))
)
HIGH_POLYS = st.dictionaries(HIGH_POWERS, COEFFS, max_size=4).map(
    lambda terms: PolySymbol(DIM, BLOCKS, terms)
)


@st.composite
def block_maps(draw):
    """(rows, blocks): a result of 2 or 3 p-blocks, as the coboundary faces use,
    and block -> row of (target block, coefficient).  A row may repeat a target
    or carry a zero coefficient, so images cancel; every coefficient is an int;
    a row may land on a kept block; an empty row kills its block."""
    blocks = draw(st.sampled_from([2, 3]))
    row = st.lists(st.tuples(st.integers(1, blocks), st.integers(-3, 3)), max_size=3)
    return draw(st.dictionaries(st.sampled_from([1, 2]), row, max_size=2)), blocks


@SETTINGS
@given(HIGH_POLYS, block_maps())
@example(
    PolySymbol(DIM, BLOCKS, {((p_key(1, 1), 2), (p_key(2, 1), 3), (x_key(1), 1)): 1}),
    ({2: [(1, -2), (3, 3)]}, 3),
)
@example(
    PolySymbol(DIM, BLOCKS, {((p_key(1, 1), 1), (p_key(2, 1), 2)): 1}),
    ({1: [(2, 1)], 2: [(1, 1), (2, 1)]}, 2),
)
def test_map_blocks_matches_naive_fold(a, rows_blocks):
    rows, blocks = rows_blocks
    result = a.map_blocks(rows, blocks)
    assert_clean(result, a, blocks=blocks)
    images = {}
    for b, row in rows.items():
        for i in range(1, DIM + 1):
            image = PolySymbol.zero(DIM, blocks)
            for t, c in row:
                image = image + PolySymbol.variable(p_key(t, i), DIM, blocks).scale(c)
            images[p_key(b, i)] = image
    assert result == naive_substitute(a, images, DIM, blocks)


@SETTINGS
@given(POLYS, st.dictionaries(st.sampled_from(VARIABLES), st.sampled_from(VARIABLES)))
def test_remap_variables_keeps_the_invariant(a, renaming):
    # renamings may merge variables, so terms collide and can cancel
    result = a.remap_variables(renaming, DIM, BLOCKS)
    assert_clean(result, a)
    images = {v: PolySymbol.variable(w, DIM, BLOCKS) for v, w in renaming.items()}
    assert result == naive_substitute(a, images)


@SETTINGS
@given(POLYS, st.lists(st.tuples(POLYS, POLYS), min_size=1, max_size=2))
def test_contractions_keep_the_invariant(f, directions):
    result = packed_contraction(f, directions, "x")
    assert_clean(result, f)
    for comp in packed_contraction(f, directions, [p_key(1, 1), p_key(1, 2)], gradient=True):
        assert_clean(comp, f)


def naive_contract(f, directions, variables):
    """sum over (k1..km) of d^m f / dv_k1..dv_km * prod_s directions[s][k_s]."""
    result = PolySymbol.zero(DIM, BLOCKS)
    for ks in itertools.product(range(len(variables)), repeat=len(directions)):
        term = f
        for k in ks:
            term = term.diff(variables[k])
        for direction, k in zip(directions, ks):
            term = term * direction[k]
        result = result + term
    return result


@SETTINGS
@given(
    POLYS,
    st.lists(st.tuples(POLYS, POLYS), max_size=3),
    st.sampled_from(
        [
            "x",
            [p_key(1, 1), p_key(1, 2)],
            [p_key(2, 1), p_key(2, 2)],
            [p_key(2, 2), x_key(1)],
        ]
    ),
)
def test_contractions_match_naive_oracle(f, directions, against):
    variables = [x_key(1), x_key(2)] if against == "x" else against
    # every direction depends on the contracted variables: they are multiplied
    # in, never differentiated
    lead = PolySymbol.variable(variables[0], DIM, BLOCKS)
    directions = [(a + lead, b) for a, b in directions]
    assert packed_contraction(f, directions, against) == naive_contract(
        f, directions, variables
    )
    gradient = packed_contraction(f, directions, against, gradient=True)
    assert len(gradient) == len(variables)
    for var, comp in zip(variables, gradient):
        assert comp == naive_contract(f.diff(var), directions, variables)


@SETTINGS
@given(st.dictionaries(MONOMIALS, COEFFS, max_size=5))
def test_public_constructor_copies_its_input(terms):
    sym = PolySymbol(DIM, BLOCKS, terms)
    assert_clean(sym)
    before = dict(sym.terms)
    terms[((x_key(1), 1),)] = Fraction(7)
    assert sym.terms == before
