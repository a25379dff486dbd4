"""``compose`` against its two references in ``compose_reference``.

The glue-workspace expansion must agree exactly on graded and ungraded
inputs; the tree-free Picard iteration, which needs grading, on graded ones.
Both draw outer arity 1-2, inner arities 0-3 (arity 0 included), d <= 2 and
order <= 4.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compose_reference import picard_compose, workspace_compose
from gfoperad.operad import GenFunction, compose
from gfoperad.symbols import FormalSeries, PolySymbol, p_key, random_graded_series, x_key
from test_golden import COMPOSE_GOLDEN


def random_ungraded_series(rng, arity, dim, orders, terms_per_order):
    """Terms of any p-degree 0-2 and x-degree 0-2; x-only for arity 0."""
    p_vars = [p_key(b, i) for b in range(1, arity + 1) for i in range(1, dim + 1)]
    out = {}
    for order in orders:
        terms = {}
        for _ in range(terms_per_order):
            counts = {}
            for _ in range(rng.randint(0, 2) if p_vars else 0):
                v = rng.choice(p_vars)
                counts[v] = counts.get(v, 0) + 1
            for _ in range(rng.randint(0, 2)):
                v = x_key(rng.randint(1, dim))
                counts[v] = counts.get(v, 0) + 1
            mono = tuple(sorted(counts.items()))
            terms[mono] = terms.get(mono, 0) + Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 2))
        out[order] = PolySymbol(dim, arity, terms)
    return FormalSeries(dim, arity, out, graded=True)


@st.composite
def compositions(draw, graded):
    """(outer, inners, order) of random GenFunctions on one drawn shape."""
    dim = draw(st.integers(1, 2))
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=2))
    order = draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    terms = draw(st.integers(1, 3))

    def series(arity):
        orders = draw(st.lists(st.integers(1, 3), unique=True, min_size=1, max_size=3))
        if graded:
            return random_graded_series(rng, arity, dim, orders, 2, terms)
        return random_ungraded_series(rng, arity, dim, orders, terms)

    def gen(arity):
        return GenFunction(arity, dim, series(arity))

    return gen(len(arities)), [gen(k) for k in arities], order


@settings(max_examples=80, deadline=None)
@given(st.booleans().flatmap(compositions))
def test_compose_matches_the_workspace_reference(case):
    outer, inners, order = case
    assert compose(outer, inners, order) == workspace_compose(outer, inners, order)


@settings(max_examples=50, deadline=None)
@given(compositions(graded=True))
def test_compose_matches_the_tree_free_oracle(case):
    outer, inners, order = case
    assert compose(outer, inners, order) == picard_compose(outer, inners, order)


@pytest.mark.parametrize("name", ["arities-2-1", "arities-1-3", "arity-0-slot"])
def test_golden_compose_inputs_match_the_tree_free_oracle(name):
    # full-size inputs (three terms in each of orders 1-3) at order 4
    outer, inners, _, _ = COMPOSE_GOLDEN[name]
    outer = GenFunction(2, 2, outer())
    inners = [GenFunction(g.blocks, 2, g) for g in inners()]
    assert compose(outer, inners, 4) == picard_compose(outer, inners, 4)
