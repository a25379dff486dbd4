"""``compose`` against its two references in ``compose_reference``.

The glue-workspace expansion must agree exactly on graded and ungraded
inputs; the tree-free Picard iteration, which needs grading, on graded ones.
Both draw outer arity 1-2, inner arities 0-3 (arity 0 included), d <= 2 and
order <= 4.  A third test holds the valence-bound tree selection of ``compose``
to the trees it drops: each must have C_t = 0 on the very series ``compose``
expands.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from compose_reference import picard_compose, workspace_compose
from gfoperad import operad
from gfoperad.elementary import elementary_function
from gfoperad.operad import GenFunction, compose, identity, select_trees
from gfoperad.symbols import FormalSeries, PolySymbol, p_key, random_graded_series, x_key
from gfoperad.trees import enumerate_unrooted
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


def fixed_case(arities, dead=(), dim=2, order=4, seed=0):
    """(outer, inners, order) with inners of ``arities``; the slots in ``dead`` are zero."""
    rng = random.Random(seed)

    def gen(slot, arity):
        if slot in dead:
            return GenFunction(arity, dim, FormalSeries.zero(dim, arity))
        return GenFunction(arity, dim, random_ungraded_series(rng, arity, dim, [1, 2, 3], 2))

    inners = [gen(slot, k) for slot, k in enumerate(arities, start=1)]
    return gen(0, len(arities)), inners, order


@settings(max_examples=80, deadline=None)
@given(st.booleans().flatmap(compositions))
@example(fixed_case((0, 2)))  # an arity-0 slot: its outer block goes to zero
@example(fixed_case((3, 1), seed=1))  # an arity-3 slot: one outer block to a sum of three
@example(fixed_case((2, 1, 2), dead=(2,), dim=1, seed=2))  # a dead slot between two live ones
def test_compose_matches_the_workspace_reference(case):
    outer, inners, order = case
    assert compose(outer, inners, order) == workspace_compose(outer, inners, order)


# no shrink phase: each shrink step reruns the slow oracle, so a broken
# compose would take minutes to report the first failing case
@settings(max_examples=50, deadline=None, phases=set(Phase) - {Phase.shrink})
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


@st.composite
def mixed_compositions(draw):
    """(outer, inners, order): graded and ungraded series of mixed p- and
    x-degrees, and among the inners an identity slot and an arity-0 inner."""
    dim = draw(st.integers(1, 2))
    order = draw(st.integers(1, 5))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    terms = draw(st.integers(1, 3))

    def gen(arity, first=()):
        orders = draw(st.lists(st.integers(1, 4), unique=True, max_size=3))
        orders = sorted(set(orders) | set(first))
        if arity and draw(st.booleans()):
            series = random_graded_series(rng, arity, dim, orders, 2, terms)
        else:
            series = random_ungraded_series(rng, arity, dim, orders, terms)
        return GenFunction(arity, dim, series)

    inners = [gen(k) for k in draw(st.lists(st.integers(1, 2), max_size=2))]
    inners = draw(st.permutations(inners + [identity(dim), gen(0)]))
    # an outer order 1 keeps the tree b1, so compose expands at least one tree
    return gen(len(inners), first=(1,)), inners, order


@settings(max_examples=60, deadline=None)
@given(mixed_compositions())
def test_every_tree_compose_drops_is_zero(case):
    outer, inners, order = case
    selected, expanded = [], []

    def selecting(max_weight, bounds):
        selected.extend(select_trees(max_weight, bounds))
        return selected

    def expanding(top, expansion):
        expanded.append(expansion)
        return elementary_function(top, expansion)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(operad, "select_trees", selecting)
        monkeypatch.setattr(operad, "elementary_function", expanding)
        compose(outer, inners, order)
    assume(expanded)  # the outer's order 1 can cancel to zero
    kept = {top.encoding for top in selected}
    dropped = [top for top in enumerate_unrooted(order) if top.encoding not in kept]
    for top in dropped:
        assert not elementary_function(top, expanded[0]).terms, top.encoding
