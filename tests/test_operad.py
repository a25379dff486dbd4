import hashlib
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfoperad import deformation, operad
from gfoperad.cli import main
from gfoperad.groupoid import invert_morphism, structure_maps
from gfoperad.operad import (
    GenFunction,
    NonConvergenceError,
    check_order,
    compose,
    identity,
    numeric_phi,
    select_trees,
)
from gfoperad.solver import heisenberg_structure, solve_deformation
from gfoperad.symbols import (
    FormalSeries,
    PolySymbol,
    ShapeError,
    check_grading,
    p_key,
    random_graded_series,
    series_from_obj,
    x_key,
)
from gfoperad.trees import BLACK, WHITE, enumerate_unrooted
from sample_series import trivial_product
from test_golden import GOLDEN, so3, solve_argv
from test_trees import admissible


def wrap(series):
    return GenFunction(series.blocks, series.dim, series)


def graded_gen(rng, arity, dim, orders, max_x_degree=2):
    return wrap(random_graded_series(rng, arity, dim, orders, max_x_degree))


VALENCE_BOUNDS = st.dictionaries(
    st.tuples(st.sampled_from([BLACK, WHITE]), st.integers(1, 8)), st.integers(0, 4)
)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), VALENCE_BOUNDS)
def test_tree_table_selects_what_enumeration_gives(order, bounds):
    selected = select_trees(order, bounds)
    expected = [t for t in enumerate_unrooted(order) if admissible(t.canonical, bounds)]
    assert [t.encoding for t in selected] == [t.encoding for t in expected]
    assert [t.sigma for t in selected] == [t.sigma for t in expected]


def test_compose_from_a_table_and_a_minimum_weight():
    # a minimum weight keeps exactly the orders at or above it
    rng = random.Random(97)
    outer = graded_gen(rng, 2, 2, [1, 2])
    inners = [graded_gen(rng, 1, 2, [1, 3]), graded_gen(rng, 2, 2, [2])]
    full = compose(outer, inners, 5).deformation
    for low in (1, 3, 5):
        part = compose(outer, inners, 5, _min_weight=low).deformation
        kept = {o: s for o, s in full.orders.items() if o >= low}
        assert part == FormalSeries(2, 3, kept, graded=True)


def test_identity_and_trivial():
    assert identity(2).deformation.is_zero()
    s3 = trivial_product(3, 1)
    assert s3.value([[1], [2], [3]], [5], 0) == 30
    s0 = trivial_product(0, 2)
    assert s0.arity == 0
    assert s0.value([], [4, 5], 0) == 0


def test_compose_of_trivials_is_trivial():
    h = compose(trivial_product(2, 1), [trivial_product(2, 1), identity(1)], 4)
    assert h == trivial_product(3, 1)


def test_unit_law_exact():
    rng = random.Random(31)
    for arity in (1, 2, 3):
        f = graded_gen(rng, arity, 2, [1, 2, 3])
        composed = compose(f, [identity(2)] * arity, 4)
        assert composed == f


def test_outer_identity_recovers_inner():
    rng = random.Random(37)
    g = graded_gen(rng, 2, 1, [1, 2])
    assert compose(identity(1), [g], 4) == g


def test_second_order_cross_term_coefficient_is_one():
    # Only first orders present: the eps^2 term must be exactly
    # grad_x G1 . grad_p F1 (edge tree, symmetry coefficient 1).
    rng = random.Random(41)
    f = graded_gen(rng, 1, 2, [1])
    g = graded_gen(rng, 1, 2, [1])
    h = compose(f, [g], 3)
    f1 = f.deformation.order(1)
    g1 = g.deformation.order(1)
    assert h.deformation.order(1) == f1 + g1
    cross = PolySymbol.zero(2, 1)
    for i in range(1, 3):
        cross = cross + g1.diff(x_key(i)) * f1.diff(p_key(1, i))
    assert h.deformation.order(2) == cross
    assert h.deformation.order(3).is_zero()


def test_compose_grading_closure():
    rng = random.Random(43)
    f = graded_gen(rng, 2, 2, [1, 2])
    g1 = graded_gen(rng, 1, 2, [1, 2])
    g2 = graded_gen(rng, 2, 2, [1])
    h = compose(f, [g1, g2], 4)
    assert h.arity == 3
    assert check_grading(h.deformation).ok


def test_compose_shape_errors():
    rng = random.Random(47)
    f = graded_gen(rng, 2, 1, [1])
    with pytest.raises(ValueError):
        compose(f, [identity(1)], 3)  # arity mismatch
    with pytest.raises(ShapeError):
        compose(f, [identity(1), identity(2)], 3)  # dim mismatch
    with pytest.raises(ValueError):
        compose(f, [identity(1), identity(1)], 9)  # cap exceeded


def test_operad_associativity_exact():
    rng = random.Random(53)
    order = 4
    f = graded_gen(rng, 2, 1, [1, 2])
    g1 = graded_gen(rng, 1, 1, [1, 2])
    g2 = graded_gen(rng, 2, 1, [1])
    h1 = graded_gen(rng, 1, 1, [1, 2])
    h2 = graded_gen(rng, 1, 1, [1])
    h3 = graded_gen(rng, 1, 1, [2])
    lhs = compose(compose(f, [g1, g2], order), [h1, h2, h3], order)
    rhs = compose(
        f,
        [compose(g1, [h1], order), compose(g2, [h2, h3], order)],
        order,
    )
    assert lhs == rhs


def test_numeric_phi_trivial_is_exact():
    f = trivial_product(2, 2)
    gs = [trivial_product(2, 2), identity(2)]
    p_points = [[[0.5, -1.0], [2.0, 0.25]], [[1.5, 3.0]]]
    x = [2.0, -0.5]
    expected = sum(
        sum(block[i] for blocks in p_points for block in blocks) * x[i]
        for i in range(2)
    )
    assert numeric_phi(f, gs, p_points, x, eps=0.01) == pytest.approx(expected, abs=1e-14)


def test_numeric_phi_rejects_large_eps():
    with pytest.raises(ValueError):
        numeric_phi(identity(1), [identity(1)], [[[1.0]]], [1.0], eps=0.5)
    # NaN compares false against any limit, so the check must not be "eps > limit"
    with pytest.raises(ValueError):
        numeric_phi(identity(1), [identity(1)], [[[1.0]]], [1.0], eps=float("nan"))


def test_oracle_agreement_simple_pair():
    # d=1: F~ = eps p^2, G~ = eps x^2; compare the converged implicit value
    # with the order-6 truncated expansion.  At p0 = x0 = 1 the tail starts
    # with 128 eps^7 (order-n coefficients grow like 4^(n/2) here).
    f = wrap(
        FormalSeries(1, 1, {1: PolySymbol(1, 1, {((p_key(1, 1), 2),): Fraction(1)})})
    )
    g = wrap(
        FormalSeries(1, 1, {1: PolySymbol(1, 1, {((x_key(1), 2),): Fraction(1)})})
    )
    composed = compose(f, [g], 6)
    eps = 0.01
    num = numeric_phi(f, [g], [[[1.0]]], [1.0], eps, tol=1e-15)
    series = composed.value([[1.0]], [1.0], eps)
    assert abs(num - series) <= 256 * eps**7
    assert abs(num - series) >= 64 * eps**7  # the tail really is there


def test_oracle_halving_ratio():
    rng = random.Random(59)
    order = 5
    for _ in range(3):
        f = graded_gen(rng, 1, 1, [1, 2], max_x_degree=3)
        g = graded_gen(rng, 1, 1, [1, 2], max_x_degree=3)
        composed = compose(f, [g], order)
        p0, x0 = 0.7, 0.9
        discrepancies = []
        for eps in (1e-2, 5e-3):
            num = numeric_phi(f, [g], [[[p0]]], [x0], eps, tol=1e-15)
            ser = composed.value([[p0]], [x0], eps)
            discrepancies.append(abs(num - ser))
        ratio = discrepancies[0] / discrepancies[1]
        assert 0.8 * 2 ** (order + 1) <= ratio <= 1.2 * 2 ** (order + 1), ratio


def test_oracle_halving_ratio_multi_arity():
    # same Richardson check through the multi-block workspace: outer arity 2,
    # inner arities (1, 2), truncation 4 -> tail of order eps^5
    rng = random.Random(71)
    order = 4
    f = graded_gen(rng, 2, 1, [1, 2])
    g1 = graded_gen(rng, 1, 1, [1])
    g2 = graded_gen(rng, 2, 1, [1, 2])
    composed = compose(f, [g1, g2], order)
    p_points = [[[0.4]], [[0.3], [-0.6]]]
    flat = [[0.4], [0.3], [-0.6]]
    diffs = []
    for eps in (1e-2, 5e-3):
        numeric = numeric_phi(f, [g1, g2], p_points, [0.8], eps, tol=1e-15)
        series_value = composed.value(flat, [0.8], eps)
        diffs.append(abs(numeric - series_value))
    ratio = diffs[0] / diffs[1]
    assert 0.8 * 2 ** (order + 1) <= ratio <= 1.2 * 2 ** (order + 1), ratio


def test_numeric_phi_nonconvergence_signalled():
    f = wrap(
        FormalSeries(1, 1, {1: PolySymbol(1, 1, {((p_key(1, 1), 2),): Fraction(50)})})
    )
    g = wrap(
        FormalSeries(1, 1, {1: PolySymbol(1, 1, {((x_key(1), 2),): Fraction(50)})})
    )
    with pytest.raises(NonConvergenceError):
        numeric_phi(f, [g], [[[4.0]]], [4.0], eps=0.1)


ORDER_CALLERS = {
    "compose": lambda order: compose(identity(1), [identity(1)], order),
    "solve_deformation": lambda order: solve_deformation(heisenberg_structure(), order),
    "structure_maps": lambda order: structure_maps(FormalSeries.zero(2, 2), order),
    "invert_morphism": lambda order: invert_morphism(FormalSeries.zero(1, 1), order),
}


@pytest.mark.parametrize("caller", ORDER_CALLERS)
@pytest.mark.parametrize("order", [0, -3, 9])
def test_every_caller_refuses_an_order_outside_the_range_as_check_order_does(caller, order):
    with pytest.raises(ValueError) as expected:
        check_order(order)
    with pytest.raises(ValueError) as refused:
        ORDER_CALLERS[caller](order)
    assert str(refused.value) == str(expected.value)


def test_compose_with_arity_zero_outer_truncates_it():
    x1, x2 = (PolySymbol.variable(x_key(i), 2, 0) for i in (1, 2))
    outer = wrap(FormalSeries(2, 0, {1: x1 * x1, 2: x1 * x2, 3: x2}))
    h = compose(outer, [], 2)
    assert h == wrap(FormalSeries(2, 0, {1: x1 * x1, 2: x1 * x2}))


def test_compose_with_arity_zero_inner():
    # plugging the arity-0 trivial function into one slot drops that argument
    h = compose(trivial_product(2, 1), [trivial_product(0, 1), identity(1)], 3)
    assert h.arity == 1
    assert h.deformation.is_zero()


#: sha256 of ``compose --outer q8 --inner q8,q8 --order 8``, q8 the quadratic's order-8 solve
QUADRATIC_SELF_COMPOSE = "bfcdf940b55a5643c9b422bbae9bb7da5093d0a7ad3b1c92a732091ddfd05542"

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def evaluated(monkeypatch):
    """Every tree ``compose`` expands, with whether its C_t is zero, in call order."""
    trees = []
    real = operad.elementary_function

    def recording(top, *args):
        value = real(top, *args)
        trees.append((top, not value.terms))
        return value

    monkeypatch.setattr(operad, "elementary_function", recording)
    return trees


def colour_and_weight_selection(outer, inners, order, min_weight=1):
    """The trees of weight >= ``min_weight`` under the valence bounds per colour and
    weight alone: a black vertex's degree in the p-blocks of the live slots, a white
    vertex's largest x-degree, every component counted."""
    live = {b for b, g in enumerate(inners, start=1) if g.deformation.truncate(order).orders}
    bounds = {
        (BLACK, w): max((sum(e for v, e in m if v[0] == "p" and v[1] in live) for m in s.numerators), default=0)
        for w, s in outer.deformation.truncate(order).orders.items()
    }
    for g in inners:
        for w, s in g.deformation.truncate(order).orders.items():
            bounds[WHITE, w] = max(bounds.get((WHITE, w), 0), s.max_x_degree())
    return [t for t in select_trees(order, bounds) if t.total_weight >= min_weight]


def packed_functions(monkeypatch) -> list:
    """Every C_t that ``compose`` expands from now on, as ``elementary_function`` returns it."""
    values = []
    real = operad.elementary_function

    def recording(top, *args):
        values.append(real(top, *args))
        return values[-1]

    monkeypatch.setattr(operad, "elementary_function", recording)
    return values


def mixed_composition(seed: int, order: int = 4):
    rng = random.Random(seed)
    outer = wrap(random_graded_series(rng, 2, 2, range(1, order + 1), 2, 3))
    inners = [wrap(random_graded_series(rng, k, 2, range(1, order + 1), 2, 3)) for k in (2, 1)]
    return outer, inners


def test_each_packed_c_t_counts_the_terms_of_its_decode(monkeypatch):
    # the benchmark tracer counts len(result.terms) of every C_t before any decode
    values = packed_functions(monkeypatch)
    compose(*mixed_composition(11), 4)
    assert any(value.terms for value in values)
    for value in values:
        packed = dict(value.numerators)
        assert len(value.terms) == len(value.decode().terms)
        assert value.numerators == packed  # the decode leaves the packed terms intact


def test_a_result_off_the_grading_raises_with_the_report_of_check_grading(monkeypatch):
    # add the constant 1 to every C_t: each order of the result gains a term of p-degree 0
    real = operad.elementary_function

    def with_a_constant(top, *args):
        value = real(top, *args)
        value.numerators[0] = value.numerators.get(0, 0) + value.denominator
        return value

    monkeypatch.setattr(operad, "elementary_function", with_a_constant)
    with pytest.raises(AssertionError) as raised:
        compose(*mixed_composition(11), 3)
    assert str(raised.value) == (
        "composition broke the grading: [(1, '1', 0), (2, '1', 0), (3, '1', 0)]"
    )


def test_quadratic_trees_that_vanish_by_component_are_not_expanded(tmp_path, evaluated):
    # the quadratic's inner orders have x1 only, so no tree may contract p2 against x2
    argv, out = solve_argv(tmp_path, "quadratic")
    assert main(argv) == 0
    evaluated.clear()
    assert main(argv) == 0  # warm: the solver's records are built
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN["quadratic"][2]
    assert len(evaluated) == 31 and not any(zero for _, zero in evaluated)

    argv, q8 = solve_argv(tmp_path, "quadratic-order-8")
    assert main(argv) == 0
    evaluated.clear()
    out = tmp_path / "self.json"
    assert main(["compose", "--outer", str(q8), "--inner", f"{q8},{q8}", "--order", "8", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == QUADRATIC_SELF_COMPOSE
    assert len(evaluated) == 95 and not any(zero for _, zero in evaluated)


def test_inputs_that_use_every_component_select_as_by_colour_and_weight(monkeypatch, evaluated):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import COMPOSE_ORDER, COMPOSE_SUPPORT_SEEDS, compose_triple

    def encodings(trees):
        return [t.encoding for t in trees]

    for seed in COMPOSE_SUPPORT_SEEDS:
        outer, *inners = (wrap(series_from_obj(obj)) for obj in compose_triple(seed))
        evaluated.clear()
        compose(outer, inners, COMPOSE_ORDER)
        expected = colour_and_weight_selection(outer, inners, COMPOSE_ORDER)
        assert encodings(t for t, _ in evaluated) == encodings(expected)

    def checked_compose(outer, inners, order, _min_weight=1):
        start = len(evaluated)
        result = compose(outer, inners, order, _min_weight=_min_weight)
        expected = colour_and_weight_selection(outer, inners, order, _min_weight)
        assert encodings(t for t, _ in evaluated[start:]) == encodings(expected)
        return result

    monkeypatch.setattr(deformation, "compose", checked_compose)
    evaluated.clear()
    solve_deformation(so3(), 4)
    assert evaluated
