import hashlib
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfoperad.cli import main
from gfoperad.deformation import coboundary_symbol, obstruction, p_pair, verify_product
from gfoperad.groupoid import check_sgs, extract_poisson, is_odd_in_p
from gfoperad.poisson import (
    PoissonStructure,
    jacobiator,
    poisson_dumps,
    poisson_loads,
    validate_poisson,
)
from gfoperad import solver
from gfoperad.solver import (
    InfeasibleOrderError,
    _solve_order,
    bch_generating_function,
    bch_words,
    first_order_deformation,
    heisenberg_structure,
    lie_poisson_structure,
    solve_deformation,
)
from gfoperad.symbols import PolySymbol, check_grading, p_key, split_monomial, x_key
from equivalence_oracle import equivalence_morphism
from linsolve_reference import _linsolve
from linsolve_reference import solve_order as reference_solve_order
from sample_series import constant_poisson_first_order, heisenberg_first_order
from test_golden import GOLDEN, solve_argv


def constant_structure():
    return PoissonStructure(2, {(1, 2): PolySymbol.constant(1, 2, 0)})


def ax_b_structure():
    # [e1, e2] = e2: alpha^{12} = x_2; the solvable non-nilpotent 2d algebra
    return lie_poisson_structure(2, {(1, 2, 2): 1})


def invalid_structure():
    return PoissonStructure(
        3,
        {
            (1, 2): PolySymbol.variable(x_key(1), 3, 0),
            (1, 3): PolySymbol.variable(x_key(2), 3, 0),
            (2, 3): PolySymbol.constant(1, 3, 0),
        },
    )


def test_validate_constant_and_heisenberg():
    assert validate_poisson(constant_structure()).ok
    assert validate_poisson(heisenberg_structure()).ok


def test_validate_reports_failing_triple():
    report = validate_poisson(invalid_structure())
    assert not report.ok
    assert report.failing_triple == (1, 2, 3)


def test_poisson_json_round_trip():
    alpha = heisenberg_structure()
    assert poisson_loads(poisson_dumps(alpha)) == alpha


def test_first_order_deformation_matches_fixtures():
    assert first_order_deformation(constant_structure()) == constant_poisson_first_order()
    assert first_order_deformation(heisenberg_structure()) == heisenberg_first_order()


def test_solve_zero_structure():
    zero = PoissonStructure(2, {})
    assert solve_deformation(zero, 3).is_zero()


def test_solve_constant_structure_stops_at_first_order():
    series = solve_deformation(constant_structure(), 5)
    assert series.order_indices() == [1]
    assert series.order(1) == constant_poisson_first_order().order(1)


def test_solve_rejects_non_poisson():
    with pytest.raises(ValueError):
        solve_deformation(invalid_structure(), 3)


def test_solve_heisenberg():
    alpha = heisenberg_structure()
    series = solve_deformation(alpha, 3)
    assert verify_product(series, 3).all_zero
    assert check_sgs(series, 3).passed
    assert extract_poisson(series) == alpha


def test_solve_ax_b_algebra():
    alpha = ax_b_structure()
    series = solve_deformation(alpha, 3)
    assert verify_product(series, 3).all_zero
    assert check_sgs(series, 3).passed
    assert extract_poisson(series) == alpha
    assert check_grading(series).ok
    assert not series.order(2).is_zero()


def test_solve_ax_b_to_order_five():
    # all orders stay nonzero for the solvable algebra; the solver's own
    # postcondition checks dS_n + H_n = 0 at every order and the structure
    # conditions
    series = solve_deformation(ax_b_structure(), 5)
    assert series.order_indices() == [1, 2, 3, 4, 5]


def test_solve_quadratic_structure():
    # any bivector on the plane is Poisson; exercise the non-linear path
    alpha = PoissonStructure(2, {(1, 2): PolySymbol(2, 0, {((x_key(1), 2),): Fraction(1)})})
    series = solve_deformation(alpha, 3)
    assert verify_product(series, 3).all_zero
    assert check_sgs(series, 3).passed
    assert extract_poisson(series) == alpha


def test_linsolve_consistent_and_inconsistent():
    values = _linsolve(
        [
            ({0: Fraction(2), 1: Fraction(1)}, {"a": Fraction(5)}),
            ({1: Fraction(1)}, {"a": Fraction(1)}),
        ]
    )
    assert values == {0: {"a": Fraction(2)}, 1: {"a": Fraction(1)}}
    with pytest.raises(ValueError):
        _linsolve(
            [
                ({0: Fraction(1)}, {"a": Fraction(1)}),
                ({0: Fraction(2)}, {"a": Fraction(3)}),
            ]
        )


def test_linsolve_inconsistent_for_one_key_only():
    # 2 * (x0 = 1) agrees with the second row for "a" but not for "b"
    with pytest.raises(ValueError) as info:
        _linsolve(
            [
                ({0: Fraction(1)}, {"a": Fraction(1), "b": Fraction(1)}),
                ({0: Fraction(2)}, {"a": Fraction(2), "b": Fraction(3)}),
            ]
        )
    assert info.value.args[1] == "b"


def test_linsolve_two_keys_equal_two_one_key_solves():
    # column 3 stays free; the third row back-substitutes into both earlier pivots
    rows = [
        ({0: Fraction(2), 1: Fraction(1), 3: Fraction(1)}, {"a": Fraction(5), "b": Fraction(1)}),
        ({1: Fraction(1), 2: Fraction(3)}, {"a": Fraction(1)}),
        ({0: Fraction(1), 2: Fraction(-1), 3: Fraction(2)}, {"a": Fraction(1), "b": Fraction(2)}),
    ]
    both = _linsolve(rows)
    for key in ("a", "b"):
        alone = _linsolve([(row, {key: rhs[key]} if key in rhs else {}) for row, rhs in rows])
        assert {c: v[key] for c, v in both.items() if key in v} == {
            c: v[key] for c, v in alone.items() if key in v
        }


def test_infeasible_order_names_the_order():
    # p1.p2.p3 is no coboundary of an arity-2 symbol, with or without x1
    p_part = tuple((p_key(b, 1), 1) for b in (1, 2, 3))
    h = PolySymbol(1, 3, {p_part: Fraction(1), p_part + ((x_key(1), 1),): Fraction(1)})
    with pytest.raises(InfeasibleOrderError) as info:
        _solve_order(h, 2, 1)
    assert info.value.order == 2
    assert "x-monomial ()" in str(info.value)


def so3_structure():
    return lie_poisson_structure(3, {(1, 2, 3): 1, (2, 3, 1): 1, (1, 3, 2): -1})


def quadratic_structure():
    return PoissonStructure(2, {(1, 2): PolySymbol(2, 0, {((x_key(1), 2),): Fraction(1)})})


@pytest.mark.parametrize(
    "build",
    [so3_structure, heisenberg_structure, ax_b_structure, quadratic_structure],
    ids=["so3", "heisenberg", "ax-b", "quadratic"],
)
def test_solver_output_passes_both_insertions_to_order_six(build):
    # the postcondition checks dS_n against the H_n of one insertion and its
    # mirror; here S(S, I) - S(I, S) is recomputed from both, every tree of
    # weight <= 6
    series = solve_deformation(build(), 6)
    assert verify_product(series, 6).all_zero
    assert check_sgs(series, 6).passed


def perturb_order(monkeypatch, order):
    """Make the d = 2 solution operator of ``order`` add p1_1^order p2_1, which d does not kill, to its S_order.

    The perturbation enters before the residual check of ``_solve_order``,
    as a wrong operator's output would.
    """
    apply = solver._apply

    def perturbed(operator, rhs, den):
        solution = apply(operator, rhs, den)
        basis, _, target = solver._order_system(order, 2)
        if operator is target:
            idx = basis.index(((p_key(1, 1), order), (p_key(2, 1), 1)))
            values, col_den = solution.get(idx, ({}, 1))
            solution[idx] = ({**values, (): values.get((), 0) + col_den}, col_den)
        return solution

    monkeypatch.setattr(solver, "_apply", perturbed)


@pytest.mark.parametrize("order", [2, 4])
def test_postcondition_refuses_a_wrong_order(monkeypatch, order):
    # order 4 is the last: no later obstruction reads it, only the residual check does
    perturb_order(monkeypatch, order)
    with pytest.raises(AssertionError, match="solver output fails the product equation"):
        solve_deformation(quadratic_structure(), 4)


def test_solve_command_exits_one_on_a_wrong_order(tmp_path, monkeypatch, capsys):
    argv, out = solve_argv(tmp_path, "quadratic")
    perturb_order(monkeypatch, GOLDEN["quadratic"][1])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "verification failure: solver output fails the product equation\n"
    assert not out.exists()


def test_one_elimination_per_order(monkeypatch):
    # the rows depend on (n, d) alone: each is eliminated once per process, and
    # so(3) to order 4 has a nonzero H_n at orders 2, 3 and 4
    eliminated = []
    order_columns = solver._order_columns

    def counting(n, d):
        eliminated.append((n, d))
        return order_columns(n, d)

    monkeypatch.setattr(solver, "_order_columns", counting)
    solver._order_system.cache_clear()
    solve_deformation(so3_structure(), 4)
    assert eliminated == [(2, 3), (3, 3), (4, 3)]
    solve_deformation(so3_structure(), 4)
    assert len(eliminated) == 3
    solve_deformation(quadratic_structure(), 6)
    assert eliminated[3:] == [(n, 2) for n in range(2, 7)]
    assert solver._order_system.cache_info().misses == len(eliminated) == 8
    # every H_n of the Heisenberg structure is zero: S_n = 0 needs no system
    series = solve_deformation(heisenberg_structure(), 6)
    assert series.order_indices() == [1]
    assert len(eliminated) == 8


X_KEYS = ("a", "b", "c")


@st.composite
def sparse_systems(draw):
    """Random sparse integer rows, and right-hand sides on keys with or without a row.

    Half the right-hand sides are images of random solutions, so consistent
    systems are common; the rest are mostly inconsistent.
    """
    n_cols = draw(st.integers(0, 5))
    equations = draw(
        st.dictionaries(
            st.integers(0, 9),
            st.dictionaries(st.integers(0, max(n_cols - 1, 0)), st.integers(-3, 3), max_size=n_cols),
            max_size=8,
        )
    )
    if draw(st.booleans()):
        xs = {k: draw(st.lists(st.integers(-2, 2), min_size=n_cols, max_size=n_cols)) for k in X_KEYS}
        rhs = {}
        for key, row in equations.items():
            rhs[key] = {k: Fraction(sum(v * xs[k][c] for c, v in row.items())) for k in X_KEYS}
        # a key with no row keeps its place among the sorted keys
        rhs.update(draw(st.dictionaries(st.integers(0, 12), st.just({}), max_size=2)))
    else:
        values = st.dictionaries(st.sampled_from(X_KEYS), st.integers(-3, 3).map(Fraction), max_size=3)
        rhs = draw(st.dictionaries(st.integers(0, 12), values, max_size=6))
    return equations, rhs


def apply_values(operator, rhs, den):
    """``solver._apply``'s columns, int numerators over a denominator each, as exact values."""
    solution = solver._apply(operator, rhs, den)
    assert all(col_den > 0 for _, col_den in solution.values())
    return {col: {k: Fraction(v, col_den) for k, v in values.items()} for col, (values, col_den) in solution.items()}


def nonzero_residuals(equations, rhs, solution):
    """{key: {x-key: its row applied to ``solution``, minus its right-hand side}}, nonzero entries only."""
    out = {}
    for key in equations.keys() | rhs.keys():
        acc = {}
        for col, coeff in equations.get(key, {}).items():
            for k, value in solution.get(col, {}).items():
                acc[k] = acc.get(k, 0) + coeff * value
        for k, value in rhs.get(key, {}).items():
            acc[k] = acc.get(k, 0) - value
        acc = {k: v for k, v in acc.items() if v}
        if acc:
            out[key] = acc
    return out


@settings(max_examples=300, deadline=None)
@given(sparse_systems(), st.integers(1, 6))
def test_eliminate_and_apply_match_the_reference_elimination(system, den):
    # the operator takes the right-hand sides as int numerators over one
    # denominator, as H_n arrives; the reference takes their exact values.
    # The pivot solution satisfies every row that made a pivot; a nonzero
    # residual elsewhere is an equation the reference finds inconsistent.
    # Within a column the x-keys may come in another order than the
    # reference's: no output reads that order, since the JSON writer sorts
    equations, rhs = system
    numerators = {key: {k: int(v) for k, v in values.items()} for key, values in rhs.items()}
    values = {key: {k: v / den for k, v in row.items()} for key, row in rhs.items()}
    rows = [(equations.get(key, {}), values.get(key, {})) for key in sorted(equations.keys() | rhs.keys())]
    before = {key: dict(row) for key, row in numerators.items()}
    operator = solver._eliminate(equations)
    built = repr(operator)
    solution = apply_values(operator, numerators, den)
    residuals = nonzero_residuals(equations, values, solution)
    assert not residuals.keys() & operator[1].keys()
    try:
        expected = _linsolve(rows)
    except ValueError as exc:
        # the first nonzero residual in sorted key order names the reference's x-key
        assert residuals and min(residuals[min(residuals)]) == exc.args[1]
    else:
        assert list(solution.items()) == list(expected.items())
        assert not residuals
    # neither the operator nor the right-hand sides change under a solve
    assert numerators == before
    assert repr(operator) == built
    assert apply_values(operator, numerators, den) == solution


#: sha256 of repr(_order_system(n, d)): the basis, the inverse images and the
#: solution operator (the pivot columns, and each row that made a pivot with
#: its solution tuple), taken from the operator of an elimination that also
#: kept a functional per zero row, with those rows left out
OPERATOR_DIGESTS = {
    (1, 2): "c0ee501c43b828e797032e52b16d3616854413f25c689263a91edb58e41ade0e",
    (2, 2): "072555527a91238a38e9c8752c1d88b783ab203ce2787129db92226686e68899",
    (3, 2): "d22953d555bc5f478e101b66f7bd23adddff523a26d08ab29d5bc22af58fd2a6",
    (4, 2): "473ff96b030c035822644adc6661e8893706b0cf7bce9f2d2fe3239b334e58ca",
    (5, 2): "24c62ff63b5152368e82866b0d14de5340ea24a5818fa7b27a44235f29f32ab5",
    (6, 2): "3df296185ce3625da723754c58e96001d7c3489e5180d8c6cd69be1cc14e7e6b",
    (7, 2): "8489dd9899268d04cff7cd2e02181cd36b24d15511dc192f26006d706287a1da",
    (1, 3): "b199e8ae5954a9cadd7957e25602f5b299c64608616f78a2830ae58b93269caa",
    (2, 3): "ddcbd061f0a2904034fdd7efa9c0d59b66ee545c1f6c406859a48bd69d131bd0",
    (3, 3): "b37fb7f3167e6a142dc9ceccddd970e295c25b13f6b59ccca08c0671909abc25",
    (4, 3): "bd025a7045fb67a315c4fc7bbd4346f89374e4e3afc9cd0124a60c6ae1e2c1de",
    (5, 3): "f420244791bb211419273eba9789886957269605da6533666c23f2dcf3476d0f",
    (6, 3): "6d114dfb61f2c549017a2d9f8d1825888a16619f85fd76303d5623134b6a4b18",
    (7, 3): "7bccc5ef469efacf87df05eefc91ff678d183453198e2910f9dcc0f8ee2a5b92",
    (8, 3): "15b62dce404c83bb482f08b263ef3ff7e1a35f76d23734a70f0149b19b22de55",
}


@pytest.mark.parametrize("n, d", sorted(OPERATOR_DIGESTS))
def test_compiled_operator_is_pinned(n, d):
    system = solver._order_system.__wrapped__(n, d)
    assert hashlib.sha256(repr(system).encode()).hexdigest() == OPERATOR_DIGESTS[n, d]


@pytest.mark.parametrize("n, d", sorted(OPERATOR_DIGESTS))
def test_operator_is_in_canonical_form(n, d):
    # each pivot column over a positive denominator coprime to its numerators;
    # the operator keeps one row per pivot, the row that made it
    _, _, (pivots, rows) = solver._order_system(n, d)
    columns = {col: [den] for col, den in pivots}
    for solution in rows.values():
        pairs = iter(solution)
        for col, num in zip(pairs, pairs):
            columns[col].append(num)
    assert all(den > 0 for _, den in pivots)
    assert all(math.gcd(*values) == 1 for values in columns.values())
    assert len(rows) == len(pivots)


@pytest.mark.parametrize("n, d", [(n, d) for d in (1, 2, 3) for n in range(2, 8)] + [(8, 3)])
def test_free_columns_are_the_odd_arity_one_cochains(n, d):
    # the kernel of d under the structure condition is d of the arity-1
    # cochains f(p) of degree n+1 with f(-p) = -f(p): C(n+d, d-1) of them,
    # the p-monomials of that degree, when n+1 is odd, and none when it is even
    basis, _, (pivots, _) = solver._order_system(n, d)
    assert len(basis) - len(pivots) == (math.comb(n + d, d - 1) if n % 2 == 0 else 0)


def random_symbol(rng, d, blocks, p_monos, x_monos, terms=4):
    """Up to ``terms`` of the ``p_monos``, each times one of the ``x_monos``, with small nonzero coefficients."""
    chosen = rng.sample(p_monos, min(terms, len(p_monos)))
    coefficients = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3])) for _ in chosen]
    return PolySymbol(d, blocks, {mono + rng.choice(x_monos): c for mono, c in zip(chosen, coefficients)})


@pytest.mark.parametrize(
    "build, n",
    [(so3_structure, 2), (so3_structure, 4), (quadratic_structure, 2), (quadratic_structure, 4)],
    ids=["so3-2", "so3-4", "quadratic-2", "quadratic-4"],
)
def test_gauge_freedom_keeps_the_order_equation_and_the_structure_conditions(build, n):
    # at an even order, d of an odd arity-1 cochain f(p).m(x) of degree n+1
    # is closed and vanishes on (p, 0), (0, p) and (p, -p)
    series = solve_deformation(build(), n)
    d = series.dim
    h_n = obstruction(series.truncate(n - 1), n, verified=True)
    rng = random.Random(10 * n + d)
    p_monos = [
        tuple(Counter(p_key(1, i) for i in combo).items())
        for combo in itertools.combinations_with_replacement(range(1, d + 1), n + 1)
    ]
    x_monos = [((x_key(1), 1),), ((x_key(d), 1), (x_key(1), 2))]
    f = random_symbol(rng, d, 1, p_monos, x_monos)
    gauged = series.order(n) + coboundary_symbol(f, 1)
    assert gauged != series.order(n)
    solver._check_product_order(gauged, h_n)
    assert check_sgs(series.with_order(n, gauged), n).passed


@pytest.mark.parametrize("n, d", [(n, d) for d in (1, 2, 3) for n in range(2, 7)])
def test_a_coboundary_is_solved_up_to_an_arity_one_coboundary(n, d):
    # H = -dS is solvable exactly when some S' = S + d(f) has S'(p, -p, x) = 0:
    # always at odd n, where f(-p) = f(p), and at even n, where f(-p) = -f(p),
    # only when S(p, -p, x) = 0 already.  Then S' - S = d(f), and d(f)(p, p, x)
    # = f(p) - f(2p) + f(p) = (2 - 2^(n+1)) f(p, x) recovers f
    rng = random.Random(10 * n + d)
    x_monos = [(), ((x_key(1), 1),), ((x_key(d), 2),)]
    generic = random_symbol(rng, d, 2, solver._p_basis(n, d), x_monos)
    # a multiple of p1_1 + p2_1 vanishes on (p, -p)
    through_inverse = random_symbol(rng, d, 2, solver._p_basis(n - 1, d), x_monos) * (
        PolySymbol.variable(p_key(1, 1), d, 2) + PolySymbol.variable(p_key(2, 1), d, 2)
    )
    for s in (generic, through_inverse):
        h = -coboundary_symbol(s, 2)
        if n % 2 == 0 and not s.map_blocks({2: [(1, -1)]}, 2).is_zero():
            with pytest.raises(InfeasibleOrderError):
                _solve_order(h, n, d)
            continue
        difference = _solve_order(h, n, d) - s
        f = difference.map_blocks({2: [(1, 1)]}, 1).scale(Fraction(1, 2 - 2 ** (n + 1)))
        assert coboundary_symbol(f, 1) == difference


def test_row_keys_share_the_pairs_of_p_pair():
    # the cached row keys and inverse images hold one object per (variable,
    # exponent), as the coboundary cache does; at odd n some inverse-condition
    # rows make pivots too
    _, inverses, (_, rows) = solver._order_system.__wrapped__(5, 3)
    assert {tag for tag, _ in rows} == {"d", "sgs"}
    for mono in [mono for _, mono in rows] + [mono for image in inverses for mono in image]:
        for pair in mono:
            (_, block, comp), exp = pair
            assert pair is p_pair(block, comp, exp)


@pytest.mark.parametrize("build, order", [(so3_structure, 6), (quadratic_structure, 8)], ids=["so3", "quadratic"])
def test_solve_order_matches_the_reference_on_real_obstructions(monkeypatch, build, order):
    solved = []
    solve_order = solver._solve_order

    def compared(h_n, n, d):
        got = solve_order(h_n, n, d)
        expected = reference_solve_order(h_n, n, d)
        assert got == expected and list(got.terms.items()) == list(expected.terms.items())
        solved.append(n)
        return got

    monkeypatch.setattr(solver, "_solve_order", compared)
    solve_deformation(build(), order)
    assert solved == list(range(2, order + 1))


def stray_key_obstruction():
    # no column reaches p1_1^4, so its key is a zero row in its sorted place;
    # the right-hand side on the reached key p1_1 p2_1 p3_2 does not raise first
    stray = ((p_key(1, 1), 4),)
    reached = ((p_key(1, 1), 1), (p_key(2, 1), 1), (p_key(3, 2), 1))
    assert ("d", stray) not in solver._order_equations(2, 2)[2]
    h = PolySymbol(2, 3, {stray + ((x_key(2), 1),): Fraction(1), reached: Fraction(1)})
    return h, 2, ((x_key(2), 1),)


def zero_row_obstruction():
    # a right-hand side on one coboundary key whose row the elimination reduces to zero
    rows = solver._order_system(3, 2)[2][1]
    key = next(key for key in sorted(solver._order_equations(3, 2)[2]) if key[0] == "d" and key not in rows)
    h = PolySymbol(2, 3, {key[1] + ((x_key(1), 1),): Fraction(3), key[1]: Fraction(1)})
    return h, 3, ()


@pytest.mark.parametrize("build", [stray_key_obstruction, zero_row_obstruction], ids=["stray-key", "zero-row"])
def test_infeasible_order_is_the_same_cold_and_warm(tmp_path, build):
    h, n, x_part = build()
    with pytest.raises(InfeasibleOrderError) as reference:
        reference_solve_order(h, n, 2)
    solver._order_system.cache_clear()
    with pytest.raises(InfeasibleOrderError) as cold:
        _solve_order(h, n, 2)
    with pytest.raises(InfeasibleOrderError) as warm:
        _solve_order(h, n, 2)
    assert str(cold.value) == str(warm.value) == str(reference.value)
    assert f"x-monomial {x_part}:" in str(cold.value)
    # no right-hand side stays behind in the cached record the solve reuses
    argv, out = solve_argv(tmp_path, "quadratic")
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN["quadratic"][2]


def random_x_polynomial(rng, d, max_degree, min_degree=0):
    """Up to three x-monomials of degree ``min_degree`` to ``max_degree``, with small nonzero integer coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        powers = Counter(rng.randint(1, d) for _ in range(rng.randint(min_degree, max_degree)))
        terms[tuple((x_key(i), e) for i, e in sorted(powers.items()))] = rng.choice([-2, -1, 1, 2])
    return PolySymbol(d, 0, terms)


def random_bivector(rng):
    """A bivector on R^3: half the draws f.grad(C), Poisson for any f and C; the rest three random entries."""
    d = 3
    if rng.random() < 0.5:
        f, c = random_x_polynomial(rng, d, 1), random_x_polynomial(rng, d, 2)
        grad = [c.diff(x_key(k)) for k in (1, 2, 3)]
        entries = {(1, 2): f * grad[2], (1, 3): -(f * grad[1]), (2, 3): f * grad[0]}
    else:
        entries = {pair: random_x_polynomial(rng, d, 2) for pair in ((1, 2), (1, 3), (2, 3))}
    return PoissonStructure(d, {pair: entry for pair, entry in entries.items() if not entry.is_zero()})


def test_order_two_is_infeasible_exactly_when_the_jacobiator_is_nonzero():
    # the order-2 equation of S~(1) = (1/2) p1.alpha.p2 has a solution exactly
    # when alpha satisfies Jacobi; the refusal reads as the reference elimination's
    outcomes = Counter()
    for seed in range(30):
        alpha = random_bivector(random.Random(seed))
        h_2 = obstruction(first_order_deformation(alpha), 2, verified=True)
        poisson = validate_poisson(alpha).ok
        outcomes[poisson] += 1
        if poisson:
            assert _solve_order(h_2, 2, 3) == reference_solve_order(h_2, 2, 3), seed
            continue
        with pytest.raises(InfeasibleOrderError) as reference:
            reference_solve_order(h_2, 2, 3)
        with pytest.raises(InfeasibleOrderError) as refused:
            _solve_order(h_2, 2, 3)
        assert str(refused.value) == str(reference.value), seed
    assert outcomes[True] > 0 and outcomes[False] > 0


def non_poisson_bivector(seed, d):
    """A bivector on R^d whose every entry has x-degree 1 to 2; the seeds below all fail Jacobi."""
    rng = random.Random(seed)
    entries = {
        (i, j): random_x_polynomial(rng, d, 2, min_degree=1)
        for i in range(1, d + 1)
        for j in range(i + 1, d + 1)
    }
    alpha = PoissonStructure(d, entries)
    assert not validate_poisson(alpha).ok
    return alpha


@pytest.mark.parametrize("d", [3, 4])
def test_order_two_antisymmetric_part_is_minus_the_jacobiator(d):
    # c_sigma, H_2's coefficient of p1_{sigma(i)} p2_{sigma(j)} p3_{sigma(k)}, a polynomial in x:
    # sum_sigma sign(sigma) c_sigma = -Jac^{ijk}, for every triple i < j < k
    for seed in range(12):
        alpha = non_poisson_bivector(seed, d)
        h_2 = obstruction(first_order_deformation(alpha), 2, verified=True)
        coefficients = {}
        for mono, coeff in h_2.terms.items():
            p_part, x_part = split_monomial(mono)
            if all(e == 1 for _, e in p_part) and [b for (_, b, _), _ in p_part] == [1, 2, 3]:
                comps = tuple(comp for (_, _, comp), _ in p_part)
                coefficients.setdefault(comps, {})[x_part] = coeff
        for triple in itertools.combinations(range(1, d + 1), 3):
            total = PolySymbol.zero(d, 0)
            for perm in itertools.permutations(range(3)):
                inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(3), 2))
                c_sigma = PolySymbol(d, 0, coefficients.get(tuple(triple[k] for k in perm), {}))
                total = total + c_sigma.scale((-1) ** inversions)
            assert total == -jacobiator(alpha, *triple), (seed, triple)


#: seed -> the x-monomial named for H_2 of ``non_poisson_bivector(seed, 4)``
FIRST_FAILING_ROW = {
    1: ((x_key(4), 1),),
    5: ((x_key(2), 1), (x_key(3), 1)),
    6: ((x_key(1), 1), (x_key(2), 1)),
}


@pytest.mark.parametrize("seed", sorted(FIRST_FAILING_ROW))
def test_infeasible_order_names_the_first_failing_row_in_key_order(seed):
    # on R^4 the four Jacobiators fail on rows of their own, whose smallest
    # x-monomials differ: the first failing row in key order names its own
    # smallest, not the smallest over all failing rows nor the last row's
    alpha = non_poisson_bivector(seed, 4)
    h_2 = obstruction(first_order_deformation(alpha), 2, verified=True)
    smallest = {
        min(jacobiator(alpha, *triple).numerators)
        for triple in itertools.combinations(range(1, 5), 3)
    }
    named = FIRST_FAILING_ROW[seed]
    assert len(smallest) > 1 and named != min(smallest)
    with pytest.raises(InfeasibleOrderError) as reference:
        reference_solve_order(h_2, 2, 4)
    with pytest.raises(InfeasibleOrderError) as refused:
        _solve_order(h_2, 2, 4)
    assert str(refused.value) == str(reference.value)
    assert f"x-monomial {named}:" in str(refused.value)


@pytest.mark.parametrize(
    "build, orders",
    [(so3_structure, [2, 4]), (heisenberg_structure, []), (ax_b_structure, [2, 4])],
    ids=["so3", "heisenberg", "ax-b"],
)
def test_solution_is_gauge_equivalent_to_bch(build, orders):
    # the solver and x.bch(p1, p2) pick different gauges; one closed-form
    # morphism maps the first onto the second exactly, order by order
    alpha = build()
    morphism = equivalence_morphism(solve_deformation(alpha, 5), bch_generating_function(alpha, 5), 5)
    assert morphism.order_indices() == orders
    assert is_odd_in_p(morphism)


def test_equivalence_oracle_refuses_a_wrong_order():
    alpha = so3_structure()
    bch = bch_generating_function(alpha, 4)
    wrong = bch.with_order(3, bch.order(3).scale(2))
    with pytest.raises(AssertionError, match="order 3"):
        equivalence_morphism(solve_deformation(alpha, 4), wrong, 4)


def lie_bracket(constants, dim, u, v):
    out = [PolySymbol.zero(dim, 2) for _ in range(dim)]
    for (i, j, k), c in constants.items():
        term = (u[i - 1] * v[j - 1] - u[j - 1] * v[i - 1]).scale(c)
        out[k - 1] = out[k - 1] + term
    return out


def x_dot(vec, dim):
    total = PolySymbol.zero(dim, 2)
    for k in range(dim):
        total = total + vec[k] * PolySymbol.variable(x_key(k + 1), dim, 2)
    return total


def test_bch_classical_coefficients_on_solvable_algebra():
    constants = {(1, 2, 2): Fraction(1)}
    dim = 2
    alpha = ax_b_structure()
    series = bch_generating_function(alpha, 4)
    p1 = [PolySymbol.variable(p_key(1, i), dim, 2) for i in range(1, dim + 1)]
    p2 = [PolySymbol.variable(p_key(2, i), dim, 2) for i in range(1, dim + 1)]
    br = lambda u, v: lie_bracket(constants, dim, u, v)
    # order 1: (1/2) x.[p1,p2]
    assert series.order(1) == x_dot(br(p1, p2), dim).scale(Fraction(1, 2))
    # order 2: (1/12) x.([p1,[p1,p2]] + [p2,[p2,p1]])
    expected2 = (
        x_dot(br(p1, br(p1, p2)), dim) + x_dot(br(p2, br(p2, p1)), dim)
    ).scale(Fraction(1, 12))
    assert series.order(2) == expected2
    # order 3: -(1/24) x.[p2,[p1,[p1,p2]]]
    expected3 = x_dot(br(p2, br(p1, br(p1, p2))), dim).scale(Fraction(-1, 24))
    assert series.order(3) == expected3
    assert not series.order(4).is_zero()


def test_bch_abelian_is_zero():
    abelian = PoissonStructure(2, {})
    assert bch_generating_function(abelian, 4).is_zero()


def test_bch_heisenberg_is_first_order_only():
    series = bch_generating_function(heisenberg_structure(), 5)
    assert series.order_indices() == [1]
    assert series == heisenberg_first_order()


def test_bch_heisenberg_is_a_product_with_structure():
    series = bch_generating_function(heisenberg_structure(), 5)
    assert verify_product(series, 5).all_zero
    assert check_sgs(series, 5).passed


def test_bch_solvable_algebra_is_a_product():
    # exact associativity through order 5 also pins the degree-6 bch
    # coefficients: any wrong word coefficient breaks the zero residuals
    series = bch_generating_function(ax_b_structure(), 5)
    assert check_grading(series).ok
    assert verify_product(series, 5).all_zero
    assert check_sgs(series, 5).passed


def test_bch_requires_linear_structure():
    quad = PoissonStructure(2, {(1, 2): PolySymbol(2, 0, {((x_key(1), 2),): Fraction(1)})})
    with pytest.raises(ValueError):
        bch_generating_function(quad, 3)


def test_bch_words_low_degrees():
    words = bch_words(3)
    assert words[(0,)] == 1 and words[(1,)] == 1
    assert words[(0, 1)] == Fraction(1, 2)
    assert words[(1, 0)] == Fraction(-1, 2)


def test_solver_and_bch_agree_at_first_order():
    alpha = ax_b_structure()
    solved = solve_deformation(alpha, 2)
    bch = bch_generating_function(alpha, 2)
    assert solved.order(1) == bch.order(1)
    # higher orders may legitimately differ by gauge; both already verified


def test_order_columns_expand_without_substitute(monkeypatch):
    # the coboundary and inverse-condition columns expand p-blocks in closed
    # form; the generic substitute is never reached
    calls = []
    substitute = PolySymbol.substitute

    def counted(self, *args, **kwargs):
        calls.append(self)
        return substitute(self, *args, **kwargs)

    monkeypatch.setattr(PolySymbol, "substitute", counted)
    basis, d_cols, sgs_cols = solver._order_columns(4, 3)
    assert len(basis) == len(d_cols) == len(sgs_cols) > 0
    assert calls == []


def test_inverse_columns_match_map_blocks():
    # the closed-form S(p, -p, x) column of every basis monomial of orders 2-6
    count = 0
    for n in range(2, 7):
        for d in (2, 3):
            for mono in solver._p_basis(n, d):
                reference = PolySymbol(d, 2, {mono: 1}).map_blocks({2: [(1, -1)]}, 2)
                assert solver._inverse_column(mono) == reference.terms, mono
                count += 1
    assert count == 1723
