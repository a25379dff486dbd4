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
from gfoperad.symbols import PolySymbol, check_grading, p_key, x_key
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
    """Make the solver add p1_1^order p2_1, which d does not kill, to its S_order."""
    solve_order = solver._solve_order

    def perturbed(h_n, n, d):
        s_n = solve_order(h_n, n, d)
        if n == order:
            s_n = s_n + PolySymbol(d, 2, {((p_key(1, 1), n), (p_key(2, 1), 1)): 1})
        return s_n

    monkeypatch.setattr(solver, "_solve_order", perturbed)


@pytest.mark.parametrize("order", [2, 4])
def test_postcondition_refuses_a_wrong_order(monkeypatch, order):
    # order 4 is the last: no later obstruction reads it, only the check does
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


def outcome(solve, *args):
    """Each pivot column's values in pivot order, each column as a dict; or the error's args."""
    try:
        solution = solve(*args)
    except ValueError as exc:
        return exc.args
    return [(col, dict(values)) for col, values in solution.items()]


def apply_values(operator, rhs, den):
    """``solver._apply``'s columns, int numerators over a denominator each, as exact values."""
    solution = solver._apply(operator, rhs, den)
    assert all(col_den > 0 for _, col_den in solution.values())
    return {col: {k: Fraction(v, col_den) for k, v in values.items()} for col, (values, col_den) in solution.items()}


@settings(max_examples=300, deadline=None)
@given(sparse_systems(), st.integers(1, 6))
def test_eliminate_and_apply_match_the_reference_elimination(system, den):
    # the operator takes the right-hand sides as int numerators over one
    # denominator, as H_n arrives; the reference takes their exact values.
    # Within a column the x-keys may come in another order than the
    # reference's: no output reads that order, since the JSON writer sorts
    equations, rhs = system
    numerators = {key: {k: int(v) for k, v in values.items()} for key, values in rhs.items()}
    values = {key: {k: v / den for k, v in row.items()} for key, row in rhs.items()}
    rows = [(equations.get(key, {}), values.get(key, {})) for key in sorted(equations.keys() | rhs.keys())]
    before = {key: dict(row) for key, row in numerators.items()}
    operator = solver._eliminate(equations)
    built = repr(operator)
    assert outcome(apply_values, operator, numerators, den) == outcome(_linsolve, rows)
    # neither the operator nor the right-hand sides change under a solve
    assert numerators == before
    assert repr(operator) == built
    assert outcome(apply_values, operator, numerators, den) == outcome(_linsolve, rows)


#: sha256 of repr(_order_system(n, d)), the basis and the solution operator,
#: taken from the operator that was compiled from a recorded elimination,
#: with gcd(denominator, numerators) divided out of each of its pivot columns
OPERATOR_DIGESTS = {
    (1, 2): "d2726cbb14e4772e5dc41675c9cea57e0d40ff675f9fb2411b279dd6f98200e3",
    (2, 2): "b35c6121e36ebac148ed827444b628d487f945d205d2709f1807faced0e58692",
    (3, 2): "786e6a5276940f6987df67650e0077a26876286c783785799e51f77d450d76ed",
    (4, 2): "f0f8e7e5dc0a147c171d4e4560067fb07e1d6ae4200d71d1d52928c5894d41fd",
    (5, 2): "aa078a8c0e1f5649d00f49a80d988d0abf000bc74d0b771c11d09bbfe7015a2c",
    (6, 2): "20b6b48d482c1f2e71c2e0feff96a43b3ce7eb123bb341086b60f91951b902d3",
    (7, 2): "1f0ffe0273c0604113bb791d48ae05beb441ce181543eb796b42fa38eee15f78",
    (1, 3): "b45ec9ae8cdc5ac96856a2994a6351c422c95d96db47bae19c2b491d2965820e",
    (2, 3): "97001ce4a146cafacba34a092872a00445675a1ee6562dbc7d736cd9ca512e57",
    (3, 3): "3615113ef13096311079e5f2f929e1b07ad3bce894c8a2daa98c7768a6d50f09",
    (4, 3): "0d8dae08a3e7e0663fe68ddb735adb508be9b36d9cf07b74d32729e14b479fee",
    (5, 3): "a8b366338e4c8ca15b88d381e3054adeb35f26c0ac43d9d51db1369247d3a197",
    (6, 3): "6967f4727237b8b6465b14747dc6ec49cb98ca06a6ddcd9bfd6d3395cc6206df",
    (7, 3): "fec58fa8938cf2e97137efe343c3dce42cdc221e648f0861ec2677d1efd26230",
    (8, 3): "dbbdaeec904b5db9d6bb3181214cc44bee8a02b00afebc1119dbaeae02a2c40e",
}


@pytest.mark.parametrize("n, d", sorted(OPERATOR_DIGESTS))
def test_compiled_operator_is_pinned(n, d):
    system = solver._order_system.__wrapped__(n, d)
    assert hashlib.sha256(repr(system).encode()).hexdigest() == OPERATOR_DIGESTS[n, d]


@pytest.mark.parametrize("n, d", sorted(OPERATOR_DIGESTS))
def test_operator_is_in_canonical_form(n, d):
    # each pivot column over a positive denominator coprime to its numerators;
    # each zero-row functional free of a common factor, its own entry positive
    _, (pivots, rows, zero_keys) = solver._order_system(n, d)
    columns = {col: [den] for col, den in pivots}
    functionals = [{} for _ in zero_keys]
    for key, (solution, zeros) in rows.items():
        pairs = iter(solution)
        for col, num in zip(pairs, pairs):
            columns[col].append(num)
        pairs = iter(zeros)
        for z, num in zip(pairs, pairs):
            functionals[z][key] = num
    assert all(den > 0 for _, den in pivots)
    assert all(math.gcd(*values) == 1 for values in columns.values())
    for key, functional in zip(zero_keys, functionals):
        assert math.gcd(*functional.values()) == 1
        assert functional[key] > 0


@pytest.mark.parametrize("n, d", [(n, d) for d in (1, 2, 3) for n in range(2, 8)] + [(8, 3)])
def test_free_columns_are_the_odd_arity_one_cochains(n, d):
    # the kernel of d under the structure condition is d of the arity-1
    # cochains f(p) of degree n+1 with f(-p) = -f(p): C(n+d, d-1) of them,
    # the p-monomials of that degree, when n+1 is odd, and none when it is even
    basis, (pivots, _, _) = solver._order_system(n, d)
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
    # the cached row keys hold one object per (variable, exponent), as the coboundary cache does
    _, rows, zero_keys = solver._order_system.__wrapped__(4, 3)[1]
    assert {tag for tag, _ in rows} == {"d", "sgs"}
    assert set(zero_keys) <= rows.keys()
    for _, mono in rows:
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
    assert ("d", stray) not in solver._order_system(2, 2)[1][1]
    h = PolySymbol(2, 3, {stray + ((x_key(2), 1),): Fraction(1), reached: Fraction(1)})
    return h, 2, ((x_key(2), 1),)


def zero_row_obstruction():
    # a right-hand side on one coboundary key whose row the elimination reduces to zero
    zero_keys = solver._order_system(3, 2)[1][2]
    key = next(key for key in zero_keys if key[0] == "d")
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
