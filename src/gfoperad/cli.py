"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numerical
non-convergence or overflow.  Structured data is JSON (series, bivectors,
points), tree listings are tab-separated text; identical inputs and seed
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

from gfoperad import trees as trees_mod
from gfoperad.deformation import bracket, coboundary, verify_product
from gfoperad.groupoid import (
    check_sgs,
    extract_poisson,
    invert_morphism,
    psi_numeric,
    structure_maps,
    transform_product,
)
from gfoperad.operad import (
    GenFunction,
    NonConvergenceError,
    compose,
    identity,
    numeric_phi,
)
from gfoperad.poisson import poisson_dumps, poisson_loads, validate_poisson
from gfoperad.solver import (
    bch_generating_function,
    heisenberg_structure,
    solve_deformation,
)
from gfoperad.symbols import (
    FormalSeries,
    json_dumps,
    random_graded_series,
    series_dumps,
    series_loads,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_NONCONVERGENCE = 3


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.write("\n")
    else:
        print(text)


def _load_genfunction(path: str) -> GenFunction:
    series = series_loads(_read(path))
    return GenFunction(series.blocks, series.dim, series)


def _load_inners(paths: str) -> list[GenFunction]:
    return [_load_genfunction(p) for p in paths.split(",") if p]


def cmd_trees_enum(args) -> int:
    if args.rooted:
        listing = trees_mod.enumerate_rooted(args.max_order, root_color=args.root_color)
    else:
        if args.root_color:
            raise ValueError("--root-color needs --rooted")
        listing = trees_mod.enumerate_unrooted(args.max_order)
    for t in listing:
        sigma = trees_mod.symmetry_coefficient(t)
        print(f"{t.encoding}\t{sigma}\t{t.size}\t{t.total_weight}")
    return EXIT_OK


def cmd_compose(args) -> int:
    outer = _load_genfunction(args.outer)
    inners = _load_inners(args.inner)
    result = compose(outer, inners, args.order)
    _emit(series_dumps(result.deformation), args.out)
    return EXIT_OK


def _numbers(row, length: int, what: str) -> list[float]:
    """``row`` as floats if it is a list of ``length`` finite JSON numbers (no bool)."""
    if (
        type(row) is not list
        or len(row) != length
        or any(type(v) not in (int, float) or not abs(v) < math.inf for v in row)
    ):
        raise ValueError(f"{what} must be a list of {length} finite numbers")
    return [float(v) for v in row]


def _load_point(path: str, blocks: int, dim: int):
    """``{"p": [K lists of d numbers], "x": [d numbers]}`` as float lists."""
    obj = json.loads(_read(path))
    if type(obj) is not dict:
        raise ValueError("point must be a JSON object")
    p_blocks = obj.get("p")
    if type(p_blocks) is not list or len(p_blocks) != blocks:
        raise ValueError(f"point p must be a list of {blocks} p-blocks")
    p_blocks = [_numbers(block, dim, "point p-block") for block in p_blocks]
    return p_blocks, _numbers(obj.get("x"), dim, "point x")


def cmd_numeric_check(args) -> int:
    if not 0 < args.tol < math.inf:
        raise ValueError("--tol must be positive and finite")
    outer = _load_genfunction(args.outer)
    inners = _load_inners(args.inner)
    p_blocks, x_point = _load_point(args.point, sum(g.arity for g in inners), outer.dim)
    grouped = []
    cursor = 0
    for g in inners:
        grouped.append(p_blocks[cursor : cursor + g.arity])
        cursor += g.arity
    composed = compose(outer, inners, args.order)
    numeric = numeric_phi(outer, inners, grouped, x_point, args.eps, tol=args.tol)
    series_value = composed.value(p_blocks, x_point, args.eps)
    print(f"numeric   {numeric!r}")
    print(f"series    {series_value!r}")
    print(f"abs diff  {abs(numeric - series_value):.6e}")
    return EXIT_OK


def cmd_cobound(args) -> int:
    series = series_loads(_read(args.infile))
    _emit(series_dumps(coboundary(series)), args.out)
    return EXIT_OK


def cmd_bracket(args) -> int:
    a = series_loads(_read(args.a))
    b = series_loads(_read(args.b))
    result = bracket(a, b, args.order)
    _emit(series_dumps(result), args.out)
    return EXIT_OK


def cmd_verify_sga(args) -> int:
    series = series_loads(_read(args.infile))
    report = verify_product(series, args.order)
    if report.all_zero:
        print(f"product equation holds through order {args.order}")
        return EXIT_OK
    order, residual = report.first_failure()
    print(f"first nonzero residual at order {order}:")
    print(f"  {residual}")
    return EXIT_VERIFICATION


def cmd_solve(args) -> int:
    alpha = poisson_loads(_read(args.poisson))
    report = validate_poisson(alpha)
    if not report.ok:
        print(f"not a Poisson structure: first failing triple {report.failing_triple}")
        return EXIT_VERIFICATION
    series = solve_deformation(alpha, args.order)
    _emit(series_dumps(series), args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    alpha = poisson_loads(_read(args.poisson))
    report = validate_poisson(alpha)
    if report.ok:
        print("antisymmetry: ok")
        print("jacobi: ok")
        return EXIT_OK
    print(f"failing triple: {report.failing_triple}")
    return EXIT_VERIFICATION


def cmd_transform(args) -> int:
    series = series_loads(_read(args.infile))
    morphism = series_loads(_read(args.morphism))
    result = transform_product(series, morphism, args.order)
    _emit(series_dumps(result), args.out)
    return EXIT_OK


def cmd_invert(args) -> int:
    series = series_loads(_read(args.infile))
    result = invert_morphism(series, args.order)
    _emit(series_dumps(result), args.out)
    return EXIT_OK


def cmd_poisson(args) -> int:
    series = series_loads(_read(args.infile))
    alpha = extract_poisson(series)
    _emit(poisson_dumps(alpha), args.out)
    return EXIT_OK


def cmd_maps(args) -> int:
    series = series_loads(_read(args.infile))
    maps = structure_maps(series, args.order)
    _emit(json_dumps({"dim": maps.dim, "source": maps.source, "target": maps.target}), args.out)
    return EXIT_OK


def _selftest_checks(seed: int):
    rng = random.Random(seed)

    def tree_sigma():
        for t in trees_mod.enumerate_rooted(5):
            if trees_mod.symmetry_coefficient(t) != trees_mod.automorphism_count(t):
                return False
        for t in trees_mod.enumerate_unrooted(5):
            if trees_mod.symmetry_coefficient(t) != trees_mod.automorphism_count(t):
                return False
        return True

    def tree_counts():
        per_weight = {1: 2, 2: 4, 3: 10}
        rooted = trees_mod.enumerate_rooted(3)
        for w, expected in per_weight.items():
            if sum(1 for t in rooted if t.total_weight == w) != expected:
                return False
        return True

    def coboundary_squares():
        for arity in (1, 2, 3):
            series = random_graded_series(rng, arity, 2, [1, 2])
            if not coboundary(coboundary(series)).is_zero():
                return False
        return True

    def bracket_pin():
        for arity in (1, 2):
            series = random_graded_series(rng, arity, 1, [1, 2])
            zero2 = FormalSeries.zero(1, 2)
            if bracket(zero2, series, 3) != coboundary(series):
                return False
        return True

    def unit_law():
        series = random_graded_series(rng, 2, 2, [1, 2])
        f = GenFunction(2, 2, series)
        return compose(f, [identity(2), identity(2)], 3).deformation == series

    def associativity():
        f = GenFunction(2, 1, random_graded_series(rng, 2, 1, [1]))
        g1 = GenFunction(1, 1, random_graded_series(rng, 1, 1, [1]))
        g2 = GenFunction(1, 1, random_graded_series(rng, 1, 1, [1, 2]))
        h1 = GenFunction(1, 1, random_graded_series(rng, 1, 1, [1]))
        h2 = GenFunction(1, 1, random_graded_series(rng, 1, 1, [2]))
        lhs = compose(compose(f, [g1, g2], 3), [h1, h2], 3)
        rhs = compose(f, [compose(g1, [h1], 3), compose(g2, [h2], 3)], 3)
        return lhs == rhs

    def oracle_agreement():
        f = GenFunction(1, 1, random_graded_series(rng, 1, 1, [1], max_x_degree=2))
        g = GenFunction(1, 1, random_graded_series(rng, 1, 1, [1], max_x_degree=2))
        composed = compose(f, [g], 5)
        diffs = []
        for eps in (1e-2, 5e-3):
            numeric = numeric_phi(f, [g], [[[0.4]]], [0.6], eps, tol=1e-15)
            series_value = composed.value([[0.4]], [0.6], eps)
            diffs.append(abs(numeric - series_value))
        if diffs[1] == 0:
            return diffs[0] < 1e-12
        return 0.5 * 64 <= diffs[0] / diffs[1] <= 1.5 * 64

    def constant_poisson_product():
        from gfoperad.poisson import PoissonStructure
        from gfoperad.solver import first_order_deformation
        from gfoperad.symbols import PolySymbol

        alpha = PoissonStructure(2, {(1, 2): PolySymbol.constant(1, 2, 0)})
        series = first_order_deformation(alpha)
        return verify_product(series, 6).all_zero and check_sgs(series, 6).passed

    def heisenberg_bch():
        series = bch_generating_function(heisenberg_structure(), 4)
        return verify_product(series, 4).all_zero and check_sgs(series, 4).passed

    def heisenberg_solve():
        alpha = heisenberg_structure()
        series = solve_deformation(alpha, 3)
        return extract_poisson(series) == alpha

    def invert_round_trip():
        series = random_graded_series(rng, 1, 2, [1, 2], max_x_degree=1)
        inverse = invert_morphism(series, 3)
        f = GenFunction(1, 2, series)
        g = GenFunction(1, 2, inverse)
        return (
            compose(f, [g], 3).deformation.is_zero()
            and compose(g, [f], 3).deformation.is_zero()
        )

    def psi_fixes_base():
        series = random_graded_series(rng, 1, 2, [1, 2], max_x_degree=1)
        p2, x2 = psi_numeric(series, [0.0, 0.0], [0.7, -0.3], eps=0.01)
        return max(abs(v) for v in p2) < 1e-13 and abs(x2[0] - 0.7) < 1e-13

    return [
        ("tree symmetry coefficients vs brute force", tree_sigma),
        ("rooted class counts per total weight", tree_counts),
        ("coboundary squares to zero", coboundary_squares),
        ("bracket with trivial product equals coboundary", bracket_pin),
        ("operad unit law", unit_law),
        ("operad associativity", associativity),
        ("numeric oracle agreement", oracle_agreement),
        ("constant Poisson deformation is a product", constant_poisson_product),
        ("bch Heisenberg deformation is a product", heisenberg_bch),
        ("solver round-trips the Heisenberg structure", heisenberg_solve),
        ("morphism inversion round trip", invert_round_trip),
        ("psi fixes the zero section", psi_fixes_base),
    ]


def cmd_selftest(args) -> int:
    failures = 0
    for label, check in _selftest_checks(args.seed):
        try:
            ok = check()
        except Exception as exc:  # surface, keep going
            ok = False
            label = f"{label} ({exc})"
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
        failures += 0 if ok else 1
    return EXIT_OK if failures == 0 else EXIT_VERIFICATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gfoperad",
        description="Exact tree calculus for generating-function operads",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_trees = sub.add_parser("trees", help="tree calculus utilities")
    tree_sub = p_trees.add_subparsers(dest="tree_command", required=True)
    p_enum = tree_sub.add_parser("enum", help="list weighted bipartite tree classes")
    p_enum.add_argument("--max-order", type=int, required=True, help="max total weight")
    p_enum.add_argument("--rooted", action="store_true", help="list rooted classes")
    p_enum.add_argument("--root-color", choices=["w", "b"], default=None)
    p_enum.set_defaults(func=cmd_trees_enum)

    p_compose = sub.add_parser("compose", help="compose generating functions")
    p_compose.add_argument("--outer", required=True)
    p_compose.add_argument("--inner", required=True, help="comma-separated inner series files")
    p_compose.add_argument("--order", type=int, required=True)
    p_compose.add_argument("--out", default=None)
    p_compose.set_defaults(func=cmd_compose)

    p_numeric = sub.add_parser("numeric-check", help="compare expansion against the fixed-point oracle")
    p_numeric.add_argument("--outer", required=True)
    p_numeric.add_argument("--inner", required=True)
    p_numeric.add_argument("--point", required=True)
    p_numeric.add_argument("--eps", type=float, required=True)
    p_numeric.add_argument("--order", type=int, required=True)
    p_numeric.add_argument("--tol", type=float, default=1e-12)
    p_numeric.set_defaults(func=cmd_numeric_check)

    p_cobound = sub.add_parser("cobound", help="apply the coboundary operator")
    p_cobound.add_argument("--in", dest="infile", required=True)
    p_cobound.add_argument("--out", default=None)
    p_cobound.set_defaults(func=cmd_cobound)

    p_bracket = sub.add_parser("bracket", help="Gerstenhaber bracket of two series")
    p_bracket.add_argument("--a", required=True)
    p_bracket.add_argument("--b", required=True)
    p_bracket.add_argument("--order", type=int, required=True)
    p_bracket.add_argument("--out", default=None)
    p_bracket.set_defaults(func=cmd_bracket)

    p_verify = sub.add_parser("verify-sga", help="check the product (associativity) equation")
    p_verify.add_argument("--in", dest="infile", required=True)
    p_verify.add_argument("--order", type=int, required=True)
    p_verify.set_defaults(func=cmd_verify_sga)

    p_solve = sub.add_parser("solve", help="build an associative deformation of a Poisson structure")
    p_solve.add_argument("--poisson", required=True)
    p_solve.add_argument("--order", type=int, required=True)
    p_solve.add_argument("--out", default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_validate = sub.add_parser("validate", help="check antisymmetry and Jacobi")
    p_validate.add_argument("--poisson", required=True)
    p_validate.set_defaults(func=cmd_validate)

    p_transform = sub.add_parser("transform", help="equivalence action F(S)(F^-1, F^-1)")
    p_transform.add_argument("--in", dest="infile", required=True)
    p_transform.add_argument("--morphism", required=True)
    p_transform.add_argument("--order", type=int, required=True)
    p_transform.add_argument("--out", default=None)
    p_transform.set_defaults(func=cmd_transform)

    p_invert = sub.add_parser("invert", help="invert an arity-1 morphism")
    p_invert.add_argument("--in", dest="infile", required=True)
    p_invert.add_argument("--order", type=int, required=True)
    p_invert.add_argument("--out", default=None)
    p_invert.set_defaults(func=cmd_invert)

    p_poisson = sub.add_parser("poisson", help="extract the base Poisson bivector")
    p_poisson.add_argument("--in", dest="infile", required=True)
    p_poisson.add_argument("--out", default=None)
    p_poisson.set_defaults(func=cmd_poisson)

    p_maps = sub.add_parser("maps", help="source and target maps of a deformation")
    p_maps.add_argument("--in", dest="infile", required=True)
    p_maps.add_argument("--order", type=int, required=True)
    p_maps.add_argument("--out", default=None)
    p_maps.set_defaults(func=cmd_maps)

    p_selftest = sub.add_parser("selftest", help="run the invariant suite")
    p_selftest.add_argument("--seed", type=int, default=0)
    p_selftest.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    from gfoperad.deformation import ProductPreconditionError
    from gfoperad.groupoid import SgsError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except OverflowError as exc:
        print(f"error: numerical overflow: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (SgsError, ProductPreconditionError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
