"""Order-by-order construction of associative deformations of the trivial product.

Given a polynomial Poisson structure alpha, the deformation starts at
S~(1) = (1/2) p1.alpha(x).p2 (the 1/2 is forced by the factor 2 in the
bivector extraction) and each following order solves the linear equation

    d S_n = -H_n,        H_n = order-n part of (1/2)[S~_{<n}, S~_{<n}],

subject to the structure-condition constraints S_n(p,0,x) = S_n(0,p,x) =
S_n(p,-p,x) = 0.  The coboundary d touches only p-variables, so every
x-monomial of H_n poses the same small exact linear system with its own
right-hand side, and the rows depend only on the order n and the dimension d.
:func:`_order_system` eliminates them once per (n, d) and per process, cached
as the tree classes are, by deterministic Gauss-Jordan (sorted rows,
smallest-column pivots, free unknowns set to zero), which picks a
reproducible representative of the gauge freedom.  Each row carries its own
unit right-hand side through that one pass (:func:`_eliminate`), which thus
builds a sparse linear operator from the rows to the pivot columns, and the
cache keeps that operator; each solve sums the right-hand sides of H_n
through it (:func:`_apply`).  The coboundary columns
of that system are the integer terms of the closed-form coboundary
(:func:`gfoperad.deformation.coboundary_monomial`), and the
inverse-condition column of a basis monomial p1^a p2^b is the one signed
monomial (-1)^|b| p1^(a+b), written directly.  The rows, columns and
right-hand sides are sparse vectors of int numerators over one positive
denominator each, as the kernel stores a symbol, not polynomials, and they are
summed by the kernel's row helpers (:func:`gfoperad.symbols.accumulate`,
:func:`~gfoperad.symbols.add_scaled`), which sum every symbol; each pivot
row's common factor is taken out as it changes, and each pivot column's once
at the end (:func:`~gfoperad.symbols.content_out`).
H_n enters through its numerators and denominator
(``PolySymbol.numerators``, ``PolySymbol.denominator``), and the solution,
whose monomials are canonical by construction, leaves through
``PolySymbol.from_numerators``; no ``Fraction`` is built on the way.

Every ``compose`` of a solve selects its trees from the one cached
enumeration (:func:`gfoperad.operad.select_trees`), so each tree weight is
enumerated at most once per process.  H_n comes from the trees of total
weight exactly n, the only ones that reach order n, through one slot insertion
S(S, I) and its mirror, since every order the solver produces has the opposite
symmetry (:func:`gfoperad.deformation.obstruction`).  The second slot of
S(S, I) is the identity, whose deformation is zero, so no edge passes
through it: the selection keeps only the trees whose black vertices have no
more neighbours than their orders have degree in the first slot's p-block.
Order n of the product residual S(S, I) - S(I, S) is dS_n + H_n, since the
orders above n never reach it, so one residual check ends each order's solve
and decides it, and no H_n is kept past its own order: dS_n + H_n
(:func:`gfoperad.deformation.coboundary_symbol`, d in closed form, not
through the cached operator) and S_n(p, -p, x) must be exactly zero, and a
nonzero residual either refuses a wrong operator or makes the order
infeasible (:func:`_solve_order`).  Order 1, where H_1 = 0, is checked
alone.  Both take d from :func:`coboundary_monomial`, which tests hold to
the face-map sum, and tests, not the solve, recompute H_n from both
insertions.  ``check_sgs`` then checks the structure conditions.

``bch_generating_function`` provides an independent construction for linear
(Lie-Poisson) structures: S0 + S~ = x . bch(p1, p2), with the series computed
by truncated exp/log in the free associative algebra and projected to nested
brackets via the Dynkin-Specht-Wever idempotent.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from gfoperad.deformation import coboundary_monomial, coboundary_symbol, obstruction, p_pair, verify_product
from gfoperad.groupoid import check_sgs
from gfoperad.operad import check_order
from gfoperad.poisson import PoissonStructure, validate_poisson
from gfoperad.symbols import (
    FormalSeries,
    PolySymbol,
    accumulate,
    add_scaled,
    content_out,
    p_key,
    split_monomial,
    x_key,
)

# ``perfbench/tracer.py`` wraps ``gfoperad.solver.verify_product`` by name and
# counts a run with a missing target as incorrect, so the name stays here,
# uncalled, until the next change to the benchmark drops that target.
_KEPT_FOR_THE_TRACER = (verify_product,)


class InfeasibleOrderError(RuntimeError):
    """The order-n linear system has no solution (Jacobi failure or a bug)."""

    def __init__(self, order, detail):
        self.order = order
        super().__init__(f"no solution at order {order}: {detail}")


def first_order_deformation(alpha: PoissonStructure) -> FormalSeries:
    """S~(1) = (1/2) p1.alpha(x).p2 as a graded arity-2 series."""
    d = alpha.dim
    total = PolySymbol.zero(d, 2)
    for (i, j), entry in alpha.entries.items():
        lifted = entry.map_blocks({}, 2)
        p1i = PolySymbol.variable(p_key(1, i), d, 2)
        p2j = PolySymbol.variable(p_key(2, j), d, 2)
        p1j = PolySymbol.variable(p_key(1, j), d, 2)
        p2i = PolySymbol.variable(p_key(2, i), d, 2)
        total = total + (lifted * (p1i * p2j - p1j * p2i)).scale(Fraction(1, 2))
    return FormalSeries(d, 2, {1: total} if not total.is_zero() else {}, graded=True)


def _p_basis(n: int, d: int):
    """Arity-2 p-monomials of degree n+1 with positive degree in both blocks."""
    variables = [p_key(b, i) for b in (1, 2) for i in range(1, d + 1)]
    basis = []
    for combo in itertools.combinations_with_replacement(variables, n + 1):
        blocks = {v[1] for v in combo}
        if blocks != {1, 2}:
            continue
        counts = {}
        for v in combo:
            counts[v] = counts.get(v, 0) + 1
        basis.append(tuple(sorted(counts.items())))
    return sorted(basis)


def _eliminate(equations):
    """The solution operator of the rows ``equations``, by one Gauss-Jordan pass.

    ``equations``: {key: dict column->int}.  The rows are eliminated in
    sorted key order with deterministic pivoting (the smallest column; free
    unknowns are zero), and pivot rows are kept reduced, so they reference
    free columns only; an index from each free column to the pivot rows that
    may hold it finds them without a scan of every pivot row.  Each row
    carries the unit right-hand side {its position: 1} through the same
    forward steps and back-substitutions, so each pivot column's right-hand
    side ends as a sparse linear map from the rows to that column; a row that
    reduces to zero reaches none and is dropped.  Rows and right-hand sides
    are int numerators over one positive denominator each.  Returns (pivots,
    rows): ``pivots`` the (pivot column, positive denominator) pairs in pivot
    order, each column free of a common factor; ``rows`` {row key: the flat
    tuple (pivot column, int numerator, ...) of the columns the row reaches}
    for each row that made a pivot, in sorted key order.
    """
    keys = sorted(equations)
    # pivot column -> [row over free columns, its denominator, right-hand side, its denominator]
    pivots = {}
    # free column -> the pivot columns whose rows may hold it (a superset:
    # an entry that cancels stays listed)
    holders = {}
    for at, key in enumerate(keys):
        row = {c: v for c, v in equations[key].items() if v != 0}
        den = 1
        # the row's own unit cannot cancel: no earlier right-hand side holds it
        rhs, rhs_den = {at: 1}, 1
        # eliminate every pivot column present (pivot rows only add free
        # columns, so one pass over the initial pivot columns suffices)
        for col in sorted(c for c in row if c in pivots):
            value = row.pop(col)
            prow, pden, prhs, prhs_den = pivots[col]
            rhs_den = add_scaled(rhs, rhs_den, prhs.items(), -value, den * prhs_den)
            den = add_scaled(row, den, prow.items(), -value, den * pden)
        den = content_out(row, den)
        if not row:
            continue
        col = min(row)
        value = row.pop(col)
        sign = 1 if value > 0 else -1
        # the row over its pivot entry: the row's own denominator cancels
        prow = {c: sign * v for c, v in row.items()}
        pden = content_out(prow, abs(value))
        prhs = {i: sign * den * v for i, v in rhs.items()}
        prhs_den = content_out(prhs, rhs_den * abs(value))
        takers = [col]
        # each back-substitution changes only its own pivot row, so their order is free
        for ocol in holders.pop(col, ()):
            other = pivots[ocol]
            orow, oden, orhs, orhs_den = other
            if col in orow:
                value = orow.pop(col)
                other[3] = add_scaled(orhs, orhs_den, prhs.items(), -value, oden * prhs_den)
                other[1] = content_out(orow, add_scaled(orow, oden, prow.items(), -value, oden * pden))
                takers.append(ocol)
        # the back-substituted rows and the new one took every column of prow
        for c in prow:
            holders.setdefault(c, set()).update(takers)
        pivots[col] = [prow, pden, prhs, prhs_den]
    solution = [[] for _ in keys]
    dens = []
    for col, (_, _, prhs, prhs_den) in pivots.items():
        dens.append((col, content_out(prhs, prhs_den)))
        for at, v in prhs.items():
            solution[at] += (col, v)
    # a row that made a pivot reaches at least its own column
    return tuple(dens), {key: tuple(sol) for key, sol in zip(keys, solution) if sol}


def _apply(operator, rhs, den):
    """Sum the right-hand sides ``rhs`` into the pivot columns of a solution operator (:func:`_eliminate`).

    ``rhs``: {key: dict x-key->int}, numerators over the one positive
    denominator ``den``; zero numerators are dropped, and every x-key gets the
    pivot solution its own system would give.  A key that no row of the
    operator has is skipped.  Returns {pivot column: ({x-key: int}, positive
    denominator)} for every pivot column, in pivot order.
    """
    pivots, rows = operator
    solved = {}
    for key, values in rhs.items():
        flat = rows.get(key)
        if flat is None:
            continue
        items = [(k, v) for k, v in values.items() if v != 0]
        pairs = iter(flat)
        for col, num in zip(pairs, pairs):
            acc = solved.get(col)
            if acc is None:
                solved[col] = acc = {}
            accumulate(acc, items, num)
    out = {}
    for col, col_den in pivots:
        values = solved.get(col)
        out[col] = (values, content_out(values, col_den * den)) if values else ({}, 1)
    return out


def _inverse_column(mono) -> dict:
    """S(p, -p, x) of one basis monomial p1^a p2^b: {p1^(a+b): (-1)^|b|}, on the pairs of :func:`p_pair`."""
    exponents = {}
    sign = 1
    for (_, block, comp), exp in mono:
        exponents[comp] = exponents.get(comp, 0) + exp
        if block == 2 and exp % 2:
            sign = -sign
    return {tuple(p_pair(1, comp, exp) for comp, exp in sorted(exponents.items())): sign}


def _order_columns(n: int, d: int):
    """Per unknown basis monomial: its coboundary image and inverse-condition image.

    The coboundary columns hold the integer terms of the reduced coproduct
    (:func:`coboundary_monomial`), summed per monomial.
    """
    basis = _p_basis(n, d)
    d_cols = []
    for mono in basis:
        col = {}
        accumulate(col, coboundary_monomial(mono, 2))
        d_cols.append(col)
    return basis, d_cols, [_inverse_column(mono) for mono in basis]


def _order_equations(n: int, d: int):
    """The order-n system: (basis, inverse-condition columns, {row key: {unknown index: int}}).

    The rows are the coboundary and inverse-condition columns of every basis
    monomial, transposed; they depend only on n and d.
    """
    basis, d_cols, sgs_cols = _order_columns(n, d)
    equations = {}
    for tag, cols in (("d", d_cols), ("sgs", sgs_cols)):
        for idx, col in enumerate(cols):
            for p_mono, coeff in col.items():
                equations.setdefault((tag, p_mono), {})[idx] = coeff
    return tuple(basis), tuple(sgs_cols), equations


@lru_cache(maxsize=None)
def _order_system(n: int, d: int):
    """The order-n system's unknowns, their inverse images and its solution operator, once per (n, d).

    One elimination of the rows builds the operator (:func:`_eliminate`);
    the Poisson structure enters only through the right-hand sides, which
    :func:`_apply` sums through it.  The row keys and inverse images hold the
    shared (variable, exponent) pairs of :func:`p_pair`, and the coboundary
    row keys the monomials of the coboundary cache.
    """
    basis, inverses, equations = _order_equations(n, d)
    return basis, inverses, _eliminate(equations)


def _solve_order(h_n: PolySymbol, n: int, d: int) -> PolySymbol:
    """Solve d S_n = -H_n with the structure-condition constraints.

    H_n's numerators, grouped by p-part, are the right-hand sides of the
    coboundary rows, summed through the cached operator of (n, d)
    (:func:`_apply`) into S_n.  The residual of every row decides: dS_n + H_n
    on the coboundary rows, S_n(p, -p, x) on the inverse-condition rows.
    The pivot solution satisfies each row that made a pivot, so a nonzero
    residual there is a wrong operator (AssertionError).  Any other row is a
    zero row, a sum of earlier pivot rows whose residual is what eliminating
    rows and right-hand sides together leaves on it, or a p-part that no row
    has; a nonzero residual there raises :class:`InfeasibleOrderError`
    naming the smallest x-monomial of the first such row in key order.
    """
    rhs = {}
    for mono, num in h_n.numerators.items():
        p_part, x_part = split_monomial(mono)
        rhs.setdefault(("d", p_part), {})[x_part] = -num
    if not rhs:
        return PolySymbol.zero(d, 2)
    basis, inverses, operator = _order_system(n, d)
    solution = _apply(operator, rhs, h_n.denominator)
    den = math.lcm(*(col_den for _, col_den in solution.values()))
    numerators, residuals = {}, {}
    for idx, (values, col_den) in solution.items():
        k = den // col_den
        for x_part, value in values.items():
            numerators[basis[idx] + x_part] = value * k
        for p_mono, sign in inverses[idx].items():
            acc = residuals.setdefault(("sgs", p_mono), {})
            accumulate(acc, values.items(), sign * k)
    s_n = PolySymbol.from_numerators(d, 2, numerators, den)
    for mono, num in (coboundary_symbol(s_n, 2) + h_n).numerators.items():
        p_part, x_part = split_monomial(mono)
        residuals.setdefault(("d", p_part), {})[x_part] = num
    _, rows = operator
    failing = [key for key, values in residuals.items() if values]
    if any(key in rows for key in failing):
        raise AssertionError("solver output fails the product equation")
    if failing:
        x_part = min(residuals[min(failing)])
        raise InfeasibleOrderError(n, f"x-monomial {x_part}: inconsistent equation (nonzero rhs on a zero row)")
    return s_n


def _check_product_order(s_n: PolySymbol, h_n: PolySymbol) -> None:
    """Order n of the product residual, dS_n + H_n, must be exactly zero."""
    if not (coboundary_symbol(s_n, 2) + h_n).is_zero():
        raise AssertionError("solver output fails the product equation")


def solve_deformation(alpha: PoissonStructure, order: int) -> FormalSeries:
    """Associative deformation with first order (1/2) p1.alpha.p2, up to ``order``."""
    check_order(order)
    report = validate_poisson(alpha)
    if not report.ok:
        raise ValueError(f"not a Poisson structure; first failing triple {report.failing_triple}")
    d = alpha.dim
    series = first_order_deformation(alpha)
    _check_product_order(series.order(1), PolySymbol.zero(d, 3))
    degree = alpha.max_degree
    for n in range(2, order + 1):
        h_n = obstruction(series, n, verified=True)
        x_deg = h_n.max_x_degree()
        if x_deg > n * degree + 1:
            raise AssertionError(f"H_{n} has x-degree {x_deg} > bound {n * degree + 1}")
        s_n = _solve_order(h_n, n, d)
        if not s_n.is_zero():
            series = series.with_order(n, s_n)
    if not check_sgs(series, order).passed:
        raise AssertionError("solver output fails the structure conditions")
    return series


# -- Lie-Poisson structures and the bch oracle ---------------------------------


def lie_poisson_structure(dim: int, constants: dict) -> PoissonStructure:
    """alpha^{ij}(x) = sum_k c^{ij}_k x_k from constants {(i, j, k): c} with i < j."""
    entries = {}
    for (i, j, k), value in constants.items():
        if not (1 <= i < j <= dim):
            raise ValueError(f"store constants with i < j, got {(i, j, k)}")
        term = PolySymbol.variable(x_key(k), dim, 0).scale(value)
        entries[(i, j)] = entries.get((i, j), PolySymbol.zero(dim, 0)) + term
    return PoissonStructure(dim, entries)


def heisenberg_structure() -> PoissonStructure:
    """d = 3, alpha^{12} = x_3, central third direction."""
    return lie_poisson_structure(3, {(1, 2, 3): 1})


def _mul_words(a, b, max_len):
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            if len(w1) + len(w2) > max_len:
                continue
            w = w1 + w2
            out[w] = out.get(w, 0) + c1 * c2
    return {w: c for w, c in out.items() if c != 0}


def _exp_letter(letter, max_len):
    return {
        (letter,) * k: Fraction(1, math.factorial(k)) for k in range(max_len + 1)
    }


def _log_words(series, max_len):
    u = {w: c for w, c in series.items() if w}
    result = {}
    power = dict(u)
    for k in range(1, max_len + 1):
        sign = Fraction((-1) ** (k + 1), k)
        for w, c in power.items():
            result[w] = result.get(w, 0) + sign * c
        if k < max_len:
            power = _mul_words(power, u, max_len)
    return {w: c for w, c in result.items() if c != 0}


def bch_words(max_len: int):
    """log(exp(X) exp(Y)) in the free associative algebra, words up to max_len.

    Keys are tuples over {0, 1} (0 = X, 1 = Y); the degree-m part is a Lie
    element, recovered as nested brackets through the DSW projection.
    """
    product = _mul_words(_exp_letter(0, max_len), _exp_letter(1, max_len), max_len)
    return _log_words(product, max_len)


def _linear_constants(alpha: PoissonStructure):
    constants = {}
    for (i, j), entry in alpha.entries.items():
        for mono, coeff in entry.terms.items():
            if len(mono) != 1 or mono[0][1] != 1 or mono[0][0][0] != "x":
                raise ValueError(
                    "bch generating function needs a linear (Lie-Poisson) structure"
                )
            constants[(i, j, mono[0][0][1])] = coeff
    return constants


def bch_generating_function(alpha: PoissonStructure, order: int) -> FormalSeries:
    """Deformation with S0 + S~ = x . bch(p1, p2), truncated at ``order``.

    Requires a linear Poisson structure whose constants satisfy Jacobi; its
    order-n term carries the degree-(n+1) part of the series.
    """
    constants = _linear_constants(alpha)
    report = validate_poisson(alpha)
    if not report.ok:
        raise ValueError(f"constants violate Jacobi at triple {report.failing_triple}")
    d = alpha.dim

    def bracket_vec(u, v):
        out = [PolySymbol.zero(d, 2) for _ in range(d)]
        for (i, j, k), c in constants.items():
            term = (u[i - 1] * v[j - 1] - u[j - 1] * v[i - 1]).scale(c)
            out[k - 1] = out[k - 1] + term
        return out

    letters = {
        0: [PolySymbol.variable(p_key(1, i), d, 2) for i in range(1, d + 1)],
        1: [PolySymbol.variable(p_key(2, i), d, 2) for i in range(1, d + 1)],
    }
    orders = {}
    for word, coeff in bch_words(order + 1).items():
        m = len(word)
        if m < 2:
            continue  # degree-1 words assemble the trivial part (p1+p2).x
        value = letters[word[0]]
        for letter in word[1:]:
            value = bracket_vec(value, letters[letter])
        scale = coeff * Fraction(1, m)
        contribution = PolySymbol.zero(d, 2)
        for k in range(d):
            contribution = contribution + (
                value[k] * PolySymbol.variable(x_key(k + 1), d, 2)
            ).scale(scale)
        if contribution.is_zero():
            continue
        n = m - 1
        orders[n] = orders.get(n, PolySymbol.zero(d, 2)) + contribution
    orders = {n: s for n, s in orders.items() if not s.is_zero()}
    return FormalSeries(d, 2, orders, graded=True)
