"""The uncached exact Gauss-Jordan solve, kept as the reference for the solver.

The solver eliminates each order's rows once per (n, d), each row that makes
a pivot carrying its own unit right-hand side, into a sparse solution
operator, maps only the right-hand sides through it
(``gfoperad.solver._eliminate`` and ``_apply``), and decides feasibility from
the residual of the solution on every row.  ``_linsolve`` carries rows and
right-hand sides together through one elimination, row by row in the order
given, and refuses at the first row that reduces to zero with a nonzero
right-hand side; ``solve_order`` is the order-n solve built on it: the rows
of ``_order_equations`` and the right-hand sides of all keys, sorted
together.  Its rows hold ``Fraction`` values and are summed by its own
:func:`_add_row`, not by the kernel's row helpers that the solver uses.
"""

from fractions import Fraction

from gfoperad.solver import InfeasibleOrderError, _order_equations
from gfoperad.symbols import PolySymbol, split_monomial


def _add_row(acc, items, factor):
    """Add ``factor * v`` into ``acc[k]`` for each ``(k, v)`` of ``items``; drop zeros."""
    for k, v in items:
        total = acc.get(k, 0) + factor * v
        if total:
            acc[k] = total
        else:
            del acc[k]


def _linsolve(equations):
    """Exact Gauss-Jordan with deterministic pivoting; free unknowns are zero.

    ``equations``: iterable of (dict column->Fraction, dict key->Fraction
    rhs).  Every key's right-hand side rides through one elimination; pivots
    depend on the rows alone, so each key gets the solution its own system
    would give.  Returns {pivot column: {key: nonzero value}}.  Raises
    ValueError(message, key) on an inconsistent row, naming its smallest key
    with a nonzero right-hand side.  Invariant: stored pivot rows reference
    free columns only, so the solution reads off as the pivot right-hand sides.
    """
    pivots = {}
    for row, rhs in equations:
        row = {c: v for c, v in row.items() if v != 0}
        rhs = {k: v for k, v in rhs.items() if v != 0}
        # eliminate every pivot column present (pivot rows only add free
        # columns, so one pass over the initial pivot columns suffices)
        for col in sorted(c for c in row if c in pivots):
            factor = -row.pop(col)
            prow, prhs = pivots[col]
            _add_row(row, prow.items(), factor)
            _add_row(rhs, prhs.items(), factor)
        if not row:
            if rhs:
                message = "inconsistent equation (nonzero rhs on a zero row)"
                raise ValueError(message, min(rhs))
            continue
        col = min(row)
        inv = Fraction(1) / row.pop(col)
        prow = {c: v * inv for c, v in row.items()}
        prhs = {k: v * inv for k, v in rhs.items()}
        for orow, orhs in pivots.values():
            if col in orow:
                factor = -orow.pop(col)
                _add_row(orow, prow.items(), factor)
                _add_row(orhs, prhs.items(), factor)
        pivots[col] = (prow, prhs)
    return {col: prhs for col, (_, prhs) in pivots.items()}


def solve_order(h_n, n: int, d: int):
    """d S_n = -H_n through one uncached elimination of rows and right-hand sides."""
    rhs = {}
    for mono, coeff in h_n.terms.items():
        p_part, x_part = split_monomial(mono)
        rhs.setdefault(("d", p_part), {})[x_part] = -coeff
    if not rhs:
        return PolySymbol.zero(d, 2)
    basis, _, equations = _order_equations(n, d)
    rows = [
        (equations.get(key, {}), rhs.get(key, {}))
        for key in sorted(equations.keys() | rhs.keys())
    ]
    try:
        solution = _linsolve(rows)
    except ValueError as exc:
        message, x_part = exc.args
        raise InfeasibleOrderError(n, f"x-monomial {x_part}: {message}") from exc
    terms = {}
    for idx, values in solution.items():
        for x_part, value in values.items():
            terms[basis[idx] + x_part] = value
    return PolySymbol(d, 2, terms)
