"""The tuple/Fraction polynomial kernel, kept as an exact reference.

A terms dict maps a monomial, a sorted tuple of ``(variable, exponent)`` pairs,
to a nonzero ``Fraction``; every function here returns a new such dict and
leaves its operands alone.  This is the kernel the library ran before it held
integer numerators over one denominator: ``PolySymbol.terms`` of every kernel
result must equal what these functions compute from the operands' ``terms``.
Shapes are not checked; the library's validation is tested on its own.
"""

from fractions import Fraction
from math import comb


def mul_monomials(m1, m2):
    """Merge two sorted (variable, exponent) tuples."""
    out = dict(m1)
    for var, exp in m2:
        out[var] = out.get(var, 0) + exp
    return tuple(sorted(out.items()))


def accumulate(acc, terms, factor=1, mono=()):
    """Add ``factor * mono * m`` into ``acc`` for each ``(m, c)`` of ``terms``, dropping zeros."""
    for m, c in terms:
        m = mul_monomials(mono, m)
        c = acc.get(m, 0) + c * factor
        if c:
            acc[m] = Fraction(c)
        else:
            acc.pop(m, None)


def add(a, b):
    acc = dict(a)
    accumulate(acc, b.items())
    return acc


def neg(a):
    return {m: -c for m, c in a.items()}


def scale(a, factor):
    return {m: c * factor for m, c in a.items()} if factor else {}


def mul(a, b):
    acc = {}
    for m, c in a.items():
        accumulate(acc, b.items(), c, m)
    return acc


def linear_combination(pairs):
    """sum(factor * terms for factor, terms in pairs)."""
    acc = {}
    for factor, terms in pairs:
        if factor:
            accumulate(acc, terms.items(), factor)
    return acc


def diff(a, var):
    acc = {}
    for mono, coeff in a.items():
        powers = dict(mono)
        exp = powers.get(var, 0)
        if exp:
            if exp == 1:
                del powers[var]
            else:
                powers[var] = exp - 1
            acc[tuple(sorted(powers.items()))] = coeff * exp
    return acc


def _power_of_row(row, comp, exp):
    """(sum(c * p[t][comp] for t, c in row)) ** exp, one binomial expansion per target."""
    if not row:
        return {}
    (t, c), rest = row[0], row[1:]
    var = ("p", t, comp)
    if not rest:
        return {((var, exp),): Fraction(c) ** exp}
    acc = {}
    for k in range(exp + 1):
        head = {((var, k),) if k else (): comb(exp, k) * Fraction(c) ** k}
        tail = _power_of_row(rest, comp, exp - k) if k < exp else {(): Fraction(1)}
        accumulate(acc, mul(head, tail).items())
    return acc


def map_blocks(a, rows):
    """Replace p[b][i] by sum(c * p[t][i] for t, c in rows[b]); other variables stay."""
    rows = {b: [(t, Fraction(c)) for t, c in row] for b, row in rows.items()}
    acc = {}
    for mono, coeff in a.items():
        term = {(): coeff}
        for var, exp in mono:
            if var[0] == "p" and var[1] in rows:
                image = _power_of_row(rows[var[1]], var[2], exp)
            else:
                image = {((var, exp),): Fraction(1)}
            term = mul(term, image)
        accumulate(acc, term.items())
    return acc


def contract(f, variables, directions):
    """sum_k directions[0][k] * contract(d f / d variables[k], directions[1:]), on terms dicts."""
    if not directions:
        return dict(f)
    acc = {}
    for var, component in zip(variables, directions[0]):
        inner = contract(diff(f, var), variables, directions[1:])
        accumulate(acc, mul(component, inner).items())
    return acc
