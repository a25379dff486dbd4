"""The symplectic groupoid axioms of a product's structure maps, exactly.

A product S on T*R^d has the source and target maps
s = x + grad_{p2} S~(p, 0, x) and t = x + grad_{p1} S~(0, p, x)
(``groupoid.structure_maps``).  On a symplectic groupoid over (R^d, alpha)
(Coste, Dazord and Weinstein, 1987), under the canonical bracket
{f, g} = sum_i d_{x_i} f d_{p_i} g - d_{p_i} f d_{x_i} g on T*R^d, s is a
Poisson map, t an anti-Poisson map, and every function of s commutes with
every function of t.  Counting orders in eps, with order 0 of s and t equal
to x and alpha(s) expanded as a Taylor series, at every order n >= 1:

* order n of {s^i, s^j} is order n - 1 of alpha^{ij}(s);
* order n of {t^i, t^j} is order n - 1 of -alpha^{ij}(t);
* order n of {s^i, t^j} is zero.

alpha is the bracket ``extract_poisson`` reads from order 1 of S.  The check
uses no trees, no ``compose`` and no elimination, so it is an oracle for the
solver and for ``transform_product`` that shares none of their code paths.
An order-N check covers S up to order N - 1.
"""

from gfoperad.groupoid import extract_poisson, structure_maps
from gfoperad.symbols import PolySymbol, p_key, x_key


def _maps(corrections, dim: int, order: int) -> list:
    """Each component x_i + corrections[i] as a list of its orders 0..order, in shape (dim, 1)."""
    return [
        [PolySymbol.variable(x_key(i), dim, 1)] + [series.order(n) for n in range(1, order + 1)]
        for i, series in enumerate(corrections, start=1)
    ]


def _times(a: list, b: list, order: int) -> list:
    """The product of two series given by their orders 0..order, truncated after ``order``."""
    out = [PolySymbol.zero(a[0].dim, 1) for _ in range(order + 1)]
    for i, u in enumerate(a):
        if u.is_zero():
            continue
        for j in range(order + 1 - i):
            if not b[j].is_zero():
                out[i + j] = out[i + j] + u * b[j]
    return out


def _substituted(entry: PolySymbol, maps: list, order: int) -> list:
    """The series of the x-only ``entry`` at x = ``maps``, orders 0..order."""
    zero = PolySymbol.zero(entry.dim, 1)
    total = [zero] * (order + 1)
    for mono, coeff in entry.terms.items():
        term = [PolySymbol.constant(coeff, entry.dim, 1)] + [zero] * order
        for var, exp in mono:
            for _ in range(exp):
                term = _times(term, maps[var[1] - 1], order)
        total = [u + v for u, v in zip(total, term)]
    return total


def _gradients(series: list) -> list:
    """Per order, the (x-gradient, p-gradient) of a series in shape (dim, 1)."""
    dim = series[0].dim
    return [
        (
            [s.diff(x_key(k)) for k in range(1, dim + 1)],
            [s.diff(p_key(1, k)) for k in range(1, dim + 1)],
        )
        for s in series
    ]


def _bracket_order(f: list, g: list, n: int) -> PolySymbol:
    """Order n of {f, g}, from the gradients of both series."""
    total = PolySymbol.zero(f[0][0][0].dim, 1)
    for a in range(n + 1):
        (fx, fp), (gx, gp) = f[a], g[n - a]
        for k in range(len(fx)):
            total = total + fx[k] * gp[k] - fp[k] * gx[k]
    return total


def axiom_failures(deformation, order: int) -> list:
    """(law, i, j, n) for every identity of the module docstring that fails at
    an order n <= ``order``; the structure conditions must hold."""
    alpha = extract_poisson(deformation)
    dim = deformation.dim
    maps = structure_maps(deformation, order)
    source = _maps(maps.source, dim, order)
    target = _maps(maps.target, dim, order)
    grad_s = [_gradients(s) for s in source]
    grad_t = [_gradients(t) for t in target]
    # (law, gradients of both sides, expected series of each order n - 1)
    checks = []
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            if i < j:
                entry = alpha.entry(i, j)
                checks.append((("s-s", i, j), grad_s[i - 1], grad_s[j - 1],
                               _substituted(entry, source, order - 1)))
                checks.append((("t-t", i, j), grad_t[i - 1], grad_t[j - 1],
                               _substituted(-entry, target, order - 1)))
            checks.append((("s-t", i, j), grad_s[i - 1], grad_t[j - 1],
                           [PolySymbol.zero(dim, 1)] * order))
    return [
        (*law, n)
        for law, f, g, expected in checks
        for n in range(1, order + 1)
        if _bracket_order(f, g, n) != expected[n - 1]
    ]


def first_failing_order(deformation, order: int):
    """The smallest order at which an identity fails, or None."""
    return min((n for *_, n in axiom_failures(deformation, order)), default=None)
