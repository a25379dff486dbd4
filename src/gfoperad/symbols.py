"""Exact sparse polynomials in block covector variables p[b][i] and base variables x[i].

A variable is a tuple ``("p", block, comp)`` or ``("x", comp)`` with 1-based
indices; a monomial is a tuple of ``(variable, exponent)`` pairs sorted by
variable.  The natural tuple order on variables (p before x, blocks ascending)
combined with degree-major monomial sorting gives a fixed canonical term order,
so serialized output is byte-stable.

Term invariant: every ``PolySymbol.terms`` dict maps a monomial with strictly
increasing variables, each in the symbol's shape and with exponent >= 1, to a
nonzero :class:`fractions.Fraction`; no two symbols share one dict.  The public
constructor ``PolySymbol(dim, blocks, terms)`` establishes it for outside input
(it copies, sorts, validates and converts).  Everything built inside the kernel
goes through :meth:`PolySymbol._trusted`, which wraps an already-clean dict
without copying or checking, and every sum is built by :func:`_accumulate`, the
one accumulation path: it adds terms into a dict in place and drops zeros.
Every change of variables (``substitute``, ``remap_variables``, ``map_blocks``)
goes through one variable map, :meth:`PolySymbol._map`; the library itself
changes variables only by ``map_blocks``.

:class:`FormalSeries` collects an order-indexed family of symbols.  A graded
series of arity n keeps its order-i term homogeneous of p-degree i+1, which is
exactly scaling behavior F(mu*p, x) = mu^(i+1) F(p, x).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import comb


class ShapeError(ValueError):
    """Operands declare incompatible (dim, blocks) shapes."""


def p_key(block: int, comp: int) -> tuple:
    return ("p", block, comp)


def x_key(comp: int) -> tuple:
    return ("x", comp)


def _validate_var(var, dim, blocks):
    if var[0] == "p":
        _, b, i = var
        if not (1 <= b <= blocks and 1 <= i <= dim):
            raise ShapeError(f"variable {var} outside shape dim={dim}, blocks={blocks}")
    elif var[0] == "x":
        _, i = var
        if not (1 <= i <= dim):
            raise ShapeError(f"variable {var} outside shape dim={dim}, blocks={blocks}")
    else:
        raise ValueError(f"unknown variable kind {var!r}")


def _mul_monomials(m1, m2):
    """Merge two sorted (variable, exponent) tuples."""
    if not m1 or not m2 or m1[-1][0] < m2[0][0]:
        return m1 + m2
    out = []
    i = j = 0
    while i < len(m1) and j < len(m2):
        v1, e1 = m1[i]
        v2, e2 = m2[j]
        if v1 == v2:
            out.append((v1, e1 + e2))
            i += 1
            j += 1
        elif v1 < v2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def _accumulate(acc, terms, factor=None, mono=()):
    """Add ``factor * mono * m`` into ``acc`` for each ``(m, c)`` of ``terms``.

    ``acc`` is a clean terms dict owned by the caller and updated in place;
    entries that cancel are deleted, so ``acc`` stays clean.  ``terms`` is an
    iterable of (monomial, Fraction) pairs with nonzero coefficients,
    ``factor`` a nonzero rational (None means 1) and ``mono`` a monomial
    multiplied into every term.
    """
    get = acc.get
    for m, c in terms:
        if mono:
            m = _mul_monomials(mono, m)
        if factor is not None:
            c = c * factor
        old = get(m)
        if old is None:
            acc[m] = c
        else:
            c = old + c
            if c:
                acc[m] = c
            else:
                del acc[m]


def _power(mono, exp):
    return mono if exp == 1 else tuple([(var, e * exp) for var, e in mono])


def _expand_power(row, exp):
    """(sum(c * m for m, c in row)) ** exp as (monomial, coefficient) pairs.

    The multinomial theorem, one row term at a time: each coefficient is a
    multinomial times powers of the row's nonzero coefficients, and products
    merge through :func:`_mul_monomials`.  A row of distinct single variables
    gives each monomial once; a general row may repeat one, which the caller's
    :func:`_accumulate` adds up.  An empty row gives no terms.
    """
    if not row:
        return []
    (m, c), rest = row[0], row[1:]
    out = [(_power(m, exp), c**exp)]
    if rest:
        for k in range(exp - 1, 0, -1):
            head = _power(m, k)
            scale = comb(exp, k) * c**k
            out.extend(
                (_mul_monomials(head, piece), scale * coeff)
                for piece, coeff in _expand_power(rest, exp - k)
            )
        out.extend(_expand_power(rest, exp))
    return out


#: memo value of a variable that a variable map leaves in place
_KEPT = object()


def monomial_degree(monomial) -> int:
    return sum(e for _, e in monomial)


def monomial_p_degree(monomial) -> int:
    return sum(e for v, e in monomial if v[0] == "p")


def monomial_sort_key(monomial):
    return (monomial_degree(monomial), monomial)


class PolySymbol:
    """Immutable sparse polynomial over exact rationals.

    ``PolySymbol(dim, blocks, terms)`` is the validating constructor for
    outside input: it accepts any monomial order and int or Fraction
    coefficients, adds terms that sort to one monomial, drops zeros, and raises
    :class:`ShapeError` or ``ValueError`` on a variable outside the shape, a
    repeated variable or an exponent below 1.  :meth:`_trusted` is the kernel's
    path for dicts that already hold the term invariant (module docstring).
    """

    __slots__ = ("dim", "blocks", "terms")

    def __init__(self, dim: int, blocks: int, terms=None):
        if dim < 1:
            raise ShapeError(f"dim must be positive, got {dim}")
        if blocks < 0:
            raise ShapeError(f"blocks must be non-negative, got {blocks}")
        clean = {}
        if terms:
            checked = []
            for mono, coeff in terms.items():
                mono = tuple(sorted(mono))
                for k, (var, exp) in enumerate(mono):
                    if exp < 1:
                        raise ValueError(f"exponent must be >= 1 in {mono}")
                    if k and mono[k - 1][0] == var:
                        raise ValueError(f"repeated variable {var} in {mono}")
                    _validate_var(var, dim, blocks)
                coeff = Fraction(coeff)
                if coeff:
                    checked.append((mono, coeff))
            _accumulate(clean, checked)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def _trusted(dim: int, blocks: int, terms: dict) -> "PolySymbol":
        """Wrap ``terms``, which must hold the term invariant and be owned by no one else."""
        sym = object.__new__(PolySymbol)
        object.__setattr__(sym, "dim", dim)
        object.__setattr__(sym, "blocks", blocks)
        object.__setattr__(sym, "terms", terms)
        return sym

    def __setattr__(self, name, value):
        raise AttributeError("PolySymbol is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(dim: int, blocks: int) -> "PolySymbol":
        return PolySymbol(dim, blocks, {})

    @staticmethod
    def constant(value, dim: int, blocks: int) -> "PolySymbol":
        return PolySymbol(dim, blocks, {(): Fraction(value)})

    @staticmethod
    def variable(var, dim: int, blocks: int) -> "PolySymbol":
        return PolySymbol(dim, blocks, {((var, 1),): Fraction(1)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def same_shape(self, other: "PolySymbol") -> bool:
        return self.dim == other.dim and self.blocks == other.blocks

    def ordered_terms(self):
        """Terms in the canonical (degree-major, variable-major) order."""
        return sorted(self.terms.items(), key=lambda kv: monomial_sort_key(kv[0]))

    def max_x_degree(self) -> int:
        degs = [sum(e for v, e in m if v[0] == "x") for m in self.terms]
        return max(degs, default=0)

    def __eq__(self, other):
        return (
            isinstance(other, PolySymbol)
            and self.same_shape(other)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.dim, self.blocks, tuple(self.ordered_terms())))

    # -- ring operations ---------------------------------------------------

    def _require_shape(self, other):
        if not self.same_shape(other):
            raise ShapeError(
                f"shape mismatch: ({self.dim},{self.blocks}) vs ({other.dim},{other.blocks})"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PolySymbol.constant(other, self.dim, self.blocks)
        self._require_shape(other)
        terms = dict(self.terms)
        _accumulate(terms, other.terms.items())
        return PolySymbol._trusted(self.dim, self.blocks, terms)

    def __neg__(self):
        return PolySymbol._trusted(
            self.dim, self.blocks, {m: -c for m, c in self.terms.items()}
        )

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PolySymbol.constant(other, self.dim, self.blocks)
        return self + (-other)

    def scale(self, factor) -> "PolySymbol":
        factor = Fraction(factor)
        if factor == 0:
            return PolySymbol.zero(self.dim, self.blocks)
        return PolySymbol._trusted(
            self.dim, self.blocks, {m: c * factor for m, c in self.terms.items()}
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._require_shape(other)
        terms = {}
        for m1, c1 in self.terms.items():
            _accumulate(terms, other.terms.items(), c1, m1)
        return PolySymbol._trusted(self.dim, self.blocks, terms)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    # -- calculus ----------------------------------------------------------

    def diff(self, var) -> "PolySymbol":
        _validate_var(var, self.dim, self.blocks)
        terms = {}
        for mono, coeff in self.terms.items():
            for idx, (v, e) in enumerate(mono):
                if v == var:
                    if e == 1:
                        new_mono = mono[:idx] + mono[idx + 1 :]
                    else:
                        new_mono = mono[:idx] + ((v, e - 1),) + mono[idx + 1 :]
                    # lowering the exponent of ``var`` is injective, so no
                    # two terms meet and no coefficient cancels
                    terms[new_mono] = coeff * e
                    break
        return PolySymbol._trusted(self.dim, self.blocks, terms)

    def grad_p(self, block: int):
        """Partial derivatives with respect to p[block][1..dim]."""
        if not (1 <= block <= self.blocks):
            raise ShapeError(f"p-block {block} out of range 1..{self.blocks}")
        return tuple(self.diff(p_key(block, i)) for i in range(1, self.dim + 1))

    def grad_x(self):
        return tuple(self.diff(x_key(i)) for i in range(1, self.dim + 1))

    # -- substitution and reshaping ----------------------------------------

    def _map(self, rows, dim: int, blocks: int) -> "PolySymbol":
        """The one variable map: replace each variable v by the sum of ``rows(v)``.

        ``rows(v)`` is a list of (monomial, coefficient) pairs in shape
        (dim, blocks), or None to keep v, which must then lie in that shape
        (checked once per call).  A one-term image folds into the monomial
        and the coefficient; a longer one expands by :func:`_expand_power`.
        Each (variable, exponent) is resolved once per call.
        """
        memo = {}
        terms = {}
        for mono, coeff in self.terms.items():
            kept = []
            folded = None
            scale = 1
            products = None
            for pair in mono:
                pieces = memo.get(pair)
                if pieces is None:
                    var, exp = pair
                    row = rows(var)
                    if row is None:
                        _validate_var(var, dim, blocks)
                        pieces = _KEPT
                    else:
                        pieces = _expand_power(row, exp)
                    memo[pair] = pieces
                if pieces is _KEPT:
                    kept.append(pair)
                elif len(pieces) == 1:
                    m, c = pieces[0]
                    if c != 1:
                        scale = scale * c
                    folded = m if folded is None else _mul_monomials(folded, m)
                elif products is None:
                    products = pieces  # a zero image leaves no pieces, so no terms
                else:
                    products = [
                        (_mul_monomials(m, piece), k * c)
                        for m, k in products
                        for piece, c in pieces
                    ]
            mono = tuple(kept)
            if folded is not None:
                mono = _mul_monomials(mono, folded)
            if scale != 1:
                coeff = coeff * scale
            if products is None:
                _accumulate(terms, ((mono, coeff),))
            else:
                _accumulate(terms, products, coeff, mono)
        return PolySymbol._trusted(dim, blocks, terms)

    def substitute(self, mapping, dim: int, blocks: int) -> "PolySymbol":
        """Simultaneously replace variables by polynomials or constants.

        The result has shape (dim, blocks); every image symbol must have that
        shape and every unmapped variable must lie in it.  No library code
        calls it; ``perfbench/tracer.py`` patches it by name (ROADMAP item 3).
        """
        rows = {}
        for var, image in mapping.items():
            if isinstance(image, PolySymbol):
                if image.dim != dim or image.blocks != blocks:
                    raise ShapeError(
                        f"shape mismatch: ({dim},{blocks}) vs ({image.dim},{image.blocks})"
                    )
                rows[var] = list(image.terms.items())
            else:
                image = Fraction(image)
                rows[var] = [((), image)] if image else []
        return self._map(rows.get, dim, blocks)

    def remap_variables(self, mapping, dim: int, blocks: int) -> "PolySymbol":
        """Rename variables via ``mapping`` (var -> var); unmapped vars kept.

        No library code calls it; ``perfbench/tracer.py`` patches it by name.
        """
        for new in mapping.values():
            _validate_var(new, dim, blocks)
        rows = {var: [(((new, 1),), 1)] for var, new in mapping.items()}
        return self._map(rows.get, dim, blocks)

    def map_blocks(self, rows, blocks: int) -> "PolySymbol":
        """Replace p[b][i] by sum(c * p[t][i] for t, c in rows[b]), for every i.

        An empty row sets block b to zero, a block absent from ``rows`` keeps
        its variables, and the result has ``blocks`` p-blocks.  Every face map
        of the coboundary and every structure condition is such a map.  A
        source block outside 1..self.blocks, a target block outside 1..blocks
        or a kept variable outside the result shape raises :class:`ShapeError`.

        Each mapped power p[b][i]^e expands in closed form by the multinomial
        theorem (:func:`_expand_power`); its coefficients are integers unless a
        row coefficient is a non-integer rational.
        """
        targets = {}
        for b, row in rows.items():
            if not 1 <= b <= self.blocks:
                raise ShapeError(f"source p-block {b} out of range 1..{self.blocks}")
            merged = {}
            for t, c in row:
                if not 1 <= t <= blocks:
                    raise ShapeError(f"target p-block {t} out of range 1..{blocks}")
                merged[t] = merged.get(t, 0) + (c if type(c) is int else Fraction(c))
            targets[b] = [(t, c) for t, c in sorted(merged.items()) if c]

        def component_row(var):
            row = targets.get(var[1]) if var[0] == "p" else None
            if row is None:
                return None
            return [(((p_key(t, var[2]), 1),), c) for t, c in row]

        return self._map(component_row, self.dim, blocks)

    # -- evaluation ----------------------------------------------------------

    def eval(self, p_values, x_values):
        """Evaluate at a point.

        ``p_values``: one length-``dim`` sequence per block; ``x_values``: a
        length-``dim`` sequence.  Exact when fed ints/Fractions, floating when
        fed floats.
        """
        if len(p_values) != self.blocks:
            raise ShapeError(f"expected {self.blocks} p-blocks, got {len(p_values)}")
        for block in p_values:
            if len(block) != self.dim:
                raise ShapeError("p-block length mismatch")
        if len(x_values) != self.dim:
            raise ShapeError("x length mismatch")
        total = 0
        for mono, coeff in self.terms.items():
            value = coeff
            for var, exp in mono:
                if var[0] == "p":
                    base = p_values[var[1] - 1][var[2] - 1]
                else:
                    base = x_values[var[1] - 1]
                value = value * base**exp
            total = total + value
        return total

    # -- display -------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.ordered_terms():
            factors = []
            for var, exp in mono:
                name = f"p[{var[1]}][{var[2]}]" if var[0] == "p" else f"x[{var[1]}]"
                factors.append(name if exp == 1 else f"{name}^{exp}")
            body = "*".join(factors)
            if body:
                parts.append(f"{coeff}*{body}" if coeff != 1 else body)
            else:
                parts.append(str(coeff))
        return " + ".join(parts)

    def __repr__(self):
        return f"PolySymbol(dim={self.dim}, blocks={self.blocks}, {self})"


# -- directional contraction ---------------------------------------------------


def _contract_variables(f: PolySymbol, directions, against):
    """The variables ``against`` selects; each direction needs one component per variable."""
    if against == "x":
        against = [x_key(i) for i in range(1, f.dim + 1)]
    elif not isinstance(against, list):
        raise ValueError(f"against must be 'x' or a list of variables, got {against!r}")
    for var in against:
        _validate_var(var, f.dim, f.blocks)
    for d in directions:
        if len(d) != len(against):
            raise ShapeError(f"direction length {len(d)} != variable count {len(against)}")
    return against


def _contract(f: PolySymbol, variables, directions) -> PolySymbol:
    """sum_k directions[0][k] * _contract(d f / d variables[k], directions[1:]).

    One direction at a time, as the B-series recursion contracts one child at
    a time; only ``f`` is differentiated, the directions are multiplied in.
    """
    if not directions:
        return f
    total = {}
    for var, component in zip(variables, directions[0]):
        f._require_shape(component)
        if component.is_zero():
            continue
        g = f.diff(var)
        if g.is_zero():
            continue
        inner = _contract(g, variables, directions[1:])
        for m, c in component.terms.items():
            _accumulate(total, inner.terms.items(), c, m)
    return PolySymbol._trusted(f.dim, f.blocks, total)


def directional_contract(f: PolySymbol, directions, against) -> PolySymbol:
    """Contract the m-th derivative of ``f`` against m direction vectors.

    ``against`` is ``"x"`` (the dim x-variables) or a list of variables, and
    ``directions`` a list of m sequences of symbols, one per variable.  The
    directions are multiplied in, never differentiated, so they may depend on
    the contracted variables.  The result is symmetric and multilinear in the
    directions.
    """
    return _contract(f, _contract_variables(f, directions, against), directions)


def contracted_gradient(f: PolySymbol, directions, against):
    """Contract the (m+1)-th derivative against m directions, one index free.

    Returns the vector of symbols corresponding to the free index, one per
    variable that ``against`` selects.
    """
    variables = _contract_variables(f, directions, against)
    return tuple(_contract(f.diff(v), variables, directions) for v in variables)


# -- graded series -------------------------------------------------------------


@dataclass
class GradingReport:
    ok: bool
    violations: list  # (order, monomial as str, p-degree)

    def __bool__(self):
        return self.ok


class FormalSeries:
    """Order-indexed family of symbols; orders start at 1.

    With ``graded=True`` the intent is that the order-i term is homogeneous of
    p-degree i+1 (checked by :func:`check_grading`, not at construction).
    """

    __slots__ = ("dim", "blocks", "orders", "graded")

    def __init__(self, dim: int, blocks: int, orders=None, graded: bool = True):
        if dim < 1:
            raise ShapeError(f"dim must be positive, got {dim}")
        if blocks < 0:
            raise ShapeError(f"blocks must be non-negative, got {blocks}")
        clean = {}
        if orders:
            for i, sym in orders.items():
                if not isinstance(i, int) or i < 1:
                    raise ValueError(f"order index must be a positive integer, got {i!r}")
                if sym.dim != dim or sym.blocks != blocks:
                    raise ShapeError(f"order {i} symbol has wrong shape")
                if not sym.is_zero():
                    clean[i] = sym
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "orders", clean)
        object.__setattr__(self, "graded", graded)

    def __setattr__(self, name, value):
        raise AttributeError("FormalSeries is immutable")

    @staticmethod
    def zero(dim: int, blocks: int, graded: bool = True) -> "FormalSeries":
        return FormalSeries(dim, blocks, {}, graded)

    def order(self, i: int) -> PolySymbol:
        return self.orders.get(i, PolySymbol.zero(self.dim, self.blocks))

    def order_indices(self):
        return sorted(self.orders)

    def max_order(self) -> int:
        return max(self.orders, default=0)

    def is_zero(self) -> bool:
        return not self.orders

    def with_order(self, i: int, sym: PolySymbol) -> "FormalSeries":
        orders = dict(self.orders)
        orders[i] = sym
        return FormalSeries(self.dim, self.blocks, orders, self.graded)

    def truncate(self, max_order: int) -> "FormalSeries":
        return FormalSeries(
            self.dim,
            self.blocks,
            {i: s for i, s in self.orders.items() if i <= max_order},
            self.graded,
        )

    def __add__(self, other: "FormalSeries") -> "FormalSeries":
        if self.dim != other.dim or self.blocks != other.blocks:
            raise ShapeError("series shape mismatch")
        orders = dict(self.orders)
        for i, sym in other.orders.items():
            orders[i] = orders[i] + sym if i in orders else sym
        return FormalSeries(self.dim, self.blocks, orders, self.graded and other.graded)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor) -> "FormalSeries":
        return FormalSeries(
            self.dim,
            self.blocks,
            {i: s.scale(factor) for i, s in self.orders.items()},
            self.graded,
        )

    def __eq__(self, other):
        return (
            isinstance(other, FormalSeries)
            and self.dim == other.dim
            and self.blocks == other.blocks
            and self.orders == other.orders
        )

    def __repr__(self):
        body = ", ".join(f"eps^{i}: {s}" for i, s in sorted(self.orders.items()))
        return f"FormalSeries(dim={self.dim}, arity={self.blocks}, {{{body}}})"


def check_grading(series: FormalSeries) -> GradingReport:
    """Verify every order-i monomial has total p-degree exactly i+1."""
    violations = []
    for i, sym in sorted(series.orders.items()):
        for mono in sym.terms:
            pdeg = monomial_p_degree(mono)
            if pdeg != i + 1:
                mono_sym = PolySymbol(series.dim, series.blocks, {mono: 1})
                violations.append((i, str(mono_sym), pdeg))
    return GradingReport(not violations, violations)


def series_eval(series: FormalSeries, p_values, x_values, eps, truncation=None):
    """Sum eps^i * order_i(point) over stored orders i <= truncation."""
    total = 0
    for i, sym in series.orders.items():
        if truncation is not None and i > truncation:
            continue
        total = total + eps**i * sym.eval(p_values, x_values)
    return total


def random_graded_series(rng, arity, dim, orders, max_x_degree=2, terms_per_order=3):
    """Random graded series for property tests; deterministic given ``rng``.

    Order i needs p-degree i+1, so arity 0 gives the zero series.
    """
    if arity == 0:
        return FormalSeries.zero(dim, 0)
    p_vars = [p_key(b, i) for b in range(1, arity + 1) for i in range(1, dim + 1)]
    out = {}
    for order in orders:
        terms = {}
        for _ in range(terms_per_order):
            counts = {}
            for _ in range(order + 1):
                v = rng.choice(p_vars)
                counts[v] = counts.get(v, 0) + 1
            for _ in range(rng.randint(0, max_x_degree)):
                v = x_key(rng.randint(1, dim))
                counts[v] = counts.get(v, 0) + 1
            mono = tuple(sorted(counts.items()))
            coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            if coeff == 0:
                coeff = Fraction(1)
            terms[mono] = terms.get(mono, 0) + coeff
        sym = PolySymbol(dim, arity, terms)
        if not sym.is_zero():
            out[order] = sym
    return FormalSeries(dim, arity, out, graded=True)


# -- JSON observation format ---------------------------------------------------


def _json_check(value, kind, what):
    """``value`` if it has JSON type ``kind`` (int excludes bool), else ValueError."""
    if type(value) is not kind:
        raise ValueError(f"{what} must be a JSON {kind.__name__}, got {type(value).__name__}")
    return value


def _json_ints(row, length, what):
    _json_check(row, list, what)
    if len(row) != length:
        raise ValueError(f"{what} must have {length} entries, got {len(row)}")
    return [_json_check(v, int, what) for v in row]


#: the coefficient strings the writer emits: ASCII digits, an optional sign and denominator
_FRACTION_STRING = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _json_coeff(value) -> Fraction:
    """An int or a fraction string such as "-3/4"; a JSON float is never exact.

    Only the written grammar is read: ``Fraction`` alone would also take
    decimals, underscores and exponents, and ``"1e999999999"`` would make it
    build a billion-digit integer.
    """
    if type(value) is int:
        return Fraction(value)
    if type(value) is not str:
        raise ValueError(
            f"coefficient must be an integer or a fraction string, got {type(value).__name__}"
        )
    if not _FRACTION_STRING.fullmatch(value):
        raise ValueError(f"coefficient {value[:40]!r} is not a fraction string such as \"-3/4\"")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"coefficient {value!r} has a zero denominator") from None


def poly_from_obj(terms, dim, blocks) -> PolySymbol:
    acc = {}
    for term in _json_check(terms, list, "terms"):
        _json_check(term, dict, "term")
        mono = {}
        for row in _json_check(term.get("p", []), list, "p"):
            block, comp, exp = _json_ints(row, 3, "p entry")
            var = p_key(block, comp)
            mono[var] = mono.get(var, 0) + exp
        for row in _json_check(term.get("x", []), list, "x"):
            comp, exp = _json_ints(row, 2, "x entry")
            var = x_key(comp)
            mono[var] = mono.get(var, 0) + exp
        key = tuple(sorted(mono.items()))
        acc[key] = acc.get(key, 0) + _json_coeff(term["coeff"])
    return PolySymbol(dim, blocks, acc)


def series_from_obj(obj) -> FormalSeries:
    _json_check(obj, dict, "series")
    dim = _json_check(obj["dim"], int, "dim")
    arity = _json_check(obj["arity"], int, "arity")
    orders = {}
    for entry in _json_check(obj["orders"], list, "orders"):
        _json_check(entry, dict, "order entry")
        order = _json_check(entry["order"], int, "order")
        sym = poly_from_obj(entry["terms"], dim, arity)
        # entries that share an order add, as repeated monomials do
        orders[order] = orders[order] + sym if order in orders else sym
    graded = _json_check(obj.get("graded", True), bool, "graded")
    return FormalSeries(dim, arity, orders, graded=graded)


def _indent(depth: int) -> str:
    return "\n" + "  " * depth


def _write_terms(out: list, sym: PolySymbol, depth: int) -> None:
    """Append the term list of ``sym`` to ``out`` as a JSON array at nesting ``depth``.

    Each term is ``{"coeff": <fraction string>, "p": [[block, comp, exp], ...],
    "x": [[comp, exp], ...]}``.  A monomial holds its p variables before its x
    variables, each kind in sorted order, so its rows come out sorted as they
    are walked.  Each distinct row is rendered once per call.
    """
    if not sym.terms:
        out.append("[]")
        return
    item, key, row, cell = (_indent(depth + k) for k in (1, 2, 3, 4))
    rows = {}
    open_term = "[" + item + "{" + key + '"coeff": '
    next_term = "," + item + "{" + key + '"coeff": '
    p_key_text = "," + key + '"p": '
    x_key_text = "," + key + '"x": '
    close_rows = key + "]"
    for mono, coeff in sym.ordered_terms():
        out.append(open_term)
        open_term = next_term
        out.append(_quote(str(coeff)))
        p_rows = []
        x_rows = []
        for var_exp in mono:
            text = rows.get(var_exp)
            if text is None:
                var, exp = var_exp
                cells = ",".join(cell + str(n) for n in (*var[1:], exp))
                text = rows[var_exp] = row + "[" + cells + row + "]"
            (p_rows if var_exp[0][0] == "p" else x_rows).append(text)
        for key_text, kind_rows in ((p_key_text, p_rows), (x_key_text, x_rows)):
            out.append(key_text)
            if kind_rows:
                out.append("[")
                out.append(",".join(kind_rows))
                out.append(close_rows)
            else:
                out.append("[]")
        out.append(item + "}")
    out.append(_indent(depth) + "]")


def _write_json(out: list, value, depth: int) -> None:
    """Append ``value`` to ``out`` as ``json.dumps(value, indent=2)`` lays it out at ``depth``.

    ``value`` nests dicts with str keys, lists, tuples, ints and bools; a
    :class:`FormalSeries` in it stands for its series object and a
    :class:`PolySymbol` for its term list.
    """
    kind = type(value)
    if kind is PolySymbol:
        _write_terms(out, value, depth)
    elif kind is FormalSeries:
        orders = [{"order": i, "terms": value.orders[i]} for i in sorted(value.orders)]
        obj = {"arity": value.blocks, "dim": value.dim, "graded": value.graded, "orders": orders}
        _write_json(out, obj, depth)
    elif kind is bool:
        out.append("true" if value else "false")
    elif kind is int:
        out.append(str(value))
    elif kind is dict or kind is list or kind is tuple:
        if kind is dict:
            brackets, entries = "{}", [(_quote(k) + ": ", v) for k, v in value.items()]
        else:
            brackets, entries = "[]", [("", v) for v in value]
        if not entries:
            out.append(brackets)
            return
        inner = _indent(depth + 1)
        sep = brackets[0] + inner
        for prefix, entry in entries:
            out.append(sep + prefix)
            sep = "," + inner
            _write_json(out, entry, depth + 1)
        out.append(_indent(depth) + brackets[1])
    else:
        raise TypeError(f"{kind.__name__} is not JSON serializable")


def json_dumps(obj) -> str:
    """The text of ``json.dumps(obj, indent=2)``, byte for byte, written in one pass.

    ``obj`` may also hold :class:`FormalSeries` and :class:`PolySymbol` values
    (see :func:`_write_json`); this is the one writer of every JSON document
    the CLI emits.
    """
    out = []
    _write_json(out, obj, 0)
    return "".join(out)


def series_dumps(series: FormalSeries) -> str:
    return json_dumps(series)


def series_loads(text: str) -> FormalSeries:
    return series_from_obj(json.loads(text))
