"""Exact sparse polynomials in block covector variables p[b][i] and base variables x[i].

A variable is a tuple ``("p", block, comp)`` or ``("x", comp)`` with 1-based
indices; a monomial is a tuple of ``(variable, exponent)`` pairs sorted by
variable.  The natural tuple order on variables (p before x, blocks ascending)
combined with degree-major monomial sorting gives a fixed canonical term order,
so serialized output is byte-stable.

Term invariant: a ``PolySymbol`` holds integer numerators over one positive
integer denominator, as FLINT's ``fmpq_poly`` does.  Its numerator dict maps a
monomial with strictly increasing variables, each in the symbol's shape and
with exponent >= 1, to a nonzero int; ``gcd(denominator, *numerators) == 1``,
so a zero is the empty dict over 1 and equal symbols have equal dicts and
denominators.  No two symbols share one dict.  ``PolySymbol.terms`` is a
read-only ``{monomial: Fraction}`` view built on each access, for readers
outside the kernel; the kernel itself never builds it.  Readers that work on
integers take :attr:`PolySymbol.numerators`, a read-only view of the numerator
dict (not a copy), and :attr:`PolySymbol.denominator` instead.

This module owns that representation.  Other modules build and sum symbols only
through the public surface: the validating constructor ``PolySymbol(dim,
blocks, terms)`` (it copies, sorts, validates and converts),
:meth:`PolySymbol.from_numerators` for numerators already in canonical form
(it checks nothing and takes the dict over), the ring operations,
``map_blocks``, and :meth:`PolySymbol.linear_combination`, which sums
(factor, symbol) pairs in one pass.  Inside the kernel too, every symbol is
wrapped by ``from_numerators``, which takes an already-clean numerator dict
and its denominator without copying and divides out their common factor;
``_num`` and ``_den`` are private to this module, and
``tests/test_unused_imports.py`` fails on a library module that reaches them.
Every sparse row of int numerators over one positive denominator, a symbol's
or the solver's, is summed by three row helpers: :func:`accumulate` adds int
terms into a dict in place and drops zeros, :func:`add_scaled` first brings
the row to the lcm of the two denominators, rescaling it only when the new
denominator does not divide its own, and :func:`content_out` divides out the
common factor.  :func:`split_monomial` splits a monomial at its first
x-variable.  The one change of variables is
``map_blocks``, which replaces p-blocks by linear combinations of p-blocks;
``substitute`` and its renaming ``remap_variables`` are folds over the ring
operations that no library code calls.

One :class:`PackedLayout` (Monagan and Pearce's packed exponent vectors)
writes each monomial of a shape as one int, a bit field per variable, with an
encoder from symbols, a decoder back to them, and a derivative that is a shift,
a mask and a subtraction; :func:`packed_layout` builds each layout once per
process.  Packed polynomials are (``{int: int}``, denominator) pairs summed by
the same row helpers; :class:`PackedPolynomial` carries one with its layout,
undecoded.  Two paths run on it.  ``compose`` expands its trees on it, with the
contractions :func:`directional_contract` and :func:`contracted_gradient`,
sums each weight's trees and applies its base point,
:func:`packed_base_point`, on the packed keys, and decodes once per weight.
The multinomial path of ``map_blocks`` serves the maps that merge blocks.

:class:`FormalSeries` collects an order-indexed family of symbols.  A graded
series of arity n keeps its order-i term homogeneous of p-degree i+1, which is
exactly scaling behavior F(mu*p, x) = mu^(i+1) F(p, x).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote
from math import comb, gcd, lcm
from operator import itemgetter
from types import MappingProxyType


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


def _exact(value, what: str):
    """``(numerator, denominator)`` of an int (not a bool) or a Fraction, else ValueError."""
    if type(value) is int:
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise ValueError(f"{what} must be an int or a Fraction, got {value!r}")


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


def split_monomial(mono):
    """(p-part, x-part) of a monomial; x-variables sort after every p-variable."""
    for index, (var, _) in enumerate(mono):
        if var[0] == "x":
            return mono[:index], mono[index:]
    return mono, ()


def accumulate(acc, items, factor=None, mono=()):
    """Add ``factor * mono * m`` into ``acc`` for each ``(m, c)`` of ``items``.

    ``acc`` is a sparse row owned by the caller, key -> nonzero int, updated
    in place; entries that cancel are deleted, so ``acc`` stays clean.
    ``items`` is an iterable of (key, int) pairs with nonzero numerators,
    ``factor`` a nonzero int (None means 1) and ``mono`` a monomial multiplied
    into every key (the keys are then monomials too).  All of them are over
    the row's denominator.
    """
    get = acc.get
    for m, c in items:
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


def add_scaled(acc, den, items, num, other):
    """Add ``num / other`` times ``items`` into ``acc``, int numerators over ``den``.

    ``items`` are int numerators over the positive ``other`` and ``num`` a
    nonzero int.  ``acc`` is brought in place to lcm(den, other) only when
    ``other`` does not divide ``den``; returns ``acc``'s denominator.
    """
    if den % other:
        common = lcm(den, other)
        k = common // den
        for key in acc:
            acc[key] *= k
        den = common
    k = num * (den // other)
    accumulate(acc, items, None if k == 1 else k)
    return den


def content_out(acc, den):
    """Divide gcd(den, *acc.values()) out of ``acc`` in place; return the reduced denominator."""
    g = gcd(den, *acc.values())
    if g != 1:
        den //= g
        for key in acc:
            acc[key] //= g
    return den


def _store(sym, dim, blocks, num, den):
    """Fill the slots of ``sym``, first dividing gcd(den, *num.values()) out of ``num`` in place."""
    if den != 1:
        den = content_out(num, den)
    object.__setattr__(sym, "dim", dim)
    object.__setattr__(sym, "blocks", blocks)
    object.__setattr__(sym, "_num", num)
    object.__setattr__(sym, "_den", den)
    return sym


def _expand_power(row, exp):
    """(sum(c * m for m, c in row)) ** exp as (monomial, coefficient) pairs, on packed monomials.

    The monomials are packed exponent ints (``map_blocks``), so a power is one
    int product and a product of monomials one int sum.  The multinomial
    theorem, one row term at a time: each coefficient is a multinomial times
    powers of the row's nonzero coefficients.  ``map_blocks`` passes rows of
    distinct single variables, so each monomial comes out once.  An empty row
    gives no terms.
    """
    if not row:
        return []
    (m, c), rest = row[0], row[1:]
    out = [(m * exp, c**exp)]
    if rest:
        for k in range(exp - 1, 0, -1):
            head = m * k
            scale = comb(exp, k) * c**k
            out.extend(
                (head + piece, scale * coeff) for piece, coeff in _expand_power(rest, exp - k)
            )
        out.extend(_expand_power(rest, exp))
    return out


#: memo value of a variable that a relabelling ``map_blocks`` sends to zero
_DROPPED = object()

#: the exponent of a (variable, exponent) pair
_exponent = itemgetter(1)

#: the monomial of a (monomial, numerator) term
_monomial = itemgetter(0)


def _canonical(num):
    """The (monomial, numerator) pairs of ``num`` in the canonical (degree-major, variable-major) order.

    Each monomial's total degree is computed once, to bucket its term; each
    bucket then sorts by monomial alone (the monomials are distinct keys), so
    no comparison walks a monomial twice, once for ``==`` and once for ``<``,
    as comparing whole pairs would.
    """
    by_degree = {}
    for term in num.items():
        by_degree.setdefault(sum(map(_exponent, term[0])), []).append(term)
    ordered = []
    for degree in sorted(by_degree):
        ordered += sorted(by_degree[degree], key=_monomial)
    return ordered


def monomial_p_degree(monomial) -> int:
    """The total degree less the exponents of the x-variables, which sort last."""
    degree = sum(map(_exponent, monomial))
    for var, exp in reversed(monomial):
        if var[0] != "x":
            break
        degree -= exp
    return degree


class PolySymbol:
    """Immutable sparse polynomial over exact rationals.

    A symbol holds ``{monomial: int}`` numerators over one positive int
    denominator with no factor common to all of them (module docstring), and
    shows them as the read-only ``{monomial: Fraction}`` view :attr:`terms`,
    or without a copy as :attr:`numerators` over :attr:`denominator`.
    ``PolySymbol(dim, blocks, terms)`` is the validating constructor for
    outside input: it accepts any monomial order and int or Fraction
    coefficients, adds terms that sort to one monomial, drops zeros, and raises
    :class:`ShapeError` or ``ValueError`` on a variable outside the shape, a
    repeated variable, an exponent below 1, an index or exponent that is not
    an int (bools and floats are not) or a coefficient that is neither an int
    nor a Fraction; no entry takes a float coefficient or factor.
    :meth:`from_numerators` is the path for numerator dicts that already
    hold the term invariant up to the common factor, the kernel's own and
    other modules'.
    """

    __slots__ = ("dim", "blocks", "_num", "_den")

    def __init__(self, dim: int, blocks: int, terms=None):
        if dim < 1:
            raise ShapeError(f"dim must be positive, got {dim}")
        if blocks < 0:
            raise ShapeError(f"blocks must be non-negative, got {blocks}")
        clean = {}
        checked = []
        if terms:
            for mono, coeff in terms.items():
                mono = tuple(sorted(mono))
                for k, (var, exp) in enumerate(mono):
                    if type(exp) is not int or exp < 1:
                        raise ValueError(f"exponent must be an int >= 1 in {mono}")
                    if k and mono[k - 1][0] == var:
                        raise ValueError(f"repeated variable {var} in {mono}")
                    if any(type(index) is not int for index in var[1:]):
                        raise ValueError(f"variable indices must be ints in {var}")
                    _validate_var(var, dim, blocks)
                num, den = _exact(coeff, "coefficient")
                if num:
                    checked.append((mono, num, den))
        den = lcm(*(d for _, _, d in checked))
        accumulate(clean, [(mono, num * (den // d)) for mono, num, d in checked])
        _store(self, dim, blocks, clean, den)

    @staticmethod
    def from_numerators(dim: int, blocks: int, numerators: dict, denominator: int = 1) -> "PolySymbol":
        """The symbol ``numerators / denominator`` from numerators already in canonical form.

        Every key of ``numerators`` must be a monomial that holds the term
        invariant (variables strictly increasing and in the shape, exponents
        ints >= 1), every value a nonzero int, and ``denominator`` a positive
        int.  None of this is checked and nothing is copied: the symbol takes
        the dict over, so the caller must not touch it afterwards.  The common
        factor of the denominator and the numerators is divided out in place.
        Outside input goes through the validating constructor instead.
        """
        return _store(object.__new__(PolySymbol), dim, blocks, numerators, denominator)

    @property
    def numerators(self):
        """The read-only ``{monomial: int}`` numerators over :attr:`denominator`, not a copy."""
        return MappingProxyType(self._num)

    @property
    def denominator(self) -> int:
        """The positive denominator of :attr:`numerators`, coprime to their gcd."""
        return self._den

    @property
    def terms(self):
        """The read-only ``{monomial: Fraction}`` view, built anew on each access."""
        den = self._den
        return MappingProxyType({m: Fraction(c, den) for m, c in self._num.items()})

    def __setattr__(self, name, value):
        raise AttributeError("PolySymbol is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(dim: int, blocks: int) -> "PolySymbol":
        return PolySymbol(dim, blocks, {})

    @staticmethod
    def constant(value, dim: int, blocks: int) -> "PolySymbol":
        return PolySymbol(dim, blocks, {(): value})

    @staticmethod
    def variable(var, dim: int, blocks: int) -> "PolySymbol":
        return PolySymbol(dim, blocks, {((var, 1),): 1})

    @staticmethod
    def linear_combination(dim: int, blocks: int, pairs) -> "PolySymbol":
        """sum(factor * sym for factor, sym in pairs), in shape (dim, blocks).

        ``pairs`` may be any iterable, a generator included: every pair is
        added into one accumulator as it arrives and is not kept.  Each symbol
        must have shape (dim, blocks), else :class:`ShapeError`; each factor
        must be an int or a Fraction, as for :meth:`scale`.  Each term
        factor * numerator / (factor denominator * symbol denominator) joins
        the accumulator at the lcm of the denominators.
        """
        num, den = {}, 1
        for factor, sym in pairs:
            if sym.dim != dim or sym.blocks != blocks:
                raise ShapeError(
                    f"shape mismatch: ({dim},{blocks}) vs ({sym.dim},{sym.blocks})"
                )
            f_num, f_den = _exact(factor, "factor")
            if f_num:
                den = add_scaled(num, den, sym._num.items(), f_num, f_den * sym._den)
        return PolySymbol.from_numerators(dim, blocks, num, den)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def same_shape(self, other: "PolySymbol") -> bool:
        return self.dim == other.dim and self.blocks == other.blocks

    def ordered_terms(self):
        """Terms in the canonical (degree-major, variable-major) order, as ``Fraction`` pairs."""
        den = self._den
        return [(m, Fraction(c, den)) for m, c in _canonical(self._num)]

    def degree(self) -> int:
        """The largest total degree of a monomial; 0 for zero."""
        return max((sum(map(_exponent, mono)) for mono in self._num), default=0)

    def max_x_degree(self) -> int:
        degs = [sum(e for v, e in m if v[0] == "x") for m in self._num]
        return max(degs, default=0)

    def __eq__(self, other):
        return (
            isinstance(other, PolySymbol)
            and self.same_shape(other)
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self):
        return hash((self.dim, self.blocks, self._den, frozenset(self._num.items())))

    # -- ring operations ---------------------------------------------------

    def _require_shape(self, other):
        if not self.same_shape(other):
            raise ShapeError(
                f"shape mismatch: ({self.dim},{self.blocks}) vs ({other.dim},{other.blocks})"
            )

    def __add__(self, other):
        if not isinstance(other, PolySymbol):
            other = PolySymbol.constant(other, self.dim, self.blocks)
        self._require_shape(other)
        num = dict(self._num)
        den = add_scaled(num, self._den, other._num.items(), 1, other._den)
        return PolySymbol.from_numerators(self.dim, self.blocks, num, den)

    def __neg__(self):
        return PolySymbol.from_numerators(
            self.dim, self.blocks, {m: -c for m, c in self._num.items()}, self._den
        )

    def __sub__(self, other):
        if not isinstance(other, PolySymbol):
            other = PolySymbol.constant(other, self.dim, self.blocks)
        return self + (-other)

    def scale(self, factor) -> "PolySymbol":
        f_num, f_den = _exact(factor, "factor")
        if f_num == 0:
            return PolySymbol.zero(self.dim, self.blocks)
        return PolySymbol.from_numerators(
            self.dim,
            self.blocks,
            {m: c * f_num for m, c in self._num.items()},
            self._den * f_den,
        )

    def __mul__(self, other):
        if not isinstance(other, PolySymbol):
            return self.scale(other)
        self._require_shape(other)
        num = {}
        for m1, c1 in self._num.items():
            accumulate(num, other._num.items(), c1, m1)
        return PolySymbol.from_numerators(self.dim, self.blocks, num, self._den * other._den)

    def __rmul__(self, other):
        return self.scale(other)

    # -- calculus ----------------------------------------------------------

    def diff(self, var) -> "PolySymbol":
        _validate_var(var, self.dim, self.blocks)
        num = {}
        for mono, coeff in self._num.items():
            for idx, (v, e) in enumerate(mono):
                if v == var:
                    if e == 1:
                        new_mono = mono[:idx] + mono[idx + 1 :]
                    else:
                        new_mono = mono[:idx] + ((v, e - 1),) + mono[idx + 1 :]
                    # lowering the exponent of ``var`` is injective, so no
                    # two terms meet and no coefficient cancels
                    num[new_mono] = coeff * e
                    break
        return PolySymbol.from_numerators(self.dim, self.blocks, num, self._den)

    # -- substitution and reshaping ----------------------------------------

    def substitute(self, mapping, dim: int, blocks: int) -> "PolySymbol":
        """Simultaneously replace variables by polynomials or constants.

        The fold sum(c * prod(image ** e)) over the ring operations, into shape
        (dim, blocks): an image symbol of another shape, or an unmapped
        variable outside it, raises :class:`ShapeError`.  No library code calls
        it; ``perfbench/tracer.py`` patches it by name (ROADMAP item 4).
        """
        one = PolySymbol.constant(1, dim, blocks)
        images = {}
        for var, image in mapping.items():
            if not isinstance(image, PolySymbol):
                _exact(image, "constant image")
                image = one.scale(image)
            one._require_shape(image)
            images[var] = image

        def product(mono):
            value = one
            for var, exp in mono:
                if var not in images:
                    images[var] = PolySymbol.variable(var, dim, blocks)
                for _ in range(exp):
                    value = value * images[var]
            return value

        pairs = ((coeff, product(mono)) for mono, coeff in self._num.items())
        return PolySymbol.linear_combination(dim, blocks, pairs).scale(Fraction(1, self._den))

    def remap_variables(self, mapping, dim: int, blocks: int) -> "PolySymbol":
        """Rename variables via ``mapping`` (var -> var); unmapped vars kept.

        A :meth:`substitute` of variables.  No library code calls it;
        ``perfbench/tracer.py`` patches it by name.
        """
        images = {var: PolySymbol.variable(new, dim, blocks) for var, new in mapping.items()}
        return self.substitute(images, dim, blocks)

    def map_blocks(self, rows, blocks: int) -> "PolySymbol":
        """Replace p[b][i] by sum(c * p[t][i] for t, c in rows[b]), for every i.

        An empty row sets block b to zero, a block absent from ``rows`` keeps
        its variables, and the result has ``blocks`` p-blocks.  Every structure
        condition and the opposite product are such maps.  So are the base
        point of ``compose``, which runs on packed keys instead
        (:func:`packed_base_point`), and each face of the coboundary, which
        the library sums in closed form (``deformation``).  A source block outside
        1..self.blocks, a target block outside 1..blocks or a kept variable
        outside the result shape raises :class:`ShapeError`; a block or a
        coefficient that is not an int (bools, floats and Fractions are not)
        raises ``ValueError``.  The coefficients are ints, so the denominator
        passes through unchanged.

        This is the kernel's one change of variables on symbols.  It has three
        paths, chosen from the rows alone, and each resolves every (variable,
        exponent) once per call.  A map that renames no block (every row b is
        [(b, 1)], or there are no rows) into a shape of at least self.blocks
        blocks copies the numerators.  An injective relabelling (every row has
        at most one target, and no two surviving blocks, kept ones included,
        share one), as for the opposite product and every structure
        condition but S(p, -p, x), sends p[b][i]^e to c^e p[t][i]^e
        or zero; distinct monomials keep distinct images, stored directly.  A
        monomial sent to zero still has its kept variables checked, so every
        path raises the same errors.

        Every other map, with rows of two or more targets or blocks that merge
        (S(p, -p, x) of ``check_sgs``, the one such library call), takes the
        multinomial path on the shared :func:`packed_layout` of the
        result shape with D = :meth:`degree`: a linear map in p keeps each
        monomial's total degree, so no exponent of an image exceeds D and no
        field overflows into the next.  A mapped power expands in closed form
        by the multinomial theorem (:func:`_expand_power`) into packed
        monomials with integer coefficients; a kept pair, or a one-term
        expansion, is one int added to the monomial's base with its
        coefficient folded into the term, so a product of monomials is an int
        sum, and equal keys are summed.  The layout's decoder empties the
        packed sum as it builds the result, with chunk memos of this call's own.
        """
        targets = {}
        for b, row in rows.items():
            if type(b) is not int:
                raise ValueError(f"source p-block must be an int, got {b!r}")
            if not 1 <= b <= self.blocks:
                raise ShapeError(f"source p-block {b} out of range 1..{self.blocks}")
            merged = {}
            for t, c in row:
                if type(t) is not int:
                    raise ValueError(f"target p-block must be an int, got {t!r}")
                if not 1 <= t <= blocks:
                    raise ShapeError(f"target p-block {t} out of range 1..{blocks}")
                if type(c) is not int:
                    raise ValueError(f"row coefficient must be an int, got {c!r}")
                merged[t] = merged.get(t, 0) + c
            targets[b] = [(t, c) for t, c in sorted(merged.items()) if c]
        if blocks >= self.blocks and all(row == [(b, 1)] for b, row in targets.items()):
            # renames no block: only the shape widens
            return PolySymbol.from_numerators(self.dim, blocks, dict(self._num), self._den)

        memo = {}
        num = {}
        survivors = [row[0][0] for row in targets.values() if row]
        survivors += [b for b in range(1, self.blocks + 1) if b not in targets]
        if all(len(row) <= 1 for row in targets.values()) and len(set(survivors)) == len(survivors):
            # an injective relabelling: distinct monomials keep distinct images
            for mono, coeff in self._num.items():
                pairs = []
                for pair in mono:
                    image = memo.get(pair)
                    if image is None:
                        var, exp = pair
                        row = targets.get(var[1]) if var[0] == "p" else None
                        if row is None:
                            _validate_var(var, self.dim, blocks)
                            image = (pair, 1)
                        elif row:
                            t, c = row[0]
                            image = ((p_key(t, var[2]), exp), c**exp)
                        else:
                            image = _DROPPED
                        memo[pair] = image
                    if image is _DROPPED:
                        coeff = 0  # resolve the other pairs all the same: they may raise
                    else:
                        pairs.append(image[0])
                        if image[1] != 1:
                            coeff *= image[1]
                if coeff:
                    pairs.sort()
                    num[tuple(pairs)] = coeff
            return PolySymbol.from_numerators(self.dim, blocks, num, self._den)

        layout = packed_layout(self.dim, blocks, self.degree())
        shift = layout.shift
        for mono, coeff in self._num.items():
            base = 0
            products = None
            for pair in mono:
                image = memo.get(pair)
                if image is None:
                    var, exp = pair
                    row = targets.get(var[1]) if var[0] == "p" else None
                    if row is None:
                        _validate_var(var, self.dim, blocks)
                        image = (exp << shift[var], 1)
                    else:
                        row = [(1 << shift[p_key(t, var[2])], c) for t, c in row]
                        image = _expand_power(row, exp)
                        if len(image) == 1:
                            image = image[0]
                    memo[pair] = image
                if type(image) is tuple:
                    base += image[0]
                    if image[1] != 1:
                        coeff *= image[1]
                elif products is None:
                    products = image  # a zero row leaves no pieces, so no terms
                else:
                    products = [(k + m, c * e) for k, c in products for m, e in image]
            if products is None:
                accumulate(num, ((base, coeff),))
            else:
                accumulate(num, [(base + k, c) for k, c in products], coeff)
        return layout.decode(num, self._den)

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
        if not self._num:
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


# -- packed exponents ----------------------------------------------------------

#: entries of a p-chunk memo of one :meth:`PackedLayout.decode` before it is emptied
_PART_MEMO_SIZE = 4096


class PackedLayout:
    """Packed exponent vectors (Monagan and Pearce): a monomial of shape (dim, blocks) as one int.

    Each variable of the shape has one bit field, in canonical variable order
    p[1][1] .. p[blocks][dim], x[1] .. x[dim], the first variable in the lowest
    field; ``shift[var]`` is the bit offset of its field.  Each field is
    ``width = bit_length(degree) + 1`` bits wide.  The caller picks a
    ``degree`` that no exponent of its monomials can exceed, and nothing
    checks it: the spare bit is never reached.  A product of monomials is then
    an int sum, and a derivative reads an exponent by a shift and a mask and
    lowers it by one subtraction.

    A packed polynomial is a pair of ``{key: int}`` numerators, each nonzero,
    and a positive denominator; the row helpers (:func:`accumulate`,
    :func:`add_scaled`) sum it as they sum a symbol's numerators, and the
    common factor is divided out only by :meth:`decode`.  The layout is used
    by the multinomial path of :meth:`PolySymbol.map_blocks` and by the whole
    pipeline of ``compose``: its tree expansion (``elementary.Expansion``,
    whose contractions :func:`directional_contract` and
    :func:`contracted_gradient` work on packed polynomials), its tree sums,
    its base point (:func:`packed_base_point`) and its grading check
    (:meth:`p_degrees`).

    A layout depends only on (dim, blocks, width), and nothing mutates one
    once it is built, so the library takes each from :func:`packed_layout`,
    which builds it once per process and shares it among every caller.
    """

    __slots__ = ("dim", "blocks", "width", "mask", "shift", "_pairs")

    def __init__(self, dim: int, blocks: int, degree: int):
        variables = [p_key(b, i) for b in range(1, blocks + 1) for i in range(1, dim + 1)]
        variables += [x_key(i) for i in range(1, dim + 1)]
        self.dim = dim
        self.blocks = blocks
        self.width = degree.bit_length() + 1
        self.mask = (1 << self.width) - 1
        self.shift = {var: self.width * field for field, var in enumerate(variables)}
        # one shared (variable, exponent) object per field and exponent: a new
        # pair per decoded field doubled the size of a large decoded result
        self._pairs = [[(var, e) for e in range(degree + 1)] for var in variables]

    def fields(self, against) -> tuple:
        """The field shifts of the variables ``against`` selects: ``"x"`` (the dim
        x-variables) or a list of variables of the shape."""
        if against == "x":
            against = [x_key(i) for i in range(1, self.dim + 1)]
        elif not isinstance(against, list):
            raise ValueError(f"against must be 'x' or a list of variables, got {against!r}")
        for var in against:
            _validate_var(var, self.dim, self.blocks)
        return tuple(self.shift[var] for var in against)

    def encode(self, sym: PolySymbol, offset: int = 0):
        """The packed polynomial of ``sym``, its p-block b moved to block offset + b.

        ``sym`` has this layout's dim and any number of blocks; a variable whose
        moved block lies outside the layout raises :class:`ShapeError`.  The
        move is injective, so distinct monomials keep distinct keys.
        """
        if sym.dim != self.dim:
            raise ShapeError(f"dim {sym.dim} does not match the layout's dim {self.dim}")
        shift = self.shift
        packed = {}
        num = {}
        for mono, coeff in sym._num.items():
            key = 0
            for pair in mono:
                k = packed.get(pair)
                if k is None:
                    var, exp = pair
                    if offset and var[0] == "p":
                        var = p_key(var[1] + offset, var[2])
                    field = shift.get(var)
                    if field is None:
                        raise ShapeError(
                            f"variable {var} outside shape dim={self.dim}, blocks={self.blocks}"
                        )
                    k = packed[pair] = exp << field
                key += k
            num[key] = coeff
        return num, sym._den

    def p_degrees(self, num) -> set:
        """The p-degrees of the keys of the packed numerators ``num``, one multiply per key.

        A key's p-fields times the word with a 1 in the lowest bit of every
        p-field hold the running sums of its p-exponents, lowest field first,
        and the top p-field holds their total.  No carry crosses a field as
        long as no monomial's p-degree exceeds the layout's degree, which the
        expansion of ``compose`` and its base point guarantee for every total
        degree.
        """
        p_fields = self.blocks * self.dim
        width = self.width
        p_mask = (1 << width * p_fields) - 1
        ones = sum(1 << width * field for field in range(p_fields))
        top = width * max(p_fields - 1, 0)
        mask = self.mask
        return {((key & p_mask) * ones) >> top & mask for key in num}

    def decode(self, num: dict, den: int) -> PolySymbol:
        """The symbol ``num / den`` of this shape, from a packed polynomial.

        ``num`` is emptied as it is read, so its packed terms are freed while
        the decoded ones are built; the caller must not use it afterwards.
        Each key splits into three chunks, the fields of the lower half of the
        p-blocks, of the upper half and of x; each is decoded lowest field
        first, so the monomial comes out sorted, through one memo per chunk.
        The monomials of a sum share their halves far more often than their
        whole p-parts.  The memos are the call's own, and the layout keeps
        none, so a shared layout retains nothing between calls.  A p-chunk
        memo is emptied whenever it reaches ``_PART_MEMO_SIZE`` entries: a
        large base point can have as many distinct chunks as terms, and memos
        that kept them all would hold a second copy of the result.
        """
        width, mask, pairs = self.width, self.mask, self._pairs

        def unpack(chunk, field):
            out = []
            while chunk:
                if chunk & mask:
                    out.append(pairs[field][chunk & mask])
                chunk >>= width
                field += 1
            return tuple(out)

        mid_field = self.blocks // 2 * self.dim
        x_field = self.blocks * self.dim
        mid_shift, x_shift = width * mid_field, width * x_field
        low_mask = (1 << mid_shift) - 1
        high_mask = (1 << (x_shift - mid_shift)) - 1
        lows, highs, xs = {}, {}, {}
        out = {}
        pop = num.popitem
        while num:
            key, coeff = pop()
            chunk = key & low_mask
            low = lows.get(chunk)
            if low is None:
                if len(lows) == _PART_MEMO_SIZE:
                    lows.clear()
                low = lows[chunk] = unpack(chunk, 0)
            chunk = key >> mid_shift & high_mask
            high = highs.get(chunk)
            if high is None:
                if len(highs) == _PART_MEMO_SIZE:
                    highs.clear()
                high = highs[chunk] = unpack(chunk, mid_field)
            chunk = key >> x_shift
            x_part = xs.get(chunk)
            if x_part is None:
                x_part = xs[chunk] = unpack(chunk, x_field)
            out[low + high + x_part] = coeff
        return PolySymbol.from_numerators(self.dim, self.blocks, out, den)


class PackedPolynomial:
    """A packed polynomial of one :class:`PackedLayout`, not yet decoded.

    ``numerators`` maps each packed key to a nonzero int over the positive
    ``denominator``, whose common factor with them is not divided out; the
    row helpers sum them as they stand.  :attr:`terms` is a read-only view
    with one entry per term, and :meth:`decode` gives the symbol.
    """

    __slots__ = ("layout", "numerators", "denominator")

    def __init__(self, layout: PackedLayout, numerators: dict, denominator: int):
        self.layout = layout
        self.numerators = numerators
        self.denominator = denominator

    @property
    def terms(self):
        """The read-only ``{key: numerator}`` view, one entry per term; it builds no ``Fraction``."""
        return MappingProxyType(self.numerators)

    def decode(self) -> PolySymbol:
        """The symbol of this polynomial; the packed numerators stay as they are."""
        return self.layout.decode(dict(self.numerators), self.denominator)


_shared_layout = lru_cache(maxsize=None)(PackedLayout)


def packed_layout(dim: int, blocks: int, degree: int) -> PackedLayout:
    """The process's one :class:`PackedLayout` of shape (dim, blocks) whose
    fields hold every exponent up to ``degree``.

    It is the layout of degree ``2**degree.bit_length() - 1``: that degree has
    the same field width, mask and shifts, so it encodes and decodes every
    monomial as the layout of ``degree`` would, and its spare bit is the same.
    Keying by width, not by degree, lets the expansions of one solve, whose
    degrees grow with the order, share a few layouts.
    """
    return _shared_layout(dim, blocks, (1 << degree.bit_length()) - 1)


def _chunk_image(chunk, rows, width, mask):
    """The image of a chunk of packed fields whose field k maps to the sum of ``rows[k]``."""
    image = [(0, 1)]
    field = 0
    while chunk:
        exp = chunk & mask
        if exp:
            power = _expand_power(rows[field], exp)
            image = [(k + m, c * e) for k, c in image for m, e in power]
        chunk >>= width
        field += 1
    return image


def packed_base_point(layout: PackedLayout, num: dict, slots) -> tuple:
    """The base point of ``compose`` on packed keys: (the K-block layout, its numerators).

    ``layout`` has K + n p-blocks, n = len(slots), and ``slots[b - 1]`` lists
    the blocks among 1..K onto whose sum p[K+b] is mapped: p[K+b][i] becomes
    sum(p[t][i] for t in slots[b - 1]).  Blocks 1..K keep their fields, and
    the x fields move down by n*dim fields, into :func:`packed_layout` of
    (dim, K) and the same field width.  A power of an outer field expands by
    the multinomial theorem (:func:`_expand_power`); a slot of one block adds
    one shift, and an empty slot drops every term that holds its block.  The
    fields of one outer block form a chunk of the key, and each distinct chunk
    of a block is expanded once per call, through a memo per block (a memo of
    whole outer parts would hold about as many image terms as a large
    result).  Equal image keys are summed; the coefficients are ints, so the
    denominator passes through unchanged.

    The map is linear in p, so every monomial keeps its total degree.  The
    caller's layout degree bounds it (``compose`` passes the expansion's
    layout, whose degree max_weight * D bounds the total degree of every
    C_t), so no field of an image reaches the spare bit.  ``num`` is emptied
    as it is read, so its terms are freed while the image is built.
    """
    dim, width, mask = layout.dim, layout.width, layout.mask
    kept = layout.blocks - len(slots)
    out = packed_layout(dim, kept, mask >> 1)
    block_width = width * dim
    outer_shift = block_width * kept
    x_shift = block_width * layout.blocks
    low_mask = (1 << outer_shift) - 1
    chunk_mask = (1 << block_width) - 1
    # per outer block: the shift of its chunk, the row of each of its fields, its memo of images
    parts = [
        (
            outer_shift + block_width * b,
            [[(1 << out.shift[p_key(t, i)], 1) for t in slot] for i in range(1, dim + 1)],
            {},
        )
        for b, slot in enumerate(slots)
    ]
    acc = {}
    pop = num.popitem
    while num:
        key, coeff = pop()
        terms = [((key & low_mask) + (key >> x_shift << outer_shift), coeff)]
        for shift, rows, images in parts:
            chunk = key >> shift & chunk_mask
            if chunk:
                image = images.get(chunk)
                if image is None:
                    image = images[chunk] = _chunk_image(chunk, rows, width, mask)
                terms = [(k + m, c * e) for k, c in terms for m, e in image]
        accumulate(acc, terms)
    return out, acc


# -- directional contraction ---------------------------------------------------


def _diff_packed(num, shift, mask):
    """The derivative of packed numerators in the variable whose field starts at bit ``shift``.

    Lowering one exponent is injective, so no two terms meet.
    """
    unit = 1 << shift
    out = {}
    for key, coeff in num.items():
        exp = key >> shift & mask
        if exp:
            out[key - unit] = coeff * exp
    return out


def _contract(f, fields, mask, directions):
    """sum_k directions[0][k] * _contract(d f / d field k, directions[1:]), on packed polynomials.

    One direction at a time, as the B-series recursion contracts one child at
    a time; only ``f`` is differentiated, the directions are multiplied in.
    """
    if not directions:
        return f
    f_num, f_den = f
    rest = directions[1:]
    total, den = {}, 1
    for shift, (c_num, c_den) in zip(fields, directions[0]):
        if not c_num:
            continue
        g = _diff_packed(f_num, shift, mask)
        if not g:
            continue
        inner, inner_den = _contract((g, f_den), fields, mask, rest)
        other = c_den * inner_den
        for m, c in c_num.items():
            den = add_scaled(total, den, [(m + k, v) for k, v in inner.items()], c, other)
    return total, den


def _check_directions(directions, fields):
    for d in directions:
        if len(d) != len(fields):
            raise ShapeError(f"direction length {len(d)} != variable count {len(fields)}")


def directional_contract(layout: PackedLayout, f, directions, fields):
    """Contract the m-th derivative of ``f`` against m direction vectors.

    ``f`` and every component are packed polynomials of ``layout``,
    ``directions`` is a list of m sequences of them, one per variable, and
    ``fields`` is ``layout.fields(against)``.  The directions are multiplied
    in, never differentiated, so they may depend on the contracted variables.
    The result is symmetric and multilinear in the directions, and a packed
    polynomial whose numerator dict is new, so the caller may decode it.  No
    exponent of the result may exceed the layout's degree.
    """
    _check_directions(directions, fields)
    if not directions:
        return dict(f[0]), f[1]
    return _contract(f, fields, layout.mask, directions)


def contracted_gradient(layout: PackedLayout, f, directions, fields) -> tuple:
    """Contract the (m+1)-th derivative against m directions, one index free.

    Operands as for :func:`directional_contract`; returns one packed
    polynomial per field, the component of the free index.
    """
    _check_directions(directions, fields)
    f_num, f_den = f
    mask = layout.mask
    return tuple(
        _contract((_diff_packed(f_num, shift, mask), f_den), fields, mask, directions)
        for shift in fields
    )


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
                if type(i) is not int or i < 1:
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

    def diff(self, var) -> "FormalSeries":
        """The partial derivative in ``var``, order by order; the result is ungraded."""
        return FormalSeries(
            self.dim,
            self.blocks,
            {o: s.diff(var) for o, s in self.orders.items()},
            graded=False,
        )

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
        return FormalSeries(
            self.dim, self.blocks, {i: -s for i, s in self.orders.items()}, self.graded
        )

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
        for mono in sym._num:
            pdeg = monomial_p_degree(mono)
            if pdeg != i + 1:
                mono_sym = PolySymbol(series.dim, series.blocks, {mono: 1})
                violations.append((i, str(mono_sym), pdeg))
    return GradingReport(not violations, violations)


def series_eval(series: FormalSeries, p_values, x_values, eps):
    """Sum eps^i * order_i(point) over the stored orders i."""
    total = 0
    for i, sym in series.orders.items():
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


def json_check(value, kind, what):
    """``value`` if it has JSON type ``kind`` (int excludes bool), else ValueError."""
    if type(value) is not kind:
        raise ValueError(f"{what} must be a JSON {kind.__name__}, got {type(value).__name__}")
    return value


def _json_ints(row, length, what):
    json_check(row, list, what)
    if len(row) != length:
        raise ValueError(f"{what} must have {length} entries, got {len(row)}")
    return [json_check(v, int, what) for v in row]


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
    for term in json_check(terms, list, "terms"):
        json_check(term, dict, "term")
        mono = {}
        for row in json_check(term.get("p", []), list, "p"):
            block, comp, exp = _json_ints(row, 3, "p entry")
            var = p_key(block, comp)
            mono[var] = mono.get(var, 0) + exp
        for row in json_check(term.get("x", []), list, "x"):
            comp, exp = _json_ints(row, 2, "x entry")
            var = x_key(comp)
            mono[var] = mono.get(var, 0) + exp
        key = tuple(sorted(mono.items()))
        acc[key] = acc.get(key, 0) + _json_coeff(term["coeff"])
    return PolySymbol(dim, blocks, acc)


def series_from_obj(obj) -> FormalSeries:
    json_check(obj, dict, "series")
    dim = json_check(obj["dim"], int, "dim")
    arity = json_check(obj["arity"], int, "arity")
    orders = {}
    for entry in json_check(obj["orders"], list, "orders"):
        json_check(entry, dict, "order entry")
        order = json_check(entry["order"], int, "order")
        sym = poly_from_obj(entry["terms"], dim, arity)
        # entries that share an order add, as repeated monomials do
        orders[order] = orders[order] + sym if order in orders else sym
    graded = json_check(obj.get("graded", True), bool, "graded")
    return FormalSeries(dim, arity, orders, graded=graded)


def _indent(depth: int) -> str:
    return "\n" + "  " * depth


def _write_terms(out: list, sym: PolySymbol, depth: int) -> None:
    """Append the term list of ``sym`` to ``out`` as a JSON array at nesting ``depth``.

    Each term is ``{"coeff": <fraction string>, "p": [[block, comp, exp], ...],
    "x": [[comp, exp], ...]}``.  A monomial holds its p variables before its x
    variables, each kind in sorted order, so its rows come out sorted as they
    are walked.  Each distinct row is rendered once per call, and each
    coefficient is written as its reduced numerator over the symbol's
    denominator, without building a ``Fraction``.
    """
    if not sym._num:
        out.append("[]")
        return
    item, key, row, cell = (_indent(depth + k) for k in (1, 2, 3, 4))
    rows = {}
    open_term = "[" + item + "{" + key + '"coeff": '
    next_term = "," + item + "{" + key + '"coeff": '
    p_key_text = "," + key + '"p": '
    x_key_text = "," + key + '"x": '
    close_rows = key + "]"
    den = sym._den
    for mono, num in _canonical(sym._num):
        out.append(open_term)
        open_term = next_term
        g = gcd(num, den)
        out.append(_quote(str(num // g) if g == den else f"{num // g}/{den // g}"))
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


def json_loads(text: str):
    """``json.loads`` for every outside document; too deep a nesting is a ``ValueError``."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None


def series_loads(text: str) -> FormalSeries:
    return series_from_obj(json_loads(text))
