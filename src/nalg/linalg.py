"""Exact linear algebra over the rationals.

Scalars are `fractions.Fraction` values: arbitrary precision, always in
lowest terms with a positive denominator, so every identity tested in this
package is decided exactly.  Vectors are fixed-length tuples of fractions.
A subspace is stored as a reduced row-echelon basis with leading
coefficient 1 and rows ordered by pivot column; that form is unique, which
makes subspace equality a plain data comparison.  Eliminations run on
rows cleared of denominators, fraction-free in Python ints, and only the
canonical basis is built from fractions.  No floating point is used
anywhere.

This module holds what the checks run on valid input.  ``kernel``,
``member`` and ``parse_rational`` live in the lazy :mod:`nalg.subspaces`,
and are read here through the module ``__getattr__`` (PEP 562); the
error lines of bad input are :mod:`nalg.errors`'.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Collection, Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm

from . import _forward, errors, subspaces
from ._record import Record

Vec = tuple[Fraction, ...]


def _rational_pair(text: str) -> tuple[int, int]:
    """The reduced pair ``(p, q)``, ``q`` positive, of the strict text form:
    optional sign, ASCII digits, optional "/" and positive ASCII digits.
    Anything else (floats, exponents, whitespace, underscores) is rejected."""
    p, slash, q = text.partition("/")
    digits = p[1:] if p[:1] in "+-" else p
    if not (digits.isdigit() and digits.isascii() and (not slash or q.isdigit() and q.isascii())):
        # Quoted from its first character that no rational holds, if any.
        at = next((at for at, ch in enumerate(text) if ch not in "+-/0123456789"), 0)
        raise ValueError(f"malformed rational: {errors._quoted(text, at)}")
    try:
        if not slash:
            return int(p), 1
        q = int(q)
        p = int(p) if q else 0
    except ValueError:
        raise errors._too_long() from None
    if q == 0:
        at = text.index("/") + 1
        raise ValueError(f"malformed rational: {errors._quoted(text, at)} (denominator must be positive)")
    g = gcd(p, q)
    return p // g, q // g


def format_rational(value: Fraction) -> str:
    """Canonical "p/q" text (plain "p" for integers); parse_rational round-trips it."""
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        raise errors._too_long() from None


def _exact(value) -> Fraction:
    """``value`` as a Fraction; a float is rejected, as its binary value is rarely the number meant."""
    if isinstance(value, float):
        raise ValueError(f"not an exact number: {value!r} (floats are rejected)")
    return Fraction(value)


def as_vec(values: Iterable) -> Vec:
    return tuple(map(_exact, values))


class Subspace(Record):
    """A rational subspace given by its reduced row-echelon basis.

    Invariant: basis rows are independent, each leading coefficient is 1,
    pivot columns are zero in every other row, and rows are ordered by
    pivot column.  Two Subspace values describe the same set of vectors
    exactly when they compare equal.
    """

    __slots__ = ("ambient_dim", "basis")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vector: Sequence) -> bool:
        return subspaces.member(vector, self)


def _cleared(pairs: Collection[tuple[int, int]]) -> tuple[list[int], int]:
    """The values of the reduced pairs ``(p, q)``, ``q`` positive, times the LCM
    ``d`` of the ``q``, as ints, and ``d``: the one rule that clears values."""
    d = lcm(*[q for _, q in pairs])
    return [p * (d // q) for p, q in pairs], d


def _integers(row: Sequence) -> Sequence[int]:
    """The row cleared of denominators."""
    return _cleared([c.as_integer_ratio() for c in as_vec(row)])[0]


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [x // g for x in row]


def _echelon(rows: Iterable[Sequence[int]]) -> tuple[list[int], list[list[int]]]:
    """The reduced row-echelon form of the span of integer ``rows``,
    computed fraction-free: pivot columns in increasing order, and for each
    a primitive integer row that is zero in every other pivot column.

    A row is reduced against each basis row by cross-multiplying; a new
    basis row then clears its pivot column from the others the same way.
    Every row is divided by the gcd of its entries after each step, so the
    entries stay small and all arithmetic is in integers.  Reading stops
    once the rank equals the number of columns, so a lazy ``rows`` is
    consumed no further than it must be.
    """
    pivots: list[int] = []
    basis: list[list[int]] = []
    for work in rows:
        for p, r in zip(pivots, basis):
            c = work[p]
            if c:
                lead = r[p]
                work = [lead * x - c * y for x, y in zip(work, r)]
        q = next((j for j, x in enumerate(work) if x), None)
        if q is None:
            continue
        work = _primitive(work)
        lead = work[q]
        for at, r in enumerate(basis):
            c = r[q]
            if c:
                basis[at] = _primitive([lead * x - c * y for x, y in zip(r, work)])
        at = bisect_left(pivots, q)
        pivots.insert(at, q)
        basis.insert(at, work)
        if len(basis) == len(work):
            break
    return pivots, basis


def _subspace(ncols: int, pivots: list[int], basis: list[list[int]]) -> Subspace:
    """The canonical form: each echelon row divided by its pivot entry."""
    return Subspace(ncols, tuple(tuple(Fraction(x, r[p]) for x in r) for p, r in zip(pivots, basis)))


def span(vectors: Iterable[Sequence], ambient_dim: int | None = None) -> Subspace:
    """Canonical reduced basis of the linear span of ``vectors``.

    ``ambient_dim`` is required when the iterable is empty and is checked
    against every vector otherwise.
    """
    rows = [_integers(v) for v in vectors]
    if ambient_dim is None:
        if not rows:
            raise ValueError("ambient dimension required for an empty span")
        ambient_dim = len(rows[0])
    if any(len(r) != ambient_dim for r in rows):
        raise ValueError("mismatched vector dimensions in span")
    return _subspace(ambient_dim, *_echelon(rows))


__getattr__ = _forward(__name__, subspaces)
