"""Exact linear algebra over the rationals.

Scalars are `fractions.Fraction` values: arbitrary precision, always in
lowest terms with a positive denominator, so every identity tested in this
package is decided exactly.  Vectors are fixed-length tuples of fractions.
A subspace is stored as a reduced row-echelon basis with leading
coefficient 1 and rows ordered by pivot column; that form is unique, which
makes subspace equality a plain data comparison.  No floating point is
used anywhere.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, Sequence

from ._record import Record

Rational = Fraction

Vec = tuple[Fraction, ...]

_RATIONAL_FORM = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?\Z")


def parse_rational(text: str) -> Fraction:
    """Parse the strict text form: optional sign, integer, optional "/" and
    positive integer.  Anything else (floats, exponents, whitespace) is
    rejected."""
    m = _RATIONAL_FORM.match(text)
    if m is None:
        raise ValueError(f"malformed rational: {text!r}")
    if m.group(2) is None:
        return Fraction(int(m.group(1)))
    den = int(m.group(2))
    if den == 0:
        raise ValueError(f"malformed rational: {text!r} (denominator must be positive)")
    return Fraction(int(m.group(1)), den)


def format_rational(value: Fraction) -> str:
    """Canonical "p/q" text (plain "p" for integers); parse_rational round-trips it."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def as_vec(values: Iterable) -> Vec:
    return tuple(Fraction(v) for v in values)


class Subspace(Record):
    """A rational subspace given by its reduced row-echelon basis.

    Invariant: basis rows are independent, each leading coefficient is 1,
    pivot columns are zero in every other row, and rows are ordered by
    pivot column.  Two Subspace values describe the same set of vectors
    exactly when they compare equal.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: tuple[Vec, ...]):
        self._assign(ambient_dim, basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vector: Sequence) -> bool:
        return member(vector, self)


def _pivot(row: Sequence[Fraction]) -> int | None:
    for j, c in enumerate(row):
        if c:
            return j
    return None


def _insert_row(row: Sequence[Fraction], basis: list[list[Fraction]], pivots: list[int]) -> bool:
    """Reduce ``row`` against the basis; insert it if independent.

    The basis is kept in reduced row-echelon form throughout.
    """
    work = list(row)
    for r, p in zip(basis, pivots):
        c = work[p]
        if c:
            for j in range(len(work)):
                work[j] -= c * r[j]
    p = _pivot(work)
    if p is None:
        return False
    lead = work[p]
    work = [c / lead for c in work]
    for r in basis:
        c = r[p]
        if c:
            for j in range(len(r)):
                r[j] -= c * work[j]
    at = bisect_left(pivots, p)
    basis.insert(at, work)
    pivots.insert(at, p)
    return True


def span(vectors: Iterable[Sequence], ambient_dim: int | None = None) -> Subspace:
    """Canonical reduced basis of the linear span of ``vectors``.

    ``ambient_dim`` is required when the iterable is empty and is checked
    against every vector otherwise.
    """
    vecs = [as_vec(v) for v in vectors]
    if ambient_dim is None:
        if not vecs:
            raise ValueError("ambient dimension required for an empty span")
        ambient_dim = len(vecs[0])
    basis: list[list[Fraction]] = []
    pivots: list[int] = []
    for v in vecs:
        if len(v) != ambient_dim:
            raise ValueError("mismatched vector dimensions in span")
        _insert_row(v, basis, pivots)
    return Subspace(ambient_dim, tuple(tuple(r) for r in basis))


def kernel(rows: Iterable[Sequence], ncols: int | None = None) -> Subspace:
    """Exact null space of the matrix with the given rows, in canonical form.

    Satisfies rank + nullity = ncols.  ``ncols`` is required for an empty
    matrix.
    """
    mat = [as_vec(r) for r in rows]
    if ncols is None:
        if not mat:
            raise ValueError("column count required for an empty matrix")
        ncols = len(mat[0])
    for r in mat:
        if len(r) != ncols:
            raise ValueError("matrix rows must all have the same length")
    row_space = span(mat, ncols)
    pivots = [_pivot(r) for r in row_space.basis]
    free = [j for j in range(ncols) if j not in pivots]
    vectors = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in zip(row_space.basis, pivots):
            v[p] = -r[f]
        vectors.append(v)
    return span(vectors, ncols)


def member(vector: Sequence, subspace: Subspace) -> bool:
    """True iff ``vector`` lies in ``subspace``."""
    v = list(as_vec(vector))
    if len(v) != subspace.ambient_dim:
        raise ValueError("vector/subspace dimension mismatch")
    for row in subspace.basis:
        p = _pivot(row)
        c = v[p]
        if c:
            for j in range(len(v)):
                v[j] -= c * row[j]
    return not any(v)
