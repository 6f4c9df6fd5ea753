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
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from collections.abc import Collection, Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter

from ._record import Record

Vec = tuple[Fraction, ...]
_denominator = attrgetter("denominator")


def _too_long() -> ValueError:
    """The error for a numerator or denominator past Python's limit on the
    digits of an int read from or written as text, in place of Python's."""
    return ValueError(f"a numerator or denominator has more than {sys.get_int_max_str_digits()} digits")


# The most characters of an input that an error message quotes: a longer
# input is quoted by an excerpt of this many, from a little before the
# place that the message names.
_QUOTED = 80


def _quoted(text: str, at: int = 0, show=repr) -> str:
    """``show(text)`` or, for a text of more than ``_QUOTED`` characters,
    ``show`` of the ``_QUOTED`` of them that start a quarter of that before
    index ``at``, or as near to it as the text allows, with "..." for each
    end cut off."""
    if len(text) <= _QUOTED:
        return show(text)
    start = min(max(at - _QUOTED // 4, 0), len(text) - _QUOTED)
    end = start + _QUOTED
    return "..." * (start > 0) + show(text[start:end]) + "..." * (end < len(text))


def _rational_pair(text: str) -> tuple[int, int]:
    """The reduced pair ``(p, q)``, ``q`` positive, of the strict text form:
    optional sign, ASCII digits, optional "/" and positive ASCII digits.
    Anything else (floats, exponents, whitespace, underscores) is rejected."""
    p, slash, q = text.partition("/")
    digits = p[1:] if p[:1] in "+-" else p
    if not (digits.isdigit() and digits.isascii() and (not slash or q.isdigit() and q.isascii())):
        # Quoted from its first character that no rational holds, if any.
        at = next((at for at, ch in enumerate(text) if ch not in "+-/0123456789"), 0)
        raise ValueError(f"malformed rational: {_quoted(text, at)}")
    try:
        if not slash:
            return int(p), 1
        q = int(q)
        p = int(p) if q else 0
    except ValueError:
        raise _too_long() from None
    if q == 0:
        raise ValueError(f"malformed rational: {_quoted(text, text.index('/') + 1)} (denominator must be positive)")
    g = gcd(p, q)
    return p // g, q // g


def parse_rational(text: str) -> Fraction:
    """The Fraction of the strict text form (see ``_rational_pair``)."""
    return Fraction(*_rational_pair(text))


def format_rational(value: Fraction) -> str:
    """Canonical "p/q" text (plain "p" for integers); parse_rational round-trips it."""
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        raise _too_long() from None


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
        return member(vector, self)


def _cleared(values: Collection[Fraction]) -> tuple[list[int], int]:
    """The values times the LCM ``d`` of their denominators, as ints, and ``d``."""
    d = lcm(*map(_denominator, values))
    return [c.numerator * (d // c.denominator) for c in values], d


def _integers(row: Sequence) -> Sequence[int]:
    """The row cleared of denominators."""
    return _cleared(as_vec(row))[0]


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


def kernel(rows: Iterable[Sequence], ncols: int | None = None) -> Subspace:
    """Exact null space of the matrix with the given rows, in canonical form.

    Satisfies rank + nullity = ncols.  ``ncols`` is required for an empty
    matrix.  Each row not already of ints is cleared of denominators, and
    the elimination runs in integers; fractions appear only in the
    canonical output.
    """
    mat = [_integers(r) for r in rows]
    if ncols is None:
        if not mat:
            raise ValueError("column count required for an empty matrix")
        ncols = len(mat[0])
    if any(len(r) != ncols for r in mat):
        raise ValueError("matrix rows must all have the same length")
    pivots, basis = _echelon(mat)
    # The null vector for free column f is e_f minus sum_p (r[f] / r[p]) e_p
    # over the echelon rows r, scaled by the LCM of the pivot entries.
    scale = lcm(*(r[p] for p, r in zip(pivots, basis)))
    vectors = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = scale
        for p, r in zip(pivots, basis):
            v[p] = -r[f] * (scale // r[p])
        vectors.append(v)
    return _subspace(ncols, *_echelon(vectors))


def member(vector: Sequence, subspace: Subspace) -> bool:
    """True iff ``vector`` lies in ``subspace``: appending it to the basis
    leaves the rank of the integer elimination at ``subspace.dim``."""
    v = as_vec(vector)
    if len(v) != subspace.ambient_dim:
        raise ValueError("vector/subspace dimension mismatch")
    return len(_echelon(map(_integers, (*subspace.basis, v)))[0]) == subspace.dim
