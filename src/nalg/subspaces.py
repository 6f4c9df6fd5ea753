"""The part of :mod:`nalg.linalg` that no check runs: the null space of a
matrix, membership in a subspace, and the Fraction of a rational text.

This module is lazy (see ``nalg/__init__.py``): it runs when one of its
names is first read, and each of them is also read as ``nalg.linalg``'s,
where it was defined before.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import lcm

from .linalg import Subspace, _echelon, _integers, _rational_pair, _subspace, as_vec


def parse_rational(text: str) -> Fraction:
    """The Fraction of the strict text form (see ``linalg._rational_pair``)."""
    return Fraction(*_rational_pair(text))


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
