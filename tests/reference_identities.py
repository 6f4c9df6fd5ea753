"""Reference degree-3 identity module of an algebra, kept as an oracle for
the flags of ``nalg.algebras.classify``.

A pair (u, w) of group-algebra elements is an identity of degree 3 of A
when (xy)z·u + x(yz)·w = 0, where ·v permutes the slots of a composite by
v as ``reference_algebras.phi_precompose`` does.  The pairs form a
subspace I(A) of Q[S3]², coordinates u then w, computed here as the null
space in 12 unknowns of one row per key of the six slot-permuted copies of
each composite: entry p of the row at a key is the coefficient of the key
in (xy)z·PERMS[p], entry 6 + p its coefficient in x(yz)·PERMS[p].  Every
flag asks whether one pair lies in I(A).
"""

from __future__ import annotations

from fractions import Fraction

from reference_algebras import left_assoc_map, phi_precompose, right_assoc_map

from nalg.algebras import Algebra
from nalg.linalg import Subspace, kernel
from nalg.sym3 import PERMS, GroupAlgElem


def identities(A: Algebra) -> Subspace:
    """I(A), in Q^12."""
    copies = [phi_precompose(T, p).entries for T in (left_assoc_map(A), right_assoc_map(A)) for p in PERMS]
    keys = sorted(set().union(*copies))
    return kernel([tuple(T.get(key, Fraction(0)) for T in copies) for key in keys], 12)


def holds(I: Subspace, u: GroupAlgElem, w: GroupAlgElem) -> bool:
    """Whether (u, w) lies in I."""
    return I.contains(u.coords + w.coords)


def diagonal(I: Subspace) -> Subspace:
    """{v : (v, -v) in I}, read off the basis of I alone: (v, -v) lies in I
    exactly when a·v - b·v = 0 for every (a, b) orthogonal to I."""
    equations = kernel(I.basis, 12).basis
    return kernel([tuple(x - y for x, y in zip(e[:6], e[6:])) for e in equations], 6)
