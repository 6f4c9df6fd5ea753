"""The group-algebra utilities of Q[S3] that no check runs: composition,
the group-algebra product, the translation action and its orbits and
orbit spans, right ideals, and the isotypic multiplicities of an
invariant subspace.  The conventions are those of :mod:`nalg.sym3`.

This module is lazy (see ``nalg/__init__.py``): it runs when one of its
names is first read, and each of them is also read as ``nalg.sym3``'s,
where it was defined before.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import Subspace, span
from .sym3 import _PERM_INDEX, PERMS, GroupAlgElem, Perm3, inverse, split


def compose(p: Perm3, q: Perm3) -> Perm3:
    """Composition with ``q`` applied first: compose(p, q)(k) = p(q(k))."""
    return Perm3((p(q(1)), p(q(2)), p(q(3))))


def ga_multiply(u: GroupAlgElem, v: GroupAlgElem) -> GroupAlgElem:
    """Group-algebra product: the bilinear extension of ``compose``."""
    out = [Fraction(0)] * 6
    for i, a in enumerate(u.coords):
        for j, b in enumerate(v.coords):
            out[_PERM_INDEX[compose(PERMS[i], PERMS[j])]] += a * b
    return GroupAlgElem(tuple(out))


def action(p: Perm3, v: GroupAlgElem) -> GroupAlgElem:
    """Translation action: each basis permutation r moves to
    compose(inverse(p), r), so v moves to inverse(p) * v."""
    return ga_multiply(GroupAlgElem.from_perm(inverse(p)), v)


def orbit(v: GroupAlgElem) -> list[GroupAlgElem]:
    """The six translates of ``v``, one per permutation in basis order.

    Duplicates are kept so the action's structure stays visible; use
    ``orbit_span`` for the subspace they generate.
    """
    return [action(p, v) for p in PERMS]


def orbit_span(v: GroupAlgElem) -> Subspace:
    return span((e.coords for e in orbit(v)), 6)


def right_ideal(v: GroupAlgElem) -> Subspace:
    """Span of the right translates v * s over all permutations s."""
    return span(((v * GroupAlgElem.from_perm(p)).coords for p in PERMS), 6)


def maschke_multiplicities(s: Subspace) -> tuple[int, int, int]:
    """Multiplicities (trivial, sign, standard) of the three irreducible
    components of an invariant subspace of the group algebra.

    ``s`` must be closed under the translation action, which multiplies on
    the left by permutations: it must be a left ideal, and a ValueError is
    raised otherwise.  On the split, the left ideal that ``s`` generates is
    Q in the augmentation if some basis element has one, likewise in the
    sign, and in M2(Q) the matrices whose rows lie in the span R of the
    rows of every rho.  It contains ``s``, so it is ``s`` exactly when its
    dimension, the two bits plus 2 dim R, is ``s.dim``.  The multiplicities
    are then the two bits and dim R (the standard component has dimension
    2 per copy).
    """
    if s.ambient_dim != 6:
        raise ValueError("expected a subspace of the 6-dimensional group algebra")
    splits = [split(row) for row in s.basis]
    m_trivial, m_sign = (int(any(f[k] for f in splits)) for k in (0, 1))
    m_standard = span([row for f in splits for row in (f[2:4], f[4:])], 2).dim
    if m_trivial + m_sign + 2 * m_standard != s.dim:
        raise ValueError("subspace is not invariant under the translation action")
    return (m_trivial, m_sign, m_standard)
