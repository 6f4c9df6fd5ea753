"""Reference isotypic decomposition, kept as the oracle for
``nalg.sym3.maschke_multiplicities``.

Invariance is checked translate by translate, in ``fractions.Fraction``:
every permutation's action on every basis element must stay in the
subspace.  The multiplicities are the ranks of the images of an invariant subspace
under the three central idempotents of the group algebra, computed in
``fractions.Fraction`` by left multiplication; the standard component has
dimension 2 per copy, so its rank is halved.
"""

from __future__ import annotations

from fractions import Fraction

from nalg.linalg import Subspace, span
from nalg.sym3 import IDENTITY, PERMS, GroupAlgElem, action, ga_multiply, special_vector

# The central idempotents.  Each is fixed by p -> p^-1, so applying one
# through the translation action is left multiplication by it.
E_TRIVIAL = Fraction(1, 6) * special_vector("W")
E_SIGN = Fraction(1, 6) * special_vector("V")
E_STANDARD = GroupAlgElem.from_perm(IDENTITY) - E_TRIVIAL - E_SIGN


def maschke_multiplicities(s: Subspace) -> tuple[int, int, int]:
    """(trivial, sign, standard) of a subspace closed under the translation action."""
    elems = [GroupAlgElem(row) for row in s.basis]
    trivial, sign, standard = (
        span([ga_multiply(E, e).coords for e in elems], 6).dim for E in (E_TRIVIAL, E_SIGN, E_STANDARD)
    )
    return (trivial, sign, standard // 2)


def is_invariant(s: Subspace) -> bool:
    """Whether ``s`` is closed under the translation action."""
    return all(s.contains(action(p, GroupAlgElem(row)).coords) for row in s.basis for p in PERMS)
