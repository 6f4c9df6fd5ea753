"""Dualization between finite-dimensional algebras and cogebras.

Dual bases are identified positionally (the functional f_i pairs with the
basis vector e_i), so dualizing transposes the structure constants:
``D[k][(i, j)] = C[(i, j)][k]``.  Units become counits by evaluation and
vice versa.  Both round trips are the identity on the stored data.

The argument was checked on construction, and the counit axiom is the
unit axiom of the dual read on the same numbers, so the dual stores the
transposed fields without checking them again.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .algebras import Algebra

if TYPE_CHECKING:
    from .cogebras import Cogebra


def _stored(cls, *fields):
    """A ``cls`` holding ``fields`` as given, without the constructor's checks."""
    return cls.__new__(cls)._assign(*fields)


def dualize_algebra(A: Algebra) -> Cogebra:
    """The cogebra on the dual space; the counit, when the algebra has a
    unit, is evaluation at that unit."""
    # Imported here: nalg.cogebras decides its checks on dual algebras, so
    # it imports this module.
    from .cogebras import Cogebra

    coproducts = {(k, i, j): c for (i, j, k), c in A.products.items()}
    return _stored(Cogebra, A.dim, coproducts, A.unit, A.basis, A.name)


def _dual_products(C: Cogebra) -> dict[tuple[int, int, int], Fraction]:
    """The structure constants of the dual algebra: C's transposed."""
    return {(i, j, k): c for (k, i, j), c in C.coproducts.items()}


def dualize_cogebra(C: Cogebra) -> Algebra:
    """The algebra on the dual space; the unit, when the cogebra has a
    counit, has the counit's coordinates."""
    return _stored(Algebra, C.dim, _dual_products(C), C.counit, C.basis, C.name)
