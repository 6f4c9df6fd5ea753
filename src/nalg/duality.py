"""Dualization between finite-dimensional algebras and cogebras.

Dual bases are identified positionally (the functional f_i pairs with the
basis vector e_i), so dualizing transposes the structure constants:
``D[k][(i, j)] = C[(i, j)][k]``.  A cogebra's table becomes its dual's in
one place, ``algebras._dual_products``, which ``Cogebra`` reads too.
Units become counits by evaluation and vice versa.  Both round trips are
the identity on the stored data.

The dual is made by its constructor, so it is checked as any structure
is: a table or (co)unit edited after the argument was made is rejected.
"""

from __future__ import annotations

from .algebras import _dual_products
from .structures import Algebra, Cogebra


def dualize_algebra(A: Algebra) -> Cogebra:
    """The cogebra on the dual space; the counit, when the algebra has a
    unit, is evaluation at that unit."""
    coproducts = {(k, i, j): c for (i, j, k), c in A.products.items()}
    return Cogebra(A.dim, coproducts, A.unit, A.basis, A.name)


def dualize_cogebra(C: Cogebra) -> Algebra:
    """The algebra on the dual space; the unit, when the cogebra has a
    counit, has the counit's coordinates."""
    return Algebra(C.dim, _dual_products(C.coproducts), C.counit, C.basis, C.name)
