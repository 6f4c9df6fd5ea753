"""Tensor products of algebras and convolution algebras on Hom spaces.

Pair bases are flattened row-major: the pair (a, b) with 1-based indices
maps to the flat index (a - 1) * right_dim + b.  The labeling is fixed so
serialized output is reproducible across runs.

Both products are one tensor product: its left factor is read through its
class's ``_in_product_order``, which gives an algebra's table as it is and
a cogebra's as its dual algebra's, so no table is unpacked by kind and no
dual is built.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

from .algebras import Algebra, Cogebra


def pair_index(a: int, b: int, right_dim: int) -> int:
    """Row-major flat label of the 1-based pair (a, b)."""
    return (a - 1) * right_dim + b


def _tensor_table(P: Mapping, Q: Mapping, n: int) -> dict[tuple[int, int, int], Fraction]:
    """The product tables ``P`` and ``Q`` multiplied factorwise, on the
    pairs labeled with ``Q``'s dimension ``n``."""
    out = {}
    for (i1, j1, k1), ca in P.items():
        for (i2, j2, k2), cb in Q.items():
            out[pair_index(i1, i2, n), pair_index(j1, j2, n), pair_index(k1, k2, n)] = ca * cb
    return out


def _tensor(A: Algebra | Cogebra, B: Algebra, sep: str) -> Algebra:
    """The tensor product with B of the algebra whose table is ``A``'s in
    product order, a cogebra's its dual's, and whose unit is ``A``'s
    (co)unit; basis names are joined by ``sep``."""
    dim, table, unit = A._fields()[:3]
    out = _tensor_table(A._in_product_order(table), B.products, B.dim)
    unit = None if unit is None or B.unit is None else tuple(ua * ub for ua in unit for ub in B.unit)
    basis = tuple(f"{na}{sep}{nb}" for na in A.basis_names() for nb in B.basis_names())
    return Algebra(dim * B.dim, out, unit=unit, basis=basis)


def tensor_algebras(A: Algebra, B: Algebra) -> Algebra:
    """The componentwise product on the tensor product space: structure
    constants multiply factorwise, and the unit is the tensor of the
    factors' units when both exist."""
    return _tensor(A, B, "*")


def convolution_algebra(C: Cogebra, A: Algebra) -> Algebra:
    """The convolution product on Hom(C, A).

    The basis map labeled (a, b) picks the coefficient of basis element a
    of C and sends it to basis element b of A; the product of two such
    maps routes the coproduct of C through the product of A.  That is the
    product of the tensor algebra C* (x) A under (a, b) <-> f_a (x) e_b,
    and counit (x) unit, when both exist, is its unit.  The table of C* is
    C's own in product order, so the dual algebra is never built.
    """
    return _tensor(C, A, ">")
