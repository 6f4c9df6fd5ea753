"""Tensor products of algebras and convolution algebras on Hom spaces.

Pair bases are flattened row-major: the pair (a, b) with 1-based indices
maps to the flat index (a - 1) * right_dim + b.  The labeling is fixed so
serialized output is reproducible across runs.
"""

from __future__ import annotations

from fractions import Fraction

from .algebras import Algebra
from .cogebras import Cogebra
from .duality import dualize_cogebra


def pair_index(a: int, b: int, right_dim: int) -> int:
    """Row-major flat label of the 1-based pair (a, b)."""
    return (a - 1) * right_dim + b


def _tensor(A: Algebra, B: Algebra, sep: str) -> Algebra:
    """The tensor product algebra, basis names joined by ``sep``."""
    products: dict[tuple[int, int, int], Fraction] = {}
    for (i1, j1, k1), ca in A.products.items():
        for (i2, j2, k2), cb in B.products.items():
            key = (
                pair_index(i1, i2, B.dim),
                pair_index(j1, j2, B.dim),
                pair_index(k1, k2, B.dim),
            )
            products[key] = ca * cb
    unit = None
    if A.unit is not None and B.unit is not None:
        unit = tuple(ua * ub for ua in A.unit for ub in B.unit)
    names_b = B.basis_names()
    basis = tuple(f"{na}{sep}{nb}" for na in A.basis_names() for nb in names_b)
    return Algebra(A.dim * B.dim, products, unit=unit, basis=basis)


def tensor_algebras(A: Algebra, B: Algebra) -> Algebra:
    """The componentwise product on the tensor product space.

    Structure constants multiply factorwise; the unit is the tensor of the
    factors' units when both exist.
    """
    return _tensor(A, B, "*")


def convolution_algebra(C: Cogebra, A: Algebra) -> Algebra:
    """The convolution product on Hom(C, A).

    The basis map labeled (a, b) picks the coefficient of basis element a
    of C and sends it to basis element b of A; the product of two such
    maps routes the coproduct of C through the product of A.  That is the
    product of the tensor algebra C* (x) A under (a, b) <-> f_a (x) e_b,
    and counit (x) unit, when both exist, is its unit.
    """
    return _tensor(dualize_cogebra(C), A, ">")
