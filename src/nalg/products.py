"""Tensor products of algebras and convolution algebras on Hom spaces.

Pair bases are flattened row-major: the pair (a, b) with 1-based indices
maps to the flat index (a - 1) * right_dim + b.  The labeling is fixed so
serialized output is reproducible across runs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .algebras import Algebra
from .cogebras import Cogebra
from .duality import _dual_products
from .linalg import Vec


def pair_index(a: int, b: int, right_dim: int) -> int:
    """Row-major flat label of the 1-based pair (a, b)."""
    return (a - 1) * right_dim + b


def _tensor(
    dim: int,
    products: Mapping[tuple[int, int, int], Fraction],
    unit: Vec | None,
    names: tuple[str, ...],
    B: Algebra,
    sep: str,
) -> Algebra:
    """The tensor product of B with the algebra of dimension ``dim`` given
    by ``products``, ``unit`` and basis ``names``, names joined by ``sep``."""
    out: dict[tuple[int, int, int], Fraction] = {}
    for (i1, j1, k1), ca in products.items():
        for (i2, j2, k2), cb in B.products.items():
            key = (
                pair_index(i1, i2, B.dim),
                pair_index(j1, j2, B.dim),
                pair_index(k1, k2, B.dim),
            )
            out[key] = ca * cb
    if unit is not None and B.unit is not None:
        unit = tuple(ua * ub for ua in unit for ub in B.unit)
    else:
        unit = None
    names_b = B.basis_names()
    basis = tuple(f"{na}{sep}{nb}" for na in names for nb in names_b)
    return Algebra(dim * B.dim, out, unit=unit, basis=basis)


def tensor_algebras(A: Algebra, B: Algebra) -> Algebra:
    """The componentwise product on the tensor product space.

    Structure constants multiply factorwise; the unit is the tensor of the
    factors' units when both exist.
    """
    return _tensor(A.dim, A.products, A.unit, A.basis_names(), B, "*")


def convolution_algebra(C: Cogebra, A: Algebra) -> Algebra:
    """The convolution product on Hom(C, A).

    The basis map labeled (a, b) picks the coefficient of basis element a
    of C and sends it to basis element b of A; the product of two such
    maps routes the coproduct of C through the product of A.  That is the
    product of the tensor algebra C* (x) A under (a, b) <-> f_a (x) e_b,
    and counit (x) unit, when both exist, is its unit.  The table of C* is
    read straight off C, without building the dual algebra.
    """
    return _tensor(C.dim, _dual_products(C.coproducts), C.counit, C.basis_names(), A, ">")
