"""Reference convolution algebra, kept as the oracle for the differential
tests.

This is the definition on Hom(C, A) evaluated directly: the product of
the basis maps (a1, b1) and (a2, b2) routes every coproduct entry of C
through every product entry of A, and the unit is the unit of A after
the counit of C.  ``nalg.products.convolution_algebra``, which builds the
tensor product of the dual algebra of C with A, must agree with it on
every input.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

from nalg.algebras import Algebra
from nalg.cogebras import Cogebra
from nalg.products import pair_index


def convolution_algebra(C: Cogebra, A: Algebra) -> Algebra:
    products: dict[tuple[int, int, int], Fraction] = defaultdict(Fraction)
    for (k, a1, a2), d in C.coproducts.items():
        for (b1, b2, l), c in A.products.items():
            key = (
                pair_index(a1, b1, A.dim),
                pair_index(a2, b2, A.dim),
                pair_index(k, l, A.dim),
            )
            products[key] += d * c
    unit = None
    if A.unit is not None and C.counit is not None:
        coords = [Fraction(0)] * (C.dim * A.dim)
        for a in range(1, C.dim + 1):
            for b in range(1, A.dim + 1):
                coords[pair_index(a, b, A.dim) - 1] = C.counit[a - 1] * A.unit[b - 1]
        unit = tuple(coords)
    names_c = C.basis_names()
    names_a = A.basis_names()
    basis = tuple(
        f"{names_c[a - 1]}>{names_a[b - 1]}"
        for a in range(1, C.dim + 1)
        for b in range(1, A.dim + 1)
    )
    return Algebra(C.dim * A.dim, products, unit=unit, basis=basis)
