from fractions import Fraction as F

import pytest

from nalg import catalog
from nalg.algebras import Algebra, gi_check
from nalg.cogebras import Cogebra, gi_cocheck
from nalg.duality import _dual_products, dualize_algebra, dualize_cogebra
from nalg.formats import print_document


class TestDualizeAlgebra:
    def test_one_dim(self):
        D = dualize_algebra(Algebra(1, {(1, 1, 1): 1}, unit=(1,)))
        assert D.coproducts == {(1, 1, 1): F(1)}
        assert D.counit == (F(1),)

    def test_truncated_polynomials(self, catalog_algebras):
        D = dualize_algebra(catalog_algebras["trunc_poly2"])
        assert D.coproducts == {
            (1, 1, 1): F(1),
            (2, 1, 2): F(1),
            (2, 2, 1): F(1),
        }

    def test_round_trip(self, catalog_algebras):
        for A in catalog_algebras.values():
            back = dualize_cogebra(dualize_algebra(A))
            assert back.products == A.products
            assert back.unit == A.unit
            assert back.basis == A.basis


class TestDualizeCogebra:
    def test_grouplike(self):
        A = dualize_cogebra(Cogebra(1, {(1, 1, 1): 1}))
        assert A.products == {(1, 1, 1): F(1)}
        assert A.unit is None

    def test_round_trip(self, catalog_cogebras):
        for C in catalog_cogebras.values():
            back = dualize_algebra(dualize_cogebra(C))
            assert back.coproducts == C.coproducts
            assert back.counit == C.counit

    def test_transport_to_algebra(self, catalog_cogebras):
        for C in catalog_cogebras.values():
            A = dualize_cogebra(C)
            for i in range(1, 7):
                if gi_cocheck(C, i):
                    assert gi_check(A, i)


class TestSerializedInvolution:
    def test_double_dual_bytes_algebras(self, catalog_algebras):
        for A in catalog_algebras.values():
            assert print_document(dualize_cogebra(dualize_algebra(A))) == print_document(A)

    def test_double_dual_bytes_cogebras(self, catalog_cogebras):
        for C in catalog_cogebras.values():
            assert print_document(dualize_algebra(dualize_cogebra(C))) == print_document(C)


class TestPropagation:
    def test_algebra_checks_propagate_to_dual(self, catalog_algebras):
        for A in catalog_algebras.values():
            D = dualize_algebra(A)
            for i in range(1, 7):
                if gi_check(A, i):
                    assert gi_cocheck(D, i)


def _named_units():
    """A unital algebra and a cogebra with a counit, both with basis names and a name."""
    A = Algebra(2, {(1, 1, 1): F(1, 2), (1, 2, 2): F(1, 2), (2, 1, 2): F(1, 2)}, (2, 0), ("u", "x"), "half")
    C = Cogebra(2, {(1, 1, 1): 3, (2, 1, 2): 3, (2, 2, 1): 3}, (F(1, 3), 0), ("f", "g"), "thrice")
    return A, C


class TestStoredWithoutChecking:
    def test_duals_equal_the_checked_constructions(self, catalog_algebras, catalog_cogebras):
        named_algebra, named_cogebra = _named_units()
        for A in (named_algebra, *catalog_algebras.values()):
            transposed = {(k, i, j): c for (i, j, k), c in A.products.items()}
            assert dualize_algebra(A) == Cogebra(A.dim, transposed, A.unit, A.basis, A.name)
        for C in (named_cogebra, *catalog_cogebras.values()):
            assert dualize_cogebra(C) == Algebra(C.dim, _dual_products(C), C.counit, C.basis, C.name)


class TestEditedStructures:
    """A structure whose table is edited after construction is dualized
    through the dual's constructor, which rejects what it would reject on
    construction."""

    def test_index_out_of_range(self):
        A = catalog.get("mat2")
        A.products[(5, 1, 1)] = F(1)
        with pytest.raises(ValueError, match="index out of range in coproduct entry"):
            dualize_algebra(A)
        C = catalog.get("dual_mat2")
        C.coproducts[(1, 5, 1)] = F(1)
        with pytest.raises(ValueError, match="index out of range in product entry"):
            dualize_cogebra(C)

    def test_broken_unit_or_counit(self):
        A = catalog.get("mat2")
        A.products[(1, 1, 1)] = F(2)
        with pytest.raises(ValueError, match="declared counit fails the counit axiom"):
            dualize_algebra(A)
        C = catalog.get("dual_mat2")
        C.coproducts[(1, 1, 1)] = F(2)
        with pytest.raises(ValueError, match="declared unit is not a two-sided unit"):
            dualize_cogebra(C)
