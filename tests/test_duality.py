from fractions import Fraction as F

from nalg.algebras import Algebra, gi_check
from nalg.cogebras import Cogebra, gi_cocheck
from nalg.duality import dualize_algebra, dualize_cogebra
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
