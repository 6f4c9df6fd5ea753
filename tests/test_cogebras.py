from fractions import Fraction as F

import pytest

from nalg import algebras, catalog, cogebras
from nalg.algebras import gi_bang_check, gi_check
from nalg.cogebras import (
    Cogebra,
    CubeMap,
    classify_cogebra,
    coannihilator,
    coassoc_left,
    coassoc_right,
    flip,
    gi_bang_cocheck,
    gi_cocheck,
    is_lie_cogebra,
    lie_cogebra_from,
)
from nalg.duality import dualize_algebra
from nalg.sym3 import PERMS, compose


def grouplike1():
    return Cogebra(1, {(1, 1, 1): 1}, counit=(1,))


def zero_coproduct(dim=2):
    return Cogebra(dim, {})


class TestCogebraConstruction:
    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            Cogebra(2, {(1, 1, 3): 1})

    def test_counit_axiom_enforced(self):
        with pytest.raises(ValueError):
            Cogebra(2, {}, counit=(1, 0))
        grouplike1()  # valid

    def test_one_sided_counit_rejected(self):
        # e1* is a left counit of the first table and a right counit of the second.
        for table in ({(1, 1, 1): 1, (2, 1, 2): 1}, {(1, 1, 1): 1, (2, 2, 1): 1}):
            with pytest.raises(ValueError, match="counit axiom"):
                Cogebra(2, table, counit=(1, 0))
        Cogebra(2, {(1, 1, 1): 1, (2, 1, 2): 1, (2, 2, 1): 1}, counit=(1, 0))  # valid

    def test_comultiply_linear(self):
        C = dualize_algebra(catalog.get("trunc_poly2"))
        assert C.comultiply((0, 1)) == {(1, 2): F(1), (2, 1): F(1)}
        assert C.comultiply((1, 0)) == {(1, 1): F(1)}
        assert C.comultiply((2, 3)) == {(1, 1): F(2), (1, 2): F(3), (2, 1): F(3)}

    def test_zero_coproduct(self):
        assert zero_coproduct().comultiply((1, 1)) == {}


class TestGiCocheck:
    def test_dual_of_matrix_algebra(self, catalog_cogebras):
        for i in range(1, 7):
            assert gi_cocheck(catalog_cogebras["dual_mat2"], i)

    def test_dual_of_vinberg(self, catalog_cogebras):
        C = catalog_cogebras["dual_vinberg2"]
        assert gi_cocheck(C, 2)
        assert not gi_cocheck(C, 1)

    def test_zero_coproduct_passes_everything(self):
        for i in range(1, 7):
            assert gi_cocheck(zero_coproduct(), i)

    def test_transport_from_algebras(self, catalog_algebras):
        for A in catalog_algebras.values():
            D = dualize_algebra(A)
            for i in range(1, 7):
                assert gi_cocheck(D, i) == gi_check(A, i)


class TestBangCocheck:
    def test_dual_of_truncated_polynomials(self, catalog_cogebras):
        C = catalog_cogebras["dual_trunc_poly2"]
        for i in range(2, 7):
            assert gi_bang_cocheck(C, i)

    def test_dual_of_matrix_algebra_fails(self, catalog_cogebras):
        assert not gi_bang_cocheck(catalog_cogebras["dual_mat2"], 2)

    def test_grouplike_normalized_vs_literal(self):
        C = grouplike1()
        for i in range(2, 7):
            assert gi_bang_cocheck(C, i)
            # the unnormalized displayed sum forces |G|*x == x, which fails
            assert not gi_bang_cocheck(C, i, literal=True)

    def test_literal_reading_builds_no_map(self, monkeypatch):
        # The identity kills a composite exactly when it is zero, so the
        # literal reading is two kill tests on the dual's integer table.
        # dual_mat2's (xy)z is nonzero on the probe's first orbit, which
        # decides every index before any layer is computed.
        def no_composite(*args):
            raise AssertionError("the literal reading built a composite map")

        layers, composite_layers = [], algebras._composite_layers

        def counted(*args):
            for layer in composite_layers(*args):
                layers.append(layer)
                yield layer

        monkeypatch.setattr(cogebras, "_composite", no_composite)
        monkeypatch.setattr(algebras, "_composite_layers", counted)
        C = catalog.get("dual_mat2")
        for i in range(2, 7):
            assert not gi_bang_cocheck(C, i, literal=True)
        assert layers == []
        # A passing reading reads every layer, still without a map.
        assert gi_bang_cocheck(catalog.get("dual_g2bang3"), 2, literal=True)
        assert layers

    def test_zero_coproduct_passes_both_readings(self):
        C = zero_coproduct()
        for i in range(2, 7):
            assert gi_bang_cocheck(C, i)
            assert gi_bang_cocheck(C, i, literal=True)

    def test_transport_from_algebras(self, catalog_algebras):
        for A in catalog_algebras.values():
            D = dualize_algebra(A)
            for i in range(2, 7):
                assert gi_bang_cocheck(D, i) == gi_bang_check(A, i)


class TestFlip:
    def test_swaps_output_factors(self):
        C = Cogebra(2, {(1, 1, 2): 1})
        assert flip(C).coproducts == {(1, 2, 1): F(1)}

    def test_symmetric_fixed(self, catalog_cogebras):
        C = catalog_cogebras["dual_trunc_poly2"]
        assert flip(C).coproducts == C.coproducts

    def test_involution(self, catalog_cogebras):
        for C in catalog_cogebras.values():
            assert flip(flip(C)).coproducts == C.coproducts

    def test_counit_survives(self, catalog_cogebras):
        assert flip(catalog_cogebras["dual_mat2"]).counit is not None


class TestLieCogebra:
    def test_cocommutative_gives_zero(self, catalog_cogebras):
        DL = lie_cogebra_from(catalog_cogebras["dual_trunc_poly2"])
        assert not DL.coproducts
        assert is_lie_cogebra(DL)

    def test_dual_of_vinberg(self, catalog_cogebras):
        assert is_lie_cogebra(lie_cogebra_from(catalog_cogebras["dual_vinberg2"]))

    def test_dual_of_matrix_algebra(self, catalog_cogebras):
        assert is_lie_cogebra(lie_cogebra_from(catalog_cogebras["dual_mat2"]))

    def test_antisymmetry_is_constructional(self, catalog_cogebras):
        for C in catalog_cogebras.values():
            DL = lie_cogebra_from(C)
            assert flip(DL).coproducts == {
                k: -c for k, c in DL.coproducts.items()
            }

    def test_dual_of_lie_algebra_is_lie_cogebra(self, catalog_algebras):
        assert is_lie_cogebra(dualize_algebra(catalog_algebras["sl2"]))
        assert not is_lie_cogebra(dualize_algebra(catalog_algebras["nonjacobi3"]))


class TestCounitLaws:
    def test_counit_of_dual_is_evaluation_at_unit(self, catalog_algebras):
        for A in catalog_algebras.values():
            D = dualize_algebra(A)
            if A.unit is None:
                assert D.counit is None
            else:
                assert D.counit == A.unit


class TestCoannihilator:
    def test_mirrors_algebra_annihilator_dimension(self, catalog_algebras):
        from nalg.algebras import annihilator

        for A in catalog_algebras.values():
            assert coannihilator(dualize_algebra(A)).dim == annihilator(A).dim


class TestClassifyCogebra:
    def test_report_consistency(self, catalog_cogebras):
        for C in catalog_cogebras.values():
            r = classify_cogebra(C)
            assert r.is_coassociative == r.gi_coassoc[1]
            assert r.is_lie_coadmissible == r.gi_coassoc[6]
            assert r.coannihilator_dim == len(r.coannihilator_basis)
            assert r.has_counit == (C.counit is not None)


def test_iterated_coproduct_shapes():
    # on a grouplike element both iterated coproducts are the triple cube
    C = grouplike1()
    assert coassoc_left(C).entries == {(1, 1, 1, 1): F(1)}
    assert coassoc_right(C).entries == {(1, 1, 1, 1): F(1)}


def test_phi_is_a_left_action():
    # The slots of the first key hold three distinct indices, so its six
    # slot permutations are distinct keys, and a wrong convention (p for
    # p^-1) shows on each non-commuting pair.
    X = CubeMap(3, {(1, 1, 2, 3): 1, (2, 3, 1, 1): 2})
    for p in PERMS:
        for q in PERMS:
            assert X.phi(p).phi(q) == X.phi(compose(q, p)), (p, q)
