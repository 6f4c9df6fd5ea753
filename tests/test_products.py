from fractions import Fraction as F

from reference_algebras import is_algebra_morphism

from nalg.algebras import annihilator, gi_bang_check, gi_check
from nalg.cogebras import gi_bang_cocheck, gi_cocheck
from nalg.duality import dualize_algebra
from nalg.products import convolution_algebra, pair_index, tensor_algebras


class TestPairIndex:
    def test_row_major(self):
        assert pair_index(1, 1, 3) == 1
        assert pair_index(1, 3, 3) == 3
        assert pair_index(2, 1, 3) == 4
        assert pair_index(4, 2, 2) == 8


class TestTensor:
    def test_unit_factor_is_isomorphic_copy(self, catalog_algebras):
        k1 = catalog_algebras["k1"]
        for A in catalog_algebras.values():
            T = tensor_algebras(A, k1)
            assert T.dim == A.dim
            assert T.products == A.products
            assert (T.unit == A.unit) or (A.unit is None and T.unit is None)

    def test_unit_of_tensor(self, catalog_algebras):
        T = tensor_algebras(catalog_algebras["mat2"], catalog_algebras["trunc_poly2"])
        assert T.unit is not None
        assert T.dim == 8

    def test_flat_relabeling_is_associative(self, catalog_algebras):
        names = ("k1", "trunc_poly2", "vinberg2")
        for a in names:
            for b in names:
                for c in names:
                    A, B, C = (catalog_algebras[n] for n in (a, b, c))
                    left = tensor_algebras(tensor_algebras(A, B), C)
                    right = tensor_algebras(A, tensor_algebras(B, C))
                    assert left.products == right.products
                    assert left.dim == right.dim

    def test_construction_theorem_over_catalog(self, catalog_algebras):
        algebras = list(catalog_algebras.values())
        for i in range(1, 7):
            passing = [A for A in algebras if gi_check(A, i)]
            if i == 1:
                partners = [A for A in algebras if gi_check(A, 1)]
            else:
                partners = [A for A in algebras if gi_bang_check(A, i)]
            assert passing and partners
            for A in passing:
                for B in partners:
                    assert gi_check(tensor_algebras(A, B), i), (A.name, B.name, i)

    def test_designated_instances(self, catalog_algebras):
        assert gi_check(
            tensor_algebras(
                catalog_algebras["vinberg2"], catalog_algebras["trunc_poly2"]
            ),
            2,
        )
        assert gi_check(
            tensor_algebras(
                catalog_algebras["prelie2"], catalog_algebras["trunc_poly2"]
            ),
            3,
        )

    def test_negative_result(self, catalog_algebras):
        T = tensor_algebras(catalog_algebras["vinberg2"], catalog_algebras["prelie2"])
        assert annihilator(T).dim == 0
        for i in range(1, 7):
            assert not gi_check(T, i)


class TestConvolution:
    def test_one_dim_idempotent(self, catalog_algebras):
        k1 = catalog_algebras["k1"]
        conv = convolution_algebra(dualize_algebra(k1), k1)
        assert conv.dim == 1
        assert conv.products == {(1, 1, 1): F(1)}
        assert conv.unit == (F(1),)

    def test_matrix_algebra_convolution_square(self, catalog_algebras):
        A = catalog_algebras["mat2"]
        conv = convolution_algebra(dualize_algebra(A), A)
        assert conv.dim == 16
        assert conv.unit is not None
        assert gi_check(conv, 1)

    def test_vinberg_against_bang_cogebra(self, catalog_algebras, catalog_cogebras):
        conv = convolution_algebra(
            catalog_cogebras["dual_trunc_poly2"], catalog_algebras["vinberg2"]
        )
        assert gi_check(conv, 2)

    def test_construction_theorem_over_catalog(self, catalog_algebras, catalog_cogebras):
        cogebras = list(catalog_cogebras.values())
        for i in range(1, 7):
            passing = [A for A in catalog_algebras.values() if gi_check(A, i)]
            if i == 1:
                partners = [C for C in cogebras if gi_cocheck(C, 1)]
            else:
                partners = [C for C in cogebras if gi_bang_cocheck(C, i)]
            assert passing and partners
            for A in passing:
                for C in partners:
                    assert gi_check(convolution_algebra(C, A), i), (C.name, A.name, i)

    def test_unit_requires_both_sides(self, catalog_algebras, catalog_cogebras):
        conv = convolution_algebra(
            catalog_cogebras["dual_sl2"], catalog_algebras["mat2"]
        )
        assert conv.unit is None


class TestFunctoriality:
    def test_identity_tensor_morphism(self, catalog_algebras):
        # f: truncated polynomials -> scalars, then id (x) f between the
        # tensor algebras must again be a morphism
        A = catalog_algebras["vinberg2"]
        B = catalog_algebras["trunc_poly2"]
        Bp = catalog_algebras["k1"]
        f_images = [(1,), (0,)]
        assert is_algebra_morphism(f_images, B, Bp)
        source = tensor_algebras(A, B)
        target = tensor_algebras(A, Bp)
        images = []
        for a in range(1, A.dim + 1):
            for b in range(1, B.dim + 1):
                coords = [F(0)] * target.dim
                fb = f_images[b - 1]
                for t in range(1, Bp.dim + 1):
                    coords[pair_index(a, t, Bp.dim) - 1] = F(fb[t - 1])
                images.append(tuple(coords))
        assert is_algebra_morphism(images, source, target)
