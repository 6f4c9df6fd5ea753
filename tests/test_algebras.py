import itertools
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_algebras import (
    basis_vec,
    combine,
    evaluate,
    is_algebra_morphism,
    left_assoc_map,
    right_assoc_map,
    slot_rows,
)

from nalg import catalog
from nalg.algebras import (
    Algebra,
    TrilinearMap,
    annihilator,
    associator,
    classify,
    commutator_algebra,
    gi_bang_check,
    gi_check,
    is_antisymmetric,
    is_commutative,
    is_sigma3_assoc_for,
    jacobi_check,
    phi_precompose,
    power_assoc_check,
)
from nalg.cogebras import Cogebra, gi_bang_cocheck, gi_cocheck
from nalg.linalg import member
from nalg.sym3 import (
    PERMS,
    SUBGROUPS,
    GroupAlgElem,
    compose,
    ga_multiply,
    inverse,
    sign,
    special_vector,
)

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)
ga_elems = st.builds(
    lambda cs: GroupAlgElem(tuple(cs)),
    st.lists(rationals, min_size=6, max_size=6),
)


def witness2():
    """2-dim algebra with e1*e1 = e2 and e2*e1 = e1; not 3-power associative."""
    return Algebra(2, {(1, 1, 2): 1, (2, 1, 1): 1})


def symbolic81():
    """Trilinear map on a 3-dim space with 81 independent coordinates."""
    entries = {}
    value = 1
    for key in itertools.product((1, 2, 3), repeat=4):
        entries[key] = F(value)
        value += 1
    return TrilinearMap(3, entries)


class TestAlgebraConstruction:
    def test_zero_entries_dropped(self):
        A = Algebra(2, {(1, 1, 1): 0, (1, 2, 2): 1})
        assert (1, 1, 1) not in A.products

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            Algebra(2, {(1, 3, 1): 1})

    def test_fake_unit_rejected(self):
        with pytest.raises(ValueError):
            Algebra(2, {(1, 1, 1): 1}, unit=(1, 0))

    def test_one_sided_unit_rejected(self):
        # e1 is a left unit of the first table and a right unit of the second.
        for table in ({(1, 1, 1): 1, (1, 2, 2): 1}, {(1, 1, 1): 1, (2, 1, 2): 1}):
            with pytest.raises(ValueError, match="two-sided unit"):
                Algebra(2, table, unit=(1, 0))
        Algebra(2, {(1, 1, 1): 1, (1, 2, 2): 1, (2, 1, 2): 1}, unit=(1, 0))  # valid

    def test_basis_and_unit_lengths_must_be_the_dimension(self):
        with pytest.raises(ValueError, match="^basis-name count differs from dimension$"):
            Algebra(2, {}, basis=("e1",))
        with pytest.raises(ValueError, match="^unit length differs from dimension$"):
            Algebra(2, {}, unit=(1,))
        with pytest.raises(ValueError, match="^counit length differs from dimension$"):
            Cogebra(2, {}, counit=(1, 0, 0))

    def test_vectors_must_have_the_dimension(self):
        with pytest.raises(ValueError, match="^vector length differs from algebra dimension$"):
            Algebra(2, {(1, 1, 1): 1}).multiply((1, 0), (1,))
        with pytest.raises(ValueError, match="^vector length differs from cogebra dimension$"):
            Cogebra(2, {(1, 1, 1): 1}).comultiply((1, 0, 0))

    def test_multiply_reads_table(self):
        A = witness2()
        e1, e2 = basis_vec(2, 1), basis_vec(2, 2)
        assert A.multiply(e1, e1) == e2
        assert A.multiply(e2, e1) == e1
        assert A.multiply(e1, e2) == (F(0), F(0))

    def test_unit_absorbs(self, catalog_algebras):
        A = catalog_algebras["mat2"]
        for j in range(1, 5):
            ej = basis_vec(4, j)
            assert A.multiply(A.unit, ej) == ej
            assert A.multiply(ej, A.unit) == ej


class TestAssociator:
    def test_matrix_algebra_is_associative(self, catalog_algebras):
        assert not associator(catalog_algebras["mat2"]).entries

    def test_one_dim_always_associative(self):
        assert not associator(Algebra(1, {(1, 1, 1): 1})).entries
        assert not associator(Algebra(1, {(1, 1, 1): -3})).entries

    def test_witness_cube(self):
        # (e1 e1) e1 - e1 (e1 e1) = e2 e1 - e1 e2 = e1
        T = associator(witness2())
        assert evaluate(T, basis_vec(2, 1), basis_vec(2, 1), basis_vec(2, 1)) == (
            F(1),
            F(0),
        )
        assert T.entries[(1, 1, 1, 1)] == 1

    def test_splits_into_left_and_right_parts(self, catalog_algebras):
        for A in catalog_algebras.values():
            assert combine(A.dim, ((1, left_assoc_map(A)), (-1, right_assoc_map(A)))) == associator(A)


class TestPhiPrecompose:
    def test_identity(self):
        T = symbolic81()
        assert phi_precompose(T, PERMS[0]) == T

    def test_swap_first_two_slots(self):
        T = symbolic81()
        swapped = phi_precompose(T, PERMS[1])
        expected = {(j, i, k, l): c for (i, j, k, l), c in T.entries.items()}
        assert dict(swapped.entries) == expected

    def test_first_cycle_moves_third_slot_to_front(self):
        T = symbolic81()
        cycled = phi_precompose(T, PERMS[4])
        # coordinate at (i, j, k) must be the original at (k, i, j)
        for (i, j, k, l), c in cycled.entries.items():
            assert T.entries.get((k, i, j, l), F(0)) == c
        assert len(cycled.entries) == len(T.entries)

    def test_evaluation_oracle(self):
        # feeding permuted arguments directly must agree with precomposition
        T = symbolic81()
        rng = random.Random(11)

        def rv():
            return tuple(F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3))

        for p in PERMS:
            composed = phi_precompose(T, p)
            pinv = inverse(p)
            for _ in range(5):
                xs = (rv(), rv(), rv())
                permuted = tuple(xs[pinv(k) - 1] for k in (1, 2, 3))
                assert evaluate(composed, *xs) == evaluate(T, *permuted)

    def test_homomorphism_law_all_pairs(self):
        T = symbolic81()
        for p, q in itertools.product(PERMS, repeat=2):
            lhs = phi_precompose(phi_precompose(T, p), q)
            assert lhs == phi_precompose(T, compose(p, q))

    @given(ga_elems, ga_elems)
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, u, v):
        T = symbolic81()
        both = combine(3, ((1, phi_precompose(T, u)), (1, phi_precompose(T, v))))
        assert both == phi_precompose(T, u + v)


class TestSigmaChecks:
    def test_associative_annihilated_by_anything(self, catalog_algebras):
        A = catalog_algebras["mat2"]
        for name in ("V", "W", "a2", "u3", "v5"):
            assert is_sigma3_assoc_for(A, special_vector(name))

    def test_vinberg_instance(self, catalog_algebras):
        A = catalog_algebras["vinberg2"]
        assert is_sigma3_assoc_for(A, special_vector("a2"))
        assert not is_sigma3_assoc_for(A, special_vector("a1"))

    def test_gi_check_against_matrix_algebra(self, catalog_algebras):
        for i in range(1, 7):
            assert gi_check(catalog_algebras["mat2"], i)

    def test_prelie_instance(self, catalog_algebras):
        assert gi_check(catalog_algebras["prelie2"], 3)
        assert not gi_check(catalog_algebras["prelie2"], 1)

    def test_generalized_jacobi_oracle_on_sl2(self, catalog_algebras):
        # expand (XY)Z + (YZ)X + (ZX)Y == X(YZ) + Y(ZX) + Z(XY) on all
        # basis triples, with plain products only
        A = catalog_algebras["sl2"]
        es = [basis_vec(3, i) for i in (1, 2, 3)]
        for x, y, z in itertools.product(es, repeat=3):
            lhs = [F(0)] * 3
            rhs = [F(0)] * 3
            for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                left = A.multiply(A.multiply(a, b), c)
                right = A.multiply(a, A.multiply(b, c))
                for t in range(3):
                    lhs[t] += left[t]
                    rhs[t] += right[t]
            assert lhs == rhs
        assert gi_check(A, 5)

    def test_index_validation(self, catalog_algebras):
        with pytest.raises(ValueError):
            gi_check(catalog_algebras["mat2"], 0)
        with pytest.raises(ValueError):
            gi_bang_check(catalog_algebras["mat2"], 1)


@pytest.mark.parametrize("index", [True, 2.0, "2"], ids=["bool", "float", "str"])
@pytest.mark.parametrize(
    "check, name",
    [(gi_check, "vinberg2"), (gi_bang_check, "vinberg2"), (gi_cocheck, "dual_vinberg2"), (gi_bang_cocheck, "dual_vinberg2")],
    ids=["gi_check", "gi_bang_check", "gi_cocheck", "gi_bang_cocheck"],
)
def test_subgroup_index_must_be_an_int(check, name, index):
    # True and 2.0 equal the indices 1 and 2, but only an int is an index.
    with pytest.raises(ValueError, match=re.escape(f"..6, got {index!r}")):
        check(catalog.get(name), index)


class TestAnnihilator:
    def test_associative_gives_everything(self, catalog_algebras):
        assert annihilator(catalog_algebras["mat2"]).dim == 6

    def test_vinberg_contains_signed_right_ideal(self, catalog_algebras):
        from nalg.sym3 import right_ideal

        ann = annihilator(catalog_algebras["vinberg2"])
        ideal = right_ideal(special_vector("a2"))
        assert ann.dim >= 3
        for row in ideal.basis:
            assert member(row, ann)

    def test_generic_instance_trivial(self, catalog_algebras):
        assert annihilator(catalog_algebras["generic3"]).dim == 0

    def test_right_multiplication_stability(self, catalog_algebras):
        for A in catalog_algebras.values():
            ann = annihilator(A)
            for row in ann.basis:
                v = GroupAlgElem(row)
                for p in PERMS:
                    assert member(ga_multiply(v, GroupAlgElem.from_perm(p)).coords, ann)

    def test_nonzero_whenever_some_subgroup_check_passes(self, catalog_algebras):
        for A in catalog_algebras.values():
            for i in range(1, 7):
                if gi_check(A, i):
                    assert member(special_vector(f"a{i}").coords, annihilator(A))


class TestCommutatorAndJacobi:
    def test_commutative_gives_zero(self, catalog_algebras):
        B = commutator_algebra(catalog_algebras["trunc_poly2"])
        assert not B.products

    def test_matrix_bracket_satisfies_jacobi(self, catalog_algebras):
        assert jacobi_check(commutator_algebra(catalog_algebras["mat2"]))

    def test_vinberg_is_lie_admissible(self, catalog_algebras):
        assert jacobi_check(commutator_algebra(catalog_algebras["vinberg2"]))

    def test_sl2(self, catalog_algebras):
        assert jacobi_check(catalog_algebras["sl2"])

    def test_zero_algebra(self):
        assert jacobi_check(Algebra(2, {}))

    def test_nonjacobi_witness(self, catalog_algebras):
        A = catalog_algebras["nonjacobi3"]
        assert is_antisymmetric(A)
        assert not jacobi_check(A)

    def test_non_antisymmetric_rejected(self, catalog_algebras):
        assert not jacobi_check(catalog_algebras["trunc_poly2"])

    def test_every_subgroup_identity_implies_lie_admissible(self, catalog_algebras):
        for A in catalog_algebras.values():
            if any(gi_check(A, i) for i in range(1, 7)):
                assert gi_check(A, 6)
                assert jacobi_check(commutator_algebra(A))

    def test_antisymmetric_generalized_jacobi_is_jacobi(self, catalog_algebras):
        seen = []
        for A in catalog_algebras.values():
            if is_antisymmetric(A):
                seen.append(A.name)
                assert gi_check(A, 5) == jacobi_check(A)
        for A in catalog_algebras.values():
            B = commutator_algebra(A)
            assert gi_check(B, 5) == jacobi_check(B)
        assert "sl2" in seen and "nonjacobi3" in seen


class TestPowerAssociativity:
    def test_associative(self, catalog_algebras):
        assert power_assoc_check(catalog_algebras["mat2"])

    def test_commutators_always_pass(self, catalog_algebras):
        for A in catalog_algebras.values():
            assert power_assoc_check(commutator_algebra(A))

    def test_witness_fails(self):
        A = witness2()
        assert not power_assoc_check(A)
        T = associator(A)
        assert evaluate(T, basis_vec(2, 1), basis_vec(2, 1), basis_vec(2, 1)) == (1, 0)

    def test_cube_coefficient_oracle(self, catalog_algebras):
        # The coefficient tensor of x -> A(x, x, x) is the symmetrized
        # associator up to the multiset stabilizer factor; both the
        # coefficient-level identity and the boolean equivalence must hold.
        def cube_coefficients(A):
            T = associator(A)
            out = {}
            for multiset in itertools.combinations_with_replacement(
                range(1, A.dim + 1), 3
            ):
                orderings = set(itertools.permutations(multiset))
                for l in range(1, A.dim + 1):
                    total = sum((T.entries.get((i, j, k, l), F(0)) for i, j, k in orderings), F(0))
                    if total:
                        out[(multiset, l)] = total
            return out

        for A in list(catalog_algebras.values()) + [witness2()]:
            coeffs = cube_coefficients(A)
            symmetrized = phi_precompose(associator(A), special_vector("W"))
            assert power_assoc_check(A) == (not coeffs)
            assert power_assoc_check(A) == (not symmetrized.entries)
            for multiset in itertools.combinations_with_replacement(
                range(1, A.dim + 1), 3
            ):
                stabilizer = 6 // len(set(itertools.permutations(multiset)))
                i, j, k = multiset
                for l in range(1, A.dim + 1):
                    assert symmetrized.entries.get((i, j, k, l), F(0)) == stabilizer * coeffs.get(
                        (multiset, l), F(0)
                    )


class TestBangChecks:
    def test_commutative_associative_passes_all(self, catalog_algebras):
        for i in range(2, 7):
            assert gi_bang_check(catalog_algebras["trunc_poly2"], i)
            assert gi_bang_check(catalog_algebras["k1"], i)

    def test_matrix_algebra_fails(self, catalog_algebras):
        A = catalog_algebras["mat2"]
        # witness: (E11 E12) E22 = E12 but (E12 E11) E22 = 0
        e11, e12, e22 = basis_vec(4, 1), basis_vec(4, 2), basis_vec(4, 4)
        lhs = A.multiply(A.multiply(e11, e12), e22)
        rhs = A.multiply(A.multiply(e12, e11), e22)
        assert lhs != rhs
        for i in range(2, 7):
            assert not gi_bang_check(A, i)

    def test_nonassociative_always_fails(self, catalog_algebras):
        for i in range(2, 7):
            assert not gi_bang_check(catalog_algebras["vinberg2"], i)

    def test_noncommutative_bang_instance(self, catalog_algebras):
        A = catalog_algebras["g2bang3"]
        assert not is_commutative(A)
        assert gi_bang_check(A, 2)

    def test_index5_requires_both_cycles(self):
        # a table whose triple products see only one of the two cyclic
        # rotations would be caught; trunc_poly2 passes both
        L = left_assoc_map(Algebra(2, {(1, 1, 1): 1, (1, 2, 2): 1, (2, 1, 2): 1}))
        for p in SUBGROUPS[5][1:]:
            assert phi_precompose(L, p) == L


class TestAxiomaticSquare:
    def test_two_composites_agree_with_check(self, catalog_algebras):
        # signed subgroup sums taken separately through the two
        # parenthesizations commute exactly when the check passes
        for A in catalog_algebras.values():
            L, R = left_assoc_map(A), right_assoc_map(A)
            for i in range(1, 7):
                left_sum = combine(A.dim, ((sign(p), phi_precompose(L, p)) for p in SUBGROUPS[i]))
                right_sum = combine(A.dim, ((sign(p), phi_precompose(R, p)) for p in SUBGROUPS[i]))
                assert (left_sum == right_sum) == gi_check(A, i)


class TestMultilinearityReduction:
    def test_basis_triples_match_random_vectors(self, catalog_algebras):
        rng = random.Random(2024)

        def rv(n):
            return tuple(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n))

        for A in catalog_algebras.values():
            triples = [(rv(A.dim), rv(A.dim), rv(A.dim)) for _ in range(20)]
            T = associator(A)
            zero = tuple([F(0)] * A.dim)
            for i in range(1, 7):
                defect = phi_precompose(T, special_vector(f"a{i}"))
                on_random = all(evaluate(defect, x, y, z) == zero for x, y, z in triples)
                assert on_random == gi_check(A, i)


class TestSlotRows:
    def test_symmetric_map_yields_one_row_per_orbit(self):
        # Every value is 1, so the six rows of each orbit are equal.
        keys = [(*m, l) for m in itertools.product(range(1, 4), repeat=3) for l in (1, 2)]
        orbits = {(tuple(sorted(key[:3])), key[3]) for key in keys}
        assert len(orbits) == 20
        assert list(slot_rows(dict.fromkeys(keys, 1))) == [(1,) * 6] * 20

    def test_distinct_rows_of_an_orbit_are_all_kept(self):
        # The six values of the orbit differ, so its six rows do too.
        keys = [(*p, 1) for p in itertools.permutations((1, 2, 3))]
        rows = list(slot_rows({key: v for v, key in enumerate(keys, start=1)}))
        assert len(rows) == len(set(rows)) == 6


class TestClassify:
    def test_matrix_algebra_report(self, catalog_algebras):
        r = classify(catalog_algebras["mat2"])
        assert all(r.gi_assoc[i] for i in range(1, 7))
        assert not any(r.gi_bang[i] for i in range(2, 7))
        assert r.annihilator_dim == 6
        assert r.has_unit and r.is_associative and r.is_lie_admissible

    def test_truncated_polynomials_report(self, catalog_algebras):
        r = classify(catalog_algebras["trunc_poly2"])
        assert all(r.gi_assoc[i] for i in range(1, 7))
        assert all(r.gi_bang[i] for i in range(2, 7))

    def test_vinberg_report(self, catalog_algebras):
        r = classify(catalog_algebras["vinberg2"])
        assert r.gi_assoc[2] and not r.gi_assoc[1] and r.gi_assoc[6]
        assert r.is_lie_admissible and not r.is_associative

    def test_internal_consistency(self, catalog_algebras):
        for A in catalog_algebras.values():
            r = classify(A)
            assert r.is_associative == r.gi_assoc[1]
            assert r.is_lie_admissible == r.gi_assoc[6]
            assert r.annihilator_dim == len(r.annihilator_basis)


class TestMorphismPredicate:
    # The predicate is the test tool behind test_products.TestFunctoriality;
    # these cases keep it from passing everything.
    def test_projection_is_morphism(self, catalog_algebras):
        # truncated polynomials onto scalars: 1 -> 1, x -> 0
        assert is_algebra_morphism(
            [(1,), (0,)], catalog_algebras["trunc_poly2"], catalog_algebras["k1"]
        )

    def test_swap_is_not(self, catalog_algebras):
        assert not is_algebra_morphism(
            [(0, 1), (1, 0)],
            catalog_algebras["trunc_poly2"],
            catalog_algebras["trunc_poly2"],
        )

    def test_shape_validation(self, catalog_algebras):
        with pytest.raises(ValueError):
            is_algebra_morphism(
                [(1,)], catalog_algebras["trunc_poly2"], catalog_algebras["k1"]
            )
