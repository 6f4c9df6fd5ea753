import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nalg.linalg import member, span
from nalg.sym3 import (
    C1,
    C2,
    IDENTITY,
    PERMS,
    SUBGROUPS,
    T12,
    T13,
    T23,
    _E_SIGN,
    _E_STANDARD,
    _E_TRIVIAL,
    GroupAlgElem,
    action,
    compose,
    ga_multiply,
    inverse,
    maschke_multiplicities,
    orbit,
    orbit_span,
    right_ideal,
    sign,
    special_vector,
)

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)
ga_elems = st.builds(
    lambda cs: GroupAlgElem(tuple(cs)),
    st.lists(rationals, min_size=6, max_size=6),
)


class TestPerms:
    def test_compose_identity(self):
        for p in PERMS:
            assert compose(IDENTITY, p) == p
            assert compose(p, IDENTITY) == p

    def test_involutions(self):
        for t in (T12, T13, T23):
            assert compose(t, t) == IDENTITY

    def test_apply_right_first(self):
        # q = t13 first, then p = t12: 1 -> 3 -> 3, 2 -> 2 -> 1, 3 -> 1 -> 2
        assert compose(T12, T13) == C2

    def test_group_axioms_exhaustive(self):
        for p, q, r in itertools.product(PERMS, repeat=3):
            assert compose(compose(p, q), r) == compose(p, compose(q, r))
        for p in PERMS:
            assert compose(p, inverse(p)) == IDENTITY
            assert compose(inverse(p), p) == IDENTITY

    def test_sign_values(self):
        assert sign(IDENTITY) == 1
        assert sign(T23) == -1
        assert sign(C1) == 1
        assert sign(C2) == 1

    def test_sign_homomorphism_exhaustive(self):
        for p, q in itertools.product(PERMS, repeat=2):
            assert sign(compose(p, q)) == sign(p) * sign(q)

    def test_invalid_permutation(self):
        from nalg.sym3 import Perm3

        with pytest.raises(ValueError):
            Perm3((1, 1, 3))


class TestGroupAlgebra:
    def test_identity_element(self):
        one = GroupAlgElem.from_perm(IDENTITY)
        for p in PERMS:
            e = GroupAlgElem.from_perm(p)
            assert ga_multiply(one, e) == e
            assert ga_multiply(e, one) == e

    def test_signed_pair_product_gives_alternating_vector(self):
        product = ga_multiply(special_vector("a2"), special_vector("a5"))
        assert product == special_vector("V")

    def test_symmetrizer_squares_to_six_times_itself(self):
        W = special_vector("W")
        assert ga_multiply(W, W) == 6 * W

    @given(ga_elems, ga_elems, ga_elems)
    @settings(max_examples=40)
    def test_product_is_associative(self, u, v, w):
        assert (u * v) * w == u * (v * w)


class TestSpecialVectors:
    def test_alternating_and_symmetrizing(self):
        assert special_vector("V").coords == (F(1), F(-1), F(-1), F(-1), F(1), F(1))
        assert special_vector("W").coords == (F(1), F(1), F(1), F(1), F(1), F(1))

    def test_signed_subgroup_sums(self):
        assert special_vector("a1").coords == (1, 0, 0, 0, 0, 0)
        assert special_vector("a2").coords == (1, -1, 0, 0, 0, 0)
        assert special_vector("a3").coords == (1, 0, 0, -1, 0, 0)
        assert special_vector("a4").coords == (1, 0, -1, 0, 0, 0)
        assert special_vector("a5").coords == (1, 0, 0, 0, 1, 1)
        assert special_vector("a6") == special_vector("V")

    def test_inverse_sums(self):
        assert special_vector("u2").coords == (1, 1, 0, 0, 0, 0)
        assert special_vector("u5").coords == (1, 0, 0, 0, 1, 1)
        assert special_vector("u6") == special_vector("W")

    def test_single_generator_family(self):
        assert special_vector("v1") == GroupAlgElem.from_perm(IDENTITY)
        assert special_vector("v2") == GroupAlgElem.from_perm(T12)
        assert special_vector("v3") == GroupAlgElem.from_perm(T23)
        assert special_vector("v4") == GroupAlgElem.from_perm(T13)
        assert special_vector("v5") == special_vector("a5")
        assert special_vector("v6") == special_vector("V")

    def test_table_matches_the_defining_sums(self):
        for i, group in SUBGROUPS.items():
            a = u = GroupAlgElem.zero()
            for p in group:
                a = a + sign(p) * GroupAlgElem.from_perm(p)
                u = u + GroupAlgElem.from_perm(inverse(p))
            assert special_vector(f"a{i}") == a
            assert special_vector(f"u{i}") == u
            assert all(type(c) is F for c in a.coords + u.coords)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            special_vector("a7")


class TestOrbit:
    def test_orbit_of_identity_is_all_inverses(self):
        got = orbit(GroupAlgElem.from_perm(IDENTITY))
        expected = [GroupAlgElem.from_perm(inverse(p)) for p in PERMS]
        assert got == expected
        assert {tuple(e.coords) for e in got} == {
            tuple(GroupAlgElem.from_perm(p).coords) for p in PERMS
        }

    def test_orbit_of_alternating_vector_is_signed(self):
        V = special_vector("V")
        assert orbit(V) == [sign(p) * V for p in PERMS]

    def test_orbit_of_even_sum(self):
        even = special_vector("a5")
        odd = GroupAlgElem((0, 1, 1, 1, 0, 0))
        assert orbit(even) == [even, odd, odd, odd, even, even]

    def test_orbit_span_dims(self):
        assert orbit_span(special_vector("V")).dim == 1
        assert orbit_span(special_vector("W")).dim == 1
        assert orbit_span(GroupAlgElem.from_perm(IDENTITY)).dim == 6

    @given(ga_elems)
    @settings(max_examples=40)
    def test_orbit_span_invariant_under_action(self, v):
        s = orbit_span(v)
        for row in s.basis:
            for p in PERMS:
                assert member(action(p, GroupAlgElem(row)).coords, s)


class TestRightIdeal:
    def test_dims(self):
        assert right_ideal(GroupAlgElem.from_perm(IDENTITY)).dim == 6
        assert right_ideal(special_vector("a2")).dim == 3
        assert right_ideal(special_vector("V")).dim == 1

    def test_right_ideal_of_a2_basis(self):
        assert right_ideal(special_vector("a2")).basis == (
            (F(1), F(-1), F(0), F(0), F(0), F(0)),
            (F(0), F(0), F(1), F(0), F(0), F(-1)),
            (F(0), F(0), F(0), F(1), F(-1), F(0)),
        )

    def test_alternating_vector_in_every_signed_ideal(self):
        V = special_vector("V")
        for i in range(1, 7):
            assert member(V.coords, right_ideal(special_vector(f"a{i}")))


class TestMaschke:
    def test_sign_line(self):
        assert maschke_multiplicities(orbit_span(special_vector("V"))) == (0, 1, 0)

    def test_trivial_line(self):
        assert maschke_multiplicities(orbit_span(special_vector("W"))) == (1, 0, 0)

    def test_full_group_algebra(self):
        full = span([GroupAlgElem.from_perm(p).coords for p in PERMS], 6)
        assert maschke_multiplicities(full) == (1, 1, 2)

    def test_rejects_non_invariant_subspace(self):
        # right ideals are closed under right multiplication, not under the
        # translation action, so this one must be rejected
        with pytest.raises(ValueError):
            maschke_multiplicities(right_ideal(special_vector("a2")))

    def test_rejects_wrong_ambient(self):
        with pytest.raises(ValueError):
            maschke_multiplicities(span([(1, 0)], 2))

    @given(ga_elems)
    @settings(max_examples=40)
    def test_idempotents_act_by_left_multiplication(self, e):
        # maschke_multiplicities applies each idempotent E by ga_multiply;
        # through the translation action it gives the same vector.
        for E in (_E_TRIVIAL, _E_SIGN, _E_STANDARD):
            total = GroupAlgElem.zero()
            for p, c in zip(PERMS, E.coords):
                total = total + c * action(p, e)
            assert total == ga_multiply(E, e)

    @given(ga_elems)
    @settings(max_examples=40)
    def test_multiplicity_sum(self, v):
        s = orbit_span(v)
        m1, m2, m3 = maschke_multiplicities(s)
        assert m1 + m2 + 2 * m3 == s.dim


def test_subgroup_tables():
    assert SUBGROUPS[1] == (IDENTITY,)
    assert SUBGROUPS[2] == (IDENTITY, T12)
    assert SUBGROUPS[3] == (IDENTITY, T23)
    assert SUBGROUPS[4] == (IDENTITY, T13)
    assert SUBGROUPS[5] == (IDENTITY, C1, C2)
    assert set(SUBGROUPS[6]) == set(PERMS)
