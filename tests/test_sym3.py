import itertools
from fractions import Fraction as F

import pytest
import reference_sym3 as reference
from hypothesis import example, given, settings
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
    GroupAlgElem,
    action,
    compose,
    ga_multiply,
    inverse,
    killed,
    maschke_multiplicities,
    orbit,
    orbit_span,
    right_annihilator,
    right_ideal,
    sign,
    special_vector,
    split,
)

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)
ga_elems = st.builds(
    lambda cs: GroupAlgElem(tuple(cs)),
    st.lists(rationals, min_size=6, max_size=6),
)
# Small integer coordinates, zero half the time, so that zero divisors
# (elements with a vanishing augmentation, sign or singular rho) are common.
int_elems = st.builds(GroupAlgElem, st.tuples(*[st.sampled_from((0, 0, 0, 1, -1, 2))] * 6))


class TestPerms:
    def test_compose_identity(self):
        for p in PERMS:
            assert compose(IDENTITY, p) == p
            assert compose(p, IDENTITY) == p

    def test_product_is_compose(self):
        for p, q in itertools.product(PERMS, repeat=2):
            assert p * q == compose(p, q)

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

    def test_images_are_stored_as_a_tuple_of_exact_ints(self):
        # A list was stored as given, so the permutation could not be
        # hashed; a bool or a float equals an int but prints as another value.
        from nalg.algebras import TrilinearMap, phi_precompose
        from nalg.sym3 import Perm3

        p = Perm3([2, 1, 3])
        assert p.images == (2, 1, 3) and p == T12 and hash(p) == hash(T12)
        assert GroupAlgElem.from_perm(p) == GroupAlgElem.from_perm(T12)
        T = TrilinearMap(3, {(1, 2, 3, 1): 1, (2, 2, 1, 3): F(1, 2)})
        assert phi_precompose(T, p) == phi_precompose(T, T12)
        for bad in ((True, 2, 3), (1.0, 2, 3), (1, 2, F(3)), ("1", 2, 3)):
            with pytest.raises(ValueError, match="not a permutation of 1..3"):
                Perm3(bad)


class TestGroupAlgebra:
    def test_six_coordinates(self):
        with pytest.raises(ValueError, match="^group-algebra elements have exactly six coordinates$"):
            GroupAlgElem((1, 2, 3))

    @given(ga_elems)
    def test_negation(self, v):
        assert -v == GroupAlgElem.zero() - v == v * -1

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
        # The oracle applies each idempotent E by ga_multiply; through the
        # translation action it gives the same vector.
        for E in (reference.E_TRIVIAL, reference.E_SIGN, reference.E_STANDARD):
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

    @given(int_elems)
    @settings(max_examples=100)
    def test_matches_the_idempotent_oracle(self, v):
        s = orbit_span(v)
        assert maschke_multiplicities(s) == reference.maschke_multiplicities(s)

    # Random spans are rarely invariant; the examples are: the zero space,
    # the trivial and sign lines, and the orbit spans of id - t12 (sign plus
    # one standard copy) and of the standard idempotent (two copies).
    @example([(0,) * 6])
    @example([special_vector("W").coords])
    @example([special_vector("V").coords])
    @example(list(orbit_span(GroupAlgElem.from_perm(IDENTITY) - GroupAlgElem.from_perm(T12)).basis))
    @example(list(orbit_span(reference.E_STANDARD).basis))
    @given(st.lists(st.tuples(*[st.integers(-2, 2)] * 6), min_size=1, max_size=4))
    @settings(max_examples=200)
    def test_rejects_exactly_the_spans_the_oracle_finds_not_invariant(self, vectors):
        s = span(vectors, 6)
        if reference.is_invariant(s):
            assert maschke_multiplicities(s) == reference.maschke_multiplicities(s)
        else:
            with pytest.raises(ValueError, match="not invariant under the translation action"):
                maschke_multiplicities(s)

    def test_oracle_on_every_invariant_line_and_the_whole_algebra(self):
        for v in (special_vector("V"), special_vector("W"), special_vector("a2"), GroupAlgElem.from_perm(T12)):
            s = orbit_span(v)
            assert maschke_multiplicities(s) == reference.maschke_multiplicities(s)


def _rho(p):
    r11, r12, r21, r22 = split(GroupAlgElem.from_perm(p).coords)[2:]
    return ((r11, r12), (r21, r22))


def _matmul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)) for i in range(2))


class TestSplit:
    def test_rho_is_a_homomorphism(self):
        for p, q in itertools.product(PERMS, repeat=2):
            assert _rho(compose(p, q)) == _matmul(_rho(p), _rho(q))

    def test_scalars_are_multiplicative(self):
        for p, q in itertools.product(PERMS, repeat=2):
            fp, fq = split(GroupAlgElem.from_perm(p).coords), split(GroupAlgElem.from_perm(q).coords)
            pq = split(GroupAlgElem.from_perm(compose(p, q)).coords)
            assert pq[:2] == (fp[0] * fq[0], fp[1] * fq[1])
        for p in PERMS:
            assert split(GroupAlgElem.from_perm(p).coords)[:2] == (1, sign(p))

    def test_splits_of_the_permutations_span_everything(self):
        assert span([split(GroupAlgElem.from_perm(p).coords) for p in PERMS], 6).dim == 6

    def test_rho_permutes_the_plane_coordinates(self):
        # rho(p) e_i = e_p(i): t12 sends e1 - e2 to its negative and
        # e2 - e3 to e1 - e3, the sum of the two basis vectors.
        assert _rho(T12) == ((-1, 1), (0, 1))
        assert _rho(C1) == ((0, -1), (1, -1))

    def test_zero_divisors(self):
        W, V = special_vector("W"), special_vector("V")
        one_minus_t12 = GroupAlgElem.from_perm(IDENTITY) - GroupAlgElem.from_perm(T12)
        for f, v in ((W, one_minus_t12), (V, special_vector("u2")), (one_minus_t12, special_vector("u2"))):
            assert ga_multiply(f, v).is_zero()
            assert killed(split(f.coords), split(v.coords))
        assert not killed(split(W.coords), split(W.coords))

    def test_killed_on_the_split_basis(self):
        # The elements whose splits are the unit vectors, by Fourier
        # inversion: 6 f_p = eps + sgn(p) sgn + 2 tr(rho(p^-1) M).  Every
        # entry of the componentwise product is read on some pair of them.
        units = []
        for t in itertools.product((0, 1), repeat=6):
            if sum(t) == 1:
                M = ((t[2], t[3]), (t[4], t[5]))
                coords = []
                for p in PERMS:
                    r = _rho(inverse(p))
                    trace = sum(r[i][j] * M[j][i] for i in range(2) for j in range(2))
                    coords.append(F(t[0] + sign(p) * t[1] + 2 * trace, 6))
                assert split(coords) == t
                units.append(GroupAlgElem(coords))
        for f, v in itertools.product(units, repeat=2):
            assert killed(split(f.coords), split(v.coords)) == ga_multiply(f, v).is_zero()

    @given(int_elems, int_elems)
    @settings(max_examples=200)
    def test_killed_is_a_zero_product(self, f, v):
        assert killed(split(f.coords), split(v.coords)) == ga_multiply(f, v).is_zero()

    @given(int_elems)
    @settings(max_examples=100)
    def test_right_annihilator_is_the_kernel_of_left_multiplication(self, f):
        # A subspace of the kernel with the kernel's dimension is the kernel.
        ann = right_annihilator(split(f.coords))
        images = [ga_multiply(f, GroupAlgElem.from_perm(p)).coords for p in PERMS]
        assert ann.dim == 6 - span(images, 6).dim
        for row in ann.basis:
            assert ga_multiply(f, GroupAlgElem(row)).is_zero()


def test_subgroup_tables():
    assert SUBGROUPS[1] == (IDENTITY,)
    assert SUBGROUPS[2] == (IDENTITY, T12)
    assert SUBGROUPS[3] == (IDENTITY, T23)
    assert SUBGROUPS[4] == (IDENTITY, T13)
    assert SUBGROUPS[5] == (IDENTITY, C1, C2)
    assert set(SUBGROUPS[6]) == set(PERMS)
