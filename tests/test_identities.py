"""The degree-3 identity module I(A) of ``reference_identities`` as the
oracle of every flag of ``classify``: each flag is one membership in I(A),
and the annihilator is {v : (v, -v) in I(A)}.  A change of basis keeps
I(A), as it keeps every identity.  I(A) holds more than the flags ask:
``generic3`` has no flag and an annihilator of 0, yet one identity.
"""

from hypothesis import given, settings
from reference_identities import diagonal, holds, identities
from shared import algebras, inverse, rebased

from nalg.algebras import classify
from nalg.formats import parse_ga_expr
from nalg.linalg import span
from nalg.sym3 import IDENTITY, SUBGROUPS, GroupAlgElem, special_vector

# dim I(A) of each catalog algebra.
DIMS = {
    "mat2": 6,
    "trunc_poly2": 11,
    "k1": 11,
    "vinberg2": 9,
    "prelie2": 8,
    "g4_2": 6,
    "sl2": 10,
    "g5_only": 9,
    "g2bang3": 12,
    "nonjacobi3": 9,
    "generic3": 1,
}

ID = GroupAlgElem.from_perm(IDENTITY)
ZERO = GroupAlgElem.zero()


def assert_flags_are_memberships(A):
    I = identities(A)
    report = classify(A)
    for i in SUBGROUPS:
        a = special_vector(f"a{i}")
        assert report.gi_assoc[i] == holds(I, a, -a), i
    W = special_vector("W")
    assert report.is_3_power_associative == holds(I, W, -W)
    associative = holds(I, ID, -ID)
    for i in report.gi_bang:
        u = special_vector(f"u{i}") - len(SUBGROUPS[i]) * ID
        assert report.gi_bang[i] == (associative and holds(I, u, ZERO)), i
    assert span([v.coords for v in report.annihilator_basis], 6) == diagonal(I)


def test_dims_of_the_catalog(catalog_algebras):
    assert {name: identities(A).dim for name, A in catalog_algebras.items()} == DIMS


def test_flags_of_the_catalog_are_memberships(catalog_algebras):
    for A in catalog_algebras.values():
        assert_flags_are_memberships(A)


@given(algebras())
@settings(max_examples=100)
def test_flags_are_memberships(A):
    assert_flags_are_memberships(A)


def test_generic3_has_one_identity_and_no_annihilator(catalog_algebras):
    A = catalog_algebras["generic3"]
    V = parse_ga_expr("id - t12 - t13 - t23 + c1 + c2")
    assert identities(A) == span([V.coords + ZERO.coords], 12)
    assert classify(A).annihilator_dim == 0


def test_a_change_of_basis_keeps_the_module(catalog_algebras):
    # f_a = e_1 + ... + e_a, and an upper triangular matrix of 1s and 2s.
    for A in catalog_algebras.values():
        for M in (
            [[int(i <= a) for a in range(A.dim)] for i in range(A.dim)],
            [[(1 + (i + a) % 2) * (i <= a) for a in range(A.dim)] for i in range(A.dim)],
        ):
            assert identities(rebased(A, M, inverse(M))) == identities(A)
