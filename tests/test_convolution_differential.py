"""The convolution algebra, built as the tensor product of the dual
algebra with the algebra, against the reference that routes coproducts
through products directly; and the construction theorem on random inputs
and on inputs drawn so that its premises hold.

Tables are sparse with coefficients over denominators 1, 2, 3 and 5, of
dimension 1 to 3.  Half of them only multiply upward (e_i e_j lands on
indices at least max(i, j)), which is often associative and brings the
triple-symmetry checks into play; commutator algebras bring the Lie-type
identities.  A unit adjoined to a table gives algebras with a unit and,
dualized, cogebras with a counit.
"""

import itertools
from fractions import Fraction

import reference_products as reference
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nalg import catalog
from nalg.algebras import Algebra, commutator_algebra, gi_check
from nalg.cogebras import Cogebra, gi_bang_cocheck, gi_cocheck
from nalg.duality import dualize_algebra
from nalg.products import convolution_algebra, tensor_algebras


@st.composite
def tables(draw, n, shift=0):
    """A sparse product table on the basis elements shift+1 .. shift+n."""
    upward = draw(st.booleans())
    slots = [
        (i + shift, j + shift, k + shift)
        for i, j, k in itertools.product(range(1, n + 1), repeat=3)
        if not upward or k >= max(i, j)
    ]
    keys = draw(st.lists(st.sampled_from(slots), unique=True, max_size=6))
    shared = draw(st.sampled_from((1, 2, 3, 5)))
    return {
        key: Fraction(
            draw(st.sampled_from((1, -1, 2, -2))),
            shared * draw(st.sampled_from((1, 1, 2, 3))),
        )
        for key in keys
    }


@st.composite
def algebras(draw):
    kind = draw(st.sampled_from(("table", "commutator", "unital")))
    if kind == "unital":
        # e_1 times anything is c times it, so the unit is e_1 / c.
        n = draw(st.integers(0, 2))
        c = draw(st.sampled_from((1, 2, Fraction(-1, 3))))
        products = draw(tables(n, shift=1)) if n else {}
        for j in range(1, n + 2):
            products[(1, j, j)] = c
            products[(j, 1, j)] = c
        return Algebra(n + 1, products, unit=(1 / Fraction(c),) + (0,) * n)
    n = draw(st.integers(1, 3))
    A = Algebra(n, draw(tables(n)))
    return commutator_algebra(A) if kind == "commutator" else A


def cogebras():
    return algebras().map(dualize_algebra)


# The one-dimensional (co)unital pair; the exterior algebra on two
# generators with its unit, which is associative with triple products
# antisymmetric in the outer slots; and a nilpotent table whose dual
# passes every triple-symmetry check in both readings.
K1 = Algebra(1, {(1, 1, 1): 1}, unit=(1,))
EXTERIOR = Algebra(
    4,
    {(1, j, j): 1 for j in range(1, 5)}
    | {(j, 1, j): 1 for j in range(2, 5)}
    | {(2, 3, 4): 1, (3, 2, 4): -1},
    unit=(1, 0, 0, 0),
)
NILPOTENT = Algebra(2, {(1, 1, 2): 1})


def with_pinned_pairs(test):
    for C in map(dualize_algebra, (K1, EXTERIOR, NILPOTENT)):
        for A in (K1, EXTERIOR, NILPOTENT):
            test = example(C, A)(test)
    return test


def test_catalog_pairs_match_reference():
    for c in catalog.COGEBRA_NAMES:
        C = catalog.get(c)
        for a in catalog.ALGEBRA_NAMES:
            A = catalog.get(a)
            assert convolution_algebra(C, A) == reference.convolution_algebra(C, A), (c, a)


@with_pinned_pairs
@given(cogebras(), algebras())
@settings(max_examples=150 * settings.default.max_examples // 100, deadline=None)
def test_random_pairs_match_reference(C: Cogebra, A: Algebra):
    assert convolution_algebra(C, A) == reference.convolution_algebra(C, A)


@with_pinned_pairs
@given(cogebras(), algebras())
@settings(max_examples=150 * settings.default.max_examples // 100, deadline=None)
def test_construction_theorem(C: Cogebra, A: Algebra):
    """G_i on A and coassociativity (i = 1) or the normalized G_i!
    symmetry on C give G_i on the convolution algebra."""
    conv = convolution_algebra(C, A)
    for i in range(1, 7):
        if gi_check(A, i) and (gi_cocheck(C, 1) if i == 1 else gi_bang_cocheck(C, i)):
            assert gi_check(conv, i), i


def cyclic_group_algebra(n):
    """Q[Z_n] on the basis g^0 .. g^(n-1): commutative and associative."""
    products = {(a, b, (a + b - 2) % n + 1): 1 for a in range(1, n + 1) for b in range(1, n + 1)}
    return Algebra(n, products, unit=(1,) + (0,) * (n - 1))


# Commutative associative factors, and the catalog algebra of G_i for each i = 2..5.
FACTORS = (catalog.get("trunc_poly2"), catalog.get("k1"), *map(cyclic_group_algebra, (1, 2, 3)))
G_I_ALGEBRAS = {2: "vinberg2", 3: "prelie2", 4: "g4_2", 5: "g5_only"}


@st.composite
def towers(draw, max_dim):
    """A tensor product of commutative associative factors, of dimension at most ``max_dim``."""
    T = FACTORS[1]
    for B in draw(st.lists(st.sampled_from(FACTORS), max_size=4)):
        if T.dim * B.dim <= max_dim:
            T = tensor_algebras(T, B)
    return T


@st.composite
def premised_pairs(draw):
    """An index i, a G_i! cogebra C and a G_i algebra A with dim C * dim A <= 32.

    C is the dual of a commutative associative table: its iterated coproduct
    is fully symmetric, so C is G_i! for every i."""
    i = draw(st.integers(1, 6))
    C = dualize_algebra(draw(towers(16)))
    room = 32 // C.dim
    if i == 1:
        A = catalog.get("mat2") if room >= 4 and draw(st.booleans()) else draw(towers(room))
    elif i == 6:
        # Every algebra of dimension 2 is Lie-admissible.
        values = st.lists(st.sampled_from((-1, 0, 1, Fraction(1, 2))), min_size=8, max_size=8)
        A = Algebra(2, dict(zip(itertools.product((1, 2), repeat=3), draw(values))))
    else:
        A = tensor_algebras(catalog.get(G_I_ALGEBRAS[i]), draw(towers(room // 2)))
    return i, C, A


@given(premised_pairs())
@settings(max_examples=100 * settings.default.max_examples // 100, deadline=None)
def test_construction_theorem_with_its_premises(pair):
    i, C, A = pair
    assert C.dim * A.dim <= 32
    assert gi_check(A, i)
    assert gi_cocheck(C, 1) if i == 1 else gi_bang_cocheck(C, i)
    assert gi_check(convolution_algebra(C, A), i)
    assert_literal_reading_implies_normalized(C)


def assert_literal_reading_implies_normalized(C):
    for i in range(2, 7):
        assert not gi_bang_cocheck(C, i, literal=True) or gi_bang_cocheck(C, i), i


def test_literal_reading_implies_normalized_on_the_catalog():
    for name in catalog.COGEBRA_NAMES:
        assert_literal_reading_implies_normalized(catalog.get(name))
