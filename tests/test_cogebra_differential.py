"""The cogebra checks and maps, built from the dual algebra, against the
reference implementation that works on the cogebra itself.

Costructure tables are sparse with coefficients over denominators 1, 2,
3 and 5.  Half of them only comultiply downward (the coproduct of e_k
lands on pairs below k), which is often coassociative and brings the
triple-symmetry checks and both of their readings into play.  Their
antisymmetrizations (``lie_cogebra_from``) bring co-Jacobi cases, and
duals of unital algebras bring counits.
"""

from fractions import Fraction

import reference_cogebras as reference
from hypothesis import example, given, settings
from hypothesis import strategies as st
from shared import cogebras, sparse_tables

from nalg import catalog
from nalg.algebras import Algebra
from nalg.cogebras import (
    Cogebra,
    CogebraReport,
    classify_cogebra,
    coannihilator,
    coassoc_left,
    coassoc_right,
    gi_bang_cocheck,
    gi_cocheck,
    is_lie_cogebra,
)
from nalg.duality import dualize_algebra
from nalg.sym3 import PERMS, GroupAlgElem


# The grouplike cogebra passes every normalized triple-symmetry check and
# fails every literal one; dual_mat2 is coassociative with a counit and
# fails both readings.  SQUARE_ZERO, the dual of e1 e1 = e2, has a nonzero
# coproduct and (id (x) coproduct) after the coproduct zero, so it passes
# the literal reading; dual_trunc_poly2 passes the normalized reading and
# fails the literal one.  The last two have coannihilators of dimension 5
# and 2, which random draws rarely reach.
GROUPLIKE = Cogebra(1, {(1, 1, 1): 1}, counit=(1,))
SQUARE_ZERO = Cogebra(2, {(2, 1, 1): 1})
PINNED = (
    GROUPLIKE,
    catalog.get("dual_mat2"),
    SQUARE_ZERO,
    catalog.get("dual_trunc_poly2"),
    Cogebra(3, {(2, 3, 3): Fraction(-1, 2), (1, 3, 2): Fraction(1, 3)}),
    Cogebra(3, {(3, 3, 3): Fraction(-1, 5), (3, 2, 1): Fraction(2, 3)}),
)


def with_pinned_examples(test):
    for C in PINNED:
        test = example(C)(test)
    return test


@with_pinned_examples
@given(cogebras())
@settings(max_examples=120 * settings.default.max_examples // 100, deadline=None)
def test_classify_cogebra_matches_reference(C):
    ours, ref = classify_cogebra(C), reference.classify_cogebra(C)
    for name in CogebraReport.__slots__:
        assert getattr(ours, name) == getattr(ref, name), name


@with_pinned_examples
@given(cogebras())
@settings(max_examples=80 * settings.default.max_examples // 100, deadline=None)
def test_single_cochecks_match_reference(C):
    for i in range(1, 7):
        assert gi_cocheck(C, i) == reference.gi_cocheck(C, i), i
    for i in range(2, 7):
        for literal in (False, True):
            ours = gi_bang_cocheck(C, i, literal=literal)
            assert ours == reference.gi_bang_cocheck(C, i, literal=literal), (i, literal)
    assert is_lie_cogebra(C) == reference.is_lie_cogebra(C)
    assert coannihilator(C) == reference.coannihilator(C)


@with_pinned_examples
@given(cogebras())
@settings(max_examples=60 * settings.default.max_examples // 100, deadline=None)
def test_iterated_coproducts_and_phi_match_reference(C):
    """Both iterated coproducts, built from the dual's composites, and slot
    permutation on the output side, built from ``phi_precompose``."""
    left, right = coassoc_left(C), coassoc_right(C)
    assert left == reference.coassoc_left(C)
    assert right == reference.coassoc_right(C)
    v = GroupAlgElem((1, Fraction(-1, 2), 0, 3, Fraction(2, 3), -1))
    for X in (left, right):
        for p in PERMS + (v,):
            assert X.phi(p) == reference.phi(X, p), p


def test_literal_reading_cases():
    trunc = catalog.get("dual_trunc_poly2")
    for i in range(2, 7):
        assert gi_bang_cocheck(SQUARE_ZERO, i, literal=True), i
        assert reference.gi_bang_cocheck(SQUARE_ZERO, i, literal=True), i
        assert gi_bang_cocheck(trunc, i) and not gi_bang_cocheck(trunc, i, literal=True), i


def test_literal_reading_needs_coassociativity():
    # The dual of e1 e1 = e2, e2 e1 = e3: (id (x) coproduct) after the
    # coproduct is zero, as for SQUARE_ZERO, but the cogebra is not
    # coassociative, so the literal reading fails.
    C = dualize_algebra(Algebra(3, {(1, 1, 2): 1, (2, 1, 3): 1}))
    for i in range(2, 7):
        assert not gi_bang_cocheck(C, i, literal=True), i
        assert not reference.gi_bang_cocheck(C, i, literal=True), i


@st.composite
def unit_candidates(draw):
    """A table of dim 1-4 and a vector.  The table makes e_1 / c a unit,
    a left unit only, a right unit only, or neither, on top of sparse
    products among e_2..e_n, sometimes with one product of e_1 changed;
    the vector is e_1 / c, a multiple of it, or small and random."""
    n = draw(st.integers(1, 4))
    c = draw(st.sampled_from((1, -1, 2, Fraction(-1, 3))))
    sides = draw(st.sampled_from(((1, 1), (1, 1), (1, 0), (0, 1), (0, 0))))
    if n > 1:
        table = {(i + 1, j + 1, k): v for (k, i, j), v in draw(sparse_tables(n - 1)).items()}
    else:
        table = {}
    for j in range(1, n + 1):
        if sides[0]:
            table[(1, j, j)] = c
        if sides[1]:
            table[(j, 1, j)] = c
    if draw(st.integers(0, 2)) == 0:
        key = (draw(st.sampled_from(((1, 1), (1, n), (n, 1)))) + (draw(st.integers(1, n)),))
        table[key] = draw(st.sampled_from((0, 1, c, -c)))
    unit = (1 / Fraction(c),) + (0,) * (n - 1)
    vector = draw(
        st.one_of(
            st.just(unit),
            st.just(unit),
            st.sampled_from((2, -1)).map(lambda t: tuple(t * u for u in unit)),
            st.lists(st.sampled_from((0, 0, 1, -1, Fraction(1, 2))), min_size=n, max_size=n),
        )
    )
    return n, table, tuple(vector)


def _raises(build) -> bool:
    try:
        build()
    except ValueError:
        return True
    return False


@given(unit_candidates())
@settings(max_examples=150 * settings.default.max_examples // 100, deadline=None)
def test_unit_axiom_is_the_counit_axiom_of_the_transpose(case):
    """The one constructor check reads a cogebra key (k, i, j) as the dual's
    (i, j, k); this pins that the counit axiom is the unit axiom there."""
    n, table, u = case
    transpose = {(k, i, j): c for (i, j, k), c in table.items()}
    assert _raises(lambda: Algebra(n, table, unit=u)) == _raises(lambda: Cogebra(n, transpose, counit=u))
