"""Metamorphic and exhaustive checks of ``classify``.

The differential tests compare the engine with a second implementation of
the same definitions.  These compare the engine with itself, on inputs
that move the support, the orbits and the probe's three indices while the
answer stays fixed or moves in a known way:

* The opposite algebra x * y = yx has associator (x, y, z) -> -A(z, y, x),
  so slot permutation by v kills it exactly when t13 v kills A's:
  ann(A^op) = t13 ann(A), and the flags of the identities 2 and 3 (and of
  the triple symmetries 2 and 3) swap.  On the dual cogebras the
  coannihilator moves by right multiplication instead, since it is the
  dual algebra's annihilator moved by p -> p^-1.
* A change of basis is an isomorphism, so the report does not change,
  for an algebra and for a cogebra; and dualizing commutes with it: the
  dual of a cogebra rebased by M is its dual algebra rebased by (M^-1)^T,
  the change to the dual basis.
* Every 2-dimensional table over {-1, 0, 1}, each answer tied to the answers
  on its orbit under signed basis permutations and the opposite algebra,
  and each annihilator's type (trivial, sign, standard multiplicities) read
  both off its basis and off the generator g it annihilates.
"""

import itertools
from collections import Counter
from functools import cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from shared import SLOTS2, algebras, cogebras, dense_algebras, inverse, rebased

from nalg import catalog
from nalg.algebras import Algebra, ClassificationReport, _integer_table, _solve, annihilator, classify
from nalg.cogebras import Cogebra, classify_cogebra, coannihilator
from nalg.duality import dualize_algebra, dualize_cogebra
from nalg.linalg import span
from nalg.sym3 import GroupAlgElem, ga_multiply, split

T13 = GroupAlgElem((0, 0, 1, 0, 0, 0))
SWAP = {1: 1, 2: 3, 3: 2, 4: 4, 5: 5, 6: 6}


def opposite(A: Algebra) -> Algebra:
    return Algebra(A.dim, {(j, i, k): c for (i, j, k), c in A.products.items()}, unit=A.unit)


def moved(basis, left=None, right=None):
    """The span of left * v * right over the rows v of ``basis``."""
    elems = [GroupAlgElem(row) for row in basis]
    if left is not None:
        elems = [ga_multiply(left, v) for v in elems]
    if right is not None:
        elems = [ga_multiply(v, right) for v in elems]
    return span([v.coords for v in elems], 6)


@cache
def mirrored(basis: tuple) -> tuple:
    """The annihilator basis ``basis`` moved by t13 on the left."""
    return tuple(GroupAlgElem(row) for row in moved([e.coords for e in basis], left=T13).basis)


def swapped(report: ClassificationReport) -> ClassificationReport:
    """``report`` with the flags 2 and 3 exchanged and the annihilator
    moved by t13 on the left: the report of the opposite algebra."""
    fields = dict(zip(report.__slots__, report._fields()))
    fields["gi_assoc"] = {i: report.gi_assoc[SWAP[i]] for i in report.gi_assoc}
    fields["gi_bang"] = {i: report.gi_bang[SWAP[i]] for i in report.gi_bang}
    fields["annihilator_basis"] = mirrored(report.annihilator_basis)
    return ClassificationReport(**fields)


def check_opposite(A: Algebra) -> None:
    op = opposite(A)
    assert classify(op) == swapped(classify(A))
    assert annihilator(op) == moved(annihilator(A).basis, left=T13)
    co = coannihilator(dualize_algebra(A)).basis
    assert coannihilator(dualize_algebra(op)) == moved(co, right=T13)


def rebased_cogebra(C: Cogebra, M, Minv) -> Cogebra:
    """C on the basis f_a = sum_k M[k][a] e_k: the coproduct of f_a written
    on f (x) f through M^-1, and the counit at f_a."""
    n = range(C.dim)
    coproducts: dict = {}
    for (k, i, j), c in C.coproducts.items():
        for a in n:
            ka = c * M[k - 1][a]
            if ka:
                for b in n:
                    for d in n:
                        key = (a + 1, b + 1, d + 1)
                        coproducts[key] = coproducts.get(key, 0) + ka * Minv[b][i - 1] * Minv[d][j - 1]
    counit = None
    if C.counit is not None:
        counit = [sum(M[k][a] * C.counit[k] for k in n) for a in n]
    return Cogebra(C.dim, coproducts, counit=counit)


def check_cogebra_basis_change(C: Cogebra, M, Minv) -> None:
    R = rebased_cogebra(C, M, Minv)
    assert classify_cogebra(R) == classify_cogebra(C)
    transposed = [list(col) for col in zip(*Minv)], [list(col) for col in zip(*M)]
    expected, dual = rebased(dualize_cogebra(C), *transposed), dualize_cogebra(R)
    assert (dual.products, dual.unit) == (expected.products, expected.unit)


@st.composite
def with_basis_change(draw, tables):
    A = draw(tables)
    M = [[draw(st.integers(-2, 2)) for _ in range(A.dim)] for _ in range(A.dim)]
    Minv = inverse(M)
    assume(Minv is not None)
    return A, M, Minv


@pytest.mark.parametrize("name", catalog.ALGEBRA_NAMES)
def test_opposite_of_catalog_algebra(name):
    check_opposite(catalog.get(name))


@given(st.one_of(algebras(), dense_algebras()))
@settings(max_examples=100 * settings.default.max_examples // 100, deadline=None)
def test_opposite_algebra(A):
    check_opposite(A)


@pytest.mark.parametrize("name", catalog.ALGEBRA_NAMES)
@given(data=st.data())
@settings(max_examples=5 * settings.default.max_examples // 100, deadline=None)
def test_basis_change_of_catalog_algebra(name, data):
    A = catalog.get(name)
    _, M, Minv = data.draw(with_basis_change(st.just(A)))
    assert classify(rebased(A, M, Minv)) == classify(A)


@given(with_basis_change(st.one_of(algebras(), dense_algebras())))
@settings(max_examples=40 * settings.default.max_examples // 100, deadline=None)
def test_basis_change(case):
    A, M, Minv = case
    assert classify(rebased(A, M, Minv)) == classify(A)


@pytest.mark.parametrize("name", catalog.COGEBRA_NAMES)
@given(data=st.data())
@settings(max_examples=5 * settings.default.max_examples // 100, deadline=None)
def test_basis_change_of_catalog_cogebra(name, data):
    C = catalog.get(name)
    check_cogebra_basis_change(C, *data.draw(with_basis_change(st.just(C)))[1:])


@given(with_basis_change(cogebras()))
@settings(max_examples=40 * settings.default.max_examples // 100, deadline=None)
def test_cogebra_basis_change(case):
    check_cogebra_basis_change(*case)


# --- every 2-dimensional table over {-1, 0, 1} ------------------------------

def annihilator_type(basis) -> tuple[int, int, int]:
    """The trivial bit, the sign bit and the standard count of the right
    ideal with ``basis``: on the split, a right ideal holds the matrices
    whose columns lie in one subspace, the span of the columns of every rho."""
    splits = [split(e.coords) for e in basis]
    trivial, sign = (int(any(f[at] for f in splits)) for at in (0, 1))
    columns = [column for f in splits for column in ((f[2], f[4]), (f[3], f[5]))]
    return trivial, sign, span(columns, 2).dim


def test_every_two_dimensional_table(dim2_tables, dim2_reports):
    reports, types = dim2_reports, Counter()
    for values, A in dim2_tables.items():
        report = reports[values]
        t, s, std = annihilator_type(report.annihilator_basis)
        assert report.annihilator_dim == t + s + 2 * std
        # The annihilator is the right annihilator of g: v with g v = 0.
        g = _solve(_integer_table(A.products)[0], 1, -1)
        assert (t, s, std) == (int(not g[0]), int(not g[1]), 2 - span([g[2:4], g[4:]], 2).dim)
        types[t, s, std] += 1
    census = Counter(r.annihilator_dim for r in reports.values())
    assert census == {1: 5528, 2: 24, 3: 240, 4: 648, 5: 16, 6: 105}
    # The antisymmetrizer vanishes on a 2-dimensional space.
    assert all(r.is_lie_admissible for r in reports.values())
    # So every type has the sign part, and each dimension comes in one type.
    assert types == {
        (0, 1, 0): 5528, (1, 1, 0): 24, (0, 1, 1): 240, (1, 1, 1): 648, (0, 1, 2): 16, (1, 1, 2): 105
    }
    # Signed basis permutations f_a = s_a e_pi(a) give the same answer, and
    # the opposite algebra the swapped one: with the signs, a group of order
    # 16 acting on the tables.
    position = {key: at for at, key in enumerate(SLOTS2)}
    for values, report in reports.items():
        at = dict(zip(SLOTS2, values))
        for pi in ((1, 2), (2, 1)):
            for s in itertools.product((1, -1), repeat=2):
                image = tuple(
                    s[a - 1] * s[b - 1] * s[c - 1] * at[pi[a - 1], pi[b - 1], pi[c - 1]]
                    for a, b, c in SLOTS2
                )
                assert reports[image] == report
        op = tuple(values[position[j, i, k]] for i, j, k in SLOTS2)
        assert reports[op] == swapped(report)
