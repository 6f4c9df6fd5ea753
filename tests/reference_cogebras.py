"""Reference implementation of the cogebra checks, kept as the oracle for
the differential tests.

These are the arrow-reversed definitions, evaluated over
``fractions.Fraction`` on the cogebra itself: the two iterated coproducts
are joined over coproduct pairs, the coassociativity defect is their
difference, and every check applies its own slot permutations to it and
solves its own linear system.  They are slow and obviously correct;
``nalg.cogebras``, which builds the iterated coproducts and decides every
check on the dual algebra, must agree with them on every input.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

from nalg import algebras as alg
from nalg.cogebras import Cogebra, CogebraReport, CubeMap
from nalg.linalg import Subspace, kernel
from nalg.sym3 import PERMS, SUBGROUPS, GroupAlgElem, Perm3, inverse, sign


def phi(X: CubeMap, v) -> CubeMap:
    """The slot-permutation operator of ``v`` on the output side: for a
    permutation s, the factor with index s^-1(k) goes into slot k."""
    if isinstance(v, Perm3):
        v = GroupAlgElem.from_perm(v)
    out: dict[tuple[int, int, int, int], Fraction] = defaultdict(Fraction)
    for pos, coeff in enumerate(v.coords):
        if not coeff:
            continue
        sinv = inverse(PERMS[pos])
        p1, p2, p3 = sinv(1), sinv(2), sinv(3)
        for (k, m1, m2, m3), c in X.entries.items():
            mm = (m1, m2, m3)
            out[(k, mm[p1 - 1], mm[p2 - 1], mm[p3 - 1])] += coeff * c
    return CubeMap(X.dim, out)


def _by_out(C: Cogebra) -> dict[int, list[tuple[int, int, Fraction]]]:
    """The coproduct of each basis element, as (i, j, coefficient) terms."""
    by_out: dict[int, list[tuple[int, int, Fraction]]] = defaultdict(list)
    for (a, i, j), c in C.coproducts.items():
        by_out[a].append((i, j, c))
    return by_out


def coassoc_left(C: Cogebra) -> CubeMap:
    """(coproduct (x) id) after the coproduct."""
    by_out = _by_out(C)
    out: dict[tuple[int, int, int, int], Fraction] = defaultdict(Fraction)
    for (k, a, b), c1 in C.coproducts.items():
        for i, j, c2 in by_out.get(a, ()):
            out[(k, i, j, b)] += c1 * c2
    return CubeMap(C.dim, out)


def coassoc_right(C: Cogebra) -> CubeMap:
    """(id (x) coproduct) after the coproduct."""
    by_out = _by_out(C)
    out: dict[tuple[int, int, int, int], Fraction] = defaultdict(Fraction)
    for (k, a, b), c1 in C.coproducts.items():
        for i, j, c2 in by_out.get(b, ()):
            out[(k, a, i, j)] += c1 * c2
    return CubeMap(C.dim, out)


def _combine(dim: int, terms) -> CubeMap:
    """The linear combination of the (coefficient, CubeMap) pairs."""
    out: dict[tuple[int, int, int, int], Fraction] = {}
    for coeff, m in terms:
        for key, c in m.entries.items():
            out[key] = out.get(key, Fraction(0)) + Fraction(coeff) * c
    return CubeMap(dim, out)


def defect(C: Cogebra) -> CubeMap:
    return _combine(C.dim, ((1, coassoc_left(C)), (-1, coassoc_right(C))))


def gi_cocheck(C: Cogebra, i: int) -> bool:
    alg._check_index(i)
    d = defect(C)
    return not _combine(C.dim, ((sign(p), phi(d, p)) for p in SUBGROUPS[i])).entries


def gi_bang_cocheck(C: Cogebra, i: int, *, literal: bool = False) -> bool:
    alg._check_index(i, low=2)
    if not gi_cocheck(C, 1):
        return False
    iterated = coassoc_right(C)
    total = _combine(C.dim, ((1, phi(iterated, inverse(p))) for p in SUBGROUPS[i]))
    if literal:
        return total == iterated
    return total == _combine(C.dim, ((len(SUBGROUPS[i]), iterated),))


def is_lie_cogebra(C: Cogebra) -> bool:
    for (k, i, j), c in C.coproducts.items():
        if C.coproducts.get((k, j, i), Fraction(0)) != -c:
            return False
    iterated = coassoc_right(C)
    return not _combine(C.dim, ((1, phi(iterated, p)) for p in SUBGROUPS[5])).entries


def coannihilator(C: Cogebra) -> Subspace:
    d = defect(C)
    permuted = [phi(d, p) for p in PERMS]
    support: set[tuple[int, int, int, int]] = set()
    for pt in permuted:
        support.update(pt.entries.keys())
    rows = [
        tuple(pt.entries.get(key, Fraction(0)) for pt in permuted)
        for key in sorted(support)
    ]
    return kernel(rows, 6)


def classify_cogebra(C: Cogebra) -> CogebraReport:
    gi = {i: gi_cocheck(C, i) for i in range(1, 7)}
    bang = {i: gi_bang_cocheck(C, i) for i in range(2, 7)}
    d = defect(C)
    full_sum = _combine(C.dim, ((1, phi(d, p)) for p in PERMS))
    co_ann = coannihilator(C)
    return CogebraReport(
        gi_coassoc=gi,
        gi_bang_co=bang,
        is_coassociative=gi[1],
        is_lie_coadmissible=gi[6],
        is_3_power_coassociative=not full_sum.entries,
        has_counit=C.counit is not None,
        coannihilator_dim=co_ann.dim,
        coannihilator_basis=tuple(GroupAlgElem(row) for row in co_ann.basis),
    )
