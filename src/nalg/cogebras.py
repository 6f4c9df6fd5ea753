"""Finite-dimensional cogebras over the rationals given by costructure
constants, with the arrow-reversed versions of the slot-permutation
invariance checks, counits, the flip, and derived Lie cogebras.

Slot permutations act on output tensor cubes with the same convention as
in :mod:`nalg.algebras`: the permutation operator of ``s`` places the
factor with index s^{-1}(k) into slot k.

Every check, and every map built here, comes from :mod:`nalg.algebras`
on the dual algebra.  The iterated coproducts of a cogebra are the
composites (xy)z and x(yz) of its dual with the output index moved to the
front, so the coassociativity defect is the dual's associator moved the
same way; slot permutation by p on the cogebra side is slot permutation
by p^-1 on the dual, which is how ``CubeMap.phi`` applies it.  Every
subgroup is closed under inverses and p^-1 has the sign of p, so each
signed subgroup sum, the symmetrizer and each stabilizer condition
carries over unchanged; only the coannihilator is moved, by the map
p -> p^-1.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from ._record import Record
from .algebras import (
    _check_index,
    _composite,
    _Structure,
    _table,
    TrilinearMap,
    annihilator,
    classify,
    commutator_algebra,
    gi_bang_check,
    gi_check,
    jacobi_check,
    phi_precompose,
)
from .duality import _dual_products, dualize_algebra, dualize_cogebra
from .linalg import Subspace, Vec, as_vec, span
from .sym3 import GroupAlgElem, Perm3, PERMS, inverse


# Coordinate k of the image of v under p -> p^-1 is coordinate
# _INVERSE_ORDER[k] of v: the two 3-cycles swap, the rest stay.
_INVERSE_ORDER = tuple(PERMS.index(inverse(p)) for p in PERMS)


class Cogebra(_Structure):
    """A cogebra by costructure constants.

    ``coproducts[(k, i, j)]`` is the coefficient of ``e_i (x) e_j`` in the
    coproduct of ``e_k``; absent entries are zero.  ``counit``, when given,
    holds the functional's coordinates and must satisfy the counit axiom
    on every basis element (checked on construction, as the unit axiom of
    the dual algebra).
    """

    __slots__ = ("dim", "coproducts", "counit", "basis", "name")
    _entry, _shift, _unit_error = "coproduct", 1, "declared counit fails the counit axiom"

    def __init__(
        self,
        dim: int,
        coproducts: Mapping[tuple[int, int, int], Fraction],
        counit: Vec | None = None,
        basis: tuple[str, ...] | None = None,
        name: str | None = None,
    ):
        self._init(dim, coproducts, counit, basis, name)

    def comultiply(self, x: Sequence) -> dict[tuple[int, int], Fraction]:
        """Coordinates of the coproduct of ``x`` on the tensor square,
        indexed by ordered pairs; zero entries omitted."""
        x = as_vec(x)
        if len(x) != self.dim:
            raise ValueError("vector length differs from cogebra dimension")
        out: dict[tuple[int, int], Fraction] = defaultdict(Fraction)
        for (k, i, j), c in self.coproducts.items():
            out[(i, j)] += c * x[k - 1]
        return {key: c for key, c in out.items() if c}


class CubeMap(Record):
    """A linear map into the triple tensor power: ``entries[(k, i1, i2, i3)]``
    is the coordinate of the image of ``e_k`` on e_i1 (x) e_i2 (x) e_i3."""

    __slots__ = ("dim", "entries")

    def __init__(self, dim: int, entries: Mapping[tuple[int, int, int, int], Fraction]):
        self._assign(dim, _table(dim, entries, 4, "cube"))

    def phi(self, v) -> "CubeMap":
        """Apply the slot-permutation operator of ``v`` on the output side:
        ``phi_precompose`` of the map with its output index last, by the
        image of ``v`` under p -> p^-1."""
        if isinstance(v, Perm3):
            v = GroupAlgElem.from_perm(v)
        T = TrilinearMap(self.dim, {key[1:] + key[:1]: c for key, c in self.entries.items()})
        w = GroupAlgElem(tuple(v.coords[q] for q in _INVERSE_ORDER))
        out = phi_precompose(T, w).entries
        return CubeMap(self.dim, {key[3:] + key[:3]: c for key, c in out.items()})


def _iterated(C: Cogebra, left: int, right: int) -> CubeMap:
    """left*(xy)z + right*x(yz) on the dual, with the output index moved to the front."""
    return CubeMap(C.dim, {key[3:] + key[:3]: c for key, c in _composite(_dual_products(C), left, right).items()})


def coassoc_left(C: Cogebra) -> CubeMap:
    """(coproduct (x) id) after the coproduct: the dual's (xy)z."""
    return _iterated(C, 1, 0)


def coassoc_right(C: Cogebra) -> CubeMap:
    """(id (x) coproduct) after the coproduct: the dual's x(yz)."""
    return _iterated(C, 0, 1)


def gi_cocheck(C: Cogebra, i: int) -> bool:
    """Arrow-reversed invariance check: the signed sum over the subgroup of
    slot-permuted coassociativity defects vanishes on every basis element."""
    return gi_check(dualize_cogebra(C), i)


def gi_bang_cocheck(C: Cogebra, i: int, *, literal: bool = False) -> bool:
    """Coassociativity plus the mirror slot symmetry of the iterated
    coproduct for index i (2..6).

    The defining display sums the inverse slot permutations over the
    subgroup and equates the sum with the iterated coproduct itself; read
    literally that forces |G|*x == x already for a grouplike element, so
    by default the check uses the normalized (averaged) reading, which is
    equivalent to invariance of the iterated coproduct under every slot
    permutation in the subgroup: the dual's triple-symmetry check, which
    asks whether u_i - |G_i| id, with u_i the sum of the members of the
    subgroup, kills the dual's (xy)z under slot permutation.  Pass
    ``literal=True`` for the unnormalized displayed equality S R = R, with
    S that sum and R the iterated coproduct.  S*S = |G|*S, so S R = R gives
    (|G| - 1) S R = 0, hence S R = 0 and R = 0: for every index the literal
    reading holds exactly when the dual is associative and all its triple
    products x(yz) vanish.  The associator is (xy)z - x(yz), so that is
    both composites (xy)z and x(yz) vanishing: both iterated coproducts
    are zero.
    """
    if not literal:
        return gi_bang_check(dualize_cogebra(C), i)
    _check_index(i, low=2)
    return not any(_composite(_dual_products(C), left, right) for left, right in ((1, 0), (0, 1)))


def flip(C: Cogebra) -> Cogebra:
    """Swap the two tensor factors of every coproduct."""
    out = {(k, j, i): c for (k, i, j), c in C.coproducts.items()}
    return Cogebra(C.dim, out, counit=C.counit, basis=C.basis)


def lie_cogebra_from(C: Cogebra) -> Cogebra:
    """Antisymmetrized coproduct (the coproduct minus its flip, no counit):
    the dual of the commutator algebra of the dual."""
    return dualize_algebra(commutator_algebra(dualize_cogebra(C)))


def is_lie_cogebra(C: Cogebra) -> bool:
    """Co-anticommutativity plus the co-Jacobi identity: the iterated
    coproduct summed over the three even slot rotations vanishes."""
    return jacobi_check(dualize_cogebra(C))


def _inverted(rows: Iterable[Sequence[Fraction]]) -> Subspace:
    """The image under p -> p^-1 of the span of ``rows``, in canonical form."""
    return span((tuple(row[q] for q in _INVERSE_ORDER) for row in rows), 6)


def coannihilator(C: Cogebra) -> Subspace:
    """All group-algebra vectors whose slot permutation kills the
    coassociativity defect; the mirror of the algebra annihilator."""
    return _inverted(annihilator(dualize_cogebra(C)).basis)


class CogebraReport(Record):
    """Aggregated results of the arrow-reversed checks for one cogebra: the
    mirror, field by field, of :class:`nalg.algebras.ClassificationReport`."""

    __slots__ = (
        "gi_coassoc",
        "gi_bang_co",
        "is_coassociative",
        "is_lie_coadmissible",
        "is_3_power_coassociative",
        "has_counit",
        "coannihilator_dim",
        "coannihilator_basis",
    )


def classify_cogebra(C: Cogebra) -> CogebraReport:
    """The report of the dual algebra, mirrored."""
    return _mirrored(classify(dualize_cogebra(C)))


def _mirrored(report) -> CogebraReport:
    """The cogebra report read off the dual algebra's ``report``: the same
    flags, and the annihilator moved by p -> p^-1."""
    co_ann = _inverted(e.coords for e in report.annihilator_basis)
    return CogebraReport(*report._fields()[:6], co_ann.dim, tuple(map(GroupAlgElem, co_ann.basis)))
