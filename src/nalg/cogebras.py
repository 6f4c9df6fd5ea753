"""The arrow-reversed versions of the slot-permutation invariance checks
for cogebras, the iterated coproducts, the flip, and derived Lie cogebras.
The ``Cogebra`` class itself, a cogebra by costructure constants, is
defined beside ``Algebra`` in :mod:`nalg.structures` and imported here;
so are ``CogebraReport`` and ``_mirrored`` from :mod:`nalg.algebras`, where
``nalg check`` reads a cogebra's report without running this module.

Slot permutations act on output tensor cubes with the same convention as
``phi_precompose`` in :mod:`nalg.structures`: the permutation operator of
``s`` places the factor with index s^{-1}(k) into slot k.

Every check, and every map built here, comes from :mod:`nalg.structures`
and the engine of :mod:`nalg.algebras` on the dual algebra.  The iterated
coproducts of a cogebra are the composites (xy)z and x(yz) of its dual
with the output index moved to the front: the coassociativity defect is
the dual's associator, and the literal ``gi_bang_cocheck`` is two kill
tests of the identity on the dual's integer table, which stop at the
first nonzero orbit.  Slot permutation by p on the cogebra side is slot
permutation by p^-1 on the dual, which is how ``CubeMap.phi`` applies it.
Every subgroup is closed under inverses and p^-1 has the sign of p, so
each signed subgroup sum, the symmetrizer and each stabilizer condition
carries over unchanged; only the coannihilator is moved, by the map
p -> p^-1.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

from . import duality
from ._record import Record
from .algebras import _GI_SPLITS, _INVERSE_ORDER, CogebraReport, _dual_products, _inverted, _kills, _mirrored
from .linalg import Subspace
from .structures import (
    _check_index,
    _composite,
    _integer_table,
    _table,
    Cogebra,
    TrilinearMap,
    annihilator,
    classify,
    commutator_algebra,
    gi_bang_check,
    gi_check,
    jacobi_check,
    phi_precompose,
)
from .sym3 import GroupAlgElem, Perm3


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
    composite = _composite(_dual_products(C.coproducts), left, right)
    return CubeMap(C.dim, {key[3:] + key[:3]: c for key, c in composite.items()})


def coassoc_left(C: Cogebra) -> CubeMap:
    """(coproduct (x) id) after the coproduct: the dual's (xy)z."""
    return _iterated(C, 1, 0)


def coassoc_right(C: Cogebra) -> CubeMap:
    """(id (x) coproduct) after the coproduct: the dual's x(yz)."""
    return _iterated(C, 0, 1)


def gi_cocheck(C: Cogebra, i: int) -> bool:
    """Arrow-reversed invariance check: the signed sum over the subgroup of
    slot-permuted coassociativity defects vanishes on every basis element."""
    return gi_check(duality.dualize_cogebra(C), i)


def gi_bang_cocheck(C: Cogebra, i: int, *, literal: bool = False) -> bool:
    """Coassociativity plus the mirror slot symmetry of the iterated
    coproduct R for index i (2..6).

    The defining display equates S R with R, S the sum of the inverse slot
    permutations over the subgroup; read literally that forces |G|*x == x
    already for a grouplike element, so by default the check uses the
    normalized (averaged) reading, invariance of R under the subgroup: the
    dual's triple-symmetry check, whether u_i - |G_i| id, with u_i the sum
    of the members of the subgroup, kills the dual's (xy)z.  Pass
    ``literal=True`` for S R = R.  S*S = |G|*S, so S R = R gives
    (|G| - 1) S R = 0, hence S R = 0 and R = 0: for every index the dual is
    associative and x(yz) = 0, so both iterated coproducts, the dual's
    (xy)z and x(yz), are zero.  The identity a1 kills a map exactly when it
    is zero, so that is two kill tests of a1 on the dual's integer table,
    which stop at the first nonzero orbit; no map is built.
    """
    if not literal:
        return gi_bang_check(duality.dualize_cogebra(C), i)
    _check_index(i, low=2)
    P = _integer_table(_dual_products(C.coproducts))[0]
    return _kills(_GI_SPLITS[1], P, 1, 0) and _kills(_GI_SPLITS[1], P, 0, 1)


def flip(C: Cogebra) -> Cogebra:
    """Swap the two tensor factors of every coproduct."""
    out = {(k, j, i): c for (k, i, j), c in C.coproducts.items()}
    return Cogebra(C.dim, out, counit=C.counit, basis=C.basis)


def lie_cogebra_from(C: Cogebra) -> Cogebra:
    """Antisymmetrized coproduct (the coproduct minus its flip, no counit):
    the dual of the commutator algebra of the dual."""
    return duality.dualize_algebra(commutator_algebra(duality.dualize_cogebra(C)))


def is_lie_cogebra(C: Cogebra) -> bool:
    """Co-anticommutativity plus the co-Jacobi identity: the iterated
    coproduct summed over the three even slot rotations vanishes."""
    return jacobi_check(duality.dualize_cogebra(C))


def coannihilator(C: Cogebra) -> Subspace:
    """All group-algebra vectors whose slot permutation kills the
    coassociativity defect; the mirror of the algebra annihilator."""
    return _inverted(annihilator(duality.dualize_cogebra(C)).basis)


def classify_cogebra(C: Cogebra) -> CogebraReport:
    """The report of the dual algebra, mirrored."""
    return _mirrored(classify(duality.dualize_cogebra(C)))
