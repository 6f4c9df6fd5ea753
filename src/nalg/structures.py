"""The structure types, an algebra and a cogebra by (co)structure
constants and a trilinear map, built through their checking constructors,
and the library's checks on them: the part of :mod:`nalg.algebras` that
no ``nalg check`` runs, as a check reads its file into a cleared table
and classifies that table (see :mod:`nalg.formats`).

Every check here is one call into the engine of :mod:`nalg.algebras`
(``_kills``, ``_solve``, ``_classify``) on the table cleared of
denominators by ``_integer_table``; ``associator`` and ``phi_precompose``
build the maps that the tests and the library read.

This module is lazy (see ``nalg/__init__.py``): it runs when one of its
names is first read, and each of them is also read as ``nalg.algebras``'s,
where it was defined before.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping, Sequence
from fractions import Fraction

from ._record import Record
from .algebras import (
    _BANG_SPLITS,
    _GI_SPLITS,
    _SLOT_ORDERS,
    _W_SPLIT,
    ClassificationReport,
    Key4,
    _check_unit,
    _classify,
    _composite_layers,
    _dual_products,
    _kills,
    _solve,
    _symmetric,
)
from .linalg import Subspace, Vec, _cleared, _exact, as_vec
from .sym3 import GroupAlgElem, Perm3, right_annihilator, split


def _table(dim: int, entries: Mapping[tuple, Fraction], size: int, what: str) -> dict:
    """The nonzero ``entries`` as Fractions, after checking that ``dim`` is
    an int of at least 1 and every key holds ``size`` int indices in 1..dim
    (exactly int: a bool or float equals one but prints as another JSON
    value); ``what`` names an entry in errors.  A float value is rejected."""
    if type(dim) is not int or dim < 1:
        raise ValueError(f"dimension must be an int of at least 1, got {dim!r}")
    indices = range(1, dim + 1)
    table = {}
    for key, c in entries.items():
        if len(key) != size:
            raise ValueError(f"{what} entry {key} has {len(key)} indices, not {size}")
        for t in key:
            if type(t) is not int:
                raise ValueError(f"index {t!r} is not an int in {what} entry {key}")
            if t not in indices:
                raise ValueError(f"index out of range in {what} entry {key}")
        if type(c) is not Fraction:
            c = _exact(c)
        if c:
            table[key] = c
    return table


class _Structure(Record):
    """What an algebra and a cogebra share: the dimension, a table keyed by
    index triples, an optional unit or counit, optional basis names and a
    free label, in that field order, all checked on construction.

    A (co)unit is checked by ``algebras._check_unit`` on the table in
    product order that ``_in_product_order`` gives: an algebra's table as
    it is, a cogebra's as its dual algebra's.  Each subclass also sets
    ``_kind``, whose error ``_check_unit`` raises, and ``_entry``, an
    entry's name in errors.
    """

    __slots__ = ()
    _in_product_order = staticmethod(lambda table: table)

    def _init(self, dim, table, unit, basis, name):
        """Self, once the table, basis and (co)unit check out."""
        table = _table(dim, table, 3, self._entry)
        if basis is not None:
            basis = tuple(str(n) for n in basis)
            if len(basis) != dim:
                raise ValueError("basis-name count differs from dimension")
        if unit is not None:
            unit = as_vec(unit)
            if len(unit) != dim:
                raise ValueError(f"{self.__slots__[2]} length differs from dimension")
            _check_unit(self._kind, self._in_product_order(table), unit, 1)
        return self._assign(dim, table, unit, basis, name)

    def basis_names(self) -> tuple[str, ...]:
        if self.basis is not None:
            return self.basis
        return tuple(f"e{i}" for i in range(1, self.dim + 1))


class Algebra(_Structure):
    """An algebra by structure constants.

    ``products[(i, j, k)]`` is the coefficient of ``e_k`` in ``e_i * e_j``;
    absent entries are zero.  ``unit``, when given, must be a two-sided
    unit (checked on construction).  ``basis`` holds optional basis names
    used by the file format; ``name`` is a free label.
    """

    __slots__ = ("dim", "products", "unit", "basis", "name")
    _kind, _entry = "algebra", "product"

    def __init__(
        self,
        dim: int,
        products: Mapping[tuple[int, int, int], Fraction],
        unit: Vec | None = None,
        basis: tuple[str, ...] | None = None,
        name: str | None = None,
    ):
        self._init(dim, products, unit, basis, name)

    def multiply(self, x: Sequence, y: Sequence) -> Vec:
        """Bilinear extension of the structure constants."""
        x = as_vec(x)
        y = as_vec(y)
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length differs from algebra dimension")
        out = [Fraction(0)] * self.dim
        for (i, j, k), c in self.products.items():
            out[k - 1] += c * x[i - 1] * y[j - 1]
        return tuple(out)


class Cogebra(_Structure):
    """A cogebra by costructure constants.

    ``coproducts[(k, i, j)]`` is the coefficient of ``e_i (x) e_j`` in the
    coproduct of ``e_k``; absent entries are zero.  ``counit``, when given,
    holds the functional's coordinates and must satisfy the counit axiom
    on every basis element (checked on construction, as the unit axiom of
    the dual algebra).
    """

    __slots__ = ("dim", "coproducts", "counit", "basis", "name")
    _kind, _entry = "cogebra", "coproduct"
    _in_product_order = staticmethod(_dual_products)

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


class TrilinearMap(Record):
    """A trilinear map into the algebra: ``entries[(i, j, k, l)]`` is the
    coefficient of ``e_l`` in T(e_i, e_j, e_k).  Zero entries are dropped,
    so equality of maps is equality of the stored tables."""

    __slots__ = ("dim", "entries")

    def __init__(self, dim: int, entries: Mapping[tuple[int, int, int, int], Fraction]):
        self._assign(dim, _table(dim, entries, 4, "trilinear"))


def _integer_table(
    products: Mapping[tuple[int, int, int], Fraction],
) -> tuple[dict[tuple[int, int, int], int], int]:
    """The structure constants cleared of denominators, and the factor ``d``
    that cleared them.  Every identity below is homogeneous in the
    constants, so it holds for the scaled table exactly when it holds for
    the original one."""
    ints, d = _cleared([c.as_integer_ratio() for c in products.values()])
    return dict(zip(products, ints)), d


def _composite(products: Mapping, left: int, right: int) -> dict[Key4, Fraction]:
    """left*(xy)z + right*x(yz) over ``products``: the cleared table's layers, divided by d^2."""
    P, d = _integer_table(products)
    return {key: Fraction(c, d * d) for layer in _composite_layers(P, left, right) for key, c in layer.items()}


def associator(A: Algebra) -> TrilinearMap:
    """(x1 x2) x3 - x1 (x2 x3)."""
    return TrilinearMap(A.dim, _composite(A.products, 1, -1))


def phi_precompose(T: TrilinearMap, v) -> TrilinearMap:
    """Precompose with the slot-permutation operator of ``v``.

    For a permutation s the operator feeds the factor with index
    s^{-1}(k) into slot k; a group-algebra element acts as the linear
    combination of its permutations.  The homomorphism law
    ``phi_precompose(phi_precompose(T, p), q) ==
    phi_precompose(T, compose(p, q))`` holds with the package's
    composition convention.
    """
    if isinstance(v, Perm3):
        v = GroupAlgElem.from_perm(v)
    out: dict[Key4, Fraction] = defaultdict(Fraction)
    for (s1, s2, s3), coeff in zip(_SLOT_ORDERS, v.coords):
        for m, c in T.entries.items():
            out[(m[s1], m[s2], m[s3], m[3])] += coeff * c
    return TrilinearMap(T.dim, out)


def is_sigma3_assoc_for(A: Algebra, v: GroupAlgElem) -> bool:
    """True iff the associator vanishes after slot permutation by ``v``."""
    return _kills(split(_cleared([c.as_integer_ratio() for c in v.coords])[0]), _integer_table(A.products)[0], 1, -1)


def _check_index(i: int, low: int = 1) -> None:
    # Exactly int, as ``_table`` asks of an index: True and 2.0 equal one.
    if type(i) is not int or not low <= i <= 6:
        raise ValueError(f"subgroup index must be in {low}..6, got {i!r}")


def gi_check(A: Algebra, i: int) -> bool:
    """Signed subgroup sum of slot-permuted associators vanishes.

    Index 1: associative.  2: Vinberg.  3: pre-Lie.  4: triple-product
    reversal identity.  5: generalized Jacobi.  6: Lie-admissible.
    """
    _check_index(i)
    return _kills(_GI_SPLITS[i], _integer_table(A.products)[0], 1, -1)


def annihilator(A: Algebra) -> Subspace:
    """All group-algebra vectors v whose slot permutation kills the
    associator: the exact solution set of the linear system with the six
    coordinates of v as unknowns, one equation per tensor coordinate.
    The result is the right annihilator of one group-algebra element, so
    it is closed under right multiplication by every permutation.
    """
    return right_annihilator(_solve(_integer_table(A.products)[0], 1, -1))


def _commutator(table: Mapping[tuple[int, int, int], Fraction | int]) -> dict:
    """The nonzero entries of e_i e_j - e_j e_i over ``table``."""
    out = defaultdict(int)
    for (i, j, k), c in table.items():
        out[(i, j, k)] += c
        out[(j, i, k)] -= c
    return {key: c for key, c in out.items() if c}


def commutator_algebra(A: Algebra) -> Algebra:
    """The bracket algebra [x, y] = xy - yx (no unit)."""
    return Algebra(A.dim, _commutator(A.products), unit=None, basis=A.basis)


def jacobi_check(A: Algebra) -> bool:
    """Antisymmetry of the product plus the Jacobi identity on all basis triples.

    For an antisymmetric product x(yz) = -(yz)x, so the cyclic sum of the
    associator is twice the cyclic sum of (xy)z, the Jacobiator: Jacobi
    is the generalized Jacobi identity (index 5).
    """
    return is_antisymmetric(A) and gi_check(A, 5)


def power_assoc_check(A: Algebra) -> bool:
    """A(x, x, x) = 0 for all x; equivalent (characteristic zero) to the
    full symmetrization of the associator vanishing, which is what is
    evaluated here."""
    return _kills(_W_SPLIT, _integer_table(A.products)[0], 1, -1)


def gi_bang_check(A: Algebra, i: int) -> bool:
    """Associativity plus the triple-product slot symmetries for index i.

    For index 2 triple products are symmetric in the first two factors,
    for 3 in the last two, for 4 under reversal, for 5 under both cyclic
    rotations, and for 6 under every slot permutation: u_i - |G_i| id
    kills (xy)z.
    """
    _check_index(i, low=2)
    P = _integer_table(A.products)[0]
    return _kills(_GI_SPLITS[1], P, 1, -1) and _kills(_BANG_SPLITS[i], P, 1, 0)


def is_commutative(A: Algebra) -> bool:
    return _symmetric(A.products, 1)


def is_antisymmetric(A: Algebra) -> bool:
    return _symmetric(A.products, -1)


def classify(A: Algebra) -> ClassificationReport:
    """Every flag read off two generators: g for the associator, and one
    for (xy)z.

    Each signed subgroup sum a_i, and the symmetrizer W, holds exactly when
    g kills it.  The triple-symmetry flag for index i holds exactly when
    the algebra is associative and the (xy)z generator kills
    u_i - |G_i| id, so that generator is computed only for an associative
    algebra.
    """
    return _classify(_integer_table(A.products)[0], A.unit is not None)
