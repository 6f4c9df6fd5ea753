"""Finite-dimensional algebras over the rationals given by structure
constants, together with the slot-permutation invariance checks on their
associators.

The checks are indexed by the six subgroups of the symmetric group on
three letters: index 1 is plain associativity, 2 is the Vinberg
(left-symmetric) identity, 3 is the pre-Lie (right-symmetric) identity,
4 equates a triple product with its reversal, 5 is the generalized Jacobi
condition, and 6 is Lie-admissibility.  Every identity is decided exactly
by evaluating on all basis triples, which suffices by multilinearity.

``classify`` reads every check off one exact computation on the table
cleared of denominators (Python ints, no floats): the annihilator of the
associator, from a fraction-free solve that stops at full rank, and the
stabilizer of (xy)z.  The associator is produced in layers of growing
largest index, so the solve stops before the rest is computed.  The
single-identity checks read the same layers and stop at the first
coordinate that is not zero.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from operator import itemgetter
from typing import Iterator, Mapping, Sequence

from ._record import Record
from .linalg import Subspace, Vec, _cleared, _echelon, as_vec, kernel
from .sym3 import SUBGROUPS, GroupAlgElem, Perm3, PERMS, inverse, special_vector


def _is_identity(matrix: Mapping[tuple[int, int], Fraction], dim: int) -> bool:
    """Whether the sparse ``dim`` x ``dim`` matrix, keyed by (row, column)
    with absent entries zero, is the identity."""
    return {key: c for key, c in matrix.items() if c} == {(j, j): 1 for j in range(1, dim + 1)}


class Algebra(Record):
    """An algebra by structure constants.

    ``products[(i, j, k)]`` is the coefficient of ``e_k`` in ``e_i * e_j``;
    absent entries are zero.  ``unit``, when given, must be a two-sided
    unit (checked on construction).  ``basis`` holds optional basis names
    used by the file format; ``name`` is a free label.
    """

    __slots__ = ("dim", "products", "unit", "basis", "name")

    def __init__(
        self,
        dim: int,
        products: Mapping[tuple[int, int, int], Fraction],
        unit: Vec | None = None,
        basis: tuple[str, ...] | None = None,
        name: str | None = None,
    ):
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        table: dict[tuple[int, int, int], Fraction] = {}
        for (i, j, k), c in products.items():
            if not all(1 <= t <= dim for t in (i, j, k)):
                raise ValueError(f"index out of range in product entry ({i}, {j}, {k})")
            c = Fraction(c)
            if c:
                table[(i, j, k)] = c
        if basis is not None:
            basis = tuple(str(n) for n in basis)
            if len(basis) != dim:
                raise ValueError("basis-name count differs from dimension")
        if unit is not None:
            u = unit = as_vec(unit)
            if len(u) != dim:
                raise ValueError("unit length differs from dimension")
            # u e_j and e_i u for every basis element at once: left[(j, k)]
            # is the e_k coordinate of u e_j, right[(i, k)] that of e_i u.
            left: dict[tuple[int, int], Fraction] = defaultdict(Fraction)
            right: dict[tuple[int, int], Fraction] = defaultdict(Fraction)
            for (i, j, k), c in table.items():
                if u[i - 1]:
                    left[(j, k)] += c * u[i - 1]
                if u[j - 1]:
                    right[(i, k)] += c * u[j - 1]
            if not (_is_identity(left, dim) and _is_identity(right, dim)):
                raise ValueError("declared unit is not a two-sided unit")
        self._assign(dim, table, unit, basis, name)

    def multiply(self, x: Sequence, y: Sequence) -> Vec:
        """Bilinear extension of the structure constants."""
        x = as_vec(x)
        y = as_vec(y)
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length differs from algebra dimension")
        out = [Fraction(0)] * self.dim
        for (i, j, k), c in self.products.items():
            xi = x[i - 1]
            if xi:
                yj = y[j - 1]
                if yj:
                    out[k - 1] += c * xi * yj
        return tuple(out)

    def basis_names(self) -> tuple[str, ...]:
        if self.basis is not None:
            return self.basis
        return tuple(f"e{i}" for i in range(1, self.dim + 1))


class TrilinearMap(Record):
    """A trilinear map into the algebra: ``entries[(i, j, k, l)]`` is the
    coefficient of ``e_l`` in T(e_i, e_j, e_k).  Zero entries are dropped,
    so equality of maps is equality of the stored tables."""

    __slots__ = ("dim", "entries")

    def __init__(self, dim: int, entries: Mapping[tuple[int, int, int, int], Fraction]):
        table: dict[tuple[int, int, int, int], Fraction] = {}
        for key, c in entries.items():
            if not all(1 <= t <= dim for t in key):
                raise ValueError(f"index out of range in trilinear entry {key}")
            c = Fraction(c)
            if c:
                table[key] = c
        self._assign(dim, table)

Key4 = tuple[int, int, int, int]


def _integer_table(
    products: Mapping[tuple[int, int, int], Fraction],
) -> tuple[dict[tuple[int, int, int], int], int]:
    """The structure constants cleared of denominators, and the factor ``d``
    that cleared them.  Every identity below is homogeneous in the
    constants, so it holds for the scaled table exactly when it holds for
    the original one."""
    ints, d = _cleared(list(products.values()))
    return dict(zip(products, ints)), d


def _left_products(P: Mapping[tuple[int, int, int], int]) -> dict[Key4, int]:
    """(x1 x2) x3 on basis triples, over the integer table ``P``."""
    by_left: dict[int, list[tuple[int, int, int]]] = defaultdict(list)
    for (m, k, l), c in P.items():
        by_left[m].append((k, l, c))
    out: dict[Key4, int] = defaultdict(int)
    for (i, j, m), c1 in P.items():
        for k, l, c2 in by_left.get(m, ()):
            out[(i, j, k, l)] += c1 * c2
    return out


def _right_products(P: Mapping[tuple[int, int, int], int]) -> dict[Key4, int]:
    """x1 (x2 x3) on basis triples, over the integer table ``P``."""
    by_right: dict[int, list[tuple[int, int, int]]] = defaultdict(list)
    for (i, m, l), c in P.items():
        by_right[m].append((i, l, c))
    out: dict[Key4, int] = defaultdict(int)
    for (j, k, m), c1 in P.items():
        for i, l, c2 in by_right.get(m, ()):
            out[(i, j, k, l)] += c1 * c2
    return out


def _associator_layers(P: Mapping[tuple[int, int, int], int]) -> Iterator[dict[Key4, int]]:
    """The nonzero entries of the associator of the integer table ``P``, in
    layers: layer t holds the keys (i, j, k, l) with max(i, j, k) = t, for
    t = 1, 2, ... up to the largest index of ``P``.

    Slot permutation keeps max(i, j, k), so every layer is closed under it.
    Both composites join an inner product e_a e_b -> e_m, at level
    max(a, b), with an outer product through e_m: e_m e_k for (xy)z, at
    level k, and e_i e_m for x(yz), at level i.  A pair feeds the layer of
    the larger level.  So layer t joins the level-t inner products with the
    outer ones up to level t, then the level-t outer products with the
    inner ones below level t; the earlier sides are indexed by m.  Every
    pair is joined exactly once, in the layer of its key.
    """
    n = max(map(max, P), default=0)
    # Every entry (a, b, m, c) of P is filed by level three times: as an
    # inner product at max(a, b), as an (xy)z outer one at b, and as an
    # x(yz) outer one at a.  The *_by lists hold, by m, the entries of the
    # levels already reached.  The six tables of n + 1 lists are cut from
    # one list, which is cheaper to build for the many tiny tables the
    # catalog searches check.
    lists: list[list[tuple[int, int, int, int]]] = [[] for _ in range(6 * n + 6)]
    inner_at, left_at, right_at = lists[0::6], lists[1::6], lists[2::6]
    inner_by, left_by, right_by = lists[3::6], lists[4::6], lists[5::6]
    for (a, b, m), c in P.items():
        entry = (a, b, m, c)
        inner_at[a if a > b else b].append(entry)
        left_at[b].append(entry)
        right_at[a].append(entry)
    for t in range(1, n + 1):
        inner, left, right = inner_at[t], left_at[t], right_at[t]
        for entry in left:
            left_by[entry[0]].append(entry)
        for entry in right:
            right_by[entry[1]].append(entry)
        out: dict[Key4, int] = {}
        for a, b, m, c1 in inner:
            for _, k, l, c2 in left_by[m]:
                key = (a, b, k, l)
                out[key] = out.get(key, 0) + c1 * c2
            for i, _, l, c2 in right_by[m]:
                key = (i, a, b, l)
                out[key] = out.get(key, 0) - c1 * c2
        for m, k, l, c2 in left:
            for a, b, _, c1 in inner_by[m]:
                key = (a, b, k, l)
                out[key] = out.get(key, 0) + c1 * c2
        for i, m, l, c2 in right:
            for a, b, _, c1 in inner_by[m]:
                key = (i, a, b, l)
                out[key] = out.get(key, 0) - c1 * c2
        for entry in inner:
            inner_by[entry[2]].append(entry)
        yield {key: c for key, c in out.items() if c}


def associator(A: Algebra) -> TrilinearMap:
    """(x1 x2) x3 - x1 (x2 x3): the union of the layers."""
    P, d = _integer_table(A.products)
    entries: dict[Key4, int] = {}
    for layer in _associator_layers(P):
        entries.update(layer)
    return TrilinearMap(A.dim, {key: Fraction(c, d * d) for key, c in entries.items()})


# Slot permutation by s = PERMS[p] sends the key (m1, m2, m3, l) to
# (m[s1], m[s2], m[s3], l) with (s1, s2, s3) = _SLOT_ORDERS[p], the 0-based
# images of s.  So the permuted map at a key K reads the original at
# (K[q1], K[q2], K[q3], l) with (q1, q2, q3) = _LOOKUP_ORDERS[p], those of s^-1.
_SLOT_ORDERS = tuple((s(1) - 1, s(2) - 1, s(3) - 1) for s in PERMS)
_LOOKUP_ORDERS = tuple((t(1) - 1, t(2) - 1, t(3) - 1) for t in map(inverse, PERMS))


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
        if not coeff:
            continue
        for m, c in T.entries.items():
            out[(m[s1], m[s2], m[s3], m[3])] += coeff * c
    return TrilinearMap(T.dim, out)


# The orbit of a key m under slot permutation is the six keys
# (m[s1], m[s2], m[s3], l) over _SLOT_ORDERS, and the row at any of them
# reads only values at those six.  _ROW_READS[p] picks, from the six
# values in that order, the row at the p-th orbit key.
_ROW_READS = tuple(
    itemgetter(*(_SLOT_ORDERS.index((s[q1], s[q2], s[q3])) for q1, q2, q3 in _LOOKUP_ORDERS))
    for s in _SLOT_ORDERS
)


def _slot_rows(T: Mapping[Key4, int]) -> Iterator[tuple[int, ...]]:
    """The six slot-permuted copies of ``T`` as one row per key of their
    joint support: entry p of the row at key K is the coefficient of K in
    ``phi_precompose(T, PERMS[p])``.  Rows are produced lazily, so a caller
    that stops early skips the rest.

    The keys come in orbits under slot permutation, and the rows of an
    orbit are rearrangements of its six values, which are read once."""
    seen: set[Key4] = set()
    get = T.get
    for m in T:
        if m in seen:
            continue
        keys = [(m[s1], m[s2], m[s3], m[3]) for s1, s2, s3 in _SLOT_ORDERS]
        values = [get(key, 0) for key in keys]
        for key, reads in zip(keys, _ROW_READS):
            if key not in seen:
                seen.add(key)
                yield reads(values)


def _associator_rows(A: Algebra) -> Iterator[tuple[int, ...]]:
    """The slot rows of the integer associator of ``A``, one layer at a
    time: a layer is computed only when the rows before it are used up."""
    for layer in _associator_layers(_integer_table(A.products)[0]):
        yield from _slot_rows(layer)


def is_sigma3_assoc_for(A: Algebra, v: GroupAlgElem) -> bool:
    """True iff the associator vanishes after slot permutation by ``v``:
    every slot row is orthogonal to the coordinates of ``v``.  The scan
    stops at the first row that is not."""
    w, _ = _cleared(v.coords)
    return not any(sum(a * b for a, b in zip(w, row)) for row in _associator_rows(A))


def _check_index(i: int, low: int = 1) -> None:
    if i not in range(low, 7):
        raise ValueError(f"subgroup index must be in {low}..6, got {i}")


def gi_check(A: Algebra, i: int) -> bool:
    """Signed subgroup sum of slot-permuted associators vanishes.

    Index 1: associative.  2: Vinberg.  3: pre-Lie.  4: triple-product
    reversal identity.  5: generalized Jacobi.  6: Lie-admissible.
    """
    _check_index(i)
    return is_sigma3_assoc_for(A, special_vector(f"a{i}"))


def annihilator(A: Algebra) -> Subspace:
    """All group-algebra vectors v whose slot permutation kills the
    associator: the exact solution set of the linear system with the six
    coordinates of v as unknowns, one equation per tensor coordinate.
    The result is closed under right multiplication by every permutation.

    The equations are produced layer by layer and eliminated only until
    their rank is 6; the echelon rows alone go to the exact kernel solve.
    """
    return kernel(_echelon(_associator_rows(A))[1], 6)


def commutator_algebra(A: Algebra) -> Algebra:
    """The bracket algebra [x, y] = xy - yx (no unit)."""
    out: dict[tuple[int, int, int], Fraction] = defaultdict(Fraction)
    for (i, j, k), c in A.products.items():
        out[(i, j, k)] += c
        out[(j, i, k)] -= c
    return Algebra(A.dim, out, unit=None, basis=A.basis)


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
    return is_sigma3_assoc_for(A, special_vector("W"))


def gi_bang_check(A: Algebra, i: int) -> bool:
    """Associativity plus the triple-product slot symmetries for index i.

    For index 2 triple products are symmetric in the first two factors,
    for 3 in the last two, for 4 under reversal, for 5 under both cyclic
    rotations (each asserted separately), and for 6 under every slot
    permutation.
    """
    _check_index(i, low=2)
    return gi_check(A, 1) and set(SUBGROUPS[i]) <= _triple_product_stabilizer(A)


def _triple_product_stabilizer(A: Algebra) -> frozenset[Perm3]:
    """The permutations s with ``phi_precompose(L, s) == L`` for the
    trilinear map L = (x1 x2) x3: the slot symmetries of (xy)z.

    Slot permutation is a bijection on keys, so the permuted map equals the
    original exactly when every key of the support reads the same value
    through s^-1.
    """
    P, _ = _integer_table(A.products)
    L = {key: c for key, c in _left_products(P).items() if c}
    return frozenset(
        s
        for s, (q1, q2, q3) in zip(PERMS, _LOOKUP_ORDERS)
        if all(L.get((k[q1], k[q2], k[q3], k[3])) == c for k, c in L.items())
    )


def is_commutative(A: Algebra) -> bool:
    return all(
        A.products.get((j, i, k), Fraction(0)) == c for (i, j, k), c in A.products.items()
    )


def is_antisymmetric(A: Algebra) -> bool:
    return all(
        A.products.get((j, i, k), Fraction(0)) == -c for (i, j, k), c in A.products.items()
    )


class ClassificationReport(Record):
    """Aggregated results of all invariance checks for one algebra."""

    __slots__ = (
        "gi_assoc",
        "gi_bang",
        "is_associative",
        "is_lie_admissible",
        "is_3_power_associative",
        "has_unit",
        "annihilator_dim",
        "annihilator_basis",
    )

    def __init__(
        self,
        gi_assoc: Mapping[int, bool],
        gi_bang: Mapping[int, bool],
        is_associative: bool,
        is_lie_admissible: bool,
        is_3_power_associative: bool,
        has_unit: bool,
        annihilator_dim: int,
        annihilator_basis: tuple[GroupAlgElem, ...],
    ):
        self._assign(
            gi_assoc,
            gi_bang,
            is_associative,
            is_lie_admissible,
            is_3_power_associative,
            has_unit,
            annihilator_dim,
            annihilator_basis,
        )


def classify(A: Algebra) -> ClassificationReport:
    """Every flag read off the annihilator and the stabilizer of (xy)z.

    Each signed subgroup sum a_i, and the symmetrizer W, holds exactly when
    it lies in the annihilator.  The triple-symmetry flags need
    associativity, so the stabilizer is computed only then.
    """
    ann = annihilator(A)
    gi = {i: ann.contains(special_vector(f"a{i}").coords) for i in range(1, 7)}
    # An empty stabilizer fails every triple-symmetry flag, as it must
    # for a non-associative algebra.
    stab = _triple_product_stabilizer(A) if gi[1] else frozenset()
    return ClassificationReport(
        gi_assoc=gi,
        gi_bang={i: set(SUBGROUPS[i]) <= stab for i in range(2, 7)},
        is_associative=gi[1],
        is_lie_admissible=gi[6],
        is_3_power_associative=ann.contains(special_vector("W").coords),
        has_unit=A.unit is not None,
        annihilator_dim=ann.dim,
        annihilator_basis=tuple(GroupAlgElem(row) for row in ann.basis),
    )
