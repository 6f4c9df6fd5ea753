"""Finite-dimensional algebras and cogebras over the rationals given by
(co)structure constants, and the slot-permutation invariance checks on the
associator of an algebra.  A cogebra is read through its dual algebra:
``_dual_products`` is the one place where a cogebra's table becomes its
dual's, also as ``Cogebra._in_product_order``, which every cogebra check,
convolution, the CLI and the counit check read.

The checks are indexed by the six subgroups of the symmetric group on
three letters: index 1 is plain associativity, 2 is the Vinberg
(left-symmetric) identity, 3 is the pre-Lie (right-symmetric) identity,
4 equates a triple product with its reversal, 5 is the generalized Jacobi
condition, and 6 is Lie-admissibility.  Every identity is decided exactly
by evaluating on all basis triples, which suffices by multilinearity.

Every check asks which group-algebra vectors kill a trilinear map under
slot permutation, on the table cleared of denominators (Python ints, no
floats).  The map is a composite left*(xy)z + right*x(yz), produced in
layers of growing largest index: the associator for the identities, and
(xy)z alone for the triple symmetries.  Each orbit K of keys under slot
permutation gives a group-algebra element f_K, and slot permutation by v
kills the map on K exactly when f_K v = 0: three integer tests on the
Wedderburn splits (:mod:`nalg.sym3`).  ``_split_solve`` folds the orbits
into one generator g of the left ideal they span; the answer is the
right annihilator of g, and every flag one ``killed`` read of g.
``_kills`` tests one vector and stops at the first orbit it fails on.

Both read the orbits of ``_orbit_probe`` before the layers and stop once
the answer is certified, so the later layers are never computed.  The
probe reads the orbits of the first three indices the table uses, one
output index at a time; on a table of two indices a < b, those of
(a, a, b) and (a, b, b).  On a generic table the first of them alone
makes g invertible.  An orbit read twice adds nothing to the ideal, and
fails a kill test both times or neither, so no answer changes.  When the
probe leaves g singular, ``_solve`` bounds what g can reach by vectors the
table's own shape puts in the annihilator, and the fold stops once g
reaches that bound: on fewer than three indices every orbit is fixed by
a transposition, and a commutative or anticommutative table has
A(z, y, x) = -A(x, y, z).
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import chain
from typing import Iterator, Mapping, Sequence

from ._record import Record
from .linalg import Subspace, Vec, _cleared, _exact, as_vec
from .sym3 import SUBGROUPS, GroupAlgElem, Perm3, PERMS, killed, special_vector, split
from .sym3 import right_annihilator


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

    ``_check_unit`` checks a (co)unit as the two-sided unit of the table in
    product order, keyed (left, right, out), that ``_in_product_order``
    gives: an algebra's table as it is, a cogebra's as its dual algebra's,
    so the counit axiom is the unit axiom of the dual.  Each subclass also
    sets ``_entry``, an entry's name in errors, and ``_unit_error``, the
    text of a failed (co)unit check.
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
            self._check_unit(self._in_product_order(table), unit, 1)
        return self._assign(dim, table, unit, basis, name)

    @classmethod
    def _check_unit(cls, P: Mapping[tuple[int, int, int], Fraction | int], u: Sequence, one) -> None:
        """Raise ``cls._unit_error`` unless u e_j = ``one`` e_j = e_j u for every
        e_j on the table ``P`` in product order: ``one`` is 1 for a structure's
        own table and (co)unit, ``d * e`` for the reader's table and (co)unit
        cleared by ``d`` and ``e`` (see ``formats._scan``)."""
        # left[(j, k)] is the e_k coordinate of u e_j, right[(i, k)] that of e_i u.
        left, right = defaultdict(int), defaultdict(int)
        for (i, j, k), c in P.items():
            if u[i - 1]:
                left[(j, k)] += c * u[i - 1]
            if u[j - 1]:
                right[(i, k)] += c * u[j - 1]
        # Both must be ``one`` times the identity matrix, keyed by (row, column).
        identity = {(j, j): one for j in range(1, len(u) + 1)}
        if any({key: c for key, c in m.items() if c} != identity for m in (left, right)):
            raise ValueError(cls._unit_error)

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
    _entry, _unit_error = "product", "declared unit is not a two-sided unit"

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


def _dual_products(coproducts: Mapping[tuple[int, int, int], Fraction | int]) -> dict:
    """The structure constants of the dual algebra: the coproduct (k, i, j)
    as the product (i, j, k), with the values (Fractions or ints) as given."""
    return {(i, j, k): c for (k, i, j), c in coproducts.items()}


class Cogebra(_Structure):
    """A cogebra by costructure constants.

    ``coproducts[(k, i, j)]`` is the coefficient of ``e_i (x) e_j`` in the
    coproduct of ``e_k``; absent entries are zero.  ``counit``, when given,
    holds the functional's coordinates and must satisfy the counit axiom
    on every basis element (checked on construction, as the unit axiom of
    the dual algebra).
    """

    __slots__ = ("dim", "coproducts", "counit", "basis", "name")
    _entry, _unit_error = "coproduct", "declared counit fails the counit axiom"
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


Key4 = tuple[int, int, int, int]


def _integer_table(
    products: Mapping[tuple[int, int, int], Fraction],
) -> tuple[dict[tuple[int, int, int], int], int]:
    """The structure constants cleared of denominators, and the factor ``d``
    that cleared them.  Every identity below is homogeneous in the
    constants, so it holds for the scaled table exactly when it holds for
    the original one."""
    ints, d = _cleared(products.values())
    return dict(zip(products, ints)), d


def _composite_layers(
    P: Mapping[tuple[int, int, int], int], left: int, right: int
) -> Iterator[dict[Key4, int]]:
    """The nonzero entries of left*(xy)z + right*x(yz) over the integer
    table ``P``, in layers: one per index used by ``P``, in increasing
    order, the layer of t holding the keys (i, j, k, l) with
    max(i, j, k) = t.  (1, -1) gives the associator, (1, 0) and (0, 1) the
    two composites.

    Slot permutation keeps max(i, j, k), so every layer is closed under it.
    Both composites join an inner product e_a e_b -> e_m, at level
    max(a, b), with an outer product through e_m: e_m e_k for (xy)z, at
    level k, and e_i e_m for x(yz), at level i.  A pair feeds the layer of
    the larger level.  So layer t joins the level-t inner products with the
    outer ones up to level t, then the level-t outer products with the
    inner ones below level t; the earlier sides are indexed by m.  Every
    pair is joined exactly once, in the layer of its key.  Entries are
    filed in dicts keyed by the indices themselves, so the cost follows the
    entries of ``P``, not the size of its largest index.
    """
    # Every entry (a, b, m, c) of P is filed by level up to three times: as
    # an inner product at max(a, b), as an (xy)z outer one at b, and as an
    # x(yz) outer one at a.  An outer entry carries its composite's
    # coefficient, and a composite with coefficient 0 files none.  The *_by
    # tables hold, by m, the entries of the levels already reached.
    inner_at, left_at, right_at = defaultdict(list), defaultdict(list), defaultdict(list)
    inner_by, left_by, right_by = defaultdict(list), defaultdict(list), defaultdict(list)
    for (a, b, m), c in P.items():
        inner_at[a if a > b else b].append((a, b, m, c))
        if left:
            left_at[b].append((a, b, m, left * c))
        if right:
            right_at[a].append((a, b, m, right * c))
    for t in sorted(set().union(*P)):
        inner, outer_left, outer_right = inner_at[t], left_at[t], right_at[t]
        for entry in outer_left:
            left_by[entry[0]].append(entry)
        for entry in outer_right:
            right_by[entry[1]].append(entry)
        out: dict[Key4, int] = {}
        for a, b, m, c1 in inner:
            for _, k, l, c2 in left_by[m]:
                key = (a, b, k, l)
                out[key] = out.get(key, 0) + c1 * c2
            for i, _, l, c2 in right_by[m]:
                key = (i, a, b, l)
                out[key] = out.get(key, 0) + c1 * c2
        for m, k, l, c2 in outer_left:
            for a, b, _, c1 in inner_by[m]:
                key = (a, b, k, l)
                out[key] = out.get(key, 0) + c1 * c2
        for i, m, l, c2 in outer_right:
            for a, b, _, c1 in inner_by[m]:
                key = (i, a, b, l)
                out[key] = out.get(key, 0) + c1 * c2
        for entry in inner:
            inner_by[entry[2]].append(entry)
        yield {key: c for key, c in out.items() if c}


def _composite(products: Mapping, left: int, right: int) -> dict[Key4, Fraction]:
    """left*(xy)z + right*x(yz) over ``products``: the cleared table's layers, divided by d^2."""
    P, d = _integer_table(products)
    return {key: Fraction(c, d * d) for layer in _composite_layers(P, left, right) for key, c in layer.items()}


def associator(A: Algebra) -> TrilinearMap:
    """(x1 x2) x3 - x1 (x2 x3)."""
    return TrilinearMap(A.dim, _composite(A.products, 1, -1))


# Slot permutation by s = PERMS[p] sends the key (m1, m2, m3, l) to
# (m[s1], m[s2], m[s3], l) with (s1, s2, s3) = _SLOT_ORDERS[p], the 0-based
# images of s.
_SLOT_ORDERS = tuple((s(1) - 1, s(2) - 1, s(3) - 1) for s in PERMS)


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


def _orbit_splits(layers: Iterator[dict[Key4, int]]) -> Iterator[tuple[int, ...]]:
    """The split of f_K for each orbit K of the keys of each layer T under
    slot permutation, lazily.  With the orbit's keys K_p = (m[s1], m[s2],
    m[s3], l) in _SLOT_ORDERS order, f_K is the sum of T(K_p) PERMS[p], and
    slot permutation by v gives the coefficient of PERMS[r] in f_K v at
    K_r.  Another start m only multiplies f_K on the left by a permutation."""
    for T in layers:
        seen: set[Key4] = set()
        get = T.get
        for m in T:
            if m in seen:
                continue
            keys = [(m[s1], m[s2], m[s3], m[3]) for s1, s2, s3 in _SLOT_ORDERS]
            seen.update(keys)
            yield split([get(key, 0) for key in keys])


def _split_solve(splits: Iterator[tuple[int, ...]], cap: tuple = (True, True, 2)) -> tuple[int, ...]:
    """The split of a generator g of the left ideal spanned by the f_K
    whose ``splits`` are given: v kills every orbit exactly when g v = 0.

    The scalars of g are the first nonzero ones of an f_K, and rho(g) has
    the row space of all rho(f_K): zero, one row (x, y) over a zero row,
    or the identity.  The fold stops once g reaches ``cap`` (see ``_solve``),
    invertible by default, so an orbit is computed only when those before
    it leave g short of it."""
    eps = sgn = x = y = 0
    full = False
    eps_open, sgn_open, rank = cap
    for e, s, r11, r12, r21, r22 in splits:
        eps, sgn = eps or e, sgn or s
        if not (x or y):
            x, y = (r11, r12) if r11 or r12 else (r21, r22)
        full = full or x * r12 != y * r11 or x * r22 != y * r21
        if (full or rank < 2 and (x or y or not rank)) and (eps or not eps_open) and (sgn or not sgn_open):
            break
    return (eps, sgn, 1, 0, 0, 1) if full else (eps, sgn, x, y, 0, 0)


def _shape_orders(shape: tuple[int, int, int]) -> tuple[tuple, tuple]:
    """The distinct images of a start of ``shape`` under the six slot
    orders: each with its first place p in _SLOT_ORDERS, and (p, q) for
    every later place p whose image is that of place q."""
    first: dict[tuple[int, int, int], int] = {}
    copies = []
    for p, (s1, s2, s3) in enumerate(_SLOT_ORDERS):
        image = shape[s1], shape[s2], shape[s3]
        if image in first:
            copies.append((p, first[image]))
        else:
            first[image] = p
    return tuple((p, image) for image, p in first.items()), tuple(copies)


# The probe's start shapes by the number of indices the table uses, as
# places in its first indices: three distinct ones, or (a, a, b) and
# (a, b, b).  A two-index start has three distinct images, each twice.
_PROBE_SHAPES = {3: ((0, 1, 2),), 2: ((0, 0, 1), (0, 1, 1))}
_PROBE_ORDERS = {n: tuple(map(_shape_orders, shapes)) for n, shapes in _PROBE_SHAPES.items()}


def _orbit_probe(P: Mapping[tuple[int, int, int], int], left: int, right: int) -> Iterator[tuple[int, ...]]:
    """The splits of the nonzero orbits of left*(xy)z + right*x(yz) over
    the integer table ``P`` at the six slot permutations (_SLOT_ORDERS) of
    each start, lazily, one orbit (one output l) per step: the first three
    of ``used``, the sorted indices of ``P``; on two, a < b, (a, a, b) and
    (a, b, b).  Each distinct permutation of a start is joined once, at its
    first place (_PROBE_ORDERS), and its value copied to the others.  A
    term (p, w, a, b) adds w * P[(a, b, l)] at p = (i, j, k): w is read
    with ``P.get`` from e_i e_j -> e_m for (xy)z or e_j e_k -> e_m for
    x(yz), at every used m, and l runs over the outputs of e_a e_b.  A
    start with no term reads no output."""
    used = sorted(set().union(*P))
    get = P.get
    for orders, copies in _PROBE_ORDERS.get(min(len(used), 3), ()):
        reached, terms = set(), []
        for p, (s1, s2, s3) in orders:
            i, j, k = used[s1], used[s2], used[s3]
            for m in used:
                if left and (c := get((i, j, m))):
                    terms.append((p, left * c, m, k))
                if right and (c := get((j, k, m))):
                    terms.append((p, right * c, i, m))
        if not terms:
            continue
        pairs = {(a, b) for _, _, a, b in terms}
        for a, b, l in P:
            if l not in reached and (a, b) in pairs:
                reached.add(l)
                values = [0] * 6
                for p, w, m, n in terms:
                    values[p] += w * get((m, n, l), 0)
                if any(values):
                    for p, q in copies:
                        values[p] = values[q]
                    yield split(values)


def _symmetric(table: Mapping[tuple[int, int, int], int], sign: int) -> bool:
    """Whether e_j e_i = sign * e_i e_j in ``table``, up to the first mismatch."""
    get = table.get
    return all(get((j, i, k), 0) == (c if sign == 1 else -c) for (i, j, k), c in table.items())


def _solve(P: Mapping[tuple[int, int, int], int], left: int, right: int, associative: bool = False) -> tuple[int, ...]:
    """``_split_solve`` of left*(xy)z + right*x(yz): the probe, then, if
    it leaves g singular, g itself and the layers up to the cap, the most
    that g can reach.  On fewer than three indices sgn(g) = 0.  Commutative
    or anticommutative, id + t13 kills the associator (eps(g) = 0, rank
    rho(g) <= 1), and V does when commutative (sgn(g) = 0).  t12 fixes
    (xy)z when commutative (sgn(g) = 0, rank <= 1), every permutation does
    when also ``associative`` (rank 0), and t12 negates it when
    anticommutative (eps(g) = 0, rank <= 1).  At the cap g spans the whole
    left annihilator of those vectors, so no later orbit changes it."""
    g = _split_solve(_orbit_probe(P, left, right))
    if g[0] and g[1] and g[5]:
        return g
    cap = True, len(set().union(*P)) > 2, 2
    if right in (-left, 0) and _symmetric(P, 1):
        cap = (False, False, 1) if right else (True, False, 0 if associative else 1)
    elif right in (-left, 0) and _symmetric(P, -1):
        cap = False, cap[1], 1
    return _split_solve(chain((g,), _orbit_splits(_composite_layers(P, left, right))), cap)


# The splits of the vectors every check reads.
_GI_SPLITS = {i: split(map(int, special_vector(f"a{i}").coords)) for i in range(1, 7)}
_W_SPLIT = split(map(int, special_vector("W").coords))
# u_i - |G_i| id, with u_i the sum of the members of G_i, for i = 2..6.
# u_i / |G_i| averages over G_i, and averaging fixes a trilinear map
# exactly when G_i does, so this vector kills (xy)z under slot
# permutation exactly when (xy)z is G_i-invariant.
_BANG_SPLITS = {
    i: split([int(p in G) - len(G) * (p == PERMS[0]) for p in PERMS]) for i, G in SUBGROUPS.items() if i > 1
}


def _kills(w: tuple, P: Mapping[tuple[int, int, int], int], left: int, right: int) -> bool:
    """Whether slot permutation by the vector with split ``w`` kills
    left*(xy)z + right*x(yz) over ``P``: f_K v = 0 on every orbit, the
    probe's first, up to the first orbit where it is not."""
    orbits = chain(_orbit_probe(P, left, right), _orbit_splits(_composite_layers(P, left, right)))
    return all(killed(f, w) for f in orbits)


def is_sigma3_assoc_for(A: Algebra, v: GroupAlgElem) -> bool:
    """True iff the associator vanishes after slot permutation by ``v``."""
    return _kills(split(_cleared(v.coords)[0]), _integer_table(A.products)[0], 1, -1)


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


class ClassificationReport(Record):
    """Aggregated results of all invariance checks for one algebra: each
    gi map takes a subgroup index to its flag, and the annihilator basis
    holds group-algebra elements."""

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


def _classify(P: Mapping[tuple[int, int, int], int], has_unit: bool) -> ClassificationReport:
    """``classify`` of the algebra with the cleared table ``P``, as
    ``_integer_table`` returns it, and a unit when ``has_unit``."""
    g = _solve(P, 1, -1)
    bang = dict.fromkeys(_BANG_SPLITS, False)
    if g[0] and g[1] and g[5]:
        # g is invertible (rho(g) = 1 in normal form), as on a generic table.
        return ClassificationReport(dict.fromkeys(_GI_SPLITS, False), bang, False, False, False, has_unit, 0, ())
    gi = {i: killed(g, f) for i, f in _GI_SPLITS.items()}
    if gi[1]:
        sym = _solve(P, 1, 0, True)
        bang = {i: killed(sym, f) for i, f in _BANG_SPLITS.items()}
    ann = right_annihilator(g)
    # The fields in slot order: positional arguments build it fastest.
    return ClassificationReport(
        gi, bang, gi[1], gi[6], killed(g, _W_SPLIT), has_unit, ann.dim, tuple(map(GroupAlgElem, ann.basis))
    )
