"""Reference implementation of the algebra checks, kept as the oracle for
the differential tests.

These are the straightforward definitions, evaluated over
``fractions.Fraction``: the associator is built from the two composites,
every identity applies its own slot permutation to it, the annihilator
solves the linear system over every tensor coordinate, and every
triple-symmetry flag runs its own associativity check.  They are slow and
obviously correct; ``nalg.algebras`` must agree with them on every input.

The slot-row solve is kept here too: each key of a layer of the integer
composite gives one equation in the six coordinates of a group-algebra
vector, and the rows are eliminated until their rank is six.  It is the
oracle of the Wedderburn-split solve in ``nalg.algebras``, which reads the
same layers one orbit at a time.

The module also holds the tools the tests apply to trilinear maps and
algebras: basis vectors, linear combinations, evaluation and the algebra
morphism predicate.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from fractions import Fraction
from operator import itemgetter

from nalg import linalg
from nalg.algebras import Algebra, ClassificationReport, TrilinearMap
from nalg.linalg import Subspace, Vec, as_vec, kernel
from nalg.sym3 import PERMS, SUBGROUPS, GroupAlgElem, Perm3, inverse, special_vector


def basis_vec(dim: int, j: int) -> Vec:
    return tuple(Fraction(int(t == j)) for t in range(1, dim + 1))


def combine(dim: int, terms) -> TrilinearMap:
    """The linear combination of the (coefficient, TrilinearMap) pairs."""
    out: dict[tuple[int, int, int, int], Fraction] = defaultdict(Fraction)
    for coeff, T in terms:
        for key, c in T.entries.items():
            out[key] += Fraction(coeff) * c
    return TrilinearMap(dim, out)


def evaluate(T: TrilinearMap, x, y, z) -> Vec:
    """T(x, y, z) by trilinear extension of the entries."""
    x, y, z = as_vec(x), as_vec(y), as_vec(z)
    out = [Fraction(0)] * T.dim
    for (i, j, k, l), c in T.entries.items():
        out[l - 1] += c * x[i - 1] * y[j - 1] * z[k - 1]
    return tuple(out)


def is_algebra_morphism(images, source: Algebra, target: Algebra) -> bool:
    """Whether the linear map sending e_j to ``images[j-1]`` intertwines the
    products: f(x y) = f(x) f(y) on all basis pairs."""
    imgs = [as_vec(v) for v in images]
    if len(imgs) != source.dim or any(len(v) != target.dim for v in imgs):
        raise ValueError("morphism images must map the source basis into the target")
    es = [basis_vec(source.dim, i) for i in range(1, source.dim + 1)]
    for i, j in itertools.product(range(source.dim), repeat=2):
        prod = source.multiply(es[i], es[j])
        lhs = tuple(sum((c * v[t] for c, v in zip(prod, imgs)), Fraction(0)) for t in range(target.dim))
        if lhs != target.multiply(imgs[i], imgs[j]):
            return False
    return True


def left_assoc_map(A: Algebra) -> TrilinearMap:
    by_left: dict[int, list[tuple[int, int, Fraction]]] = defaultdict(list)
    for (m, k, l), c in A.products.items():
        by_left[m].append((k, l, c))
    out: dict[tuple[int, int, int, int], Fraction] = defaultdict(Fraction)
    for (i, j, m), c1 in A.products.items():
        for k, l, c2 in by_left.get(m, ()):
            out[(i, j, k, l)] += c1 * c2
    return TrilinearMap(A.dim, out)


def right_assoc_map(A: Algebra) -> TrilinearMap:
    by_right: dict[int, list[tuple[int, int, Fraction]]] = defaultdict(list)
    for (i, m, l), c in A.products.items():
        by_right[m].append((i, l, c))
    out: dict[tuple[int, int, int, int], Fraction] = defaultdict(Fraction)
    for (j, k, m), c1 in A.products.items():
        for i, l, c2 in by_right.get(m, ()):
            out[(i, j, k, l)] += c1 * c2
    return TrilinearMap(A.dim, out)


def associator(A: Algebra) -> TrilinearMap:
    return combine(A.dim, ((1, left_assoc_map(A)), (-1, right_assoc_map(A))))


def phi_precompose(T: TrilinearMap, v) -> TrilinearMap:
    if isinstance(v, Perm3):
        v = GroupAlgElem.from_perm(v)
    out: dict[tuple[int, int, int, int], Fraction] = defaultdict(Fraction)
    for pos, coeff in enumerate(v.coords):
        if not coeff:
            continue
        s = PERMS[pos]
        s1, s2, s3 = s(1), s(2), s(3)
        for (m1, m2, m3, l), c in T.entries.items():
            mm = (m1, m2, m3)
            out[(mm[s1 - 1], mm[s2 - 1], mm[s3 - 1], l)] += coeff * c
    return TrilinearMap(T.dim, out)


def is_sigma3_assoc_for(A: Algebra, v: GroupAlgElem) -> bool:
    return not phi_precompose(associator(A), v).entries


def gi_check(A: Algebra, i: int) -> bool:
    return is_sigma3_assoc_for(A, special_vector(f"a{i}"))


def power_assoc_check(A: Algebra) -> bool:
    return is_sigma3_assoc_for(A, special_vector("W"))


def annihilator(A: Algebra) -> Subspace:
    T = associator(A)
    permuted = [phi_precompose(T, p) for p in PERMS]
    support: set[tuple[int, int, int, int]] = set()
    for pt in permuted:
        support.update(pt.entries.keys())
    rows = [
        tuple(pt.entries.get(key, Fraction(0)) for pt in permuted)
        for key in sorted(support)
    ]
    return kernel(rows, 6)


def gi_bang_check(A: Algebra, i: int) -> bool:
    if not gi_check(A, 1):
        return False
    L = left_assoc_map(A)
    return all(phi_precompose(L, p) == L for p in SUBGROUPS[i][1:])


def classify(A: Algebra) -> ClassificationReport:
    T = associator(A)
    gi = {
        i: not phi_precompose(T, special_vector(f"a{i}")).entries for i in range(1, 7)
    }
    bang = {i: gi_bang_check(A, i) for i in range(2, 7)}
    ann = annihilator(A)
    return ClassificationReport(
        gi_assoc=gi,
        gi_bang=bang,
        is_associative=gi[1],
        is_lie_admissible=gi[6],
        is_3_power_associative=not phi_precompose(T, special_vector("W")).entries,
        has_unit=A.unit is not None,
        annihilator_dim=ann.dim,
        annihilator_basis=tuple(GroupAlgElem(row) for row in ann.basis),
    )


def jacobi_check(A: Algebra) -> bool:
    for (i, j, k), c in A.products.items():
        if A.products.get((j, i, k), Fraction(0)) != -c:
            return False
    n = A.dim
    zero = tuple([Fraction(0)] * n)
    es = [basis_vec(n, i) for i in range(1, n + 1)]
    for x, y, z in itertools.product(es, repeat=3):
        total = [Fraction(0)] * n
        for a, b, c3 in ((x, y, z), (y, z, x), (z, x, y)):
            inner = A.multiply(a, b)
            outer = A.multiply(inner, c3)
            for t in range(n):
                total[t] += outer[t]
        if tuple(total) != zero:
            return False
    return True


# The permuted map at a key K reads the original at (K[q1], K[q2], K[q3], l)
# with (q1, q2, q3) = _LOOKUP_ORDERS[p], the 0-based images of PERMS[p]^-1.
# The orbit of a key m is the six keys (m[s1], m[s2], m[s3], l) over
# SLOT_ORDERS, the 0-based images of each PERMS[p], and the row at any of
# them reads only values at those six: _ROW_READS[p] picks, from the six
# values in that order, the row at the p-th orbit key.
SLOT_ORDERS = tuple((s(1) - 1, s(2) - 1, s(3) - 1) for s in PERMS)
_LOOKUP_ORDERS = tuple((t(1) - 1, t(2) - 1, t(3) - 1) for t in map(inverse, PERMS))
_ROW_READS = tuple(
    itemgetter(*(SLOT_ORDERS.index((s[q1], s[q2], s[q3])) for q1, q2, q3 in _LOOKUP_ORDERS))
    for s in SLOT_ORDERS
)


def slot_rows(T):
    """The six slot-permuted copies of the integer map ``T`` as one row per
    key of their joint support, lazily: entry p of the row at key K is the
    coefficient of K in ``phi_precompose(T, PERMS[p])``.  Each distinct row
    of an orbit is yielded once: a symmetric map has one."""
    seen = set()
    get = T.get
    for m in T:
        if m in seen:
            continue
        keys = [(m[s1], m[s2], m[s3], m[3]) for s1, s2, s3 in SLOT_ORDERS]
        values = [get(key, 0) for key in keys]
        rows = set()
        for key, reads in zip(keys, _ROW_READS):
            if key not in seen:
                seen.add(key)
                row = reads(values)
                if row not in rows:
                    rows.add(row)
                    yield row


def slot_kernel(layers) -> Subspace:
    """The kernel of the slot rows of ``layers``, eliminated only until
    their rank is 6, so a layer is pulled only when the rows before it are
    used up."""
    return kernel(linalg._echelon(row for layer in layers for row in slot_rows(layer))[1], 6)


def slot_kills(v, layers) -> bool:
    """Whether every slot row of ``layers`` is orthogonal to ``v``."""
    return not any(sum(a * b for a, b in zip(v, row)) for layer in layers for row in slot_rows(layer))
