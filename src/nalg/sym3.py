"""The symmetric group on three letters and its rational group algebra.

Conventions, fixed once for the whole package:

* Basis order of the group algebra is ``[id, t12, t13, t23, c1, c2]``,
  where ``t_ij`` swaps i and j, ``c1`` is the cycle 1->2->3->1 and
  ``c2 = c1 * c1``.  All coordinate input and output uses this order.
* ``compose(p, q)`` applies ``q`` first: ``compose(p, q)(k) == p(q(k))``.
* The translation action of a permutation ``s`` sends a basis permutation
  ``r`` to ``compose(inverse(s), r)``, extended linearly.

Two different closures appear when working with subspaces of the group
algebra.  Orbit spans are closed under the translation action above, while
the annihilator subspaces of slot-permutation identities (see
:mod:`nalg.algebras`) are closed under *right multiplication* instead.
The two do not coincide in general, so both ``orbit_span`` and
``right_ideal`` are exposed; the identity-propagation facts checked by the
test suite go through ``right_ideal``.  Zero products, right annihilators
and isotypic multiplicities are read off the Wedderburn split, ``split``.

This module holds what the checks run.  ``compose``, ``ga_multiply``, the
translation action and its orbits, ``right_ideal`` and
``maschke_multiplicities`` live in the lazy :mod:`nalg.groupalg`, and are
read here through the module ``__getattr__`` (PEP 562).
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from . import _forward, groupalg
from ._record import Record
from .linalg import Subspace, _exact, as_vec, span


class Perm3(Record):
    """A permutation of {1, 2, 3}, stored as the image triple (p(1), p(2), p(3))."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, int, int]):
        if not all(type(k) is int for k in images) or sorted(images) != [1, 2, 3]:
            raise ValueError(f"not a permutation of 1..3: {images!r}")
        self._assign(tuple(images))

    def __call__(self, k: int) -> int:
        return self.images[k - 1]

    def __mul__(self, other: "Perm3") -> "Perm3":
        return groupalg.compose(self, other)


def inverse(p: Perm3) -> Perm3:
    return Perm3(tuple(p.images.index(k) + 1 for k in (1, 2, 3)))


def sign(p: Perm3) -> Fraction:
    """+1 on the identity and the 3-cycles, -1 on the transpositions."""
    inversions = sum(p(a) > p(b) for a, b in ((1, 2), (1, 3), (2, 3)))
    return Fraction(-1) if inversions % 2 else Fraction(1)


IDENTITY = Perm3((1, 2, 3))
T12 = Perm3((2, 1, 3))
T13 = Perm3((3, 2, 1))
T23 = Perm3((1, 3, 2))
C1 = Perm3((2, 3, 1))
C2 = Perm3((3, 1, 2))

PERMS: tuple[Perm3, ...] = (IDENTITY, T12, T13, T23, C1, C2)
PERM_NAMES: tuple[str, ...] = ("id", "t12", "t13", "t23", "c1", "c2")
_PERM_INDEX = {p: i for i, p in enumerate(PERMS)}

#: Subgroups in the fixed numbering: {id}, {id,t12}, {id,t23}, {id,t13},
#: the alternating group, and the whole group.
SUBGROUPS: dict[int, tuple[Perm3, ...]] = {
    1: (IDENTITY,),
    2: (IDENTITY, T12),
    3: (IDENTITY, T23),
    4: (IDENTITY, T13),
    5: (IDENTITY, C1, C2),
    6: PERMS,
}


class GroupAlgElem(Record):
    """An element of the rational group algebra, as six coordinates in the
    fixed basis order [id, t12, t13, t23, c1, c2]."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[Fraction, ...]):
        if len(coords) != 6:
            raise ValueError("group-algebra elements have exactly six coordinates")
        self._assign(as_vec(coords))

    @classmethod
    def zero(cls) -> "GroupAlgElem":
        return cls((0, 0, 0, 0, 0, 0))

    @classmethod
    def from_perm(cls, p: Perm3) -> "GroupAlgElem":
        coords = [Fraction(0)] * 6
        coords[_PERM_INDEX[p]] = Fraction(1)
        return cls(tuple(coords))

    def __add__(self, other: "GroupAlgElem") -> "GroupAlgElem":
        return GroupAlgElem(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "GroupAlgElem") -> "GroupAlgElem":
        return GroupAlgElem(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "GroupAlgElem":
        return GroupAlgElem(tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, GroupAlgElem):
            return groupalg.ga_multiply(self, other)
        return GroupAlgElem(tuple(a * _exact(other) for a in self.coords))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.coords)


def _special_table() -> dict[str, GroupAlgElem]:
    """The named vectors, from integer coordinates: a_i puts the sign of
    each member p of subgroup i at p, u_i puts 1 at the inverse of each."""
    coords: dict[str, list[int]] = {}
    for i, group in SUBGROUPS.items():
        a, u = [0] * 6, [0] * 6
        for p in group:
            a[_PERM_INDEX[p]] = int(sign(p))
            u[_PERM_INDEX[inverse(p)]] = 1
        coords[f"a{i}"], coords[f"u{i}"] = a, u
    coords["V"] = coords["a6"]
    coords["W"] = coords["u6"]
    # Single-generator family: one vector per subgroup (the generator for
    # the order-2 subgroups, the alternating sum a5 for the even subgroup,
    # and V for the whole group).
    for name, p in zip(("v1", "v2", "v3", "v4"), (IDENTITY, T12, T23, T13)):
        coords[name] = [int(q == p) for q in PERMS]
    coords["v5"] = coords["a5"]
    coords["v6"] = coords["V"]
    return {name: GroupAlgElem(c) for name, c in coords.items()}


_SPECIAL = _special_table()


def special_vector(name: str) -> GroupAlgElem:
    """Named vectors: V and W (the alternating and full symmetrizing sums),
    a1..a6 (signed subgroup sums), u1..u6 (sums of subgroup inverses), and
    v1..v6 (the single-generator family)."""
    try:
        return _SPECIAL[name]
    except KeyError:
        raise ValueError(f"unknown special vector {name!r}") from None


def split(f: Sequence) -> tuple:
    """The Wedderburn split Q[S3] -> Q + Q + M2(Q) of the coordinates ``f``:
    augmentation, sign, and r11, r12, r21, r22 of rho, which permutes the
    coordinates of x1 + x2 + x3 = 0, in the basis e1 - e2, e2 - e3."""
    a, b, c, d, e, g = f
    even, odd = a + e + g, b + c + d
    return (even + odd, even - odd, a - b + d - g, b - c - e + g, d - c + e - g, a + b - d - e)


def killed(f: tuple, v: tuple) -> bool:
    """Whether the product of two elements is zero, given their splits."""
    e, s, f11, f12, f21, f22 = f
    e2, s2, v11, v12, v21, v22 = v
    return not (e * e2 or s * s2 or f11 * v11 + f12 * v21 or f11 * v12 + f12 * v22
                or f21 * v11 + f22 * v21 or f21 * v12 + f22 * v22)


_TRIVIAL, _SIGN = (1,) * 6, tuple(int(sign(p)) for p in PERMS)
# rho(p^-1) for each basis permutation p.  By Fourier inversion, 3 times the
# element with both scalars 0 and rho = k e_j^T has (rho(p^-1) k)_j at p.
_INVERSE_RHO = tuple(split([int(q == inverse(p)) for q in PERMS])[2:] for p in PERMS)


def right_annihilator(g: tuple) -> Subspace:
    """All v with g v = 0, for the split ``g``, in canonical form: W if the
    augmentation of g is 0, V if its sign is, and for each k in the kernel
    of rho(g) the two elements with rho = k e_1^T and k e_2^T."""
    eps, sgn, r11, r12, r21, r22 = g
    vectors = [w for w, scalar in ((_TRIVIAL, eps), (_SIGN, sgn)) if not scalar]
    null = [(1, 0), (0, 1)]
    if r11 or r12 or r21 or r22:
        x, y = (r11, r12) if r11 or r12 else (r21, r22)
        null = [(-y, x)] if r11 * r22 == r12 * r21 else []
    for k1, k2 in null:
        vectors += [tuple(rho[j] * k1 + rho[j + 1] * k2 for rho in _INVERSE_RHO) for j in (0, 2)]
    return span(vectors, 6)


__getattr__ = _forward(__name__, groupalg)
