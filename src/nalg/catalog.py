"""Named example algebras and cogebras with documented provenance.

Every instance is committed as a data file under ``nalg/data`` and is also
regenerable from scratch: the fixed instances are written out directly and
the searched instances come from exhaustive lexicographic searches over
small, fully documented candidate spaces (first hit wins), so regeneration
is deterministic.  ``regenerate`` rebuilds everything and compares it to
the stored files byte for byte, which doubles as a canary for accidental
convention changes.

Every algebra instance is one row of ``_BUILDERS``, whose order is the
catalog's order.  ``build`` is the one way to build an instance, cached
once per process: it runs a row, or derives a ``dual_`` instance from its
algebra.

Search spaces, per instance, in the row order of ``_BUILDERS``.  Each is
built by ``_candidates(dim, slots)``: every table whose constants on
``slots`` range lexicographically over {-1, 0, 1} (in ``slots`` order;
other slots are zero), on the basis e1..e<dim>.  A candidate is an
integer table made without the constructor's checks, which it passes by
construction (its keys are in-range index triples, its values ints), and
the predicates take it as it is; only the hit goes through the checking
constructor, which gives the instance Fractions of its own.  Candidates are
the one kind of structure in the package made without those checks.

* ``vinberg2`` / ``prelie2`` / ``g4_2`` / ``g5_only``: all 2-dimensional
  tables, the 8 slots ordered by (i, j, k), where the identity of index 2,
  3, 4 or 5 holds and associativity fails (``g5_only`` is also not
  antisymmetric).  ``prelie2`` carries one extra condition: its tensor
  product with ``vinberg2`` must have a trivial slot-permutation
  annihilator.  Tiny tables are often degenerate enough that a tensor of
  two non-associative algebras still satisfies some slot identity (the
  first few pre-Lie hits do exactly that), and the designated pair exists
  to witness the opposite, jointly generic behavior.
* ``g2bang3``: 3-dimensional strictly graded tables (products land only in
  strictly higher basis indices, so the candidate slots are (1,1,2),
  (1,1,3), (1,2,3), (2,1,3), (2,2,3)) that are not commutative and whose
  index-2 triple symmetry holds.  The full unrestricted 3-dimensional
  space (3**27 tables) is far beyond desk scale, so the restriction is
  part of the instance's definition.
* ``nonjacobi3``: 3-dimensional antisymmetric tables that fail the Jacobi
  identity: the commutator algebras of the tables on the 9 slots (i, j, k)
  with i < j, ordered by (i, j, k).
* ``generic3``: 3-dimensional tables supported on the one-sided cyclic
  slots (1,2,3), (2,3,1), (3,1,2) plus the symmetry-breaking slot (2,1,1),
  with a trivial slot-permutation annihilator, which no 2-dimensional
  algebra can have: the alternating sum of the six slot permutations is
  the triple antisymmetrizer, and that operator vanishes identically on a
  2-dimensional space, so every 2-dimensional algebra is Lie-admissible.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from pathlib import Path

from . import formats
from .algebras import (
    Algebra,
    annihilator,
    commutator_algebra,
    gi_bang_check,
    gi_check,
    is_antisymmetric,
    is_commutative,
    jacobi_check,
)
from .duality import dualize_algebra
from .products import tensor_algebras

# Ints: the checks take an int-valued table as it is, and the constructor
# that ``_first`` runs on a hit makes Fractions of its own (tables sharing
# Fraction objects would pickle to other bytes).
_VALUES = (-1, 0, 1)
_DATA = Path(__file__).parent / "data"


def _named(obj, name: str):
    """The algebra or cogebra ``obj`` labelled ``name``."""
    return type(obj)(*obj._fields()[:-1], name)


def _mat2(name: str) -> Algebra:
    # Basis E11, E12, E21, E22 with E_ab * E_cd = [b == c] * E_ad.
    products = {
        (1, 1, 1): 1,
        (1, 2, 2): 1,
        (2, 3, 1): 1,
        (2, 4, 2): 1,
        (3, 1, 3): 1,
        (3, 2, 4): 1,
        (4, 3, 3): 1,
        (4, 4, 4): 1,
    }
    return Algebra(4, products, unit=(1, 0, 0, 1), basis=("E11", "E12", "E21", "E22"), name=name)


def _trunc_poly2(name: str) -> Algebra:
    # Polynomials modulo x**2: basis 1, x.
    products = {(1, 1, 1): 1, (1, 2, 2): 1, (2, 1, 2): 1}
    return Algebra(2, products, unit=(1, 0), basis=("1", "x"), name=name)


def _k1(name: str) -> Algebra:
    return Algebra(1, {(1, 1, 1): 1}, unit=(1,), basis=("1",), name=name)


def _sl2(name: str) -> Algebra:
    # Bracket basis h, e, f: [h,e] = 2e, [h,f] = -2f, [e,f] = h.
    products = {
        (1, 2, 2): 2,
        (2, 1, 2): -2,
        (1, 3, 3): -2,
        (3, 1, 3): 2,
        (2, 3, 1): 1,
        (3, 2, 1): -1,
    }
    return Algebra(3, products, basis=("h", "e", "f"), name=name)


def _candidates(dim: int, slots):
    """Every table with constants from ``_VALUES`` on ``slots`` (absent
    slots are zero), lexicographically, on the basis e1..e<dim>, without a
    unit: int tables, zeros dropped, unchecked (see the module docstring)."""
    basis = tuple(f"e{i}" for i in range(1, dim + 1))
    for values in itertools.product(_VALUES, repeat=len(slots)):
        yield Algebra.__new__(Algebra)._assign(dim, {slot: v for slot, v in zip(slots, values) if v}, None, basis, None)


def _first(candidates, predicate, name: str) -> Algebra:
    """The first of ``candidates`` that ``predicate`` accepts, rebuilt
    through the constructor under ``name``: its table holds Fractions of
    its own."""
    for A in candidates:
        if predicate(A):
            return Algebra(A.dim, A.products, basis=A.basis, name=name)
    raise LookupError(f"search space for {name!r} contains no matching instance")


def _searched(candidates, predicate):
    """The builder of a searched instance: the first hit of ``predicate`` in
    a fresh ``candidates()``."""
    return lambda name: _first(candidates(), predicate, name)


_DIM2 = tuple(itertools.product((1, 2), repeat=3))
_PAIRS3 = tuple((i, j, k) for i, j in ((1, 2), (1, 3), (2, 3)) for k in (1, 2, 3))
_GRADED3 = ((1, 1, 2), (1, 1, 3), (1, 2, 3), (2, 1, 3), (2, 2, 3))
_GENERIC3 = ((1, 2, 3), (2, 3, 1), (3, 1, 2), (2, 1, 1))

#: Every algebra instance, in catalog order: its builder, which takes the
#: name.  The searched rows follow "Search spaces" in the module docstring.
_BUILDERS = {
    "mat2": _mat2,
    "trunc_poly2": _trunc_poly2,
    "k1": _k1,
    "vinberg2": _searched(lambda: _candidates(2, _DIM2), lambda A: gi_check(A, 2) and not gi_check(A, 1)),
    "prelie2": _searched(
        lambda: _candidates(2, _DIM2),
        lambda A: gi_check(A, 3) and not gi_check(A, 1)
        and annihilator(tensor_algebras(build("vinberg2"), A)).dim == 0,
    ),
    "g4_2": _searched(lambda: _candidates(2, _DIM2), lambda A: gi_check(A, 4) and not gi_check(A, 1)),
    "sl2": _sl2,
    "g5_only": _searched(
        lambda: _candidates(2, _DIM2),
        lambda A: gi_check(A, 5) and not gi_check(A, 1) and not is_antisymmetric(A),
    ),
    "g2bang3": _searched(lambda: _candidates(3, _GRADED3), lambda A: gi_bang_check(A, 2) and not is_commutative(A)),
    "nonjacobi3": _searched(lambda: map(commutator_algebra, _candidates(3, _PAIRS3)), lambda A: not jacobi_check(A)),
    "generic3": _searched(lambda: _candidates(3, _GENERIC3), lambda A: annihilator(A).dim == 0),
}

ALGEBRA_NAMES: tuple[str, ...] = tuple(_BUILDERS)
COGEBRA_NAMES: tuple[str, ...] = tuple(f"dual_{n}" for n in ALGEBRA_NAMES)
NAMES: tuple[str, ...] = ALGEBRA_NAMES + COGEBRA_NAMES


# Cached: ``prelie2`` is searched against ``vinberg2``, and each dual is
# derived from its algebra, so a regen would build those twice.
@lru_cache(maxsize=None)
def build(name: str):
    """Build an instance from scratch, once per process (running its search if it has one)."""
    if name not in NAMES:
        raise ValueError(f"unknown catalog instance {name!r}")
    if name in _BUILDERS:
        return _BUILDERS[name](name)
    return _named(dualize_algebra(build(name[len("dual_"):])), name)


def data_text(name: str) -> str:
    """The committed file contents for an instance."""
    if name not in NAMES:
        raise ValueError(f"unknown catalog instance {name!r}")
    return (_DATA / f"{name}.json").read_text("utf-8")


def get(name: str):
    """Load an instance from its committed data file, a new object on each call."""
    return _named(formats.parse_document(data_text(name)), name)


def regenerate() -> dict[str, str]:
    """Rebuild every instance and compare it, serialized, against its
    committed data file.  Raises on any divergence."""
    divergent = [name for name in NAMES if formats.print_document(build(name)) != data_text(name)]
    if divergent:
        raise ValueError("regenerated instances diverge from committed data: " + ", ".join(divergent))
    return dict.fromkeys(NAMES, "ok")
