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
algebra.  The handlers of the ``nalg catalog`` commands are here too, and
the lazy modules a build needs are read at call time, so ``nalg catalog
list`` and ``nalg catalog emit`` run this module alone.

Search spaces, per instance, in the row order of ``_BUILDERS``.  Each is
built by ``_candidates(slots)``: every table whose constants on ``slots``
range lexicographically over {-1, 0, 1} (in ``slots`` order; other slots
are zero), and the instance has the basis e1..e<dim>.  A candidate is its
integer table, a plain dict, and the predicates test it with the
table-level checks of :mod:`nalg.algebras`: ``_symmetric``, O(nnz), first,
then the kill tests, and ``_is_unit`` of ``_solve``.  Only the hit becomes
an ``Algebra``, through the checking constructor, which gives the instance
Fractions of its own.

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
  identity: the commutators (``structures._commutator``) of the tables on the
  9 slots (i, j, k) with i < j, ordered by (i, j, k).
* ``generic3``: 3-dimensional tables supported on the one-sided cyclic
  slots (1,2,3), (2,3,1), (3,1,2) plus the symmetry-breaking slot (2,1,1),
  with a trivial slot-permutation annihilator, which no 2-dimensional
  algebra can have: the alternating sum of the six slot permutations is
  the triple antisymmetrizer, and that operator vanishes identically on a
  2-dimensional space, so every 2-dimensional algebra is Lie-admissible.
"""

from __future__ import annotations

import itertools
import os
from functools import lru_cache

from . import documents, duality, errors, formats, products, structures
from .algebras import _BANG_SPLITS, _GI_SPLITS, _is_unit, _kills, _solve, _symmetric

# Ints: the checks take an int-valued table as it is, and the constructor
# that a searched builder runs on the hit makes Fractions of its own
# (tables sharing Fraction objects would pickle to other bytes).
_VALUES = (-1, 0, 1)
_DATA = os.path.join(os.path.dirname(__file__), "data")


def _named(obj, name: str):
    """The algebra or cogebra ``obj`` labelled ``name``."""
    return type(obj)(*obj._fields()[:-1], name)


def _mat2(name: str) -> structures.Algebra:
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
    return structures.Algebra(4, products, unit=(1, 0, 0, 1), basis=("E11", "E12", "E21", "E22"), name=name)


def _trunc_poly2(name: str) -> structures.Algebra:
    # Polynomials modulo x**2: basis 1, x.
    products = {(1, 1, 1): 1, (1, 2, 2): 1, (2, 1, 2): 1}
    return structures.Algebra(2, products, unit=(1, 0), basis=("1", "x"), name=name)


def _k1(name: str) -> structures.Algebra:
    return structures.Algebra(1, {(1, 1, 1): 1}, unit=(1,), basis=("1",), name=name)


def _sl2(name: str) -> structures.Algebra:
    # Bracket basis h, e, f: [h,e] = 2e, [h,f] = -2f, [e,f] = h.
    products = {
        (1, 2, 2): 2,
        (2, 1, 2): -2,
        (1, 3, 3): -2,
        (3, 1, 3): 2,
        (2, 3, 1): 1,
        (3, 2, 1): -1,
    }
    return structures.Algebra(3, products, basis=("h", "e", "f"), name=name)


def _candidates(slots):
    """Every int table with constants from ``_VALUES`` on ``slots`` (absent
    slots are zero), lexicographically, zeros dropped."""
    for values in itertools.product(_VALUES, repeat=len(slots)):
        yield {slot: v for slot, v in zip(slots, values) if v}


def _first(candidates, predicate, name: str) -> dict:
    """The first of ``candidates`` that ``predicate`` accepts; ``name``
    names the search in the error when there is none."""
    for P in candidates:
        if predicate(P):
            return P
    raise LookupError(f"search space for {name!r} contains no matching instance")


def _searched(dim: int, candidates, predicate):
    """The builder of a searched instance on the basis e1..e<dim>: the first
    hit of ``predicate`` in a fresh ``candidates()``, through the
    constructor, so its table holds Fractions of its own."""
    basis = tuple(f"e{i}" for i in range(1, dim + 1))
    return lambda name: structures.Algebra(dim, _first(candidates(), predicate, name), basis=basis, name=name)


def _holds(P, i: int) -> bool:
    """``gi_check`` on the int table ``P``: a_i kills its associator."""
    return _kills(_GI_SPLITS[i], P, 1, -1)


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
    "vinberg2": _searched(2, lambda: _candidates(_DIM2), lambda P: _holds(P, 2) and not _holds(P, 1)),
    "prelie2": _searched(
        2,
        lambda: _candidates(_DIM2),
        lambda P: _holds(P, 3)
        and not _holds(P, 1)
        and _is_unit(
            _solve(products._tensor_table(structures._integer_table(build("vinberg2").products)[0], P, 2), 1, -1)
        ),
    ),
    "g4_2": _searched(2, lambda: _candidates(_DIM2), lambda P: _holds(P, 4) and not _holds(P, 1)),
    "sl2": _sl2,
    "g5_only": _searched(
        2,
        lambda: _candidates(_DIM2),
        lambda P: not _symmetric(P, -1) and _holds(P, 5) and not _holds(P, 1),
    ),
    "g2bang3": _searched(
        3,
        lambda: _candidates(_GRADED3),
        lambda P: not _symmetric(P, 1) and _holds(P, 1) and _kills(_BANG_SPLITS[2], P, 1, 0),
    ),
    "nonjacobi3": _searched(
        3, lambda: map(structures._commutator, _candidates(_PAIRS3)), lambda P: not (_symmetric(P, -1) and _holds(P, 5))
    ),
    "generic3": _searched(3, lambda: _candidates(_GENERIC3), lambda P: _is_unit(_solve(P, 1, -1))),
}

ALGEBRA_NAMES: tuple[str, ...] = tuple(_BUILDERS)
COGEBRA_NAMES: tuple[str, ...] = tuple(f"dual_{n}" for n in ALGEBRA_NAMES)
NAMES: tuple[str, ...] = ALGEBRA_NAMES + COGEBRA_NAMES


def _known(name: str) -> str:
    """``name``, which must name an instance."""
    if name not in NAMES:
        raise ValueError(f"unknown catalog instance {errors._quoted(name)}")
    return name


# Cached: ``prelie2`` is searched against ``vinberg2``, and each dual is
# derived from its algebra, so a regen would build those twice.
@lru_cache(maxsize=None)
def build(name: str):
    """Build an instance from scratch, once per process (running its search if it has one)."""
    if name in _BUILDERS:
        return _BUILDERS[name](name)
    return _named(duality.dualize_algebra(build(_known(name)[len("dual_"):])), name)


def data_text(name: str) -> str:
    """The committed file contents for an instance."""
    return formats._read(os.path.join(_DATA, f"{_known(name)}.json"))


def get(name: str):
    """Load an instance from its committed data file, a new object on each call."""
    return _named(documents.parse_document(data_text(name)), name)


def regenerate() -> dict[str, str]:
    """Rebuild every instance and compare it, serialized, against its
    committed data file.  Raises on any divergence."""
    divergent = [name for name in NAMES if documents.print_document(build(name)) != data_text(name)]
    if divergent:
        raise ValueError("regenerated instances diverge from committed data: " + ", ".join(divergent))
    return dict.fromkeys(NAMES, "ok")


# The handlers of ``nalg catalog list``, ``emit`` and ``regen`` (see ``nalg.cli``).
def _cmd_catalog_list(args) -> int:
    for name in NAMES:
        print(name)
    return 0


def _cmd_catalog_emit(args) -> int:
    formats._write(args.output, data_text(args.name))
    return 0


def _cmd_catalog_regen(args) -> int:
    report = regenerate()
    for name, status in report.items():
        print(f"{name}: {status}")
    print("all instances reproduced")
    return 0
