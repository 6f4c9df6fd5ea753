"""Named example algebras and cogebras with documented provenance.

Every instance is committed as a data file under ``nalg/data`` and is also
regenerable from scratch: the fixed instances are written out directly and
the searched instances come from exhaustive lexicographic searches over
small, fully documented candidate spaces (first hit wins), so regeneration
is deterministic.  ``regenerate`` rebuilds everything and compares it to
the stored files byte for byte, which doubles as a canary for accidental
convention changes.

Search spaces, per instance, in the row order of ``_SEARCHES``.  Each is
built by ``_candidates(dim, slots)``: every table whose constants on
``slots`` range lexicographically over {-1, 0, 1} (in ``slots`` order;
other slots are zero), on the basis e1..e<dim>.

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

# Ints, so that each candidate's constructor makes Fractions of its own:
# tables sharing Fraction objects would pickle to other bytes.
_VALUES = (-1, 0, 1)
_DATA = Path(__file__).parent / "data"


def _named(obj, name: str):
    """The algebra or cogebra ``obj`` labelled ``name``: its fields, the
    label last, passed back to its constructor."""
    return type(obj)(*obj._fields()[:-1], name)


def _mat2() -> Algebra:
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
    return Algebra(4, products, unit=(1, 0, 0, 1), basis=("E11", "E12", "E21", "E22"), name="mat2")


def _trunc_poly2() -> Algebra:
    # Polynomials modulo x**2: basis 1, x.
    products = {(1, 1, 1): 1, (1, 2, 2): 1, (2, 1, 2): 1}
    return Algebra(2, products, unit=(1, 0), basis=("1", "x"), name="trunc_poly2")


def _k1() -> Algebra:
    return Algebra(1, {(1, 1, 1): 1}, unit=(1,), basis=("1",), name="k1")


def _sl2() -> Algebra:
    # Bracket basis h, e, f: [h,e] = 2e, [h,f] = -2f, [e,f] = h.
    products = {
        (1, 2, 2): 2,
        (2, 1, 2): -2,
        (1, 3, 3): -2,
        (3, 1, 3): 2,
        (2, 3, 1): 1,
        (3, 2, 1): -1,
    }
    return Algebra(3, products, basis=("h", "e", "f"), name="sl2")


def _candidates(dim: int, slots):
    """Every table with constants from ``_VALUES`` on ``slots`` (absent
    slots are zero), lexicographically, on the basis e1..e<dim>."""
    basis = tuple(f"e{i}" for i in range(1, dim + 1))
    for values in itertools.product(_VALUES, repeat=len(slots)):
        yield Algebra(dim, dict(zip(slots, values)), basis=basis)


def _first(candidates, predicate, name: str) -> Algebra:
    for A in candidates:
        if predicate(A):
            return _named(A, name)
    raise LookupError(f"search space for {name!r} contains no matching instance")


_DIM2 = tuple(itertools.product((1, 2), repeat=3))
_PAIRS3 = tuple((i, j, k) for i, j in ((1, 2), (1, 3), (2, 3)) for k in (1, 2, 3))
_GRADED3 = ((1, 1, 2), (1, 1, 3), (1, 2, 3), (2, 1, 3), (2, 2, 3))
_GENERIC3 = ((1, 2, 3), (2, 3, 1), (3, 1, 2), (2, 1, 1))

#: Each searched instance: its candidate space, made afresh per search, and
#: the predicate whose first hit it is.  The rows follow "Search spaces" in
#: the module docstring.
_SEARCHES = {
    "vinberg2": (lambda: _candidates(2, _DIM2), lambda A: gi_check(A, 2) and not gi_check(A, 1)),
    "prelie2": (
        lambda: _candidates(2, _DIM2),
        lambda A: gi_check(A, 3) and not gi_check(A, 1)
        and annihilator(tensor_algebras(_search("vinberg2"), A)).dim == 0,
    ),
    "g4_2": (lambda: _candidates(2, _DIM2), lambda A: gi_check(A, 4) and not gi_check(A, 1)),
    "g5_only": (
        lambda: _candidates(2, _DIM2),
        lambda A: gi_check(A, 5) and not gi_check(A, 1) and not is_antisymmetric(A),
    ),
    "g2bang3": (lambda: _candidates(3, _GRADED3), lambda A: gi_bang_check(A, 2) and not is_commutative(A)),
    "nonjacobi3": (lambda: map(commutator_algebra, _candidates(3, _PAIRS3)), lambda A: not jacobi_check(A)),
    "generic3": (lambda: _candidates(3, _GENERIC3), lambda A: annihilator(A).dim == 0),
}


# Cached: ``prelie2`` is searched against ``vinberg2``, so a regen would
# search that twice.
@lru_cache(maxsize=None)
def _search(name: str) -> Algebra:
    candidates, predicate = _SEARCHES[name]
    return _first(candidates(), predicate, name)


_FIXED = {"mat2": _mat2, "trunc_poly2": _trunc_poly2, "k1": _k1, "sl2": _sl2}

ALGEBRA_NAMES: tuple[str, ...] = (
    "mat2",
    "trunc_poly2",
    "k1",
    "vinberg2",
    "prelie2",
    "g4_2",
    "sl2",
    "g5_only",
    "g2bang3",
    "nonjacobi3",
    "generic3",
)
COGEBRA_NAMES: tuple[str, ...] = tuple(f"dual_{n}" for n in ALGEBRA_NAMES)
NAMES: tuple[str, ...] = ALGEBRA_NAMES + COGEBRA_NAMES

#: Classification flags each algebra instance is committed to; the test
#: suite checks them against ``classify`` output exactly.
ADVERTISED: dict[str, dict] = {
    "mat2": {
        "gi_assoc": {1: True, 2: True, 3: True, 4: True, 5: True, 6: True},
        "gi_bang": {2: False, 3: False, 4: False, 5: False, 6: False},
        "is_3_power_associative": True,
        "has_unit": True,
        "annihilator_dim": 6,
    },
    "trunc_poly2": {
        "gi_assoc": {1: True, 2: True, 3: True, 4: True, 5: True, 6: True},
        "gi_bang": {2: True, 3: True, 4: True, 5: True, 6: True},
        "is_3_power_associative": True,
        "has_unit": True,
        "annihilator_dim": 6,
    },
    "k1": {
        "gi_assoc": {1: True, 2: True, 3: True, 4: True, 5: True, 6: True},
        "gi_bang": {2: True, 3: True, 4: True, 5: True, 6: True},
        "is_3_power_associative": True,
        "has_unit": True,
        "annihilator_dim": 6,
    },
    "vinberg2": {
        "gi_assoc": {1: False, 2: True, 3: False, 4: False, 5: False, 6: True},
        "gi_bang": {2: False, 3: False, 4: False, 5: False, 6: False},
        "is_3_power_associative": False,
        "has_unit": False,
        "annihilator_dim": 3,
    },
    "prelie2": {
        # The lexicographically first pre-Lie-not-associative table happens
        # to satisfy the index-2 and index-4 identities as well.
        "gi_assoc": {1: False, 2: True, 3: True, 4: True, 5: False, 6: True},
        "gi_bang": {2: False, 3: False, 4: False, 5: False, 6: False},
        "is_3_power_associative": False,
        "has_unit": False,
        "annihilator_dim": 5,
    },
    "g4_2": {
        "gi_assoc": {1: False, 2: False, 3: False, 4: True, 5: False, 6: True},
        "gi_bang": {2: False, 3: False, 4: False, 5: False, 6: False},
        "is_3_power_associative": False,
        "has_unit": False,
        "annihilator_dim": 3,
    },
    "sl2": {
        "gi_assoc": {1: False, 2: False, 3: False, 4: False, 5: True, 6: True},
        "gi_bang": {2: False, 3: False, 4: False, 5: False, 6: False},
        "is_3_power_associative": True,
        "has_unit": False,
        "annihilator_dim": 4,
    },
    "g5_only": {
        "gi_assoc": {1: False, 2: False, 3: False, 4: False, 5: True, 6: True},
        "gi_bang": {2: False, 3: False, 4: False, 5: False, 6: False},
        "is_3_power_associative": True,
        "has_unit": False,
        "annihilator_dim": 4,
    },
    "g2bang3": {
        "gi_assoc": {1: True, 2: True, 3: True, 4: True, 5: True, 6: True},
        "gi_bang": {2: True, 3: True, 4: True, 5: True, 6: True},
        "is_3_power_associative": True,
        "has_unit": False,
        "annihilator_dim": 6,
    },
    "nonjacobi3": {
        # Antisymmetric, so 3-power associativity is automatic even though
        # every signed subgroup identity fails.
        "gi_assoc": {1: False, 2: False, 3: False, 4: False, 5: False, 6: False},
        "gi_bang": {2: False, 3: False, 4: False, 5: False, 6: False},
        "is_3_power_associative": True,
        "has_unit": False,
        "annihilator_dim": 3,
    },
    "generic3": {
        "gi_assoc": {1: False, 2: False, 3: False, 4: False, 5: False, 6: False},
        "gi_bang": {2: False, 3: False, 4: False, 5: False, 6: False},
        "is_3_power_associative": False,
        "has_unit": False,
        "annihilator_dim": 0,
    },
}


def build(name: str):
    """Rebuild an instance from scratch (running its search if it has one)."""
    if name.startswith("dual_"):
        base = build(name[len("dual_"):])
        return _named(dualize_algebra(base), name)
    if name in _SEARCHES:
        return _search(name)
    try:
        builder = _FIXED[name]
    except KeyError:
        raise ValueError(f"unknown catalog instance {name!r}") from None
    return builder()


def _build_all() -> dict:
    """Every instance rebuilt from scratch, in ``NAMES`` order; each base
    algebra is built once and its dual derived from it."""
    built = {name: build(name) for name in ALGEBRA_NAMES}
    for name in ALGEBRA_NAMES:
        built[f"dual_{name}"] = _named(dualize_algebra(built[name]), f"dual_{name}")
    return built


def data_text(name: str) -> str:
    """The committed file contents for an instance."""
    if name not in NAMES:
        raise ValueError(f"unknown catalog instance {name!r}")
    return (_DATA / f"{name}.json").read_text("utf-8")


@lru_cache(maxsize=None)
def get(name: str):
    """Load an instance from its committed data file."""
    return _named(formats.parse_document(data_text(name)), name)


def regenerate() -> dict[str, str]:
    """Re-run every builder and search and compare the result, serialized,
    against the committed data files.  Raises on any divergence."""
    report: dict[str, str] = {}
    divergent: list[str] = []
    for name, obj in _build_all().items():
        expected = data_text(name)
        actual = formats.print_document(obj)
        if actual == expected:
            report[name] = "ok"
        else:
            report[name] = "divergent"
            divergent.append(name)
    if divergent:
        raise ValueError(
            "regenerated instances diverge from committed data: " + ", ".join(divergent)
        )
    return report

