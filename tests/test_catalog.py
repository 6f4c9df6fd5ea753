import itertools
import json
import time
from fractions import Fraction

import pytest
import reference_algebras as reference
from shared import SRC, run_fresh

from nalg import catalog
from nalg.algebras import Algebra, classify, commutator_algebra, gi_check, is_antisymmetric, is_commutative
from nalg.cogebras import classify_cogebra
from nalg.formats import print_document
from nalg.products import tensor_algebras

# Classification flags each algebra instance is committed to, checked
# against ``classify`` output exactly.
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


class TestInstances:
    def test_required_names_present(self):
        required = {
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
        }
        assert required <= set(catalog.ALGEBRA_NAMES)
        for name in catalog.ALGEBRA_NAMES:
            assert f"dual_{name}" in catalog.COGEBRA_NAMES

    def test_advertised_flags_match_classify(self, catalog_algebras):
        for name, A in catalog_algebras.items():
            r = classify(A)
            adv = ADVERTISED[name]
            assert {i: r.gi_assoc[i] for i in range(1, 7)} == adv["gi_assoc"], name
            assert {i: r.gi_bang[i] for i in range(2, 7)} == adv["gi_bang"], name
            assert r.is_3_power_associative == adv["is_3_power_associative"], name
            assert r.has_unit == adv["has_unit"], name
            assert r.annihilator_dim == adv["annihilator_dim"], name

    def test_duals_mirror_advertised_flags(self, catalog_cogebras):
        for name, C in catalog_cogebras.items():
            base = name[len("dual_"):]
            r = classify_cogebra(C)
            adv = ADVERTISED[base]
            assert {i: r.gi_coassoc[i] for i in range(1, 7)} == adv["gi_assoc"], name
            assert {i: r.gi_bang_co[i] for i in range(2, 7)} == adv["gi_bang"], name
            assert r.has_counit == adv["has_unit"], name

    def test_designated_roles(self, catalog_algebras):
        assert gi_check(catalog_algebras["vinberg2"], 2)
        assert not gi_check(catalog_algebras["vinberg2"], 1)
        assert gi_check(catalog_algebras["prelie2"], 3)
        assert not gi_check(catalog_algebras["prelie2"], 1)
        assert gi_check(catalog_algebras["g4_2"], 4)
        assert not gi_check(catalog_algebras["g4_2"], 1)
        assert gi_check(catalog_algebras["g5_only"], 5)
        assert not gi_check(catalog_algebras["g5_only"], 1)
        assert not is_antisymmetric(catalog_algebras["g5_only"])
        assert not is_commutative(catalog_algebras["g2bang3"])

    def test_get_shares_no_table(self):
        # The tables are plain dicts, so a shared result would carry one
        # caller's edits to the next.
        loaded = catalog.get("mat2")
        loaded.products.clear()
        assert catalog.get("mat2").products

    def test_get_unknown_name(self):
        with pytest.raises(ValueError):
            catalog.get("nope")
        for name in ("nope", "dual_dual_mat2", "dual_nope", "dual_"):
            with pytest.raises(ValueError, match=f"unknown catalog instance '{name}'"):
                catalog.build(name)


# Candidates each search examines, its hit included.  Any reordering of a
# candidate space changes one of them, even where the hit stays the same.
SCANS = {"vinberg2": 81, "prelie2": 356, "g4_2": 73, "g5_only": 2, "g2bang3": 85, "nonjacobi3": 2, "generic3": 1}

# Builds every algebra in a fresh process, so that no search is answered
# from a cache, and prints the predicate calls of each search.
_COUNT_SCANS = """
import json
from nalg import catalog

first, scans = catalog._first, {}

def counted(candidates, predicate, name):
    def tested(A):
        scans[name] = scans.get(name, 0) + 1
        return predicate(A)

    return first(candidates, tested, name)

catalog._first = counted
for name in catalog.ALGEBRA_NAMES:
    catalog.build(name)
print(json.dumps(scans))
"""


# Counts the checked constructions of a regen in a fresh process, so that
# no instance is answered from a cache.
_COUNT_CONSTRUCTIONS = """
from nalg import catalog
from nalg.algebras import Algebra

calls, init = [0], Algebra.__init__

def counted(self, *args, **kwargs):
    calls[0] += 1
    init(self, *args, **kwargs)

Algebra.__init__ = counted
catalog.regenerate()
print(calls[0])
"""

# The candidate space of each search: its dimension and slots.
SPACES = {
    "vinberg2": (2, catalog._DIM2),
    "prelie2": (2, catalog._DIM2),
    "g4_2": (2, catalog._DIM2),
    "g5_only": (2, catalog._DIM2),
    "g2bang3": (3, catalog._GRADED3),
    "nonjacobi3": (3, catalog._PAIRS3),
    "generic3": (3, catalog._GENERIC3),
}


def _symmetric(A, sign):
    """Whether e_i e_j = sign * e_j e_i for every pair of basis vectors."""
    es = [reference.basis_vec(A.dim, i) for i in range(1, A.dim + 1)]
    return all(A.multiply(x, y) == tuple(sign * c for c in A.multiply(y, x)) for x in es for y in es)


def _reference_predicates():
    """Each search's predicate, from ``tests/reference_algebras.py`` and
    direct tests of the products of basis vectors."""
    vinberg2 = catalog.get("vinberg2")
    g, bang = reference.gi_check, reference.gi_bang_check
    return {
        "vinberg2": lambda A: g(A, 2) and not g(A, 1),
        "prelie2": lambda A: g(A, 3) and not g(A, 1)
        and reference.annihilator(tensor_algebras(vinberg2, A)).dim == 0,
        "g4_2": lambda A: g(A, 4) and not g(A, 1),
        "g5_only": lambda A: g(A, 5) and not g(A, 1) and not _symmetric(A, -1),
        "g2bang3": lambda A: bang(A, 2) and not _symmetric(A, 1),
        "nonjacobi3": lambda A: not reference.jacobi_check(A),
        "generic3": lambda A: reference.annihilator(A).dim == 0,
    }


class TestSearchesAgainstReference:
    def test_every_scanned_candidate_answers_as_the_reference(self):
        first, scanned = catalog._first, []

        def recording(candidates, predicate, name):
            def tested(P):
                answer = predicate(P)
                # The candidate is an int table; the reference reads it as
                # an algebra on its search space's basis.
                scanned.append((name, Algebra(SPACES[name][0], P), answer))
                return answer

            return first(candidates, tested, name)

        catalog._first = recording
        catalog.build.cache_clear()
        try:
            built = {name: catalog.build(name) for name in catalog.ALGEBRA_NAMES}
        finally:
            catalog._first = first
            catalog.build.cache_clear()
        assert len(scanned) == sum(SCANS.values()) == 600
        predicates = _reference_predicates()
        checked = [(name, A, predicates[name](A), answer) for name, A, answer in scanned]
        assert [(name, A.products) for name, A, expected, answer in checked if expected != answer] == []
        for name, count in SCANS.items():
            scan = [(A, expected) for n, A, expected, _ in checked if n == name]
            # the hit is the first candidate the reference accepts
            assert [expected for _, expected in scan] == [False] * (count - 1) + [True], name
            assert scan[-1][0].products == built[name].products, name


class TestDeterminism:
    def test_builders_are_deterministic(self):
        for name in ("vinberg2", "prelie2", "g2bang3", "nonjacobi3", "generic3"):
            first = catalog.build(name)
            catalog.build.cache_clear()
            second = catalog.build(name)
            assert first.products == second.products

    def test_each_search_scans_a_pinned_number_of_candidates(self):
        assert json.loads(run_fresh(_COUNT_SCANS, SRC).stdout) == SCANS
        assert sum(SCANS.values()) == 600

    def test_a_regen_checks_a_pinned_number_of_constructions(self):
        # 4 fixed instances and 7 hits.  Candidates are int tables, which
        # build no structure: the 2 commutators scanned for nonjacobi3 and
        # the 3 tensor products with vinberg2 scanned for prelie2 are int
        # tables too.
        assert int(run_fresh(_COUNT_CONSTRUCTIONS, SRC).stdout) == 11

    def test_committed_files_match_builders(self):
        # byte-for-byte regeneration, within the documented time budget
        start = time.monotonic()
        report = catalog.regenerate()
        elapsed = time.monotonic() - start
        assert set(report.values()) == {"ok"}
        assert set(report) == set(catalog.NAMES)
        assert elapsed < 60

    def test_get_parses_committed_bytes(self, catalog_algebras):
        for name, A in catalog_algebras.items():
            assert print_document(A) == catalog.data_text(name)


class TestCandidates:
    def test_unchecked_candidates_equal_checked_ones(self):
        # Each candidate is the int table of the checked algebra with the
        # same constants, and the commutators scanned for nonjacobi3 are
        # those of ``commutator_algebra``.
        for name, count in SCANS.items():
            dim, slots = SPACES[name]
            values = itertools.product(catalog._VALUES, repeat=len(slots))
            checked = [Algebra(dim, dict(zip(slots, v))) for v in itertools.islice(values, count)]
            tables = list(itertools.islice(catalog._candidates(slots), count))
            if name == "nonjacobi3":
                checked, tables = map(commutator_algebra, checked), map(catalog._commutator, tables)
            for P, B in itertools.zip_longest(tables, checked):
                # items, not the dicts alone: the order is the printed order
                assert list(P.items()) == list(B.products.items()), name
                assert all(type(c) is int for c in P.values()), name

    def test_built_instances_keep_their_own_fractions(self):
        # Tables sharing Fraction objects would pickle to other bytes.
        for name in catalog.NAMES:
            table = catalog.build(name)._fields()[1]
            assert all(type(c) is Fraction for c in table.values()), name
            assert len({id(c) for c in table.values()}) == len(table), name
