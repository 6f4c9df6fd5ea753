import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from nalg import catalog
from nalg.algebras import classify, gi_check, is_antisymmetric, is_commutative
from nalg.cogebras import classify_cogebra
from nalg.formats import print_document


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
            adv = catalog.ADVERTISED[name]
            assert {i: r.gi_assoc[i] for i in range(1, 7)} == adv["gi_assoc"], name
            assert {i: r.gi_bang[i] for i in range(2, 7)} == adv["gi_bang"], name
            assert r.is_3_power_associative == adv["is_3_power_associative"], name
            assert r.has_unit == adv["has_unit"], name
            assert r.annihilator_dim == adv["annihilator_dim"], name

    def test_duals_mirror_advertised_flags(self, catalog_cogebras):
        for name, C in catalog_cogebras.items():
            base = name[len("dual_"):]
            r = classify_cogebra(C)
            adv = catalog.ADVERTISED[base]
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

    def test_get_unknown_name(self):
        with pytest.raises(ValueError):
            catalog.get("nope")
        with pytest.raises(ValueError):
            catalog.build("nope")


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


class TestDeterminism:
    def test_builders_are_deterministic(self):
        for name in ("vinberg2", "prelie2", "g2bang3", "nonjacobi3", "generic3"):
            first = catalog.build(name)
            catalog._search.cache_clear()
            second = catalog.build(name)
            assert first.products == second.products

    def test_each_search_scans_a_pinned_number_of_candidates(self):
        src = Path(catalog.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-c", _COUNT_SCANS],
            env={"PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"},
            capture_output=True,
            text=True,
            check=True,
        )
        assert json.loads(done.stdout) == SCANS
        assert sum(SCANS.values()) == 600

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
