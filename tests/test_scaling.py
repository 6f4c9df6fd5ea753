"""Scaling guard: ``nalg check`` on a dense dim-40 table finishes quickly.

A random dense table is far from satisfying any identity, so the orbit
probe (the associator at the slot permutations of the first three used
indices) already makes the solve's generator invertible, and ``classify``
stops before computing any layer: 12 ms in-process, against 18 ms when it
stopped in the third layer, and the command takes about 0.1 s on a 2-core
VM.  Building the whole associator first (about n**5 work; ``classify``
alone took 29 s in-process on the same VM) runs past the 15 s timeout and
fails the test.

A commutative or anticommutative dense table never makes the generator
invertible: id + t13 is in its annihilator (and V too when commutative).
Those vectors cap what the generator can reach, and the probe reaches the
cap, so ``classify`` stops before any layer again: 21-31 ms in-process
at dim 40.  Reading every layer, as when no cap was known, took 30 s and
22 s in-process on the same VM, and fails the test.

The probe cannot decide a table in which e1 only appears as an output: its
keys on the indices 1, 2, 3 all read zero, so ``classify`` pulls the
layers one at a time and stops after four (0, 38, 275 and 755 entries,
57 ms in-process).  Computing the whole composite (2,341,232 entries), in
layers or in one join, took 21-24 s in-process on the same VM and fails
the test.

gl4, the commutator algebra of mat2 (x) mat2, is a Lie algebra, so it
lies in the paper's classes 5 and 6.  On the basis f = e M, with M = L U
for seeded unit triangular L and U over {-1, 1}, its table is dense:
3,840 of the 4,096 products are set, with coefficients up to 174,611.
The probe does not decide it and the cap is not reached, so ``classify``
reads all 16 layers (61,440 entries): 0.55-0.66 s in-process, and the
command 0.6-0.7 s, on a 2-core Xeon VM, where building the dense table
through the rebasing takes 2 s.  Slot identities do not depend on the
basis, so its report must be sparse gl4's.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from shared import SRC, dense_table_text, inverse, rebased

from nalg import catalog
from nalg.algebras import commutator_algebra
from nalg.formats import print_document
from nalg.products import tensor_algebras

DIM = 40


def check_json(path: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    result = subprocess.run(
        [sys.executable, "-m", "nalg.cli", "check", "--json", str(path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=15,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_dense_dim_40_check_is_fast(tmp_path):
    path = tmp_path / "dense40.json"
    path.write_text(dense_table_text(DIM), encoding="utf-8")
    report = check_json(path)
    assert report["dim"] == DIM
    assert report["annihilator_dim"] == 0


def test_table_the_probe_cannot_decide_is_fast(tmp_path):
    doc = json.loads(dense_table_text(DIM))
    doc["products"] = [p for p in doc["products"] if 1 not in (p["left"], p["right"])]
    path = tmp_path / "no_e1_factor40.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    report = check_json(path)
    assert report["dim"] == DIM
    assert report["annihilator_dim"] == 0


@pytest.mark.parametrize("sign, annihilator_dim", [(1, 4), (-1, 3)], ids=["commutative", "anticommutative"])
def test_symmetric_table_is_fast(tmp_path, sign, annihilator_dim):
    path = tmp_path / "symmetric40.json"
    path.write_text(dense_table_text(DIM, sign), encoding="utf-8")
    report = check_json(path)
    assert report["dim"] == DIM
    assert report["annihilator_dim"] == annihilator_dim


def test_dense_gl4_check_is_fast(tmp_path):
    gl4 = commutator_algebra(tensor_algebras(catalog.get("mat2"), catalog.get("mat2")))
    rng, n = random.Random(gl4.dim), range(gl4.dim)
    L = [[rng.choice((-1, 1)) if i > j else int(i == j) for j in n] for i in n]
    U = [[rng.choice((-1, 1)) if i < j else int(i == j) for j in n] for i in n]
    M = [[sum(L[i][k] * U[k][j] for k in n) for j in n] for i in n]
    reports = []
    for name, A in (("sparse", gl4), ("dense", rebased(gl4, M, inverse(M)))):
        path = tmp_path / f"gl4_{name}.json"
        path.write_text(print_document(A), encoding="utf-8")
        reports.append(check_json(path))
    assert reports[0] == reports[1]
    assert reports[0]["is_lie_admissible"] and reports[0]["annihilator_dim"] == 4
