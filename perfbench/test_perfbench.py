"""Smoke tests of the benchmark itself, stdlib only:

    python3 -m unittest discover -s perfbench -p "test_*.py"

Each workload runs once at its smallest size, traced and untraced.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

MAT2_REPORT = {
    "kind": "algebra", "dim": 4, "has_unit": True,
    "gi_assoc": {str(i): True for i in range(1, 7)},
    "gi_bang": {str(i): False for i in range(2, 7)},
    "is_associative": True, "is_lie_admissible": True, "is_3_power_associative": True,
    "annihilator_dim": 6, "annihilator_basis": ["id", "t12", "t13", "t23", "c1", "c2"],
}
# The catalog's vinberg2: its annihilator is the right ideal of a2 = id - t12.
VINBERG2_REPORT = {
    "kind": "algebra", "dim": 2, "has_unit": False,
    "gi_assoc": {"1": False, "2": True, "3": False, "4": False, "5": False, "6": True},
    "gi_bang": {str(i): False for i in range(2, 7)},
    "is_associative": False, "is_lie_admissible": True, "is_3_power_associative": False,
    "annihilator_dim": 3, "annihilator_basis": ["id - t12", "t13 - c2", "t23 - c1"],
}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


class SmokeRun(unittest.TestCase):
    def test_every_workload_at_smallest_size(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, listed in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    done = bench("--workload", workload, "--seed", "2", "--seconds", "0.01",
                                 "--trace", str(trace), "--small")
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = json.loads(done.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], done.stdout)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(list(result["metrics"]), [m["name"] for m in SPEC[listed]])

    def test_fails_without_a_source_tree(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            done = bench("--workload", "dense", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


class Checks(unittest.TestCase):
    def test_sound_reports_pass(self):
        self.assertEqual(verify.check_algebra_report(MAT2_REPORT, 4), [])
        self.assertEqual(verify.check_algebra_report(VINBERG2_REPORT, 2), [])

    def test_wrong_flag_is_caught(self):
        report = json.loads(json.dumps(VINBERG2_REPORT))
        report["gi_assoc"]["3"] = True
        self.assertTrue(verify.check_algebra_report(report, 2))

    def test_basis_not_closed_under_right_multiplication_is_caught(self):
        report = dict(VINBERG2_REPORT, annihilator_dim=1, annihilator_basis=["id - t12"])
        problems = verify.check_algebra_report(report, 2)
        self.assertIn("annihilator is not closed under right multiplication", problems)

    def test_dual_report_must_mirror_the_algebra(self):
        cogebra = {
            "kind": "cogebra", "dim": 4, "has_counit": True,
            "gi_coassoc": MAT2_REPORT["gi_assoc"], "gi_bang_co": MAT2_REPORT["gi_bang"],
            "is_coassociative": True, "is_lie_coadmissible": True, "is_3_power_coassociative": True,
            "coannihilator_dim": 6,
        }
        self.assertEqual(verify.check_dual_report(cogebra, MAT2_REPORT), [])
        self.assertTrue(verify.check_dual_report(dict(cogebra, coannihilator_dim=5), MAT2_REPORT))


class Measures(unittest.TestCase):
    def test_tail_leaves_ten_samples_beyond(self):
        value, percentile, beyond = run.tail([float(i) for i in range(1, 41)])
        self.assertEqual((value, percentile, beyond), (30.0, 75.0, 10))

    def test_block_count_depends_on_seconds_alone(self):
        self.assertEqual([run.blocks_for(w, SPEC["run_seconds"]) for w in ("dense", "structured", "regen")],
                         [3, 2, 9])
        self.assertEqual(run.blocks_for("dense", 0.01), 1)

    def test_dense_digests_are_kept_per_dim(self):
        digests = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
        self.assertEqual(sorted(digests["dense"]), ["4", "5", "6", "7"])
        op = run.Op(["check"], kind="algebra", dim=6)
        self.assertEqual(run.expected_digest("dense", digests, 123, op), digests["dense"]["6"])
        block = digests["structured"]
        self.assertEqual(run.expected_digest("structured", digests, len(block) + 2, op), block[2])

    def test_self_time_excludes_children(self):
        root = ["cli.main", "x", 0.0, 10.0, -1, 0, True, None]
        classify = ["algebras.classify", "cli", 1.0, 9.0, 0, 0, True, None]
        kernel = ["linalg.kernel", "algebras", 2.0, 5.0, 1, 0, True, (100, 6)]
        metrics = spans.layer_metrics([[root, classify, kernel]])
        self.assertEqual(metrics["cli.self_s"], 2.0)
        self.assertEqual(metrics["algebras.classify_self_s"], 5.0)
        self.assertEqual(metrics["linalg.kernel_s"], 3.0)
        self.assertEqual(metrics["algebras.system_rows"], 100)
        self.assertEqual(metrics["linalg.rank_row_ratio"], 0.06)


if __name__ == "__main__":
    unittest.main()
