"""Steadiness proof and baseline for the benchmark.

    python3 perfbench/steady.py [--traced] [--out FILE] [--compare FILE]

Runs ``run.py --trace 0`` once per seed 1-10 on each workload of
``BENCHMARK.json`` and prints, for every end-to-end metric, the median and
the spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
a third of the metric's bound.  With ``--traced`` it also makes two
``--trace 1`` runs at seed 1, checks that every exact count repeats, and
reports the tracing overhead (traced minus untraced ``ops_per_s``).
``--out`` writes all of it as JSON.  ``--compare`` takes such a file from
an earlier set of runs and checks that no median got worse than the
earlier one by more than the metric's bound.  The exit code is 1 when any
of these checks fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

EXACT_SUFFIXES = ("_calls", "_nnz", "_rows", "_terms", "_rank", "bytes_in", "bytes_out")
SEEDS = range(1, 11)


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"  {workload} seed {seed}: {lines[-2]}", file=sys.stderr)
    return json.loads(lines[-2]), result


def summarize(diagnostics: dict) -> dict:
    """Diagnostics with each list of samples cut down to its min, median and max."""
    return {k: {"min": min(v), "median": statistics.median(v), "max": max(v)}
            if isinstance(v, list) and v and all(isinstance(x, float) for x in v) else v
            for k, v in diagnostics.items()}


def worse_by(metric: dict, now: float, before: float) -> float:
    """How much worse ``now`` is than ``before``, as a share of ``before``."""
    change = (now - before) / before
    return change if metric["better"] == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args()
    earlier = json.loads(Path(args.compare).read_text(encoding="utf-8")) if args.compare else None

    report, steady = {}, True
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = []
        for seed in SEEDS:
            diag, result = run(workload, seed, 0)
            steady &= result["correct"]
            runs.append({"seed": seed, "correct": result["correct"], "failed": result["failed"],
                         "attempted": result["attempted"], "diagnostics": summarize(diag),
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.4g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        summary = {}
        for metric in SPEC["end_to_end"]:
            values = [r["metrics"][metric["name"]] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            summary[metric["name"]] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
            ok = spread < metric["bound"] / 3
            steady &= ok
            line = (f"  {metric['name']:<12} median {median:10.4g}  spread {spread:6.3f}  "
                    f"(a third of the bound: {metric['bound'] / 3:.3f}){'' if ok else '  NOT STEADY'}")
            if earlier:
                worse = worse_by(metric, median, earlier[workload]["summary"][metric["name"]]["median"])
                summary[metric["name"]]["worse_than_compared"] = worse
                steady &= worse <= metric["bound"]
                line += f"  worse than compared: {worse:+.3f}{'' if worse <= metric['bound'] else '  OUT OF BOUND'}"
            print(line)
        entry = {"runs": runs, "summary": summary}
        if args.traced:
            traced = [run(workload, SEEDS[0], 1) for _ in range(2)]
            counts = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(EXACT_SUFFIXES)}
                      for _, r in traced]
            repeat = counts[0] == counts[1]
            steady &= repeat
            overhead = traced[0][0]["ops_per_s"] - summary["ops_per_s"]["median"]
            entry["traced"] = {"counts_repeat": repeat, "ops_per_s_overhead": overhead,
                               "layers": {k: v["value"] for k, v in traced[0][1]["metrics"].items()}}
            print(f"  exact counts repeat: {repeat}; tracing overhead {overhead:+.4g} ops/s")
        report[workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
