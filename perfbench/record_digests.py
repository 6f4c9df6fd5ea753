"""Rewrite ``digests.json``: the digests of the outputs at the default seed.

    python3 perfbench/record_digests.py

Run it only when ``nalg``'s output is meant to change; the benchmark
compares each default-seed run against these digests.  Every dense table
is non-associative, so every dense report of one dim is the same: one
block is run and one digest kept per dim.  The other workloads repeat one
block, whose digests are kept by position.  Every op must pass the checks
of ``verify.py`` before its digest is kept.
"""

import json
import shutil
import sys

import run


def main() -> int:
    work_dir = run.WORK / "digests"
    shutil.rmtree(work_dir, ignore_errors=True)
    digests = {}
    try:
        for workload in run.WORKLOADS:
            work = run.prepare(workload, run.DEFAULT_SEED, work_dir / workload, small=False)
            ops = run.execute(work, 1, work_dir / workload)
            failures = run.check_ops(ops)
            if workload == "dense":
                by_dim = {}
                for op in ops:
                    if by_dim.setdefault(str(op.dim), run.digest(op)) != run.digest(op):
                        failures.append(f"dense reports of dim {op.dim} differ")
                digests[workload] = dict(sorted(by_dim.items()))
            else:
                digests[workload] = [run.digest(op) for op in ops]
            if failures:
                print("\n".join(failures), file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps(digests, indent=0) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
