"""Closed-loop benchmark of the ``nalg`` command line.

    python3 perfbench/run.py --workload {dense,structured,regen} --seed N
                             --seconds S --trace {0,1}

One client, one op at a time: the next op starts when the previous one has
finished.  ``dense`` calls ``nalg.cli.main`` in this process on a fresh
random table per op; ``structured`` and ``regen`` start a fresh process per
op through ``perfbench/runner.py``, as a shell user does, so no op can
profit from a cache filled by an earlier op.  Ops run in fixed blocks (a
shuffled set of tables, one tower pass, a few regens).  The number of
blocks depends on S alone (``blocks_for``), never on how fast a run goes,
so every run of every version of ``nalg`` measures the same ops.  The
set-up samples are spread over the run.

On a shared virtual machine a CPU can run at full speed one moment and
nearly half speed the next.  So every op and every
set-up runs between two runs of a fixed reference loop, on the CPU the
ops run on, and its wall time is scaled by how slow that loop was (see
``paced``): the time metrics are the times at the reference speed.  The
wall times and the slowdowns are printed with the diagnostics.

Every op's output is checked after the timed loop (see ``verify.py``),
and at the default seed also against ``digests.json``.  With ``--trace 0``
the last line holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of ``spans.py``; the line before it holds diagnostics
(seed, op counts, tail percentile, machine-speed reference).  Work files
go to ``.perfbench_work/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = BENCH / "digests.json"

DEFAULT_SEED = 1
SETUPS = 21

# The reference loop (``machine_reference``) and its time at the reference
# speed.  Every timed interval is scaled by the loop's time around it; see
# ``paced``.
REF_ITERATIONS = 2000
REF_S = 0.010

# Wall seconds one block of each workload took on the baseline machine,
# which ran at about half the reference speed most of the time.  A run of S
# seconds makes round(S / BLOCK_S) blocks, so that its ops take about S
# seconds there and the ops it measures do not depend on speed.
BLOCK_S = {"dense": 9.3, "structured": 12.6, "regen": 2.85}
# A run stops early only when its ops take this many times S: a program that
# much slower than the baseline would otherwise exceed the time of a run.
MAX_SLOWDOWN = 3

# Dense: one block is sixteen tables.  The dims are weighted so that the
# median op lies inside the dim-5 group and the tail (the 11th-largest
# latency) inside the dim-6 group for any run of 2 to 8 blocks, not on a
# boundary between groups, where it would jump.  Every dense table
# is non-associative, so all reports of one dim are the same.
DENSE_DIMS = (4,) * 4 + (5,) * 6 + (6,) * 5 + (7,)
DENSE_SMALL_DIMS = (3, 4)
DENSE_DENSITY = 0.5
DENSE_VALUES = ("-2", "-1", "-1/2", "1/2", "1", "2")

REGEN_BLOCK = 3

CATALOG_DIMS = {"mat2": 4, "dual_mat2": 4, "vinberg2": 2, "prelie2": 2, "generic3": 3}
# Structured: stages run in order, the steps of a stage in a seeded order.
_TOWERS = ("m4", "m8", "vp", "vpg", "conv")
STRUCTURED_PLAN = (
    [("emit", n) for n in CATALOG_DIMS],
    [("tensor", "mat2", "mat2", "m4"), ("tensor", "vinberg2", "prelie2", "vp"),
     ("convolve", "dual_mat2", "mat2", "conv")],
    [("tensor", "m4", "mat2", "m8"), ("tensor", "vp", "generic3", "vpg")],
    [("dualize", a) for a in _TOWERS],
    [("check", f) for a in _TOWERS for f in (a, "d" + a)]
    + [("check", n) for n in CATALOG_DIMS if not n.startswith("dual_")],
)
STRUCTURED_SMALL_PLAN = (
    [("emit", "vinberg2"), ("emit", "prelie2")],
    [("tensor", "vinberg2", "prelie2", "vp")],
    [("dualize", "vp")],
    [("check", "vp"), ("check", "dvp")],
)


class Op:
    """One command: ``argv`` for ``nalg``, the file it writes, and what to expect."""

    def __init__(self, argv, output=None, kind=None, dim=None):
        self.argv = argv
        self.output = output
        self.kind = kind
        self.dim = dim
        self.dual_of = None  # the check op whose algebra this cogebra dualizes
        self.rc = None
        self.stdout = ""
        self.written = ""
        self.latency = 0.0  # wall seconds
        self.slowdown = 1.0  # of the machine while the op ran, see ``paced``
        self.rss_kb = 0

    @property
    def scaled(self) -> float:
        return self.latency / self.slowdown


# --- workloads ----------------------------------------------------------------


def _table_text(dim: int, table: dict) -> str:
    products = {}
    for (i, j, k), c in sorted(table.items()):
        products.setdefault((i, j), []).append({"k": k, "c": c})
    doc = {
        "kind": "algebra",
        "dim": dim,
        "basis": [f"e{i}" for i in range(1, dim + 1)],
        "products": [{"left": i, "right": j, "out": out} for (i, j), out in products.items()],
        "unit": None,
    }
    return json.dumps(doc)


class Dense:
    """``check --json`` on seeded random dense tables, a distinct one per op."""

    in_process = True

    def __init__(self, seed: int, workdir: Path, small: bool):
        self.rng = random.Random(f"dense-{seed}")
        self.workdir = workdir
        self.dims = DENSE_SMALL_DIMS if small else DENSE_DIMS
        self.block_len = len(self.dims)
        self.seen: set[str] = set()
        self.count = 0
        self.first = self._block()

    def _table(self, dim: int) -> str:
        while True:
            table = {
                (i, j, k): self.rng.choice(DENSE_VALUES)
                for i in range(1, dim + 1)
                for j in range(1, dim + 1)
                for k in range(1, dim + 1)
                if self.rng.random() < DENSE_DENSITY
            }
            text = _table_text(dim, table)
            if text not in self.seen:
                self.seen.add(text)
                return text

    def _block(self) -> list[Op]:
        dims = list(self.dims)
        self.rng.shuffle(dims)
        ops = []
        for dim in dims:
            self.count += 1
            name = f"dense{self.count}.json"
            (self.workdir / name).write_text(self._table(dim), encoding="utf-8")
            ops.append(Op(["check", str(self.workdir / name), "--json"], kind="algebra", dim=dim))
        return ops

    def blocks(self):
        yield self.first
        while True:
            yield self._block()


class Structured:
    """Towers and convolutions built through the CLI, then checked with their duals."""

    in_process = False

    def __init__(self, seed: int, workdir: Path, small: bool):
        # The instances are fixed, because reordering tensor factors changes
        # the cost of a check by up to 1.7x; the seed sets the op schedule.
        rng = random.Random(f"structured-{seed}")
        plan = STRUCTURED_SMALL_PLAN if small else STRUCTURED_PLAN
        self.plan = [step for stage in plan for step in rng.sample(stage, len(stage))]
        self.block_len = len(self.plan)
        (workdir / "plan.json").write_text(json.dumps(self.plan), encoding="utf-8")

    def _pass(self) -> list[Op]:
        dims = dict(CATALOG_DIMS)
        ops, checks = [], {}
        for verb, *names in self.plan:
            if verb == "emit":
                name = names[0]
                kind = "cogebra" if name.startswith("dual_") else "algebra"
                ops.append(Op(["catalog", "emit", name, "-o", f"{name}.json"], f"{name}.json", kind, dims[name]))
            elif verb in ("tensor", "convolve"):
                a, b, out = names
                dims[out] = dims[a] * dims[b]
                ops.append(Op([verb, f"{a}.json", f"{b}.json", "-o", f"{out}.json"], f"{out}.json", "algebra", dims[out]))
            elif verb == "dualize":
                a = names[0]
                dims["d" + a] = dims[a]
                ops.append(Op(["dualize", f"{a}.json", "-o", f"d{a}.json"], f"d{a}.json", "cogebra", dims[a]))
            else:
                f = names[0]
                checks[f] = Op(["check", "--json", f"{f}.json"], None, "cogebra" if f[1:] in _TOWERS else "algebra", dims[f])
                ops.append(checks[f])
        for f, op in checks.items():
            if op.kind == "cogebra":
                op.dual_of = checks[f[1:]]
        return ops

    def blocks(self):
        while True:
            yield self._pass()


class Regen:
    """``catalog regen``, a fresh process each time; it reads no input."""

    in_process = False

    def __init__(self, seed: int, workdir: Path, small: bool):
        self.block_len = 1 if small else REGEN_BLOCK

    def blocks(self):
        while True:
            yield [Op(["catalog", "regen"]) for _ in range(self.block_len)]


WORKLOADS = {"dense": Dense, "structured": Structured, "regen": Regen}


# --- running ops --------------------------------------------------------------


def run_in_process(op: Op, call, op_id: int) -> None:
    buf = StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(buf):
            op.rc = call(op.argv, op_id)
    except SystemExit as exc:
        op.rc = exc.code
    except Exception as exc:  # counted as a failed op, reported below
        op.rc = f"{type(exc).__name__}: {exc}"
    op.latency = time.perf_counter() - start
    op.stdout = buf.getvalue()


def run_child(op: Op, workdir: Path, op_id: int, traced: bool) -> None:
    cmd = [sys.executable, str(BENCH / "runner.py")]
    if traced:
        cmd += ["--trace", f"spans{op_id}.json", str(op_id)]
    cmd += ["--", *op.argv]
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    if op.output:
        (workdir / op.output).unlink(missing_ok=True)  # an earlier pass wrote it too
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=workdir)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        op.latency = time.perf_counter() - start
    proc.returncode = op.rc = os.waitstatus_to_exitcode(status)
    op.rss_kb = usage.ru_maxrss
    op.stdout = out_path.read_text(encoding="utf-8")
    if op.output and (workdir / op.output).exists():
        op.written = (workdir / op.output).read_text(encoding="utf-8")


def execute(work, n_blocks: int, ops_dir: Path, tracer=None, before_op=None, after_block=None) -> list[Op]:
    """Run ``n_blocks`` blocks of ``work``, one op at a time; returns the ops.

    ``before_op(n)`` runs, untimed, before the op numbered ``n``;
    ``after_block(ops)`` after each block, and ends the run if it is true.
    Each op runs between two runs of the reference loop (``paced``).
    """
    if work.in_process:
        from nalg import cli

        if tracer:
            tracer.install()

            def call(argv, op_id):
                return tracer.run_op(op_id, cli.main, argv)
        else:
            def call(argv, op_id):
                return cli.main(argv)

    ops = []
    for _, block in zip(range(n_blocks), work.blocks()):
        for op in block:
            if before_op:
                before_op(len(ops))
            if work.in_process:
                _, op.slowdown = paced(lambda: run_in_process(op, call, len(ops)))
            else:
                _, op.slowdown = paced(lambda: run_child(op, ops_dir, len(ops), tracer is not None))
            ops.append(op)
        if after_block and after_block(ops):
            break
    return ops


# --- checking -----------------------------------------------------------------


def digest(op: Op) -> str:
    return hashlib.sha256(f"{op.stdout}\0{op.written}".encode("utf-8")).hexdigest()[:16]


def problems_of(op: Op) -> list[str]:
    """Everything wrong with a finished op's output; empty when it is correct."""
    from verify import check_algebra_report, check_dual_report

    if op.rc != 0:
        return [f"exit {op.rc}"]
    if op.argv[:2] == ["catalog", "regen"]:
        lines = op.stdout.splitlines()
        if lines[-1:] != ["all instances reproduced"] or not all(l.endswith(": ok") for l in lines[:-1]):
            return ["catalog regen did not reproduce every instance"]
        return []
    if op.argv[0] == "check":
        report = json.loads(op.stdout)
        if op.kind == "algebra":
            return check_algebra_report(report, op.dim)
        return check_dual_report(report, json.loads(op.dual_of.stdout))
    doc = json.loads(op.written) if op.written else {}
    if doc.get("kind") != op.kind or doc.get("dim") != op.dim:
        return [f"expected a {op.kind} file of dim {op.dim}"]
    if op.argv[0] == "convolve" and not op.stdout.startswith("construction theorem"):
        return ["convolve did not state what the construction theorem guarantees"]
    return []


def expected_digest(workload: str, digests: dict, n: int, op: Op) -> str:
    """The committed digest of op number ``n``: one per dim on ``dense``,
    one per position in the block on the workloads that repeat a block."""
    if workload == "dense":
        return digests["dense"][str(op.dim)]
    block = digests[workload]
    return block[n % len(block)]


def check_ops(ops: list[Op], expected=None) -> list[str]:
    """Verify every op, and, when ``expected(n, op)`` is given, its digest.

    Returns one line per failed op.
    """
    failures = []
    for n, op in enumerate(ops):
        try:
            problems = problems_of(op)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems = [f"unreadable output: {exc}"]
        if not problems and expected and digest(op) != expected(n, op):
            problems = ["report differs from the committed digest"]
        if problems:
            failures.append(f"op {n} ({' '.join(op.argv)}): {'; '.join(problems)}")
    return failures


# --- measuring ----------------------------------------------------------------


def machine_reference() -> float:
    """Seconds for a fixed stdlib Fraction loop: a record of machine speed."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, REF_ITERATIONS):
        total += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return time.perf_counter() - start


def paced(fn):
    """Runs ``fn()`` between two runs of the reference loop.

    Returns its result and the machine's slowdown meanwhile: the mean time
    of the two reference runs divided by ``REF_S``.  A wall time divided by
    the slowdown is the time it would have taken at the reference speed.
    """
    before = machine_reference()
    result = fn()
    return result, (before + machine_reference()) / (2 * REF_S)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  Below eleven samples
    this is the maximum, with fewer than ten beyond it.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def prepare(workload: str, seed: int, workdir: Path, small: bool):
    """The set-up a run times: load ``nalg`` and write the first inputs."""
    sys.path.insert(0, str(SRC))
    import nalg.cli  # noqa: F401  (every nalg command pays this import)

    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](seed, workdir, small)


def blocks_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / BLOCK_S[workload]))


def time_setup(args, setup_dir: Path) -> tuple[float, float]:
    """Wall time of a fresh process that does the whole set-up, and the
    machine's slowdown meanwhile."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only", str(setup_dir)]
    if args.small:
        cmd.append("--small")

    def run():
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        return time.perf_counter() - start, done

    (elapsed, done), slowdown = paced(run)
    if done.returncode != 0:
        raise SystemExit(f"set-up failed: {done.stderr.strip()}")
    shutil.rmtree(setup_dir, ignore_errors=True)
    return elapsed, slowdown


def measure(args, run_dir: Path) -> dict:
    # One CPU for the benchmark and the op processes it starts, so that the
    # reference loop runs where the ops run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    n_blocks = blocks_for(args.workload, args.seconds)
    setups: list[tuple[float, float]] = []  # (wall seconds, slowdown)
    work = prepare(args.workload, args.seed, run_dir / "ops", args.small)
    planned = n_blocks * work.block_len
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()

    def before_op(n: int) -> None:
        # The set-up samples are spread evenly over the planned ops, so that
        # they meet the same phases of machine speed as the ops do.
        while len(setups) < SETUPS and len(setups) * planned <= n * SETUPS:
            setups.append(time_setup(args, run_dir / f"setup{len(setups)}"))

    def after_block(ops: list[Op]) -> bool:
        return sum(op.latency for op in ops) > MAX_SLOWDOWN * args.seconds

    ops = execute(work, n_blocks, run_dir / "ops", tracer, before_op, after_block)
    while len(setups) < SETUPS:
        setups.append(time_setup(args, run_dir / f"setup{len(setups)}"))

    expected = None
    if args.seed == DEFAULT_SEED and not args.small:
        digests = json.loads(DIGESTS.read_text(encoding="utf-8"))

        def expected(n, op):
            return expected_digest(args.workload, digests, n, op)
    failures = check_ops(ops, expected)
    scaled = [op.scaled for op in ops]
    wall = [op.latency for op in ops]
    ops_per_s = len(ops) / sum(scaled)
    tail_value, tail_pct, beyond = tail(scaled)
    setup_scaled = [elapsed / slowdown for elapsed, slowdown in setups]
    if work.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = max(op.rss_kb for op in ops)
    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": len(ops),
        "blocks": len(ops) // work.block_len,
        "measured_s": sum(wall),
        "ops_per_s": ops_per_s,
        "wall_ops_per_s": len(ops) / sum(wall),
        "wall_op_p50_ms": 1000 * statistics.median(wall),
        "wall_op_tail_ms": 1000 * tail(wall)[0],
        "wall_setup_s": statistics.median(elapsed for elapsed, _ in setups),
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": beyond,
        "fail_ratio": len(failures) / len(ops),
        "failures": failures[:10],
        "setup_samples_s": setup_scaled,
        "slowdown": [op.slowdown for op in ops],
        "setup_slowdown": [slowdown for _, slowdown in setups],
    }
    if tracer:
        from spans import OP, layer_metrics

        # Layer metrics describe the first block (all blocks are the same
        # size), the same inputs in every run of a seed, so that their
        # exact counts repeat run to run.
        first = work.block_len
        if work.in_process:
            span_lists = [[span for span in tracer.spans if span[OP] < first]]
        else:
            span_lists = [json.loads((run_dir / "ops" / f"spans{n}.json").read_text(encoding="utf-8"))
                          for n in range(first)]
        metrics = layer_metrics(span_lists)
    else:
        metrics = {
            "ops_per_s": ops_per_s,
            "op_p50_ms": 1000 * statistics.median(scaled),
            "op_tail_ms": 1000 * tail_value,
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": rss_kb / 1024,
        }
    return {"diagnostics": diagnostics, "failed": len(failures), "attempted": len(ops), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="smallest inputs, for the smoke test")
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "nalg" / "cli.py").is_file():
        print(f"error: no nalg source tree at {SRC.relative_to(ROOT)}/nalg", file=sys.stderr)
        return 2
    if args.setup_only:
        prepare(args.workload, args.seed, Path(args.setup_only), args.small)
        return 0

    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        result = measure(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer" if args.trace else "end_to_end"]
    if [m["name"] for m in listed] != list(result["metrics"]):
        print("error: measured metrics differ from those BENCHMARK.json lists", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps(result["diagnostics"]))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
