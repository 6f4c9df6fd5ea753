"""Output identity of the CLI on the catalog, pinned by SHA-256 digests.

Each invocation below runs ``nalg.cli.main`` in-process; its digest
covers the exit code, stdout, stderr and the file it wrote (if any).
The invocations are ``check`` (text and ``--json``), ``annihilator`` and
``dualize`` on every catalog file, and ``convolve`` on every catalog
cogebra with every catalog algebra in both readings of the triple
symmetry.  ``tests/golden/cli_digests.json`` holds the recorded digests;
a change that alters any output byte fails here.

To record the file again (only when an output change is intended):

    PYTHONPATH=src python tests/test_cli_digests.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import nalg
from nalg import catalog
from nalg.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_digests.json"
DATA = Path(nalg.__file__).parent / "data"


def invocations():
    """(key, argv) pairs; ``OUT`` in argv stands for the output file."""
    for name in catalog.NAMES:
        path = str(DATA / f"{name}.json")
        yield f"check {name}", ["check", path]
        yield f"check --json {name}", ["check", path, "--json"]
        yield f"annihilator {name}", ["annihilator", path]
        yield f"dualize {name}", ["dualize", path, "-o", "OUT"]
    for c in catalog.COGEBRA_NAMES:
        for a in catalog.ALGEBRA_NAMES:
            argv = ["convolve", str(DATA / f"{c}.json"), str(DATA / f"{a}.json"), "-o", "OUT"]
            yield f"convolve {c} {a}", argv
            yield f"convolve --literal-bang {c} {a}", argv + ["--literal-bang"]


def digest(argv, out_path: Path) -> str:
    """SHA-256 of exit code, stdout, stderr and written file of one run."""
    if out_path.exists():
        out_path.unlink()
    argv = [str(out_path) if arg == "OUT" else arg for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    written = out_path.read_bytes() if out_path.exists() else b""
    h = hashlib.sha256()
    for part in (str(code).encode(), stdout.getvalue().encode(), stderr.getvalue().encode(), written):
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()


def all_digests(workdir: Path) -> dict[str, str]:
    out_path = workdir / "out.json"
    return {key: digest(argv, out_path) for key, argv in invocations()}


def test_cli_outputs_match_recorded_digests(tmp_path):
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    ours = all_digests(tmp_path)
    assert sorted(ours) == sorted(recorded)
    changed = [key for key in recorded if ours[key] != recorded[key]]
    assert not changed, changed


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = all_digests(Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(digests)} digests in {GOLDEN}", file=sys.stderr)
