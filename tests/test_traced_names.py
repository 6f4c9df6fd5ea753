"""The names the benchmark's span recorder wraps must exist.

``perfbench/spans.py`` replaces stage functions by name when a traced run
starts; a deleted or renamed stage would only show there.  This loads the
recorder by path, without running it, and looks every name up.  The
recorder patches only modules already loaded, so importing ``nalg.cli``
must load the home module of every stage: a module made lazy would drop
its stages from a traced run without an error.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_stage_exists():
    stages = _load_spans().STAGES
    assert stages
    missing = [
        (home, attr)
        for home, attr, _, _ in stages
        if not callable(getattr(importlib.import_module(home), attr, None))
    ]
    assert missing == []


def test_patched_attributes_exist():
    from nalg import catalog, cogebras

    assert callable(cogebras.CubeMap.phi)
    assert callable(catalog._first)


def test_cli_import_loads_every_traced_module():
    homes = sorted({home for home, _, _, _ in _load_spans().STAGES})
    code = "import sys; sys.path.insert(0, sys.argv[1]); import nalg.cli; print(*sorted(sys.modules))"
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, str(ROOT / "src")], capture_output=True, text=True, check=True
    )
    loaded = set(done.stdout.split())
    assert [home for home in homes if home not in loaded] == []
