"""The names the benchmark's span recorder wraps must exist.

``perfbench/spans.py`` replaces stage functions by name when a traced run
starts; a deleted or renamed stage would only show there.  This loads the
recorder by path, without running it, and looks every name up.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
