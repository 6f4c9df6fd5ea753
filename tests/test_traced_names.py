"""The names the benchmark's span recorder wraps must exist.

``perfbench/spans.py`` replaces stage functions by name when a traced run
starts; a deleted or renamed stage would only show there.  This loads the
recorder by path, without running it, and looks every name up.  The
recorder finds the home module of every stage in ``sys.modules``, so
importing ``nalg.cli`` must register each of them.  A lazy module
(``catalog``, ``cogebras``, ``duality``, ``products``) is registered
without running, and runs when the recorder first reads it, so its stages
are wrapped as an eager module's are.
"""

import importlib
import importlib.util
import subprocess
import sys
import textwrap
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


def test_the_tracer_wraps_the_stages_of_lazy_modules():
    # In a fresh interpreter the lazy modules have not run when the
    # recorder installs its wrappers; each wrapper is a function of the
    # recorder's module, in place of the one its home defined.
    code = textwrap.dedent(
        """
        import importlib.util, sys, types
        sys.path.insert(0, sys.argv[1])
        import nalg.cli
        lazy = ("catalog", "cogebras", "duality", "products")
        print(sorted(m for m in lazy if type(sys.modules["nalg." + m]) is types.ModuleType))
        spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[2])
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        spans.Tracer().install()
        wrapped = [getattr(sys.modules[home], attr) for home, attr, _, _ in spans.STAGES]
        wrapped += [sys.modules["nalg.cogebras"].CubeMap.phi, sys.modules["nalg.catalog"]._first]
        print(sorted({fn.__module__ for fn in wrapped}))
        """
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, str(ROOT / "src"), str(SPANS)], capture_output=True, text=True, check=True
    )
    assert done.stdout.splitlines() == ["[]", "['perfbench_spans']"]
