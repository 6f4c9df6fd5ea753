"""The lazy modules of ``nalg``: ``catalog``, ``cogebras``, ``duality`` and
``products`` are registered when ``nalg`` is imported and run on first
attribute access, so a command runs only the modules it uses.

Each check runs in a fresh interpreter, where nothing has run yet.  A
module counts as not run while ``type(sys.modules[name])`` is not
``types.ModuleType``: ``type()`` does not trigger the load, and running it
turns the lazy module into a plain one.  Importing a lazy module by name,
before or after ``nalg.cli``, gives the one module object, run once; and
every name ``nalg`` exported before the modules became lazy is still there,
the very object of its home module.
"""

import json
import textwrap

import pytest
from shared import DATA, SRC, run_fresh

LAZY = ("catalog", "cogebras", "duality", "products")

# ``nalg``'s public namespace before the modules became lazy, by home module.
EXPORTS = {
    "algebras": (
        "Algebra ClassificationReport Cogebra TrilinearMap annihilator associator classify commutator_algebra "
        "gi_bang_check gi_check is_antisymmetric is_commutative is_sigma3_assoc_for jacobi_check power_assoc_check"
    ),
    "cogebras": (
        "CogebraReport classify_cogebra coannihilator flip gi_bang_cocheck gi_cocheck is_lie_cogebra lie_cogebra_from"
    ),
    "duality": "dualize_algebra dualize_cogebra",
    "linalg": "Subspace format_rational kernel member parse_rational span",
    "products": "convolution_algebra pair_index tensor_algebras",
    "sym3": (
        "PERMS SUBGROUPS GroupAlgElem Perm3 action compose ga_multiply inverse maschke_multiplicities orbit "
        "orbit_span right_ideal sign special_vector"
    ),
}

PRELUDE = """\
import types
LAZY = {lazy!r}


def ran():
    return sorted(m for m in LAZY if type(sys.modules["nalg." + m]) is types.ModuleType)
"""


def run(code: str, *args) -> list[str]:
    """The stdout lines of ``code`` run after ``PRELUDE`` in a fresh
    interpreter, with ``SRC`` first on the path and ``args`` after it."""
    return run_fresh(PRELUDE.format(lazy=LAZY) + textwrap.dedent(code), SRC, *args).stdout.splitlines()


# A public name of each lazy module, read through the module.
ATTRIBUTE = {"catalog": "NAMES", "cogebras": "CubeMap", "duality": "dualize_algebra", "products": "tensor_algebras"}


@pytest.mark.parametrize("module", LAZY)
def test_a_module_imported_before_the_cli_is_the_one_the_cli_uses(module):
    # The module and everything it defines are the objects the cli reaches:
    # a module run a second time would make new classes (a second CubeMap).
    name = ATTRIBUTE[module]
    code = f"""
        import nalg.{module}
        from nalg.{module} import {name} as before
        module, names = nalg.{module}, dict(vars(nalg.{module}))
        import nalg.cli
        import nalg.{module}
        from nalg.{module} import {name}
        assert nalg.{module} is module is nalg.cli.{module} is sys.modules["nalg.{module}"]
        assert {name} is before is nalg.{module}.{name}
        assert all(vars(module)[key] is value for key, value in names.items())
        print("ok")
    """
    assert run(code) == ["ok"]


@pytest.mark.parametrize("module", LAZY)
def test_a_module_imported_after_the_cli_reads_its_attributes(module):
    code = f"""
        import nalg.cli
        print(ran())
        import nalg.{module}
        assert nalg.{module} is nalg.cli.{module} is sys.modules["nalg.{module}"]
        assert nalg.{module}.{ATTRIBUTE[module]} is not None
        print("{module}" in ran())
    """
    assert run(code) == ["[]", "True"]


def test_reloading_the_package_keeps_the_lazy_modules():
    code = """
        import importlib
        import nalg
        modules = [getattr(nalg, m) for m in LAZY]
        from nalg.cogebras import CubeMap as before
        importlib.reload(nalg)
        print(all(getattr(nalg, m) is module for m, module in zip(LAZY, modules)), nalg.cogebras.CubeMap is before)
    """
    assert run(code) == ["True True"]


def test_every_exported_name_stays_the_object_of_its_home():
    # Read in a fresh interpreter, where the lazy names resolve through the
    # package's module __getattr__ on first access.
    code = """
        import json
        import nalg
        exports, listed, star = json.loads(sys.argv[2]), dir(nalg), {}
        exec("from nalg import *", star)
        found = {
            home: [
                name for name in names.split()
                if name in listed and name in star
                and getattr(nalg, name) is getattr(sys.modules["nalg." + home], name)
            ]
            for home, names in exports.items()
        }
        print(json.dumps(found))
    """
    (found,) = run(code, json.dumps(EXPORTS))
    assert json.loads(found) == {home: names.split() for home, names in EXPORTS.items()}


# What a command runs of the lazy modules: the argv, its inputs, and the
# modules that have run when it returns.
COMMANDS = {
    "check an algebra": (["check", DATA / "mat2.json"], []),
    "check a cogebra": (["check", "--json", DATA / "dual_mat2.json"], ["cogebras"]),
    "annihilator of an algebra": (["annihilator", DATA / "vinberg2.json"], []),
    "annihilator of a cogebra": (["annihilator", DATA / "dual_vinberg2.json"], ["cogebras"]),
    "tensor": (["tensor", DATA / "mat2.json", DATA / "vinberg2.json", "-o", "OUT"], ["products"]),
    "dualize": (["dualize", DATA / "mat2.json", "-o", "OUT"], ["duality"]),
    "convolve": (
        ["convolve", DATA / "dual_mat2.json", DATA / "mat2.json", "-o", "OUT"],
        ["cogebras", "duality", "products"],
    ),
    "s3": (["s3", "span", "id - t12"], []),
    "catalog list": (["catalog", "list"], ["catalog"]),
    "catalog emit": (["catalog", "emit", "vinberg2", "-o", "OUT"], ["catalog"]),
}


def test_importing_the_cli_runs_no_lazy_module():
    assert run("import nalg.cli\nprint(ran())") == ["[]"]


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_runs_only_the_modules_it_uses(command, tmp_path):
    argv, expected = COMMANDS[command]
    argv = [str(tmp_path / "out.json") if word == "OUT" else str(word) for word in argv]
    code = """
        from nalg.cli import main
        print(ran())
        code = main(sys.argv[2:])
        print(code, ran())
    """
    lines = run(code, *argv)
    assert lines[0] == "[]"
    assert lines[-1] == f"0 {expected}"
