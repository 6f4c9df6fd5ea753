"""The import graph of ``nalg``, and the homes of the ``Record`` classes.

``Cogebra`` is defined beside ``Algebra`` in ``nalg.structures``, and the
one transposition ``_dual_products`` that reads a cogebra as its dual
algebra in ``nalg.algebras``, so no module imports another from inside a
function to break a cycle, and reading a document needs nothing from
``nalg.cogebras`` or ``nalg.duality``.  The only function-level import is
argparse's, which loads for help and usage errors alone (see
``tests/test_records.py``).  Each class is still importable from ``nalg``
and from every module it was defined in before, and a pickle made while
it lived there still loads.  ``nalg`` exports one 4-index map type,
``TrilinearMap``.

No test module imports another, so one that fails to import loses only
its own tests, and no test module reads a private ``nalg`` name when it is
imported, only inside the function that uses it, so renaming one fails
only the tests that use it.
"""

import ast
import pickle
from fractions import Fraction as F
from pathlib import Path

import nalg
from nalg import algebras, cogebras, duality, structures

PACKAGE = Path(nalg.__file__).resolve().parent
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
TESTS = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in Path(__file__).parent.glob("*.py")}


def _imported(node) -> list[str]:
    """The ``nalg`` modules, by short name, that an import node names;
    other modules by their full name."""
    if isinstance(node, ast.Import):
        return [alias.name.removeprefix("nalg.") for alias in node.names]
    if node.level == 0:
        return [node.module.removeprefix("nalg.")] if node.module != "nalg" else [a.name for a in node.names]
    if node.module is None:
        return [alias.name for alias in node.names]
    return [node.module]


def _function_imports(tree) -> list[tuple[str, int, list[str]]]:
    """Each import inside a function body, methods and nested functions
    included: the qualified name of its scope, the line and the modules."""
    found = []

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                if in_function:
                    found.append((".".join(scope), child.lineno, _imported(child)))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name], in_function or not isinstance(child, ast.ClassDef))
            else:
                visit(child, scope, in_function)

    visit(tree, [], False)
    return found


def _module_imports(name: str) -> set[str]:
    """The ``nalg`` modules that module ``name`` imports anywhere."""
    nodes = (node for node in ast.walk(MODULES[name]) if isinstance(node, (ast.Import, ast.ImportFrom)))
    return {m for node in nodes for m in _imported(node)} & set(MODULES)


def test_no_function_imports_but_argparse():
    found = [(name, *entry) for name, tree in MODULES.items() for entry in _function_imports(tree)]
    assert [(name, scope, modules) for name, scope, _, modules in found] == [
        ("commands", "_build_parser", ["argparse"])
    ], found


def _private_names(tree) -> list[tuple[int, str]]:
    """Each private name that ``tree`` imports from ``nalg``, or reads as an
    attribute of anything, where it runs when its module is imported: all
    but function bodies, whose decorators and defaults do run.  The line
    and the name, in line order."""
    found, nodes = [], [tree]
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            nodes += [*getattr(node, "decorator_list", ()), *node.args.defaults, *filter(None, node.args.kw_defaults)]
            continue
        nodes += ast.iter_child_nodes(node)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nalg":
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names if alias.name.split(".")[0] == "nalg"]
        else:
            names = [node.attr] if isinstance(node, ast.Attribute) and not node.attr.startswith("__") else []
        found += [(node.lineno, name) for name in names if any(part.startswith("_") for part in name.split("."))]
    return sorted(found)


def test_no_test_module_imports_another():
    # At module level or inside a function.
    found = [(name, node.lineno) for name, tree in TESTS.items() for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) and any(m.startswith("test_") for m in _imported(node))]
    assert found == []


def test_no_test_module_reads_a_private_name_on_import():
    assert {name: found for name, tree in TESTS.items() if (found := _private_names(tree))} == {}
    # Function bodies run later; their decorators and defaults, and class
    # bodies, run now.
    tree = ast.parse(
        "import nalg._r\nfrom nalg.cli import _p, main\nx = cli._G\nK = (2, alg._k)\n@example(alg._e)\n"
        "@given(cli._O)\ndef f(t=cli._X):\n    return cli._z\nclass T:\n    c = alg._c\n    def m(self):\n"
        "        return alg._m\n"
    )
    assert [name for _, name in _private_names(tree)] == ["nalg._r", "nalg.cli._p", "_G", "_k", "_e", "_O", "_X", "_c"]


def test_function_imports_are_found_in_methods_and_nested_functions():
    tree = ast.parse("import y\nclass A:\n    import z\n    def f(self):\n        def g():\n            from . import x\n")
    assert _function_imports(tree) == [("A.f.g", 6, ["x"])]


def test_no_document_or_product_module_imports_the_cogebra_library():
    names = ("formats", "documents", "products", "duality")
    assert {name: "cogebras" in _module_imports(name) for name in names} == dict.fromkeys(names, False)


def _reached(name: str, follow) -> set[str]:
    """The modules that module ``name`` imports, and they in turn, through
    the modules that ``follow`` holds."""
    reached, todo = set(), [name]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(m for m in _module_imports(name) if m in follow)
    return reached


def test_reading_a_document_needs_no_cogebra_module():
    # ``nalg check`` reads a file through ``formats`` and the modules that
    # run on import, which register the lazy ones without running them;
    # building a structure from it runs ``documents`` and what that
    # imports, lazy or not.
    eager = set(MODULES) - set(nalg._LAZY)
    assert _reached("formats", eager) == {"formats", "algebras", "linalg", "sym3", "_record"}
    assert {m for name in _reached("formats", eager) for m in _module_imports(name)} - eager == {
        "documents", "errors", "groupalg", "structures", "subspaces"
    }
    assert _reached("documents", MODULES) == {
        "documents", "errors", "formats", "algebras", "linalg", "sym3", "_record", "structures", "subspaces",
        "groupalg",
    }


def test_cogebra_is_one_class_under_every_name():
    assert nalg.Cogebra is cogebras.Cogebra is algebras.Cogebra is structures.Cogebra
    assert duality._dual_products is algebras._dual_products
    assert structures.Cogebra._in_product_order is algebras._dual_products
    assert nalg.CogebraReport is cogebras.CogebraReport is algebras.CogebraReport
    assert cogebras._mirrored is algebras._mirrored


def test_nalg_exports_one_four_index_map_type():
    # The cogebra-side cube maps and the slot precomposition stay in their
    # home modules, where the benchmark's tracer wraps them by name.
    homes = {"phi_precompose": algebras, "CubeMap": cogebras, "coassoc_left": cogebras, "coassoc_right": cogebras}
    for name, home in homes.items():
        assert not hasattr(nalg, name), name
        assert callable(getattr(home, name)), name
    assert nalg.TrilinearMap is algebras.TrilinearMap


# A cogebra with a counit, pickled (protocol 4) while its class lived in
# nalg.cogebras: the bytes name that module.  The pickles after it were
# made while Algebra, Cogebra and TrilinearMap lived in nalg.algebras and
# CogebraReport in nalg.cogebras.
OLD_PICKLE = (
    b"\x80\x04\x95\xb9\x00\x00\x00\x00\x00\x00\x00\x8c\rnalg.cogebras\x94\x8c\x07Cogebra\x94\x93\x94(K\x02}"
    b"\x94(K\x01K\x01K\x01\x87\x94\x8c\tfractions\x94\x8c\x08Fraction\x94\x93\x94K\x01K\x01\x86\x94R\x94"
    b"K\x02K\x01K\x02\x87\x94h\x07K\x01K\x01\x86\x94R\x94K\x02K\x02K\x01\x87\x94h\x07K\x01K\x01\x86\x94R"
    b"\x94K\x01K\x02K\x02\x87\x94h\x07J\xff\xff\xff\xffK\x02\x86\x94R\x94uh\x07K\x01K\x01\x86\x94R\x94h\x07"
    b"K\x00K\x01\x86\x94R\x94\x86\x94\x8c\x01u\x94\x8c\x01x\x94\x86\x94\x8c\x0cdual numbers\x94t\x94R\x94."
)


ALGEBRA_PICKLE = (
    b"\x80\x04\x95\xb9\x00\x00\x00\x00\x00\x00\x00\x8c\rnalg.algebras\x94\x8c\x07Algebra\x94\x93\x94(K\x02}"
    b"\x94(K\x01K\x01K\x01\x87\x94\x8c\tfractions\x94\x8c\x08Fraction\x94\x93\x94K\x01K\x01\x86\x94R\x94"
    b"K\x01K\x02K\x02\x87\x94h\x07K\x01K\x01\x86\x94R\x94K\x02K\x01K\x02\x87\x94h\x07K\x01K\x01\x86\x94R"
    b"\x94K\x02K\x02K\x01\x87\x94h\x07J\xff\xff\xff\xffK\x02\x86\x94R\x94uh\x07K\x01K\x01\x86\x94R\x94h\x07"
    b"K\x00K\x01\x86\x94R\x94\x86\x94\x8c\x01u\x94\x8c\x01x\x94\x86\x94\x8c\x0cdual numbers\x94t\x94R\x94."
)
COGEBRA_PICKLE = (
    b"\x80\x04\x95\xb9\x00\x00\x00\x00\x00\x00\x00\x8c\rnalg.algebras\x94\x8c\x07Cogebra\x94\x93\x94(K\x02}"
    b"\x94(K\x01K\x01K\x01\x87\x94\x8c\tfractions\x94\x8c\x08Fraction\x94\x93\x94K\x01K\x01\x86\x94R\x94"
    b"K\x02K\x01K\x02\x87\x94h\x07K\x01K\x01\x86\x94R\x94K\x02K\x02K\x01\x87\x94h\x07K\x01K\x01\x86\x94R"
    b"\x94K\x01K\x02K\x02\x87\x94h\x07J\xff\xff\xff\xffK\x02\x86\x94R\x94uh\x07K\x01K\x01\x86\x94R\x94h\x07"
    b"K\x00K\x01\x86\x94R\x94\x86\x94\x8c\x01u\x94\x8c\x01x\x94\x86\x94\x8c\x0cdual numbers\x94t\x94R\x94."
)
TRILINEAR_PICKLE = (
    b"\x80\x04\x95W\x00\x00\x00\x00\x00\x00\x00\x8c\rnalg.algebras\x94\x8c\x0cTrilinearMap\x94\x93\x94K\x02}"
    b"\x94(K\x01K\x02K\x01K\x02t\x94\x8c\tfractions\x94\x8c\x08Fraction\x94\x93\x94K\x01K\x02\x86\x94R\x94s"
    b"\x86\x94R\x94."
)
REPORT_PICKLE = (
    b"\x80\x04\x95\xb7\x00\x00\x00\x00\x00\x00\x00\x8c\rnalg.cogebras\x94\x8c\rCogebraReport\x94\x93\x94(}"
    b"\x94(K\x01\x89K\x06\x88u}\x94K\x02\x89s\x89\x88\x88\x89K\x01\x8c\tnalg.sym3\x94\x8c\x0cGroupAlgElem\x94"
    b"\x93\x94(\x8c\tfractions\x94\x8c\x08Fraction\x94\x93\x94K\x01K\x01\x86\x94R\x94h\nK\x01K\x01\x86\x94R"
    b"\x94h\nK\x01K\x01\x86\x94R\x94h\nK\x01K\x01\x86\x94R\x94h\nK\x01K\x01\x86\x94R\x94h\nK\x01K\x01\x86"
    b"\x94R\x94t\x94\x85\x94R\x94\x85\x94t\x94R\x94."
)


def _dual_numbers():
    coproducts = {(1, 1, 1): F(1), (2, 1, 2): F(1), (2, 2, 1): F(1), (1, 2, 2): F(-1, 2)}
    return nalg.Cogebra(2, coproducts, counit=(1, 0), basis=("u", "x"), name="dual numbers")


def test_a_pickle_from_the_old_module_loads():
    # Each pickle, the module its bytes name, and the value it must load as.
    products = {(1, 1, 1): F(1), (1, 2, 2): F(1), (2, 1, 2): F(1), (2, 2, 1): F(-1, 2)}
    algebra = nalg.Algebra(2, products, unit=(1, 0), basis=("u", "x"), name="dual numbers")
    ann = (nalg.GroupAlgElem((1,) * 6),)
    report = nalg.CogebraReport({1: False, 6: True}, {2: False}, False, True, True, False, 1, ann)
    cases = [
        (OLD_PICKLE, b"nalg.cogebras", _dual_numbers()),
        (COGEBRA_PICKLE, b"nalg.algebras", _dual_numbers()),
        (ALGEBRA_PICKLE, b"nalg.algebras", algebra),
        (TRILINEAR_PICKLE, b"nalg.algebras", nalg.TrilinearMap(2, {(1, 2, 1, 2): F(1, 2)})),
        (REPORT_PICKLE, b"nalg.cogebras", report),
    ]
    for data, module, expected in cases:
        assert module in data
        loaded = pickle.loads(data)
        assert type(loaded) is type(expected)
        assert loaded == expected


def test_a_pickle_round_trip_is_equal():
    C = _dual_numbers()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(C, protocol)) == C
