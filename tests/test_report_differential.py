"""``nalg check --json`` and ``nalg annihilator`` against the library.

Both commands decide a file of either kind from the reader's cleared
table, a cogebra as its dual, and build the structure only to check a
(co)unit.  Each must print what the library prints for the structure
that ``parse_document`` builds from the same file: the report of
``classify`` or ``classify_cogebra``, and the subspace of ``annihilator``
or ``coannihilator``.  A file that the parser rejects, a (co)unit that
fails its axiom among them, makes every command exit 2 with the
parser's error.

The files are the catalog, the benchmark's towers (built here through
the library), and drawn documents of both kinds, with and without a
(co)unit, and with a (co)unit that fails its axiom.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli import report_doc
from test_engine_differential import algebras
from test_formats import raw_documents

from nalg import catalog
from nalg.algebras import Algebra, annihilator, classify
from nalg.cli import main
from nalg.cogebras import classify_cogebra, coannihilator
from nalg.duality import dualize_algebra
from nalg.formats import FormatError, format_ga_expr, parse_document, print_document
from nalg.products import convolution_algebra, tensor_algebras
from nalg.sym3 import GroupAlgElem

COMMANDS = (("check", "--json"), ("annihilator",), ("annihilator", "--json"))


def expected(text):
    """What each of ``COMMANDS`` gives on a file holding ``text``: exit
    code, stdout and stderr."""
    try:
        X = parse_document(text)
    except FormatError as exc:
        return dict.fromkeys(COMMANDS, (2, "", f"error: {exc}\n"))
    if isinstance(X, Algebra):
        kind, report, sub = "algebra", classify(X), annihilator(X)
    else:
        kind, report, sub = "cogebra", classify_cogebra(X), coannihilator(X)
    exprs = [format_ga_expr(GroupAlgElem(row)) for row in sub.basis]
    return {
        COMMANDS[0]: (0, json.dumps(report_doc(kind, X.dim, report), indent=2) + "\n", ""),
        COMMANDS[1]: (0, "".join([f"dim {sub.dim}\n"] + [f"  {e}\n" for e in exprs]), ""),
        COMMANDS[2]: (0, json.dumps({"dim": sub.dim, "basis": exprs}, indent=2) + "\n", ""),
    }


def run(command, path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command[0], path, *command[1:]])
    return code, out.getvalue(), err.getvalue()


def assert_commands_agree(text):
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "doc.json"
        path.write_text(text, encoding="utf-8")
        got = {command: run(command, str(path)) for command in COMMANDS}
    assert got == expected(text)


@pytest.mark.parametrize("name", catalog.NAMES)
def test_catalog(name):
    assert_commands_agree(catalog.data_text(name))


def _towers():
    """The benchmark's tensor towers, convolution and a dual of each kind."""
    m4 = tensor_algebras(catalog.get("mat2"), catalog.get("mat2"))
    vp = tensor_algebras(catalog.get("vinberg2"), catalog.get("prelie2"))
    vpg = tensor_algebras(vp, catalog.get("generic3"))
    conv = convolution_algebra(catalog.get("dual_mat2"), catalog.get("mat2"))
    return {"m4": m4, "dm4": dualize_algebra(m4), "vp": vp, "dvpg": dualize_algebra(vpg), "conv": conv}


@pytest.mark.parametrize("name", ["m4", "dm4", "vp", "dvpg", "conv"])
def test_towers(name):
    assert_commands_agree(print_document(_towers()[name]))


@given(raw_documents(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_drawn_documents(case, break_unit):
    # A (co)unit c e1 fails its axiom once its first coordinate is 7 and
    # its products by e_j stay 1/c e_j, as c is 1, 2 or -1/3.
    doc = json.loads(case[0])
    field = "unit" if doc["kind"] == "algebra" else "counit"
    if break_unit and doc[field] is not None:
        doc[field][0] = "7"
    assert_commands_agree(json.dumps(doc))


@given(algebras(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_drawn_tables(A, dual):
    # Small sparse tables, whose annihilators are often nonzero.
    assert_commands_agree(print_document(dualize_algebra(A) if dual else A))
