"""``nalg check --json`` and ``nalg annihilator`` against the library.

Both commands decide a file of either kind from the reader's cleared
table, a cogebra as its dual, and check a (co)unit on that table in ints,
without building the structure.  Each must print what the library prints
for the structure that ``parse_document`` builds from the same file: the
report of ``classify`` or ``classify_cogebra``, and the subspace of
``annihilator`` or ``coannihilator``.  A file that the parser rejects, a
(co)unit that fails its axiom among them, makes every command exit 2 with
the parser's error.

The files are the catalog, the benchmark's towers (built here through
the library), and drawn documents of both kinds and towers on them, with
and without a (co)unit: the true one, one that fails its axiom, one
scaled by 2 or 1/2, and the true one of the table rescaled, whose
denominators the table lacks.
"""

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
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
from nalg.linalg import format_rational
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
    # The two commands print one basis: the report's and the annihilator's.
    code, report, _ = got[COMMANDS[0]]
    if code == 0:
        report = json.loads(report)
        basis = report["annihilator_basis" if report["kind"] == "algebra" else "coannihilator_basis"]
        assert json.loads(got[COMMANDS[2]][1])["basis"] == basis


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


# The true unit of the catalog's trunc_poly2 and of the dual's counit, with
# the table scaled by 1013/1009 and the (co)unit by 1009/1013: the reader
# clears the table by d = 1009 and the (co)unit by e = 1013.
@example((catalog.data_text("trunc_poly2"), None), None, False, "1", "1013/1009")
@example((catalog.data_text("dual_trunc_poly2"), None), None, False, "1", "1013/1009")
@given(
    raw_documents(),
    st.sampled_from((None, "k1", "trunc_poly2", "mat2")),
    st.booleans(),
    st.sampled_from(("1", "1/2", "2")),
    st.sampled_from(("1013/1009", "1/3", "2", "1")),
)
@settings(max_examples=100, deadline=None)
def test_drawn_documents(case, factor, break_unit, unit_scale, table_scale):
    # With a factor, the document is the tower of the drawn structure with
    # it: a tensor product, or for a cogebra the dual of a convolution.
    # The table is scaled by table_scale and the (co)unit by unit_scale /
    # table_scale: a true (co)unit stays one exactly when unit_scale is 1,
    # and its denominators may be ones the table lacks.  break_unit sets
    # its first coordinate to 7, which breaks a drawn c e1 (c is 1, 2 or -1/3).
    text = case[0]
    if factor is not None:
        X, F = case[1], catalog.get(factor)
        T = tensor_algebras(X, F) if isinstance(X, Algebra) else dualize_algebra(convolution_algebra(X, F))
        text = print_document(T)
    doc = json.loads(text)
    field, unit_field = ("products", "unit") if doc["kind"] == "algebra" else ("coproducts", "counit")
    s = Fraction(table_scale)
    for entry in doc[field]:
        for term in entry["out"]:
            term["c"] = format_rational(Fraction(term["c"]) * s)
    if doc[unit_field] is not None:
        doc[unit_field] = [format_rational(Fraction(c) * Fraction(unit_scale) / s) for c in doc[unit_field]]
        if break_unit:
            doc[unit_field][0] = "7"
    assert_commands_agree(json.dumps(doc))


@given(algebras(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_drawn_tables(A, dual):
    # Small sparse tables, whose annihilators are often nonzero.
    assert_commands_agree(print_document(dualize_algebra(A) if dual else A))
