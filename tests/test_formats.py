import json
import re
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from shared import SRC, raw_documents, run_fresh

from nalg import catalog
from nalg.algebras import Algebra, _integer_table
from nalg.cogebras import Cogebra
from nalg.formats import (
    FormatError,
    _build,
    _scan,
    format_ga_expr,
    parse_algebra,
    parse_cogebra,
    parse_document,
    parse_ga_expr,
    print_document,
)
from nalg.linalg import _cleared, format_rational, parse_rational
from nalg.sym3 import GroupAlgElem, special_vector


def minimal_algebra_doc(**overrides):
    doc = {
        "kind": "algebra",
        "dim": 1,
        "basis": ["1"],
        "products": [{"left": 1, "right": 1, "out": [{"k": 1, "c": "1"}]}],
        "unit": ["1"],
    }
    doc.update(overrides)
    return json.dumps(doc)


class TestAlgebraFiles:
    def test_minimal_file_is_scalar_algebra(self):
        A = parse_algebra(minimal_algebra_doc())
        assert A.dim == 1 and A.products == {(1, 1, 1): F(1)} and A.unit == (F(1),)

    def test_rational_normalized(self):
        A = parse_algebra(
            minimal_algebra_doc(
                products=[{"left": 1, "right": 1, "out": [{"k": 1, "c": "2/4"}]}],
                unit=None,
            )
        )
        assert A.products == {(1, 1, 1): F(1, 2)}
        assert '"c": "1/2"' in print_document(A)

    def test_index_zero_rejected(self):
        with pytest.raises(FormatError, match="index out of range"):
            parse_algebra(
                minimal_algebra_doc(
                    products=[{"left": 0, "right": 1, "out": []}], unit=None
                )
            )

    def test_duplicate_entry_rejected(self):
        with pytest.raises(FormatError, match="duplicate"):
            parse_algebra(
                minimal_algebra_doc(
                    products=[
                        {"left": 1, "right": 1, "out": [{"k": 1, "c": "1"}]},
                        {"left": 1, "right": 1, "out": [{"k": 1, "c": "2"}]},
                    ],
                    unit=None,
                )
            )
        with pytest.raises(FormatError, match="duplicate"):
            parse_algebra(
                minimal_algebra_doc(
                    products=[
                        {
                            "left": 1,
                            "right": 1,
                            "out": [{"k": 1, "c": "1"}, {"k": 1, "c": "2"}],
                        }
                    ],
                    unit=None,
                )
            )

    def test_unknown_field_rejected(self):
        with pytest.raises(FormatError, match="unknown field"):
            parse_algebra(minimal_algebra_doc(extra=1))

    def test_missing_field_rejected(self):
        doc = json.loads(minimal_algebra_doc())
        del doc["unit"]
        with pytest.raises(FormatError, match="missing field"):
            parse_algebra(json.dumps(doc))

    def test_malformed_rational(self):
        with pytest.raises(FormatError, match="malformed rational"):
            parse_algebra(
                minimal_algebra_doc(
                    products=[{"left": 1, "right": 1, "out": [{"k": 1, "c": "1.5"}]}],
                    unit=None,
                )
            )

    def test_fake_unit_rejected(self):
        with pytest.raises(FormatError, match="unit"):
            parse_algebra(minimal_algebra_doc(products=[], unit=["1"]))

    def test_syntax_error_carries_position(self):
        with pytest.raises(FormatError, match="line 1"):
            parse_algebra("{not json")

    def test_kind_mismatch(self):
        with pytest.raises(FormatError):
            parse_cogebra(minimal_algebra_doc())
        with pytest.raises(FormatError):
            parse_document(json.dumps({"kind": "widget"}))


class TestRoundTrips:
    def test_canonical_files_round_trip(self):
        for name in catalog.NAMES:
            text = catalog.data_text(name)
            assert print_document(parse_document(text)) == text

    def test_object_round_trip(self, catalog_algebras):
        for A in catalog_algebras.values():
            again = parse_algebra(print_document(A))
            assert again.products == A.products
            assert again.unit == A.unit
            assert again.basis == A.basis

    def test_document_is_decoded_once(self, monkeypatch):
        import nalg.formats

        calls = []
        loads = json.loads

        def counting_loads(text, *args, **kwargs):
            calls.append(text)
            return loads(text, *args, **kwargs)

        monkeypatch.setattr(nalg.formats.json, "loads", counting_loads)
        for name in ("mat2", "dual_mat2"):
            calls.clear()
            parse_document(catalog.data_text(name))
            assert len(calls) == 1, name

    def test_each_coefficient_text_is_parsed_once(self, monkeypatch):
        import nalg.formats

        calls = []
        parse = nalg.formats._rational_pair

        def counting_parse(text):
            calls.append(text)
            return parse(text)

        monkeypatch.setattr(nalg.formats, "_rational_pair", counting_parse)
        for name in ("mat2", "dual_mat2", "trunc_poly2"):
            doc = json.loads(catalog.data_text(name))
            field, unit_field = ("products", "unit") if doc["kind"] == "algebra" else ("coproducts", "counit")
            texts = [term["c"] for entry in doc[field] for term in entry["out"]] + (doc[unit_field] or [])
            assert len(texts) > len(set(texts)), name
            calls.clear()
            parse_document(catalog.data_text(name))
            assert sorted(calls) == sorted(set(texts)), name


# Nonzero coefficients over mixed denominators, and basis names from all
# of Unicode but the lone surrogates, which no UTF-8 text can hold.
coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(bool)
names = st.text(st.characters(blacklist_categories=("Cs",)), max_size=4)


@st.composite
def documents(draw, names=names):
    """A sparse algebra or cogebra table, with a unit or counit ``c e1``
    half the time, and basis names drawn from ``names``.  The unit's table has e1 e_j = e_j e1 = e_j / c and
    draws the rest on e2..en; the counit's is the transpose."""
    n = draw(st.integers(1, 5))
    unital = draw(st.booleans())
    low = 2 if unital else 1
    keys = st.tuples(st.integers(low, n), st.integers(low, n), st.integers(1, n))
    table = draw(st.dictionaries(keys, coefficients, max_size=8)) if n >= low else {}
    unit = None
    if unital:
        c = draw(coefficients)
        unit = (c,) + (0,) * (n - 1)
        table.update({key: 1 / c for j in range(1, n + 1) for key in ((1, j, j), (j, 1, j))})
    basis = tuple(draw(st.lists(names, min_size=n, max_size=n)))
    if draw(st.booleans()):
        return Algebra(n, table, unit=unit, basis=basis)
    coproducts = {(k, i, j): c for (i, j, k), c in table.items()}
    return Cogebra(n, coproducts, counit=unit, basis=basis)


@given(documents())
@settings(max_examples=150)
def test_document_round_trip(X):
    text = print_document(X)
    assert parse_document(text) == X
    assert print_document(parse_document(text)) == text


def _dumped(X):
    """The document of ``X`` as a dict, through ``json.dumps``: the
    printer's reference."""
    algebra = isinstance(X, Algebra)
    kind, field, unit_field, n = ("algebra", "products", "unit", 2) if algebra else ("cogebra", "coproducts", "counit", 1)
    entry_fields, term_fields = (("left", "right"), ("k",)) if algebra else (("in",), ("i", "j"))
    by_head = {}
    for key, c in sorted(_constants(X).items()):
        by_head.setdefault(key[:n], []).append({**dict(zip(term_fields, key[n:])), "c": format_rational(c)})
    unit = X.unit if algebra else X.counit
    doc = {
        "kind": kind,
        "dim": X.dim,
        "basis": list(X.basis_names()),
        field: [{**dict(zip(entry_fields, head)), "out": terms} for head, terms in by_head.items()],
        unit_field: None if unit is None else [format_rational(c) for c in unit],
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


# Basis names of every kind of character: those json.dumps escapes (quotes,
# backslashes, control characters), non-ASCII text, and lone surrogates.
escaped_names = st.text(
    st.one_of(st.sampled_from('"\\\x00\x1f\x7f\n\té€\ud800\udfff'), st.characters(exclude_categories=())),
    max_size=4,
)


@example(Algebra(1, {}))
@example(Cogebra(2, {}, basis=("\\", '"')))
@example(Cogebra(1, {(1, 1, 1): F(1, 2)}, counit=(2,), basis=("\x1f",)))
@example(Algebra(1, {(1, 1, 1): 1}, unit=(1,), basis=("\x00é\ud800",)))
@given(documents(escaped_names))
@settings(max_examples=150)
def test_printer_matches_json_dumps(X):
    assert print_document(X) == _dumped(X)


def _constants(X):
    return X.products if isinstance(X, Algebra) else X.coproducts


@given(raw_documents())
@settings(max_examples=150)
def test_reader_builds_what_the_constructor_builds(case):
    # The reader checks each entry once and builds the table itself; the
    # constructor checks the same numbers again and drops the zeros.
    text, expected = case
    X = parse_document(text)
    assert X == expected
    assert all(type(c) is F and c for c in _constants(X).values())
    assert parse_document(print_document(X)) == expected


@given(raw_documents())
@settings(max_examples=100)
def test_integer_table_clears_shared_and_unshared_values(case):
    # A read table shares one Fraction per coefficient text; a copy of it
    # holds a Fraction object of its own at every key.
    table = _constants(parse_document(case[0]))
    for T in (table, {key: F(c.numerator, c.denominator) for key, c in table.items()}):
        ints, d = _cleared(list(T.values()))
        assert _integer_table(T) == (dict(zip(T, ints)), d)
        assert d == lcm(1, *(c.denominator for c in T.values()))
        assert all(F(n, d) == T[key] for key, n in _integer_table(T)[0].items())


def assert_hands_over_the_cleared_table(text):
    # The reader clears each distinct value once; the result is the table
    # _integer_table clears entry by entry, in the same order.  A declared
    # (co)unit comes cleared by the LCM e of its own denominators, with the
    # scale d * e that the (co)unit axiom meets on the cleared table.
    parts, cleared, unit = _scan(text)
    X = _build(*parts)
    ints, d = _integer_table(_constants(X))
    assert list(cleared.items()) == list(ints.items())
    assert all(type(c) is int and c for c in cleared.values())
    u = X.unit if isinstance(X, Algebra) else X.counit
    assert (unit is None) == (u is None)
    if u is not None:
        e = lcm(*(c.denominator for c in u))
        assert unit == ([int(c * e) for c in u], d * e)
        assert all(type(c) is int for c in unit[0])


def test_reader_hands_over_the_cleared_table_of_the_catalog():
    for name in catalog.NAMES:
        assert_hands_over_the_cleared_table(catalog.data_text(name))


@given(raw_documents())
@settings(max_examples=150)
def test_reader_hands_over_the_cleared_table(case):
    assert_hands_over_the_cleared_table(case[0])


# The grammar of a term as a regular expression: an optional coefficient
# (a sign, ASCII digits, optionally "/" and ASCII digits) and "*", then a
# permutation name.
_TERM = re.compile(r"(?:([+-]?[0-9]+(?:/[0-9]+)?)\*)?(id|t12|t13|t23|c1|c2)")
_PERM_NAMES = ("id", "t12", "t13", "t23", "c1", "c2")


def _reference_parse(text):
    """The coordinates of the expression ``text``, read term by term with
    ``_TERM`` after dropping whitespace, or the text of the error
    ``parse_ga_expr`` gives, with positions in ``text`` as given."""
    kept = [(at, ch) for at, ch in enumerate(text) if not ch.isspace()]
    s = "".join(ch for _, ch in kept)
    place = [at for at, _ in kept] + [len(text)]
    if not s:
        return "empty expression"
    if s == "0":
        return (0,) * 6
    coords = [F(0)] * 6
    pos = 0
    while pos < len(s):
        sign = s[pos] if s[pos] in "+-" else ""
        if pos and not sign:
            return f"expected '+' or '-' at position {place[pos]} in {text!r}"
        at = pos + len(sign)
        m = _TERM.match(s, at)
        if m is None:
            return f"malformed term at position {place[at]} in {text!r}"
        coef = F(1)
        if m[1] is not None:
            try:
                coef = parse_rational(m[1])
            except ValueError as exc:
                return f"{exc} (at position {place[at]} in {text!r})"
        coords[_PERM_NAMES.index(m[2])] += -coef if sign == "-" else coef
        pos = m.end()
    return tuple(coords)


class TestExpressions:
    def test_alternating_vector(self):
        assert parse_ga_expr("id - t12 - t13 - t23 + c1 + c2") == special_vector("V")

    def test_symmetrizing_vector(self):
        assert parse_ga_expr("id + t12 + t13 + t23 + c1 + c2") == special_vector("W")

    def test_coefficient_arithmetic(self):
        elem = parse_ga_expr("3/2*c1 - c1")
        assert elem.coords == (0, 0, 0, 0, F(1, 2), 0)

    def test_whitespace_ignored(self):
        assert parse_ga_expr(" id-t12 ") == parse_ga_expr("id - t12")

    @pytest.mark.parametrize(
        "text", ["", "x12", "3/2c1", "id id", "id +", "2 * id id", "1/0*id", "c3"]
    )
    def test_rejects(self, text):
        with pytest.raises(FormatError):
            parse_ga_expr(text)

    def test_format_zero(self):
        assert format_ga_expr(GroupAlgElem.zero()) == "0"

    def test_parse_zero(self):
        assert parse_ga_expr("0") == GroupAlgElem.zero()
        assert parse_ga_expr(" 0 ") == GroupAlgElem.zero()

    def test_format_canonical(self):
        assert format_ga_expr(special_vector("V")) == "id - t12 - t13 - t23 + c1 + c2"
        assert format_ga_expr(GroupAlgElem((0, F(-3, 2), 0, 0, 1, 0))) == "-3/2*t12 + c1"

    @given(
        st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=7),
            min_size=6,
            max_size=6,
        )
    )
    @settings(max_examples=80)
    def test_expression_round_trip(self, coords):
        elem = GroupAlgElem(tuple(coords))
        assert parse_ga_expr(format_ga_expr(elem)) == elem

    @given(
        st.lists(
            st.sampled_from(
                ("id", "t12", "t13", "t23", "c1", "c2", "t1", "c3", "+", "-", " - ", "*", "/", "0", "7",
                 "3/2*", "2*", "-1/2*", "1/0*", " ", "\t", "\u00b2", "\u0663")
            ),
            max_size=12,
        )
    )
    @example(["\u0663", "*", "id"])
    @example(["id", "+", "7", "/", "\u00b2", "*", "c2"])
    @example(["id ", "+", " 1/0", "*t12"])
    @example(["- 7/", "07", " * t1", "3"])
    @example(["7", "/", "*", "id"])
    @example(["3/2*", "c1", " - ", "t12", "+", "7", "*", "t23"])
    @settings(max_examples=300)
    def test_terms_read_as_the_regular_expression_reads_them(self, pieces):
        text = "".join(pieces)
        try:
            got = parse_ga_expr(text).coords
        except FormatError as exc:
            got = str(exc)
        assert got == _reference_parse(text)

    def test_importing_the_cli_compiles_no_pattern(self):
        # A compiled pattern costs every fresh process its compile time.
        code = "import re, nalg.cli, nalg.formats as f; print(any(isinstance(v, re.Pattern) for v in vars(f).values()))"
        assert run_fresh(code, SRC).stdout == "False\n"


# --- every document error, pinned ------------------------------------------
#
# Each row is a malformed document and the exact text of the FormatError it
# raises.  ``parse_document`` and the reader of the document's kind give
# that text; the reader of the other kind stops at the 'kind' field.


_DROP = object()  # a field value that removes the field


def _algebra(**fields):
    doc = {
        "kind": "algebra",
        "dim": 2,
        "basis": ["a", "b"],
        "products": [{"left": 1, "right": 2, "out": [{"k": 2, "c": "1"}]}],
        "unit": None,
    }
    doc.update(fields)
    return {key: value for key, value in doc.items() if value is not _DROP}


def _cogebra(**fields):
    doc = {
        "kind": "cogebra",
        "dim": 2,
        "basis": ["a", "b"],
        "coproducts": [{"in": 2, "out": [{"i": 1, "j": 2, "c": "1"}]}],
        "counit": None,
    }
    doc.update(fields)
    return {key: value for key, value in doc.items() if value is not _DROP}


def _product(left=1, right=2, k=2, c="1"):
    return {"left": left, "right": right, "out": [{"k": k, "c": c}]}


def _coproduct(in_=2, i=1, j=2, c="1"):
    return {"in": in_, "out": [{"i": i, "j": j, "c": c}]}


# e1 e1 = e1 and e1 e2 = e2: e1 is a left unit only.  Its transpose makes
# e1 a right unit only; the cogebra rows use the duals of both.
_LEFT_UNIT_ONLY = [
    {"left": 1, "right": 1, "out": [{"k": 1, "c": "1"}]},
    {"left": 1, "right": 2, "out": [{"k": 2, "c": "1"}]},
]
_RIGHT_UNIT_ONLY = [
    {"left": 1, "right": 1, "out": [{"k": 1, "c": "1"}]},
    {"left": 2, "right": 1, "out": [{"k": 2, "c": "1"}]},
]
_LEFT_COUNIT_ONLY = [
    {"in": 1, "out": [{"i": 1, "j": 1, "c": "1"}]},
    {"in": 2, "out": [{"i": 1, "j": 2, "c": "1"}]},
]
_RIGHT_COUNIT_ONLY = [
    {"in": 1, "out": [{"i": 1, "j": 1, "c": "1"}]},
    {"in": 2, "out": [{"i": 2, "j": 1, "c": "1"}]},
]

_ALGEBRA_ERRORS = [
    (_algebra(extra=1), "unknown field(s): extra"),
    (_algebra(unit=_DROP), "missing field(s): unit"),
    (_algebra(basis=_DROP, products=_DROP), "missing field(s): basis, products"),
    (_algebra(products=_DROP, coproducts=[]), "unknown field(s): coproducts"),
    (_algebra(dim="2"), "'dim' must be a positive integer"),
    (_algebra(dim=0), "'dim' must be a positive integer"),
    (_algebra(dim=True), "'dim' must be a positive integer"),
    (_algebra(dim=2.0), "'dim' must be a positive integer"),
    (_algebra(basis=["a"]), "'basis' must list one name per basis element"),
    (_algebra(basis=["a", 2]), "'basis' must list one name per basis element"),
    (_algebra(basis="ab"), "'basis' must list one name per basis element"),
    (_algebra(products={}), "'products' must be a list"),
    (_algebra(products=[[1, 2]]), "each product entry needs exactly 'left', 'right', 'out'"),
    (
        _algebra(products=[{"left": 1, "right": 2, "k": 2, "out": []}]),
        "each product entry needs exactly 'left', 'right', 'out'",
    ),
    (_algebra(products=[{"left": 1, "right": 2}]), "each product entry needs exactly 'left', 'right', 'out'"),
    (_algebra(products=[_product(left=0)]), "index out of range: 'left' = 0"),
    (_algebra(products=[_product(left=3)]), "index out of range: 'left' = 3"),
    (_algebra(products=[_product(left=True)]), "'left' must be an integer"),
    (_algebra(products=[_product(left=1.0)]), "'left' must be an integer"),
    (_algebra(products=[_product(right=0)]), "index out of range: 'right' = 0"),
    (_algebra(products=[_product(right=3)]), "index out of range: 'right' = 3"),
    (_algebra(products=[_product(right=True)]), "'right' must be an integer"),
    (_algebra(products=[_product(right=1.0)]), "'right' must be an integer"),
    (_algebra(products=[_product(k=0)]), "index out of range: 'k' = 0"),
    (_algebra(products=[_product(k=3)]), "index out of range: 'k' = 3"),
    (_algebra(products=[_product(k=True)]), "'k' must be an integer"),
    (_algebra(products=[_product(k=1.0)]), "'k' must be an integer"),
    (_algebra(products=[_product(), _product(k=1)]), "duplicate product entry for (1, 2)"),
    (_algebra(products=[{"left": 1, "right": 2, "out": {}}]), "'out' must be a list"),
    (
        _algebra(products=[{"left": 1, "right": 2, "out": [[2, "1"]]}]),
        "each output term needs exactly 'k' and 'c'",
    ),
    (
        _algebra(products=[{"left": 1, "right": 2, "out": [{"i": 1, "k": 2, "c": "1"}]}]),
        "each output term needs exactly 'k' and 'c'",
    ),
    (
        _algebra(products=[{"left": 1, "right": 2, "out": [{"k": 2, "c": "1"}, {"k": 2, "c": "2"}]}]),
        "duplicate structure-constant entry (1, 2, 2)",
    ),
    (_algebra(products=[_product(c=1)]), "coefficient in product (1, 2) must be a rational string"),
    (_algebra(products=[_product(c="1.5")]), "malformed rational: '1.5' (in product (1, 2))"),
    (
        _algebra(products=[_product(c="1/0")]),
        "malformed rational: '1/0' (denominator must be positive) (in product (1, 2))",
    ),
    (_algebra(unit="1"), "'unit' must be null or a list of 2 rationals"),
    (_algebra(unit=["1"]), "'unit' must be null or a list of 2 rationals"),
    (_algebra(unit=[1, 0]), "coefficient in 'unit' must be a rational string"),
    (_algebra(unit=["x", "0"]), "malformed rational: 'x' (in 'unit')"),
    (_algebra(unit=["1", "0"]), "declared unit is not a two-sided unit"),
    (_algebra(products=_LEFT_UNIT_ONLY, unit=["1", "0"]), "declared unit is not a two-sided unit"),
    (_algebra(products=_RIGHT_UNIT_ONLY, unit=["1", "0"]), "declared unit is not a two-sided unit"),
    # The reader checks indices inline, in one pass, and drops zero terms
    # itself: an entry's indices are checked even when it has no terms, a
    # later error is found in its place, and a zero term still holds its key.
    (_algebra(products=[{"left": 0, "right": 2, "out": []}]), "index out of range: 'left' = 0"),
    (_algebra(products=[_product(), {"left": 2, "right": True, "out": []}]), "'right' must be an integer"),
    (
        _algebra(products=[{"left": 1, "right": 2, "out": [{"k": 2, "c": "1"}, {"k": True, "c": "1"}]}]),
        "'k' must be an integer",
    ),
    (
        _algebra(products=[{"left": 1, "right": 2, "out": [{"k": 1, "c": "1"}, {"k": 1.0, "c": "1"}]}]),
        "'k' must be an integer",
    ),
    (
        _algebra(
            products=[_product(), {"left": 2, "right": 1, "out": [{"k": 1, "c": "1"}, {"k": 0, "c": "1"}]}]
        ),
        "index out of range: 'k' = 0",
    ),
    (
        _algebra(products=[{"left": 1, "right": 2, "out": [{"k": 2, "c": "0"}, {"k": 2, "c": "1"}]}]),
        "duplicate structure-constant entry (1, 2, 2)",
    ),
    (
        _algebra(products=[{"left": 1, "right": 2, "out": [{"k": 2, "c": "0/3"}, {"k": 2, "c": "x"}]}]),
        "duplicate structure-constant entry (1, 2, 2)",
    ),
    (_algebra(products=[_product(c="0"), _product(c="0", k=1)]), "duplicate product entry for (1, 2)"),
]

_COGEBRA_ERRORS = [
    (_cogebra(extra=1), "unknown field(s): extra"),
    (_cogebra(counit=_DROP), "missing field(s): counit"),
    (_cogebra(basis=_DROP, coproducts=_DROP), "missing field(s): basis, coproducts"),
    (_cogebra(coproducts=_DROP, products=[]), "unknown field(s): products"),
    (_cogebra(dim="2"), "'dim' must be a positive integer"),
    (_cogebra(dim=0), "'dim' must be a positive integer"),
    (_cogebra(dim=True), "'dim' must be a positive integer"),
    (_cogebra(dim=2.0), "'dim' must be a positive integer"),
    (_cogebra(basis=["a"]), "'basis' must list one name per basis element"),
    (_cogebra(basis=["a", 2]), "'basis' must list one name per basis element"),
    (_cogebra(basis="ab"), "'basis' must list one name per basis element"),
    (_cogebra(coproducts={}), "'coproducts' must be a list"),
    (_cogebra(coproducts=[[2]]), "each coproduct entry needs exactly 'in' and 'out'"),
    (
        _cogebra(coproducts=[{"in": 2, "k": 2, "out": []}]),
        "each coproduct entry needs exactly 'in' and 'out'",
    ),
    (_cogebra(coproducts=[{"in": 2}]), "each coproduct entry needs exactly 'in' and 'out'"),
    (_cogebra(coproducts=[_coproduct(in_=0)]), "index out of range: 'in' = 0"),
    (_cogebra(coproducts=[_coproduct(in_=3)]), "index out of range: 'in' = 3"),
    (_cogebra(coproducts=[_coproduct(in_=True)]), "'in' must be an integer"),
    (_cogebra(coproducts=[_coproduct(in_=1.0)]), "'in' must be an integer"),
    (_cogebra(coproducts=[_coproduct(i=0)]), "index out of range: 'i' = 0"),
    (_cogebra(coproducts=[_coproduct(i=3)]), "index out of range: 'i' = 3"),
    (_cogebra(coproducts=[_coproduct(i=True)]), "'i' must be an integer"),
    (_cogebra(coproducts=[_coproduct(i=1.0)]), "'i' must be an integer"),
    (_cogebra(coproducts=[_coproduct(j=0)]), "index out of range: 'j' = 0"),
    (_cogebra(coproducts=[_coproduct(j=3)]), "index out of range: 'j' = 3"),
    (_cogebra(coproducts=[_coproduct(j=True)]), "'j' must be an integer"),
    (_cogebra(coproducts=[_coproduct(j=1.0)]), "'j' must be an integer"),
    (_cogebra(coproducts=[_coproduct(), _coproduct(i=2)]), "duplicate coproduct entry for 2"),
    (_cogebra(coproducts=[{"in": 2, "out": {}}]), "'out' must be a list"),
    (
        _cogebra(coproducts=[{"in": 2, "out": [[1, 2, "1"]]}]),
        "each output term needs exactly 'i', 'j' and 'c'",
    ),
    (
        _cogebra(coproducts=[{"in": 2, "out": [{"i": 1, "c": "1"}]}]),
        "each output term needs exactly 'i', 'j' and 'c'",
    ),
    (
        _cogebra(coproducts=[{"in": 2, "out": [{"i": 1, "j": 2, "c": "1"}, {"i": 1, "j": 2, "c": "2"}]}]),
        "duplicate costructure-constant entry (2, 1, 2)",
    ),
    (_cogebra(coproducts=[_coproduct(c=1)]), "coefficient in coproduct 2 must be a rational string"),
    (_cogebra(coproducts=[_coproduct(c="1.5")]), "malformed rational: '1.5' (in coproduct 2)"),
    (
        _cogebra(coproducts=[_coproduct(c="1/0")]),
        "malformed rational: '1/0' (denominator must be positive) (in coproduct 2)",
    ),
    (_cogebra(counit="1"), "'counit' must be null or a list of 2 rationals"),
    (_cogebra(counit=["1"]), "'counit' must be null or a list of 2 rationals"),
    (_cogebra(counit=[1, 0]), "coefficient in 'counit' must be a rational string"),
    (_cogebra(counit=["x", "0"]), "malformed rational: 'x' (in 'counit')"),
    (_cogebra(counit=["1", "0"]), "declared counit fails the counit axiom"),
    (_cogebra(coproducts=_LEFT_COUNIT_ONLY, counit=["1", "0"]), "declared counit fails the counit axiom"),
    (_cogebra(coproducts=_RIGHT_COUNIT_ONLY, counit=["1", "0"]), "declared counit fails the counit axiom"),
    (_cogebra(coproducts=[{"in": 3, "out": []}]), "index out of range: 'in' = 3"),
    (_cogebra(coproducts=[_coproduct(), {"in": 1.0, "out": []}]), "'in' must be an integer"),
    (
        _cogebra(coproducts=[{"in": 2, "out": [{"i": 1, "j": 2, "c": "1"}, {"i": 1, "j": True, "c": "1"}]}]),
        "'j' must be an integer",
    ),
    (_cogebra(coproducts=[{"in": 2, "out": [{"i": 1.0, "j": 0, "c": "1"}]}]), "'i' must be an integer"),
    (
        _cogebra(
            coproducts=[_coproduct(), {"in": 1, "out": [{"i": 1, "j": 1, "c": "1"}, {"i": 2, "j": 0, "c": "1"}]}]
        ),
        "index out of range: 'j' = 0",
    ),
    (
        _cogebra(coproducts=[{"in": 2, "out": [{"i": 1, "j": 2, "c": "0"}, {"i": 1, "j": 2, "c": "1"}]}]),
        "duplicate costructure-constant entry (2, 1, 2)",
    ),
]

_NOT_ALGEBRA = "expected an algebra document ('kind': 'algebra')"
_NOT_COGEBRA = "expected a cogebra document ('kind': 'cogebra')"
_NO_KIND = "'kind' must be 'algebra' or 'cogebra'"

# Documents whose 'kind' is wrong or unknown, with the texts from
# parse_document, parse_algebra and parse_cogebra.
_KIND_ERRORS = [
    (
        _algebra(kind="cogebra"),
        ("unknown field(s): products, unit", _NOT_ALGEBRA, "unknown field(s): products, unit"),
    ),
    (
        _cogebra(kind="algebra"),
        ("unknown field(s): coproducts, counit", "unknown field(s): coproducts, counit", _NOT_COGEBRA),
    ),
    (_algebra(kind="widget"), (_NO_KIND, _NOT_ALGEBRA, _NOT_COGEBRA)),
    (_cogebra(kind=_DROP), (_NO_KIND, _NOT_ALGEBRA, _NOT_COGEBRA)),
    (_algebra(kind=None), (_NO_KIND, _NOT_ALGEBRA, _NOT_COGEBRA)),
    (_cogebra(kind=["cogebra"]), (_NO_KIND, _NOT_ALGEBRA, _NOT_COGEBRA)),
]


def _message(parse, doc):
    with pytest.raises(FormatError) as info:
        parse(json.dumps(doc))
    return str(info.value)


@pytest.mark.parametrize(
    "doc, message",
    _ALGEBRA_ERRORS + _COGEBRA_ERRORS,
    ids=[f"algebra-{n}" for n in range(len(_ALGEBRA_ERRORS))]
    + [f"cogebra-{n}" for n in range(len(_COGEBRA_ERRORS))],
)
def test_document_error_message(doc, message):
    own, other = (parse_algebra, parse_cogebra) if doc["kind"] == "algebra" else (parse_cogebra, parse_algebra)
    assert _message(parse_document, doc) == message
    assert _message(own, doc) == message
    assert _message(other, doc) == (_NOT_COGEBRA if other is parse_cogebra else _NOT_ALGEBRA)


@pytest.mark.parametrize("doc, messages", _KIND_ERRORS)
def test_document_kind_error_message(doc, messages):
    assert tuple(_message(parse, doc) for parse in (parse_document, parse_algebra, parse_cogebra)) == messages


# Two faulty entries, and the text of each fault alone: the reader reports
# the fault of entry 1, the first in document order.
_TWO_FAULTS = [
    (_product(1, 1, 1, "x"), _product(1, 2, 2, "1.5"),
     "malformed rational: 'x' (in product (1, 1))", "malformed rational: '1.5' (in product (1, 2))"),
    (_product(1, 1, 1, 1), _product(1, 2, 2, "x"),
     "coefficient in product (1, 1) must be a rational string", "malformed rational: 'x' (in product (1, 2))"),
    (_product(1, 1, 3, "x"), _product(1, 2, 2, "x"),
     "index out of range: 'k' = 3", "malformed rational: 'x' (in product (1, 2))"),
    (_product(1, 1, 1, "x"), _product(3, 2, 2, "1"),
     "malformed rational: 'x' (in product (1, 1))", "index out of range: 'left' = 3"),
]


@pytest.mark.parametrize("first, second, first_fault, second_fault", _TWO_FAULTS)
def test_first_fault_in_document_order_is_reported(first, second, first_fault, second_fault):
    assert _message(parse_document, _algebra(products=[first, second])) == first_fault
    assert _message(parse_document, _algebra(products=[_product(1, 1, 1), second])) == second_fault
