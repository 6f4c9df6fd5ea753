import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nalg import catalog
from nalg.algebras import Algebra
from nalg.cogebras import Cogebra
from nalg.formats import (
    FormatError,
    format_ga_expr,
    parse_algebra,
    parse_cogebra,
    parse_document,
    parse_ga_expr,
    print_algebra,
    print_document,
)
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
        assert '"c": "1/2"' in print_algebra(A)

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
            again = parse_algebra(print_algebra(A))
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


# Nonzero coefficients over mixed denominators, and basis names from all
# of Unicode but the lone surrogates, which no UTF-8 text can hold.
coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(bool)
names = st.text(st.characters(blacklist_categories=("Cs",)), max_size=4)


@st.composite
def documents(draw):
    """A sparse algebra or cogebra table, with a unit or counit ``c e1``
    half the time.  The unit's table has e1 e_j = e_j e1 = e_j / c and
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
        if elem.is_zero():
            return
        assert parse_ga_expr(format_ga_expr(elem)) == elem
