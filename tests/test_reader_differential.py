"""The document reader against the reference reader, which builds the
``Fraction``-valued table as it checks each entry.

Documents of both kinds are drawn valid, repeating their coefficient
texts, and then receive up to two faults, each at a drawn place: a wrong
key set, an entry or a term that is not an object, a bad index, a
repeated entry or key, a bad or zero coefficient, a bad (co)unit, or a
bad top-level field.  Both readers must raise the same ``FormatError``
text, which also pins the first fault in document order, or build the
same structure, pickling to the same bytes (so equal texts share one
``Fraction`` in both), and the same cleared table, in order.
"""

import json
import pickle

import reference_formats as reference
from hypothesis import given, settings
from hypothesis import strategies as st
from shared import raw_documents

from nalg import catalog, formats
from nalg.formats import FormatError, parse_algebra, parse_cogebra

_BAD_INDICES = (0, -1, 5, True, False, 1.0, "1", None, [1])
_BAD_VALUES = ([], [1, 2], "ab", "abc", 2, None, 1.5)
_BAD_FIELDS = ("cogebra", "algebra", 0, True, 2.0, "2", {}, ["a"], None)
# Texts past Python's int-digit limit fail in int(), numerator or denominator first.
_LONG = "9" * 5000
_COEFFICIENTS = (
    "1.5", "x", "1/0", " 1", "", "1e2", "0", "0/5", "-0", "+2/4", "-6/4",
    f"{_LONG}/0", f"1/{_LONG}", f"{_LONG}/{_LONG}9", f"-{_LONG}",
    1, 1.5, None, True, [1], {"c": "1"},
)


def _fields(doc):
    """The table field, the index fields of an entry and of a term, and the (co)unit field."""
    if "products" in doc or doc.get("kind") == "algebra":
        return "products", ("left", "right"), ("k",), "unit"
    return "coproducts", ("in",), ("i", "j"), "counit"


def _pick(draw, items):
    return items[draw(st.integers(0, len(items) - 1))] if items else None


def _inject(draw, doc):
    """Put one drawn fault into ``doc``, in place."""
    field, entry_fields, term_fields, unit_field = _fields(doc)
    entries = doc.get(field) if isinstance(doc.get(field), list) else []
    dicts = [e for e in entries if isinstance(e, dict)]
    terms = [t for e in dicts if isinstance(e.get("out"), list) for t in e["out"] if isinstance(t, dict)]
    fault = draw(st.sampled_from(
        ("entry keys", "term keys", "entry value", "term value", "entry index", "term index",
         "repeated entry", "repeated term", "coefficient", "unit", "out", "top")
    ))
    if fault == "entry keys" and dicts:
        entry = _pick(draw, dicts)
        if draw(st.booleans()):
            entry[draw(st.sampled_from(("k", "x", "c", *term_fields)))] = 1
        else:
            entry.pop(draw(st.sampled_from((*entry_fields, "out"))), None)
    elif fault == "term keys" and terms:
        term = _pick(draw, terms)
        if draw(st.booleans()):
            term[draw(st.sampled_from(("left", "in", "x", *entry_fields)))] = 1
        else:
            term.pop(draw(st.sampled_from((*term_fields, "c"))), None)
    elif fault == "entry value" and entries:
        entries[draw(st.integers(0, len(entries) - 1))] = draw(st.sampled_from(_BAD_VALUES))
    elif fault == "term value" and dicts:
        entry = _pick(draw, [e for e in dicts if isinstance(e.get("out"), list)])
        if entry is not None:
            entry["out"].insert(draw(st.integers(0, len(entry["out"]))), draw(st.sampled_from(_BAD_VALUES)))
    elif fault == "entry index" and dicts:
        entry = _pick(draw, dicts)
        entry[draw(st.sampled_from(entry_fields))] = draw(st.sampled_from(_BAD_INDICES))
    elif fault == "term index" and terms:
        term = _pick(draw, terms)
        term[draw(st.sampled_from(term_fields))] = draw(st.sampled_from(_BAD_INDICES))
    elif fault == "repeated entry" and dicts:
        entries.insert(draw(st.integers(0, len(entries))), json.loads(json.dumps(_pick(draw, dicts))))
    elif fault == "repeated term" and terms:
        entry = _pick(draw, [e for e in dicts if isinstance(e.get("out"), list) and e["out"]])
        term = _pick(draw, [t for t in entry["out"] if isinstance(t, dict)]) if entry else None
        if term is not None:
            entry["out"].insert(draw(st.integers(0, len(entry["out"]))), {**term, "c": draw(st.sampled_from(("1", "0", "x")))})
    elif fault == "coefficient" and terms:
        _pick(draw, terms)["c"] = draw(st.sampled_from(_COEFFICIENTS))
    elif fault == "unit":
        dim = doc.get("dim") if type(doc.get("dim")) is int else 1
        doc[unit_field] = draw(st.sampled_from((
            "1", [], ["1"] * (dim + 1), [1] * dim, ["x"] + ["0"] * (dim - 1),
            ["0"] * dim, ["1"] * dim, ["1/0"] * dim, [[1]] * dim, [None] * dim,
        )))
    elif fault == "out" and dicts:
        _pick(draw, dicts)["out"] = draw(st.sampled_from(({}, "1", None, 1)))
    elif fault == "top":
        key = draw(st.sampled_from(("kind", "dim", "basis", field, unit_field, "extra")))
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(st.sampled_from(_BAD_FIELDS))


@st.composite
def faulty_documents(draw):
    """The text of a document of either kind with up to two faults."""
    doc = json.loads(draw(raw_documents())[0])
    for _ in range(draw(st.integers(0, 2))):
        _inject(draw, doc)
    return json.dumps(doc)


def _outcome(read, *args):
    """What a reader gives: the error text, or the structure, its pickle
    and its cleared table as a list of items."""
    try:
        X, cleared = read(*args)
    except FormatError as exc:
        return str(exc)
    return X, pickle.dumps(X), list(cleared.items())


def _read_document(text):
    """The structure that ``text`` holds, built from its scan, and the cleared table."""
    parts, cleared, _ = formats._scan(text)
    return formats._build(*parts), cleared


def assert_readers_agree(text):
    assert _outcome(_read_document, text) == _outcome(reference.read_document, text)
    for parse, kind in ((parse_algebra, "algebra"), (parse_cogebra, "cogebra")):
        try:
            got = pickle.dumps(parse(text))
        except FormatError as exc:
            got = str(exc)
        try:
            expected = pickle.dumps(reference.read(reference.load_object(text), kind)[0])
        except FormatError as exc:
            expected = str(exc)
        assert got == expected, kind


def test_readers_agree_on_the_catalog():
    for name in catalog.NAMES:
        assert_readers_agree(catalog.data_text(name))


def test_readers_agree_on_every_bad_top_level_field():
    # Each top-level field of a document of either kind dropped, or set to
    # each bad value; drawn faults reach a given one seldom.
    for name in ("vinberg2", "dual_vinberg2"):
        doc = json.loads(catalog.data_text(name))
        for key in (*doc, "extra"):
            assert_readers_agree(json.dumps({k: v for k, v in doc.items() if k != key}))
            for value in _BAD_FIELDS:
                assert_readers_agree(json.dumps({**doc, key: value}))


@given(faulty_documents())
@settings(max_examples=400)
def test_readers_agree(text):
    assert_readers_agree(text)
