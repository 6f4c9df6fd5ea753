"""Reference document reader, kept as the oracle for the differential
tests.

This is the one-pass reader that builds the ``Fraction``-valued table as
it checks each entry, one ``Fraction`` per distinct coefficient text
parsed straight from the text, and then clears that table of
denominators.  ``nalg.formats``, which checks a
document into reduced int pairs and makes ``Fraction``s only when a
structure is asked for, must give the same error text, the same structure
and the same cleared table on every input, short of an int literal past
Python's digit limit, which the differential tests do not draw.  It
shares no code with ``nalg.formats`` but the ``FormatError`` class: the
kinds table, the key, dim, basis and index checks, the JSON errors and
every error text are spelled out here.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from math import lcm
from operator import itemgetter

from nalg.algebras import Algebra, Cogebra
from nalg.formats import FormatError

_RATIONAL_FORM = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?\Z")

# Per kind: the class, its table field, the index fields of an entry and of
# an output term, its (co)unit field, and the texts of its errors: the
# document, an entry's fields, a term's fields and a repeated key.
KINDS = {
    "algebra": (
        Algebra, "products", ("left", "right"), ("k",), "unit",
        "an algebra", "'left', 'right', 'out'", "'k' and 'c'", "structure-constant",
    ),
    "cogebra": (
        Cogebra, "coproducts", ("in",), ("i", "j"), "counit",
        "a cogebra", "'in' and 'out'", "'i', 'j' and 'c'", "costructure-constant",
    ),
}


def load_object(text: str) -> dict:
    """The JSON object ``text`` holds."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise FormatError("document is nested too deeply") from None
    if type(doc) is not dict:
        raise FormatError("document must be a JSON object")
    return doc


def quoted(text: str, at: int = 0, show=repr) -> str:
    """How an error message quotes the input ``text`` at its place ``at``:
    ``show`` of all of it up to 80 characters; of a longer one, ``show`` of
    the 80 from 20 before ``at``, moved back to end where ``text`` ends,
    after "..." if it starts later than ``text`` and before "..." if it
    ends sooner."""
    if len(text) <= 80:
        return show(text)
    start = len(text) - 80 if at + 60 > len(text) else max(at - 20, 0)
    return ("..." if start else "") + show(text[start:start + 80]) + ("..." if start + 80 < len(text) else "")


def check_keys(doc: dict, expected: set[str]) -> None:
    if doc.keys() - expected:
        raise FormatError("unknown field(s): " + quoted(", ".join(sorted(doc.keys() - expected)), show=str))
    if expected - doc.keys():
        raise FormatError("missing field(s): " + ", ".join(sorted(expected - doc.keys())))


def read_dim(doc: dict) -> int:
    dim = doc["dim"]
    if type(dim) is not int or dim <= 0:
        raise FormatError("'dim' must be a positive integer")
    return dim


def read_basis(doc: dict, dim: int) -> tuple[str, ...]:
    basis = doc["basis"]
    if type(basis) is not list or len(basis) != dim or any(type(n) is not str for n in basis):
        raise FormatError("'basis' must list one name per basis element")
    return tuple(basis)


def check_index(obj: dict, fields: tuple, dim: int) -> None:
    """The error of the first field of ``obj`` that is not an index in 1..dim."""
    for field in fields:
        value = obj[field]
        if type(value) is not int:
            raise FormatError(f"'{field}' must be an integer")
        if value < 1 or value > dim:
            raise FormatError(f"index out of range: '{field}' = {value}")


def _past_limit(digits: str) -> bool:
    """Whether ``digits`` are more than Python's limit on the digits of an int read from text, if it has one."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    return 0 < limit < len(digits)


def parse_rational(text: str) -> Fraction:
    """The strict text form, parsed straight into a Fraction."""
    m = _RATIONAL_FORM.match(text)
    if m is None:
        bad = re.search(r"[^0-9/+-]", text)
        raise ValueError(f"malformed rational: {quoted(text, bad.start() if bad else 0)}")
    numerator, denominator = m.groups()
    too_long = "a numerator or denominator has more than {} digits"
    if denominator is not None:
        if _past_limit(denominator):
            raise ValueError(too_long.format(sys.get_int_max_str_digits()))
        if int(denominator) == 0:
            raise ValueError(f"malformed rational: {quoted(text, m.start(2))} (denominator must be positive)")
    if _past_limit(numerator.lstrip("+-")):
        raise ValueError(too_long.format(sys.get_int_max_str_digits()))
    return Fraction(int(numerator), int(denominator or 1))


def _place(noun: str, head: tuple | None) -> str:
    return noun if head is None else f"{noun} {_label(head)}"


def _label(head: tuple) -> str:
    """An entry's indices as errors show them: ``2`` or ``(1, 2)``."""
    return str(head[0] if len(head) == 1 else head)


def read_document(text: str) -> tuple:
    """The structure of either kind that ``text`` holds, and its cleared table."""
    doc = load_object(text)
    kind = doc.get("kind")
    if type(kind) is not str or kind not in KINDS:
        raise FormatError("'kind' must be 'algebra' or 'cogebra'")
    return read(doc, kind)


def _coefficient(value, texts: dict, noun: str, head: tuple | None = None) -> Fraction:
    if isinstance(value, str):
        c = texts.get(value)
        if c is not None:
            return c
        try:
            c = texts[value] = parse_rational(value)
        except ValueError as exc:
            raise FormatError(f"{exc} (in {_place(noun, head)})") from None
        return c
    raise FormatError(f"coefficient in {_place(noun, head)} must be a rational string")


def read(doc: dict, kind: str) -> tuple:
    """The algebra or cogebra of ``kind`` that the decoded ``doc`` holds, and
    its table cleared of denominators."""
    (cls, field, entry_fields, term_fields, unit_field,
     article, entry_keys, term_keys, constant) = KINDS[kind]
    if doc.get("kind") != kind:
        raise FormatError(f"expected {article} document ('kind': '{kind}')")
    check_keys(doc, {"kind", "dim", "basis", field, unit_field})
    dim = read_dim(doc)
    basis = read_basis(doc, dim)
    entries = doc[field]
    if not isinstance(entries, list):
        raise FormatError(f"'{field}' must be a list")
    noun = field[:-1]
    entry_set, entry_get = {*entry_fields, "out"}, itemgetter(*entry_fields, "out")
    term_set, term_get = {*term_fields, "c"}, itemgetter(*term_fields, "c")
    table: dict[tuple[int, int, int], Fraction] = {}
    texts: dict[str, Fraction] = {}
    heads: set[tuple[int, ...]] = set()
    for entry in entries:
        if not isinstance(entry, dict) or entry.keys() != entry_set:
            raise FormatError(f"each {noun} entry needs exactly {entry_keys}")
        got = entry_get(entry)
        head, terms = got[:-1], got[-1]
        for t in head:
            if type(t) is not int or not 0 < t <= dim:
                check_index(entry, entry_fields, dim)
        if head in heads:
            raise FormatError(f"duplicate {noun} entry for {_label(head)}")
        heads.add(head)
        if not isinstance(terms, list):
            raise FormatError("'out' must be a list")
        for term in terms:
            if not isinstance(term, dict) or term.keys() != term_set:
                raise FormatError(f"each output term needs exactly {term_keys}")
            got = term_get(term)
            for t in got[:-1]:
                if type(t) is not int or not 0 < t <= dim:
                    check_index(term, term_fields, dim)
            key = head + got[:-1]
            if key in table:
                raise FormatError(f"duplicate {constant} entry {key}")
            table[key] = _coefficient(got[-1], texts, noun, head)
    if not all(texts.values()):
        table = {key: c for key, c in table.items() if c}
    d = lcm(*[c.denominator for c in texts.values()])
    ints = {id(c): c.numerator * (d // c.denominator) for c in texts.values()}
    cleared = dict(zip(table, map(ints.__getitem__, map(id, table.values()))))
    value = doc[unit_field]
    unit = None
    if value is not None:
        if not isinstance(value, list) or len(value) != dim:
            raise FormatError(f"'{unit_field}' must be null or a list of {dim} rationals")
        unit = tuple([_coefficient(c, texts, f"'{unit_field}'") for c in value])
    try:
        return cls(dim, table, unit, basis), cleared
    except ValueError as exc:
        raise FormatError(str(exc)) from None
