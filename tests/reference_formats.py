"""Reference document reader, kept as the oracle for the differential
tests.

This is the one-pass reader that builds the ``Fraction``-valued table as
it checks each entry, one ``Fraction`` per distinct coefficient text
parsed straight from the text, and then clears that table of
denominators.  ``nalg.formats``, which checks a
document into reduced int pairs and makes ``Fraction``s only when a
structure is asked for, must give the same error text, the same structure
and the same cleared table on every input.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from operator import itemgetter

from nalg.formats import (
    _KINDS,
    FormatError,
    _check_keys,
    _load_object,
    _read_basis,
    _read_dim,
    _read_index,
)

_RATIONAL_FORM = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?\Z")


def parse_rational(text: str) -> Fraction:
    """The strict text form, parsed straight into a Fraction."""
    m = _RATIONAL_FORM.match(text)
    if m is None:
        raise ValueError(f"malformed rational: {text!r}")
    if m.group(2) is None:
        return Fraction(int(m.group(1)))
    den = int(m.group(2))
    if den == 0:
        raise ValueError(f"malformed rational: {text!r} (denominator must be positive)")
    return Fraction(int(m.group(1)), den)


def _place(noun: str, head: tuple | None) -> str:
    return noun if head is None else f"{noun} {_label(head)}"


def _label(head: tuple) -> str:
    """An entry's indices as errors show them: ``2`` or ``(1, 2)``."""
    return str(head[0] if len(head) == 1 else head)


def read_document(text: str) -> tuple:
    """The structure of either kind that ``text`` holds, and its cleared table."""
    doc = _load_object(text)
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
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
     article, entry_keys, term_keys, constant) = _KINDS[kind]
    if doc.get("kind") != kind:
        raise FormatError(f"expected {article} document ('kind': '{kind}')")
    _check_keys(doc, {"kind", "dim", "basis", field, unit_field})
    dim = _read_dim(doc)
    basis = _read_basis(doc, dim)
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
                _read_index(entry, entry_fields, dim)
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
                    _read_index(term, term_fields, dim)
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
