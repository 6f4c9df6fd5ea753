"""File formats and the expression grammar for group-algebra elements.

Documents are single JSON objects.  An algebra file is

    {"kind": "algebra", "dim": n, "basis": [names...],
     "products": [{"left": i, "right": j,
                   "out": [{"k": k, "c": "p/q"}, ...]}, ...],
     "unit": ["p/q", ...] | null}

and a cogebra file replaces ``products``/``unit`` with

    "coproducts": [{"in": k, "out": [{"i": i, "j": j, "c": "p/q"}, ...]}, ...],
    "counit": [...] | null

All indices are 1-based; omitted products are zero; rationals use the
strict "p/q" text form.  Unknown fields are rejected and printing is
canonical (entries sorted, rationals in lowest terms), so parse-then-print
is the identity on canonical files.  In both kinds a structure-constant
key is an entry's indices followed by an output term's, (left, right, k)
and (in, i, j), so one printer serves both, and the reader's loop for
each kind unpacks its own fields into the same keys.  The reader works
in two steps.  ``_scan`` loads a document's text, checks each index, key
and coefficient once, in document order, and parses each distinct
coefficient text once, into a reduced int pair; from those few pairs it
clears the table of denominators, as ``algebras._integer_table`` does,
zero terms dropped, and a declared (co)unit of its own, with the scale
that the (co)unit axiom must meet on the cleared table.  ``_build`` makes
one ``Fraction`` per distinct text, shared by every entry and (co)unit
coordinate that holds it, and builds the structure through its
constructor and all its checks, as every structure but a catalog search
candidate is built.  A parsed table may so pickle to other bytes
than an equal one built entry by entry (see ``catalog._VALUES``).
``nalg check`` and ``nalg annihilator`` build nothing: they check the
cleared (co)unit on the cleared table as the constructor checks its own.

Group-algebra expressions are sums of terms ``id, t12, t13, t23, c1, c2``,
each optionally prefixed by a rational and ``*``, joined by ``+``/``-``,
or ``0`` alone, as the zero element prints; whitespace is ignored.
Example: ``id - t12 - t13 - t23 + c1 + c2``.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import lcm
from operator import itemgetter

from .algebras import Algebra, Cogebra
from .linalg import _rational_pair, format_rational, parse_rational
from .sym3 import PERM_NAMES, GroupAlgElem


class FormatError(ValueError):
    """Raised for malformed documents or expressions."""


# --- JSON documents ---------------------------------------------------------

# One row per kind: the class, its table field, the index fields of an
# entry and of an output term, its (co)unit field, and the texts its errors
# use for the document, an entry's fields, a term's fields and a repeated
# key.
_KINDS = {
    "algebra": (
        Algebra, "products", ("left", "right"), ("k",), "unit",
        "an algebra", "'left', 'right', 'out'", "'k' and 'c'", "structure-constant",
    ),
    "cogebra": (
        Cogebra, "coproducts", ("in",), ("i", "j"), "counit",
        "a cogebra", "'in' and 'out'", "'i', 'j' and 'c'", "costructure-constant",
    ),
}


def _load_object(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise FormatError("document is nested too deeply") from None
    if not isinstance(doc, dict):
        raise FormatError("document must be a JSON object")
    return doc


def _check_keys(doc: dict, expected: set[str]) -> None:
    unknown = set(doc) - expected
    if unknown:
        raise FormatError(f"unknown field(s): {', '.join(sorted(unknown))}")
    missing = expected - set(doc)
    if missing:
        raise FormatError(f"missing field(s): {', '.join(sorted(missing))}")


def _read_dim(doc: dict) -> int:
    dim = doc["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise FormatError("'dim' must be a positive integer")
    return dim


def _read_basis(doc: dict, dim: int) -> tuple[str, ...]:
    basis = doc["basis"]
    if not isinstance(basis, list) or len(basis) != dim or not all(
        isinstance(n, str) for n in basis
    ):
        raise FormatError("'basis' must list one name per basis element")
    return tuple(basis)


def _read_index(obj: dict, fields: tuple, dim: int) -> None:
    for field in fields:
        if type(obj[field]) is not int:
            raise FormatError(f"'{field}' must be an integer")
        if not 1 <= obj[field] <= dim:
            raise FormatError(f"index out of range: '{field}' = {obj[field]}")


def _read_coefficient(value, texts: dict, noun: str, head: int | tuple | None = None) -> None:
    """Check the rational string ``value`` and store its reduced int pair
    in ``texts`` under it; errors place it in ``noun``, followed by the
    entry ``head`` when there is one.  The place is only formatted for an
    error.  ``texts`` maps each text already read in the document to its
    pair, so each distinct text is parsed once; a text that fails is not
    stored."""
    if not isinstance(value, str):
        raise FormatError(f"coefficient in {_place(noun, head)} must be a rational string")
    if value not in texts:
        try:
            texts[value] = _rational_pair(value)
        except ValueError as exc:
            raise FormatError(f"{exc} (in {_place(noun, head)})") from None


def _place(noun: str, head: int | tuple | None) -> str:
    return noun if head is None else f"{noun} {head}"


def parse_algebra(text: str) -> Algebra:
    return _build(*_scan(text, "algebra")[0])


def parse_cogebra(text: str) -> Cogebra:
    return _build(*_scan(text, "cogebra")[0])


def parse_document(text: str):
    """Parse either kind of document, keyed on the 'kind' field."""
    return _build(*_scan(text)[0])


def _scan(text: str, kind: str | None = None) -> tuple:
    """Check the document ``text``, of ``kind`` or, when that is None, of
    the kind its 'kind' field names, in one pass in document order, short of
    the (co)unit axiom.  Returns the arguments of ``_build``, whose table and
    (co)unit hold coefficient texts that ``texts`` maps to reduced int pairs;
    the table cleared by the LCM ``d`` of its denominators, as
    ``algebras._integer_table`` clears it; and None or, for a (co)unit, the
    arguments of ``_check_unit`` after the table: the (co)unit cleared by the
    LCM ``e`` of its own denominators, and ``d * e``."""
    doc = _load_object(text)
    if kind is None:
        kind = doc.get("kind")
        if not isinstance(kind, str) or kind not in _KINDS:
            raise FormatError("'kind' must be 'algebra' or 'cogebra'")
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
    # A JSON value of the length of a field list that yields every field
    # is a dict with exactly those keys; any other value raises, as does
    # unpacking the () of a wrong length.  Each kind unpacks its own fields.
    entry_get, term_get = itemgetter(*entry_fields, "out"), itemgetter(*term_fields, "c")
    table: dict[tuple[int, int, int], str] = {}
    texts: dict[str, tuple[int, int]] = {}
    heads: set[int | tuple[int, int]] = set()
    if cls is Algebra:
        for entry in entries:
            try:
                left, right, terms = entry_get(entry) if len(entry) == 3 else ()
            except (TypeError, KeyError, ValueError):
                raise FormatError(f"each {noun} entry needs exactly {entry_keys}") from None
            if not (type(left) is type(right) is int and 0 < left <= dim and 0 < right <= dim):
                _read_index(entry, entry_fields, dim)
            head = left, right
            if head in heads:
                raise FormatError(f"duplicate {noun} entry for {head}")
            heads.add(head)
            if not isinstance(terms, list):
                raise FormatError("'out' must be a list")
            for term in terms:
                try:
                    k, c = term_get(term) if len(term) == 2 else ()
                except (TypeError, KeyError, ValueError):
                    raise FormatError(f"each output term needs exactly {term_keys}") from None
                if not (type(k) is int and 0 < k <= dim):
                    _read_index(term, term_fields, dim)
                key = left, right, k
                if key in table:
                    raise FormatError(f"duplicate {constant} entry {key}")
                if type(c) is not str or c not in texts:
                    _read_coefficient(c, texts, noun, head)
                table[key] = c
    else:
        for entry in entries:
            try:
                h, terms = entry_get(entry) if len(entry) == 2 else ()
            except (TypeError, KeyError, ValueError):
                raise FormatError(f"each {noun} entry needs exactly {entry_keys}") from None
            if not (type(h) is int and 0 < h <= dim):
                _read_index(entry, entry_fields, dim)
            if h in heads:
                raise FormatError(f"duplicate {noun} entry for {h}")
            heads.add(h)
            if not isinstance(terms, list):
                raise FormatError("'out' must be a list")
            for term in terms:
                try:
                    i, j, c = term_get(term) if len(term) == 3 else ()
                except (TypeError, KeyError, ValueError):
                    raise FormatError(f"each output term needs exactly {term_keys}") from None
                if not (type(i) is type(j) is int and 0 < i <= dim and 0 < j <= dim):
                    _read_index(term, term_fields, dim)
                key = h, i, j
                if key in table:
                    raise FormatError(f"duplicate {constant} entry {key}")
                if type(c) is not str or c not in texts:
                    _read_coefficient(c, texts, noun, h)
                table[key] = c
    # Zero terms are dropped: every zero text reads (0, 1).  Then each
    # distinct text of the table, the (co)unit's not yet read, gets one int.
    if (0, 1) in texts.values():
        table = {key: c for key, c in table.items() if texts[c][0]}
    d = lcm(*[q for _, q in texts.values()])
    ints = {c: p * (d // q) for c, (p, q) in texts.items()}
    cleared = dict(zip(table, map(ints.__getitem__, table.values())))
    unit, cleared_unit = doc[unit_field], None
    if unit is not None:
        if not isinstance(unit, list) or len(unit) != dim:
            raise FormatError(f"'{unit_field}' must be null or a list of {dim} rationals")
        for c in unit:
            _read_coefficient(c, texts, f"'{unit_field}'")
        e = lcm(*[texts[c][1] for c in unit])
        cleared_unit = [p * (e // q) for p, q in map(texts.__getitem__, unit)], d * e
    return (cls, dim, basis, table, texts, unit), cleared, cleared_unit


def _build(cls, dim: int, basis: tuple, table: dict, texts: dict, unit: list | None):
    """The structure of a document that ``_scan`` checked and returned as
    these parts, through its constructor: one Fraction per distinct
    coefficient text, shared by the table and the (co)unit."""
    values = {c: Fraction(p, q) for c, (p, q) in texts.items()}
    table = dict(zip(table, map(values.__getitem__, table.values())))
    if unit is not None:
        unit = tuple(map(values.__getitem__, unit))
    try:
        return cls(dim, table, unit, basis)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def print_document(obj) -> str:
    """The canonical text of an algebra or a cogebra: ``json.dumps(doc, indent=2, ensure_ascii=False) + "\n"``
    of its document, written out for its fixed shape.  Of its strings only
    basis names can need escapes, which ``encode_basestring`` makes."""
    for kind, (cls, field, entry_fields, term_fields, unit_field, *_) in _KINDS.items():
        if isinstance(obj, cls):
            break
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    n = len(entry_fields)
    # Format strings: an entry up to its terms, from its indices; a term, from its indices and coefficient.
    head = "    {{\n" + "".join(f'      "{f}": {{}},\n' for f in entry_fields) + '      "out": [\n'
    term = "        {{\n" + "".join(f'          "{f}": {{}},\n' for f in term_fields)
    term += '          "c": "{}"\n        }}'
    by_head: dict[tuple[int, ...], list[str]] = {}
    for key, c in sorted(getattr(obj, field).items()):
        by_head.setdefault(key[:n], []).append(term.format(*key[n:], format_rational(c)))
    entries = ",\n".join(head.format(*h) + ",\n".join(terms) + "\n      ]\n    }" for h, terms in by_head.items())
    entries = f"[\n{entries}\n  ]" if entries else "[]"
    basis = ",\n".join(f"    {json.encoder.encode_basestring(name)}" for name in obj.basis_names())
    unit = getattr(obj, unit_field)
    unit = "null" if unit is None else "[\n" + ",\n".join(f'    "{format_rational(c)}"' for c in unit) + "\n  ]"
    return (
        f'{{\n  "kind": "{kind}",\n  "dim": {obj.dim},\n  "basis": [\n{basis}\n  ],\n'
        f'  "{field}": {entries},\n  "{unit_field}": {unit}\n}}\n'
    )


# --- group-algebra expressions ----------------------------------------------

def parse_ga_expr(text: str) -> GroupAlgElem:
    """Parse an expression like ``id - t12 + 3/2*c1`` into coordinates."""
    s = "".join(text.split())
    # Errors give positions in ``text`` as given: where[pos] is the place
    # there of s[pos], and the end of s is the end of text.
    where = [at for at, ch in enumerate(text) if not ch.isspace()] + [len(text)]
    if not s:
        raise FormatError("empty expression")
    if s == "0":
        return GroupAlgElem.zero()
    # A term is an optional coefficient (a sign, ASCII digits, optionally "/"
    # and ASCII digits) and "*", then a permutation name.  Compiled here,
    # through re's cache, so that importing this module compiles nothing.
    term = re.compile(rf"(?:([+-]?[0-9]+(?:/[0-9]+)?)\*)?({'|'.join(PERM_NAMES)})")
    coords = [Fraction(0)] * 6
    pos = 0
    first = True
    while pos < len(s):
        negate = False
        if s[pos] in "+-":
            negate = s[pos] == "-"
            pos += 1
        elif not first:
            raise FormatError(f"expected '+' or '-' at position {where[pos]} in {text!r}")
        m = term.match(s, pos)
        if m is None:
            raise FormatError(f"malformed term at position {where[pos]} in {text!r}")
        coef_text, name = m.groups()
        if coef_text is None:
            coef = Fraction(1)
        else:
            try:
                coef = parse_rational(coef_text)
            except ValueError as exc:
                raise FormatError(f"{exc} (at position {where[pos]} in {text!r})") from None
        if negate:
            coef = -coef
        coords[PERM_NAMES.index(name)] += coef
        pos = m.end()
        first = False
    return GroupAlgElem(tuple(coords))


def format_ga_expr(elem: GroupAlgElem) -> str:
    """Canonical expression: terms in basis order, unit coefficients elided."""
    parts: list[str] = []
    for coef, name in zip(elem.coords, PERM_NAMES):
        if not coef:
            continue
        magnitude = abs(coef)
        term = name if magnitude == 1 else f"{format_rational(magnitude)}*{name}"
        if not parts:
            parts.append(f"-{term}" if coef < 0 else term)
        else:
            parts.append(f"{'-' if coef < 0 else '+'} {term}")
    if not parts:
        return "0"
    return " ".join(parts)
