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
coefficient text once, into a reduced int pair; from those few pairs
``linalg._cleared``, the rule of ``structures._integer_table``, clears
the table of denominators, zero terms dropped, and a declared (co)unit of
its own, with the scale that the (co)unit axiom must meet on the cleared
table.  ``_build`` makes one ``Fraction`` per distinct text, shared by
every entry and (co)unit coordinate that holds it, and builds the
structure through its constructor and all its checks, as every structure
but a catalog search candidate is built.  A parsed table may so pickle to
other bytes than an equal one built entry by entry (see ``catalog._VALUES``).
``nalg check`` and ``nalg annihilator`` build nothing: ``_read_table``
checks the cleared (co)unit on the cleared table as the constructor
checks its own.  Every file ``nalg`` reads goes through ``_read`` and
every file it writes through ``_write``.

This module holds what those two commands run on valid input: the
reader, ``_read``, ``_write`` and ``format_ga_expr``.  The ``parse_*``
functions, ``_build``, ``print_document`` and ``parse_ga_expr`` live in
the lazy :mod:`nalg.documents`, and are read here through the module
``__getattr__`` (PEP 562); the reader's place and index errors are
:mod:`nalg.errors`'.

Group-algebra expressions are sums of terms ``id, t12, t13, t23, c1, c2``,
each optionally prefixed by a rational and ``*``, joined by ``+``/``-``,
or ``0`` alone, as the zero element prints; whitespace is ignored.
Example: ``id - t12 - t13 - t23 + c1 + c2``.
"""

from __future__ import annotations

import json
import os
import re
import sys
from operator import itemgetter

from . import _forward, documents, errors
from .algebras import _check_unit, _dual_products
from .linalg import _cleared, _rational_pair, format_rational
from .sym3 import PERM_NAMES, GroupAlgElem


class FormatError(ValueError):
    """Raised for malformed documents or expressions."""


# --- JSON documents ---------------------------------------------------------

# One row per kind: its table field, the index fields of an entry and of an
# output term, its (co)unit field, and the texts its errors use for the
# document, an entry's fields, a term's fields and a repeated key.
_KINDS = {
    "algebra": (
        "products", ("left", "right"), ("k",), "unit",
        "an algebra", "'left', 'right', 'out'", "'k' and 'c'", "structure-constant",
    ),
    "cogebra": (
        "coproducts", ("in",), ("i", "j"), "counit",
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
    except ValueError:
        # json raises no other ValueError than for an int literal past
        # Python's digit limit: the first one outside a string, a fraction
        # and an exponent.
        limit = sys.get_int_max_str_digits()
        number = re.compile(rf'"(?:[^"\\]|\\.)*"|(?<![0-9.eE+-])-?[1-9][0-9]{{{limit},}}(?![0-9]|\.[0-9]|[eE])')
        at = json.JSONDecodeError("", text, next(m for m in number.finditer(text) if m[0][0] != '"').start())
        raise FormatError(f"integer at line {at.lineno}, column {at.colno} has more than {limit} digits") from None
    if not isinstance(doc, dict):
        raise FormatError("document must be a JSON object")
    return doc


def _check_keys(doc: dict, expected: set[str]) -> None:
    unknown = set(doc) - expected
    if unknown:
        raise FormatError(f"unknown field(s): {errors._quoted(', '.join(sorted(unknown)), show=str)}")
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


def _read_coefficient(value, texts: dict, noun: str, head: int | tuple | None = None) -> None:
    """Check the rational string ``value`` and store its reduced int pair
    in ``texts`` under it; errors place it in ``noun``, followed by the
    entry ``head`` when there is one.  The place is only formatted for an
    error.  ``texts`` maps each text already read in the document to its
    pair, so each distinct text is parsed once; a text that fails is not
    stored."""
    if not isinstance(value, str):
        raise FormatError(f"coefficient in {errors._place(noun, head)} must be a rational string")
    if value not in texts:
        try:
            texts[value] = _rational_pair(value)
        except ValueError as exc:
            raise FormatError(f"{exc} (in {errors._place(noun, head)})") from None


# Bytes asked of each ``os.read``: a document of this size or less is read
# whole by the first call, and the next finds the end of the file.
_CHUNK = 1 << 16


def _read(path: str) -> str:
    """The UTF-8 text of the file at ``path``, with "\r\n" and a lone "\r"
    read as "\n", as text mode reads them.  Read with plain system calls,
    as it is read whole; an error of a read names ``path``, as an error of
    the open does."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, _CHUNK):
            chunks.append(chunk)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        os.close(fd)
    text = b"".join(chunks).decode()
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _read_table(path: str) -> tuple:
    """The kind and dimension of the file at ``path``, the reader's cleared
    table in product order, a cogebra's as its dual's, and whether it
    declares a (co)unit, checked on that table with the cleared (co)unit
    and scale the reader hands over: nothing is built."""
    (kind, dim, *_), cleared, unit = _scan(_read(path))
    P = _dual_products(cleared) if kind == "cogebra" else cleared
    if unit is not None:
        _check_unit(kind, P, *unit)
    return kind, dim, P, unit is not None


def _write(path: str, text: str) -> None:
    """Write ``text`` to the file at ``path`` in UTF-8.  The whole text is
    encoded before the file is opened, so a text that cannot be encoded (a
    basis name that is a lone surrogate) leaves the file as it was."""
    data = text.encode()
    with open(path, "wb") as f:
        f.write(data)


def _scan(text: str, kind: str | None = None) -> tuple:
    """Check the document ``text``, of ``kind`` or, when that is None, of
    the kind its 'kind' field names, in one pass in document order, short of
    the (co)unit axiom.  Returns the arguments of ``_build``, whose table and
    (co)unit hold coefficient texts that ``texts`` maps to reduced int pairs;
    the table cleared by ``linalg._cleared``, by the LCM ``d`` of its
    denominators; and None or, for a (co)unit, the arguments of
    ``_check_unit`` after the table: the (co)unit cleared by the LCM ``e`` of
    its own denominators, and ``d * e``."""
    doc = _load_object(text)
    if kind is None:
        kind = doc.get("kind")
        if not isinstance(kind, str) or kind not in _KINDS:
            raise FormatError("'kind' must be 'algebra' or 'cogebra'")
    (field, entry_fields, term_fields, unit_field,
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
    if kind == "algebra":
        for entry in entries:
            try:
                left, right, terms = entry_get(entry) if len(entry) == 3 else ()
            except (TypeError, KeyError, ValueError):
                raise FormatError(f"each {noun} entry needs exactly {entry_keys}") from None
            if not (type(left) is type(right) is int and 0 < left <= dim and 0 < right <= dim):
                errors._read_index(entry, entry_fields, dim)
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
                    errors._read_index(term, term_fields, dim)
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
                errors._read_index(entry, entry_fields, dim)
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
                    errors._read_index(term, term_fields, dim)
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
    values, d = _cleared(texts.values())
    ints = dict(zip(texts, values))
    cleared = dict(zip(table, map(ints.__getitem__, table.values())))
    unit, cleared_unit = doc[unit_field], None
    if unit is not None:
        if not isinstance(unit, list) or len(unit) != dim:
            raise FormatError(f"'{unit_field}' must be null or a list of {dim} rationals")
        for c in unit:
            _read_coefficient(c, texts, f"'{unit_field}'")
        u, e = _cleared([texts[c] for c in unit])
        cleared_unit = u, d * e
    return (kind, dim, basis, table, texts, unit), cleared, cleared_unit


# --- group-algebra expressions ----------------------------------------------

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


__getattr__ = _forward(__name__, documents)
