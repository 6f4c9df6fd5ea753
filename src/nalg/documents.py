"""The part of :mod:`nalg.formats` that no check runs: structures built
from documents through their constructors (``parse_algebra``,
``parse_cogebra``, ``parse_document`` and their common ``_build``), the
canonical text of a structure (``print_document``), and group-algebra
expressions parsed (``parse_ga_expr``).  The file format and the
expression grammar are described in :mod:`nalg.formats`, whose reader,
``_scan``, checks every document read here.

This module is lazy (see ``nalg/__init__.py``): it runs when one of its
names is first read, and each of them is also read as ``nalg.formats``'s,
where it was defined before.  It reads ``nalg.structures`` and
``nalg.subspaces`` at call time, so that parsing an expression runs
``structures`` never and ``subspaces`` only for a coefficient.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from . import errors, structures, subspaces
from .formats import _KINDS, FormatError, _scan
from .linalg import format_rational
from .sym3 import PERM_NAMES, GroupAlgElem


def parse_algebra(text: str) -> structures.Algebra:
    return _build(*_scan(text, "algebra")[0])


def parse_cogebra(text: str) -> structures.Cogebra:
    return _build(*_scan(text, "cogebra")[0])


def parse_document(text: str):
    """Parse either kind of document, keyed on the 'kind' field."""
    return _build(*_scan(text)[0])


def _classes() -> dict:
    """The class of each kind, read at call time, so that parsing an
    expression runs no :mod:`nalg.structures`."""
    return {"algebra": structures.Algebra, "cogebra": structures.Cogebra}


def _build(kind: str, dim: int, basis: tuple, table: dict, texts: dict, unit: list | None):
    """The structure of a document that ``_scan`` checked and returned as
    these parts, through the constructor of ``kind``: one Fraction per
    distinct coefficient text, shared by the table and the (co)unit."""
    values = {c: Fraction(p, q) for c, (p, q) in texts.items()}
    table = dict(zip(table, map(values.__getitem__, table.values())))
    if unit is not None:
        unit = tuple(map(values.__getitem__, unit))
    try:
        return _classes()[kind](dim, table, unit, basis)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def print_document(obj) -> str:
    """The canonical text of an algebra or a cogebra: ``json.dumps(doc, indent=2, ensure_ascii=False) + "\n"``
    of its document, written out for its fixed shape.  Of its strings only
    basis names can need escapes, which ``encode_basestring`` makes."""
    for kind, cls in _classes().items():
        if isinstance(obj, cls):
            break
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    field, entry_fields, term_fields, unit_field, *_, constant = _KINDS[kind]
    n = len(entry_fields)
    # Format strings: an entry up to its terms, from its indices; a term, from its indices and coefficient.
    head = "    {{\n" + "".join(f'      "{f}": {{}},\n' for f in entry_fields) + '      "out": [\n'
    term = "        {{\n" + "".join(f'          "{f}": {{}},\n' for f in term_fields)
    term += '          "c": "{}"\n        }}'
    by_head: dict[tuple[int, ...], list[str]] = {}
    try:
        for key, c in sorted(getattr(obj, field).items()):
            by_head.setdefault(key[:n], []).append(term.format(*key[n:], format_rational(c)))
    except ValueError as exc:
        raise ValueError(f"{exc} (in {constant} entry {key})") from None
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
            raise FormatError(f"expected '+' or '-' at position {where[pos]} in {errors._quoted(text, where[pos])}")
        m = term.match(s, pos)
        if m is None:
            raise FormatError(f"malformed term at position {where[pos]} in {errors._quoted(text, where[pos])}")
        coef_text, name = m.groups()
        if coef_text is None:
            coef = Fraction(1)
        else:
            try:
                coef = subspaces.parse_rational(coef_text)
            except ValueError as exc:
                raise FormatError(f"{exc} (at position {where[pos]} in {errors._quoted(text, where[pos])})") from None
        if negate:
            coef = -coef
        coords[PERM_NAMES.index(name)] += coef
        pos = m.end()
        first = False
    return GroupAlgElem(tuple(coords))
