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
is the identity on canonical files.

Group-algebra expressions are sums of terms ``id, t12, t13, t23, c1, c2``,
each optionally prefixed by a rational and ``*``, joined by ``+``/``-``;
whitespace is ignored.  Example: ``id - t12 - t13 - t23 + c1 + c2``.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .algebras import Algebra
from .cogebras import Cogebra
from .linalg import format_rational, parse_rational
from .sym3 import PERM_NAMES, GroupAlgElem


class FormatError(ValueError):
    """Raised for malformed documents or expressions."""


# --- JSON documents ---------------------------------------------------------

_ALGEBRA_KEYS = {"kind", "dim", "basis", "products", "unit"}
_COGEBRA_KEYS = {"kind", "dim", "basis", "coproducts", "counit"}


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


def _read_index(value, dim: int, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{what} must be an integer")
    if not 1 <= value <= dim:
        raise FormatError(f"index out of range: {what} = {value}")
    return value


def _read_coefficient(value, where: str) -> Fraction:
    if not isinstance(value, str):
        raise FormatError(f"coefficient in {where} must be a rational string")
    try:
        return parse_rational(value)
    except ValueError as exc:
        raise FormatError(f"{exc} (in {where})") from None


def _read_optional_vector(doc: dict, key: str, dim: int) -> tuple[Fraction, ...] | None:
    value = doc[key]
    if value is None:
        return None
    if not isinstance(value, list) or len(value) != dim:
        raise FormatError(f"'{key}' must be null or a list of {dim} rationals")
    return tuple(_read_coefficient(c, f"'{key}'") for c in value)


def parse_algebra(text: str) -> Algebra:
    return _read_algebra(_load_object(text))


def parse_cogebra(text: str) -> Cogebra:
    return _read_cogebra(_load_object(text))


def _read_algebra(doc: dict) -> Algebra:
    if doc.get("kind") != "algebra":
        raise FormatError("expected an algebra document ('kind': 'algebra')")
    _check_keys(doc, _ALGEBRA_KEYS)
    dim = _read_dim(doc)
    basis = _read_basis(doc, dim)
    if not isinstance(doc["products"], list):
        raise FormatError("'products' must be a list")
    table: dict[tuple[int, int, int], Fraction] = {}
    seen_pairs: set[tuple[int, int]] = set()
    for entry in doc["products"]:
        if not isinstance(entry, dict) or set(entry) != {"left", "right", "out"}:
            raise FormatError("each product entry needs exactly 'left', 'right', 'out'")
        i = _read_index(entry["left"], dim, "'left'")
        j = _read_index(entry["right"], dim, "'right'")
        if (i, j) in seen_pairs:
            raise FormatError(f"duplicate product entry for ({i}, {j})")
        seen_pairs.add((i, j))
        if not isinstance(entry["out"], list):
            raise FormatError("'out' must be a list")
        for term in entry["out"]:
            if not isinstance(term, dict) or set(term) != {"k", "c"}:
                raise FormatError("each output term needs exactly 'k' and 'c'")
            k = _read_index(term["k"], dim, "'k'")
            if (i, j, k) in table:
                raise FormatError(f"duplicate structure-constant entry ({i}, {j}, {k})")
            table[(i, j, k)] = _read_coefficient(term["c"], f"product ({i}, {j})")
    unit = _read_optional_vector(doc, "unit", dim)
    try:
        return Algebra(dim, table, unit=unit, basis=basis)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def _read_cogebra(doc: dict) -> Cogebra:
    if doc.get("kind") != "cogebra":
        raise FormatError("expected a cogebra document ('kind': 'cogebra')")
    _check_keys(doc, _COGEBRA_KEYS)
    dim = _read_dim(doc)
    basis = _read_basis(doc, dim)
    if not isinstance(doc["coproducts"], list):
        raise FormatError("'coproducts' must be a list")
    table: dict[tuple[int, int, int], Fraction] = {}
    seen_in: set[int] = set()
    for entry in doc["coproducts"]:
        if not isinstance(entry, dict) or set(entry) != {"in", "out"}:
            raise FormatError("each coproduct entry needs exactly 'in' and 'out'")
        k = _read_index(entry["in"], dim, "'in'")
        if k in seen_in:
            raise FormatError(f"duplicate coproduct entry for {k}")
        seen_in.add(k)
        if not isinstance(entry["out"], list):
            raise FormatError("'out' must be a list")
        for term in entry["out"]:
            if not isinstance(term, dict) or set(term) != {"i", "j", "c"}:
                raise FormatError("each output term needs exactly 'i', 'j' and 'c'")
            i = _read_index(term["i"], dim, "'i'")
            j = _read_index(term["j"], dim, "'j'")
            if (k, i, j) in table:
                raise FormatError(f"duplicate costructure-constant entry ({k}, {i}, {j})")
            table[(k, i, j)] = _read_coefficient(term["c"], f"coproduct {k}")
    counit = _read_optional_vector(doc, "counit", dim)
    try:
        return Cogebra(dim, table, counit=counit, basis=basis)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def parse_document(text: str):
    """Parse either kind of document, keyed on the 'kind' field."""
    doc = _load_object(text)
    kind = doc.get("kind")
    if kind == "algebra":
        return _read_algebra(doc)
    if kind == "cogebra":
        return _read_cogebra(doc)
    raise FormatError("'kind' must be 'algebra' or 'cogebra'")


def print_algebra(A: Algebra) -> str:
    by_pair: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    for (i, j, k), c in sorted(A.products.items()):
        by_pair.setdefault((i, j), []).append((k, c))
    products = [
        {
            "left": i,
            "right": j,
            "out": [{"k": k, "c": format_rational(c)} for k, c in terms],
        }
        for (i, j), terms in sorted(by_pair.items())
    ]
    doc = {
        "kind": "algebra",
        "dim": A.dim,
        "basis": list(A.basis_names()),
        "products": products,
        "unit": None if A.unit is None else [format_rational(c) for c in A.unit],
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def print_cogebra(C: Cogebra) -> str:
    by_in: dict[int, list[tuple[int, int, Fraction]]] = {}
    for (k, i, j), c in sorted(C.coproducts.items()):
        by_in.setdefault(k, []).append((i, j, c))
    coproducts = [
        {
            "in": k,
            "out": [{"i": i, "j": j, "c": format_rational(c)} for i, j, c in terms],
        }
        for k, terms in sorted(by_in.items())
    ]
    doc = {
        "kind": "cogebra",
        "dim": C.dim,
        "basis": list(C.basis_names()),
        "coproducts": coproducts,
        "counit": None if C.counit is None else [format_rational(c) for c in C.counit],
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def print_document(obj) -> str:
    if isinstance(obj, Algebra):
        return print_algebra(obj)
    if isinstance(obj, Cogebra):
        return print_cogebra(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# --- group-algebra expressions ----------------------------------------------

_TERM_RE = re.compile(r"(?:([+-]?[0-9]+(?:/[0-9]+)?)\*)?(id|t12|t13|t23|c1|c2)")
_TERM_INDEX = {name: i for i, name in enumerate(PERM_NAMES)}


def parse_ga_expr(text: str) -> GroupAlgElem:
    """Parse an expression like ``id - t12 + 3/2*c1`` into coordinates."""
    s = "".join(text.split())
    if not s:
        raise FormatError("empty expression")
    coords = [Fraction(0)] * 6
    pos = 0
    first = True
    while pos < len(s):
        negate = False
        if s[pos] in "+-":
            negate = s[pos] == "-"
            pos += 1
        elif not first:
            raise FormatError(f"expected '+' or '-' at position {pos} in {text!r}")
        m = _TERM_RE.match(s, pos)
        if m is None or m.start() != pos:
            raise FormatError(f"malformed term at position {pos} in {text!r}")
        if m.group(1) is None:
            coef = Fraction(1)
        else:
            try:
                coef = parse_rational(m.group(1))
            except ValueError as exc:
                raise FormatError(f"{exc} (at position {pos} in {text!r})") from None
        if negate:
            coef = -coef
        coords[_TERM_INDEX[m.group(2)]] += coef
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
