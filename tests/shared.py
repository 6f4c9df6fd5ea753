"""Inputs and runners that several test modules share.

A test module imports ``nalg``, the ``reference_*`` oracles, the fixtures
of ``conftest.py`` and this module, never another test module, so a
module that fails to import loses only its own tests.  This module reads
a private ``nalg`` name inside the function that draws with it, and
imports none, so renaming one breaks only the tests that use it.
"""

import contextlib
import io
import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

import nalg
from nalg import cli
from nalg.algebras import Algebra, commutator_algebra
from nalg.cogebras import Cogebra, lie_cogebra_from
from nalg.duality import dualize_algebra
from nalg.formats import format_ga_expr
from nalg.linalg import format_rational, parse_rational, span

# The path entry that holds the ``nalg`` under test: ``src`` in a checkout,
# site-packages once installed.
SRC = Path(nalg.__file__).resolve().parent.parent
DATA = SRC / "nalg" / "data"


def run_cli(*argv):
    """The exit code, stdout and stderr of ``nalg.cli.main(argv)``, run in
    this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_fresh(code, path, *args, returncode=0):
    """The finished process of ``code`` run by a fresh ``python -S`` with
    ``path`` first on ``sys.path`` and ``args`` from ``sys.argv[2]`` on,
    its output captured as text, after asserting that it exited with
    ``returncode``.  It writes no bytecode and keeps the caller's
    environment."""
    script = "import sys; sys.path.insert(0, sys.argv[1])\n" + code
    argv = [sys.executable, "-S", "-B", "-c", script, str(path), *map(str, args)]
    done = subprocess.run(argv, capture_output=True, text=True)
    assert done.returncode == returncode, done.stderr
    return done


# --- sparse and dense algebras ----------------------------------------------
# The slots of a 2-dimensional table, in the order of the values that name
# each table over {-1, 0, 1} (conftest.py builds all of them).
SLOTS2 = tuple(itertools.product((1, 2), repeat=3))


@st.composite
def algebras(draw):
    n = draw(st.integers(1, 6))
    upward = draw(st.booleans())
    slots = [
        (i, j, k)
        for i, j, k in itertools.product(range(1, n + 1), repeat=3)
        if not upward or k >= max(i, j)
    ]
    keys = draw(st.lists(st.sampled_from(slots), unique=True, max_size=8))
    # A denominator shared by the table keeps the coincidences between
    # coefficients that the identities need; one drawn per entry mixes
    # denominators within the table.
    shared = draw(st.sampled_from((1, 2, 3, 5, 30)))
    table = {}
    for key in keys:
        numerator = draw(st.sampled_from((1, -1, 2, -2)))
        table[key] = Fraction(numerator, shared * draw(st.sampled_from((1, 1, 1, 2, 3, 5))))
    A = Algebra(n, table)
    return commutator_algebra(A) if draw(st.booleans()) else A


# The coefficients of the benchmark's dense tables.
DENSE_TEXTS = ("-2", "-1", "-1/2", "1/2", "1", "2")
DENSE_VALUES = tuple(Fraction(c) for c in DENSE_TEXTS)


@st.composite
def dense_algebras(draw):
    """Tables of dimension 3 to 6 with about half of all slots set, to the
    values of the benchmark's dense tables: generic enough that the orbit
    probe usually decides them alone, which ``algebras()`` with its eight
    keys rarely is."""
    n = draw(st.integers(3, 6))
    slots = list(itertools.product(range(1, n + 1), repeat=3))
    values = draw(st.lists(st.sampled_from((None,) * 6 + DENSE_VALUES), min_size=len(slots), max_size=len(slots)))
    return Algebra(n, {slot: c for slot, c in zip(slots, values) if c is not None})


def dense_table_text(dim: int, sign: int = 0) -> str:
    """A seeded random table with about half of all slots set.  With
    ``sign`` 1 or -1 it has e_j e_i = sign * e_i e_j: the products with
    i <= j are drawn (i < j for -1) and mirrored."""
    rng = random.Random(dim)
    products = {}
    for i in range(1, dim + 1):
        for j in range(i + (sign < 0) if sign else 1, dim + 1):
            for k in range(1, dim + 1):
                if rng.random() < 0.5:
                    c = rng.choice(DENSE_TEXTS)
                    products.setdefault((i, j), []).append({"k": k, "c": c})
                    if sign and i != j:
                        c = c if sign > 0 else c[1:] if c[0] == "-" else f"-{c}"
                        products.setdefault((j, i), []).append({"k": k, "c": c})
    doc = {
        "kind": "algebra",
        "dim": dim,
        "basis": [f"e{i}" for i in range(1, dim + 1)],
        "products": [{"left": i, "right": j, "out": out} for (i, j), out in products.items()],
        "unit": None,
    }
    return json.dumps(doc)


# --- cogebras ---------------------------------------------------------------
@st.composite
def sparse_tables(draw, n):
    downward = draw(st.booleans())
    slots = [
        (k, i, j)
        for k, i, j in itertools.product(range(1, n + 1), repeat=3)
        if not downward or k >= max(i, j)
    ]
    keys = draw(st.lists(st.sampled_from(slots), unique=True, max_size=8))
    shared = draw(st.sampled_from((1, 2, 3, 5, 30)))
    return {
        key: Fraction(
            draw(st.sampled_from((1, -1, 2, -2))),
            shared * draw(st.sampled_from((1, 1, 1, 2, 3, 5))),
        )
        for key in keys
    }


@st.composite
def unital_duals(draw):
    """The dual of a sparse algebra with a unit adjoined: e_1 times anything
    is c times it, so the unit, and the dual's counit, is e_1 / c."""
    n = draw(st.integers(1, 3))
    c = draw(st.sampled_from((1, 2, Fraction(-1, 3), Fraction(5, 2))))
    shifted = {(k + 1, i + 1, j + 1): v for (k, i, j), v in draw(sparse_tables(n)).items()}
    products = {(i, j, k): v for (k, i, j), v in shifted.items()}
    for j in range(1, n + 2):
        products[(1, j, j)] = c
        products[(j, 1, j)] = c
    unit = (1 / Fraction(c),) + (0,) * n
    return dualize_algebra(Algebra(n + 1, products, unit=unit))


@st.composite
def cogebras(draw):
    kind = draw(st.sampled_from(("table", "lie", "unital")))
    if kind == "unital":
        return draw(unital_duals())
    n = draw(st.integers(1, 4))
    C = Cogebra(n, draw(sparse_tables(n)))
    return lie_cogebra_from(C) if kind == "lie" else C


# --- changes of basis -------------------------------------------------------
def inverse(M):
    """The inverse of the square matrix ``M``, or None: the reduced form of
    [M | I] is [I | M^-1] exactly when M is invertible."""
    n = len(M)
    rows = span([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(M)]).basis
    return [row[n:] for row in rows] if all(row[i] for i, row in enumerate(rows)) else None


def rebased(A: Algebra, M, Minv) -> Algebra:
    """A on the basis f_a = sum_i M[i][a] e_i, with its unit rewritten."""
    n = range(A.dim)
    products: dict = {}
    for (i, j, k), c in A.products.items():
        for a in n:
            for b in n:
                ab = c * M[i - 1][a] * M[j - 1][b]
                if ab:
                    for out in n:
                        key = (a + 1, b + 1, out + 1)
                        products[key] = products.get(key, 0) + ab * Minv[out][k - 1]
    unit = None
    if A.unit is not None:
        unit = [sum(Minv[a][i] * A.unit[i] for i in n) for a in n]
    return Algebra(A.dim, products, unit=unit)


# --- documents --------------------------------------------------------------
# Coefficient texts that repeat within a document: zero in two spellings,
# and forms that are not canonical.
_TEXTS = ("0", "0/3", "1", "-1", "2/4", "-3/2", "5")


@st.composite
def raw_documents(draw):
    """The text of an algebra or cogebra document that repeats its
    coefficient texts and has zero terms, with a unit or counit ``c e1``
    (its other coordinates zero in either spelling) half the time, and the
    structure the checking constructor builds from the same numbers."""
    n = draw(st.integers(1, 4))
    unital = draw(st.booleans())
    low = 2 if unital else 1
    keys = st.tuples(st.integers(low, n), st.integers(low, n), st.integers(1, n))
    texts = draw(st.dictionaries(keys, st.sampled_from(_TEXTS), max_size=10)) if n >= low else {}
    unit = None
    if unital:
        c = draw(st.sampled_from(("1", "2", "-1/3")))
        unit = [c] + [draw(st.sampled_from(("0", "0/3"))) for _ in range(n - 1)]
        inverse = format_rational(1 / parse_rational(c))
        texts.update({key: inverse for j in range(1, n + 1) for key in ((1, j, j), (j, 1, j))})
    basis = [f"b{i}" for i in range(1, n + 1)]
    if draw(st.booleans()):
        kind, cls, field, unit_field, n_head = "algebra", Algebra, "products", "unit", 2
        entry_fields, term_fields = ("left", "right"), ("k",)
    else:
        kind, cls, field, unit_field, n_head = "cogebra", Cogebra, "coproducts", "counit", 1
        entry_fields, term_fields = ("in",), ("i", "j")
        texts = {(k, i, j): t for (i, j, k), t in texts.items()}
    by_head = {}
    for key, t in texts.items():
        by_head.setdefault(key[:n_head], []).append({**dict(zip(term_fields, key[n_head:])), "c": t})
    doc = {
        "kind": kind,
        "dim": n,
        "basis": basis,
        field: [{**dict(zip(entry_fields, head)), "out": terms} for head, terms in by_head.items()],
        unit_field: unit,
    }
    values = {key: parse_rational(t) for key, t in texts.items()}
    return json.dumps(doc), cls(n, values, unit and tuple(map(parse_rational, unit)), tuple(basis))


def report_doc(kind, dim, report):
    """The ``check --json`` report of ``report`` as a dict, keys in printed order."""
    names, fields = report.__slots__, report._fields()
    doc = {
        "kind": kind,
        "dim": dim,
        names[5]: fields[5],
        names[0]: {str(i): fields[0][i] for i in range(1, 7)},
        names[1]: {str(i): fields[1][i] for i in range(2, 7)},
    }
    doc.update(zip(names[2:5], fields[2:5]))
    doc[names[6]] = fields[6]
    doc[names[7]] = [format_ga_expr(e) for e in fields[7]]
    return doc


# --- argv of the command grammar --------------------------------------------
def leaves(table, path=()):
    """The command path and the leaf spec of every leaf command of the
    grammar ``table`` (``cli._GRAMMAR``)."""
    for name, (_, spec) in table.items():
        if isinstance(spec, dict):
            yield from leaves(spec, path + (name,))
        else:
            yield path + (name,), spec


PLAIN_WORDS = ("a.json", "b", "id + c1", "x=y", " -o", "check", "orbit")
PLAIN = st.sampled_from(PLAIN_WORDS)
WORDS = st.one_of(PLAIN, st.sampled_from(["", "-", "-1", "--", "-x", "--json", "-o"]))
NOISE = st.sampled_from(
    ["", "-", "--", "-h", "--help", "-x", "-1", "--js", "--out", "--lit", "-o", "--output",
     "--json", "--json=1", "-oX", "-o=X", "--output=", "--output=-x", "--=", "extra", "s3",
     "--literal-bang"]
)


@st.composite
def argvs(draw, noise):
    """An argv for a leaf command: its words and options in exact
    spellings, in any order.  With ``noise``, also ``--output=X``, at times
    "--" before the last positionals, odd words, option prefixes and odd
    ``=`` forms, and words inserted or deleted anywhere."""
    path, (_, positionals, options) = draw(st.sampled_from(list(leaves(cli._GRAMMAR))))
    words = WORDS if noise else PLAIN
    groups = []
    for name in options.split():
        spellings, keywords = cli._OPTIONS[name]
        spelling, long = draw(st.sampled_from(spellings)), spellings[-1]
        prefix = long[: draw(st.integers(3, len(long) - 1))]
        if "action" in keywords:
            clean, odd = [[], [spelling]], [[prefix], [f"{spelling}=1"]]
        else:
            value = draw(words)
            clean = [[spelling, value]]
            odd = [[], [f"{long}={value}"], [prefix, value], [f"{prefix}={value}"]]
            odd += [[f"-o{value}"], [f"-o={value}"]]
        forms = st.sampled_from(clean)
        groups.append(draw(st.one_of(forms, st.sampled_from(odd)) if noise else forms))
    values = [[draw(words)] for _ in positionals.split()]
    cut = draw(st.integers(0, len(values))) if noise else len(values)
    tail = [word for group in values[cut:] for word in group]
    groups = draw(st.permutations(groups + values[:cut]))
    argv = [*path, *(word for group in groups for word in group)] + (["--", *tail] if tail else [])
    for _ in range(draw(st.integers(0, 2)) if noise else 0):
        at = draw(st.integers(0, len(argv)))
        if draw(st.booleans()):
            argv.insert(at, draw(NOISE))
        elif at < len(argv):
            del argv[at]
    return argv
