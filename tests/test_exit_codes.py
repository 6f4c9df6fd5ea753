"""The exit-code contract of every command, on hostile input.

``nalg`` exits 0 on success and 2 on an input error, and on 2 it writes
one ``error:`` line to stderr, never a traceback.  Here every leaf
command of the grammar runs in-process through ``cli.main`` on files made
by structural mutation of catalog documents: keys dropped or repeated,
values of the wrong type, indices out of range, huge ints, the wrong kind
and deep nesting; and the ``s3`` commands on bad expressions.  Every run
must keep the contract within ``TIME_BOUND_S``, in an ``error:`` line of
at most ``ERROR_BYTES``.  Ints past Python's digit limit, in a
coefficient, a field, an expression or a computed product, fail with
nalg's own message, which names the place and the limit.
"""

import copy
import errno
import json
import os
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from shared import PLAIN_WORDS, argvs, run_cli

from nalg import catalog

# Seconds one command may take.  The largest input here is a catalog
# document of dim 4; in 12,000 runs on a 2-core VM the slowest took 0.7 s.
TIME_BOUND_S = 10
# Bytes an error line may take, its newline included.  An error quotes at
# most 80 characters of an input, each non-printable one escaped, so a
# field name or an index of any length, or with line breaks, shows in a
# short line.
ERROR_BYTES = 200


class Pairs(list):
    """A JSON object written from its (key, value) pairs, so that a key can repeat."""


class Raw(str):
    """JSON text written as it is: an int past Python's digit limit for str()."""


def dump(obj) -> str:
    if isinstance(obj, Raw):
        return obj
    if isinstance(obj, dict):
        obj = Pairs(obj.items())
    if isinstance(obj, Pairs):
        return "{" + ", ".join(f"{json.dumps(key)}: {dump(value)}" for key, value in obj) + "}"
    if isinstance(obj, list):
        return "[" + ", ".join(map(dump, obj)) + "]"
    return json.dumps(obj)


def nodes(obj, path=()):
    """The path of every value in ``obj``, the root included, short of the
    pairs of an object with a repeated key."""
    yield path
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from nodes(value, path + (key,))
    elif isinstance(obj, list) and not isinstance(obj, Pairs):
        for at, value in enumerate(obj):
            yield from nodes(value, path + (at,))


def replace(obj, path, value):
    if not path:
        return value
    obj[path[0]] = replace(obj[path[0]], path[1:], value)
    return obj


def lookup(obj, path):
    for step in path:
        obj = obj[step]
    return obj


WRONG_TYPES = (None, True, False, 1.5, -1, 0, 2, "1", "x", "1/0", "0.5", "", [], {}, [1], {"k": 1})
# A fresh copy each time: a later mutation may change the value in place.
wrong_types = st.sampled_from(WRONG_TYPES).map(copy.deepcopy)
# Field names that no document has: ASCII letters with control and other
# non-printable characters (a line break, NUL, ESC, DEL, U+2028 and a lone
# surrogate), of any length up to past the 80 characters an error quotes.
field_names = st.text(st.sampled_from("fx\n\r\t\x00\x1b\x7f\u2028\ud800"), min_size=1, max_size=120)
# Out-of-range indices of 81 to 4,300 digits, past what an error quotes.
long_indices = st.integers(81, 4300).flatmap(lambda n: st.sampled_from((10 ** (n - 1), -(10 ** (n - 1)))))


def huge(draw):
    digits = draw(st.sampled_from((19, 40, 4300, 4301, 10_000)))
    return draw(st.sampled_from((Raw("9" * digits), Raw("-" + "1" * digits), "9" * digits, "1/" + "9" * digits)))


@st.composite
def mutated_documents(draw):
    """The text of a catalog document after one to three structural mutations."""
    doc = json.loads(catalog.data_text(draw(st.sampled_from(catalog.NAMES))))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(nodes(doc))
        path = draw(st.sampled_from(paths))
        target = lookup(doc, path)
        kind = draw(st.sampled_from(("drop", "repeat", "field", "type", "range", "huge", "kind", "nest")))
        if kind in ("drop", "repeat") and isinstance(target, dict) and target:
            key = draw(st.sampled_from(sorted(target)))
            pairs = Pairs((k, v) for k, v in target.items() if k != key)
            if kind == "repeat":
                pairs = Pairs(target.items())
                value = draw(st.one_of(wrong_types, st.just(target[key])))
                pairs.insert(draw(st.integers(0, len(pairs))), (key, value))
            doc = replace(doc, path, pairs)
        elif kind == "field" and isinstance(target, dict):
            doc = replace(doc, path, Pairs([*target.items(), (draw(field_names), 0)]))
        elif kind == "type":
            doc = replace(doc, path, draw(wrong_types))
        elif kind == "range" and type(target) is int:
            doc = replace(doc, path, draw(st.one_of(st.sampled_from((0, -1, target + 1, 5, 2**63)), long_indices)))
        elif kind == "huge":
            doc = replace(doc, path, huge(draw))
        elif kind == "kind" and isinstance(doc, dict):
            doc["kind"] = draw(st.sampled_from(("algebra", "cogebra", "group", None)))
        elif kind == "nest":
            depth = draw(st.sampled_from((2, 100_000)))
            return dump(replace(doc, path, "@")).replace('"@"', "[" * depth + "]" * depth, 1)
    return dump(doc)


EXPRESSIONS = st.one_of(
    st.lists(
        st.sampled_from(
            ("id", "t12", "c1", "c3", "+", "-", "*", "/", "0", "7", "3/2*", "1/0*", "-0*", " ", "²", "٣", "\x00", "(", "e5")
        ),
        min_size=1,
        max_size=10,
    ).map("".join),
    st.sampled_from(("9" * 4301 + "*id", "1/" + "9" * 4301 + "*id", "id" + " + id" * 2000)),
)


def run(argv, files):
    """The exit code, stdout and stderr of ``main(argv)`` in a directory
    holding ``files``, and its wall time.  Every positional word that
    ``argvs`` draws names one of the files."""
    with tempfile.TemporaryDirectory() as workdir:
        for name, text in files.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as f:
                f.write(text)
        here = os.getcwd()
        os.chdir(workdir)
        start = time.perf_counter()
        try:
            code, out, err = run_cli(*argv)
        finally:
            os.chdir(here)
        return code, out, err, time.perf_counter() - start


@given(argvs(noise=False), st.fixed_dictionaries({name: mutated_documents() for name in PLAIN_WORDS}), EXPRESSIONS)
@settings(max_examples=150 * settings.default.max_examples // 100, deadline=None)
def test_every_command_keeps_the_exit_code_contract(argv, files, expr):
    if argv[0] == "s3":
        # An expression that starts with "-" follows "--", as on a shell.
        argv = [*argv[:2], *["--"][: expr.startswith("-")], expr]
    code, _, err, seconds = run(argv, files)
    assert code in (0, 2), (argv, err)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
        assert len(err.encode()) <= ERROR_BYTES, err
    else:
        assert err == ""
    assert "Traceback" not in err
    assert seconds < TIME_BOUND_S, (argv, seconds)


# Ints past Python's digit limit for int <-> str conversion (4,300 by
# default, so 5,000 and 2,500 digits): nalg names the place and the limit
# in its own words, and writes no file.
LIMIT = sys.get_int_max_str_digits()
BIG, HALF = "9" * (LIMIT + 700), "9" * ((LIMIT + 701) // 2)


def one_dim(kind, c):
    """A 1-dim document of ``kind`` whose one constant has the text ``c``."""
    if kind == "algebra":
        entry = f'{{"left": 1, "right": 1, "out": [{{"k": 1, "c": "{c}"}}]}}'
        return f'{{"kind": "algebra", "dim": 1, "basis": ["e1"], "products": [{entry}], "unit": null}}'
    entry = f'{{"in": 1, "out": [{{"i": 1, "j": 1, "c": "{c}"}}]}}'
    return f'{{"kind": "cogebra", "dim": 1, "basis": ["e1"], "coproducts": [{entry}], "counit": null}}'


TOO_LONG = f"a numerator or denominator has more than {LIMIT} digits"
OVERSIZED = {
    "check of a long coefficient": (
        ["check", "a.json"], {"a.json": one_dim("algebra", BIG)}, f"{TOO_LONG} (in product (1, 1))"
    ),
    "a long dim": (
        ["check", "a.json"],
        {"a.json": '{"kind": "algebra", "dim": ' + BIG + ', "basis": [], "products": [], "unit": null}'},
        f"integer at line 1, column 28 has more than {LIMIT} digits",
    ),
    "s3 span of a long coefficient": (
        ["s3", "span", BIG + "*id"], {}, f"{TOO_LONG} (at position 0 in {BIG[:80]!r}...)"
    ),
    "tensor of two half-long coefficients": (
        ["tensor", "a.json", "a.json", "-o", "out.json"],
        {"a.json": one_dim("algebra", HALF)},
        f"{TOO_LONG} (in structure-constant entry (1, 1, 1))",
    ),
    "convolve of two half-long coefficients": (
        ["convolve", "c.json", "a.json", "-o", "out.json"],
        {"a.json": one_dim("algebra", HALF), "c.json": one_dim("cogebra", HALF)},
        f"{TOO_LONG} (in structure-constant entry (1, 1, 1))",
    ),
}


@pytest.mark.parametrize("case", OVERSIZED)
def test_oversized_ints_fail_with_nalgs_own_message(case, tmp_path, monkeypatch):
    argv, files, message = OVERSIZED[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == (2, "", f"error: {message}\n")
    assert sorted(os.listdir()) == sorted(files)


# A basis name that is a lone surrogate: valid JSON, which check reads, but
# no UTF-8 text can hold it, so each command that writes it fails.  The
# target keeps its bytes, or is not made.
SURROGATE = {kind: one_dim(kind, "1").replace('"e1"', json.dumps("\ud800")) for kind in ("algebra", "cogebra")}
UNWRITABLE = {
    "dualize": ["dualize", "a.json", "-o", "out.json"],
    "tensor": ["tensor", "a.json", "a.json", "-o", "out.json"],
    "convolve": ["convolve", "c.json", "a.json", "-o", "out.json"],
}


@pytest.mark.parametrize("target", [b"kept\n", None], ids=["existing", "absent"])
@pytest.mark.parametrize("command", UNWRITABLE)
def test_a_write_that_fails_leaves_its_target_as_it_was(command, target, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.json").write_text(SURROGATE["algebra"], encoding="utf-8")
    (tmp_path / "c.json").write_text(SURROGATE["cogebra"], encoding="utf-8")
    if target is not None:
        (tmp_path / "out.json").write_bytes(target)
    assert [run_cli("check", name)[0] for name in ("a.json", "c.json")] == [0, 0]
    code, out, err = run_cli(*UNWRITABLE[command])
    assert (code, out) == (2, "")
    assert err.startswith("error: 'utf-8' codec can't encode character '\\ud800'") and err.count("\n") == 1, err
    if target is None:
        assert not (tmp_path / "out.json").exists()
    else:
        assert (tmp_path / "out.json").read_bytes() == target


# An error line that quotes an input of any length stays short and on one
# line: the input is quoted by an excerpt around the place the message
# names, which keeps its position, with each non-printable character
# escaped as repr escapes it.
LONG_INPUTS = {
    "s3 span of a 5,000-digit term": (
        ["s3", "span", "9" * 5000 + "*id"], {},
        f"{TOO_LONG} (at position 0 in {'9' * 80!r}...)",
    ),
    "s3 span with a bad term far in": (
        ["s3", "span", "id + " * 20_000 + "x"], {},
        f"malformed term at position 100000 in ...{('id + ' * 20_000 + 'x')[-80:]!r}",
    ),
    "check of a 100,000-character coefficient": (
        ["check", "a.json"], {"a.json": one_dim("algebra", "1" * 50_000 + "x" + "1" * 49_999)},
        f"malformed rational: ...{'1' * 20 + 'x' + '1' * 59!r}... (in product (1, 1))",
    ),
    "check of a 100,000-character field name": (
        ["check", "a.json"], {"a.json": one_dim("algebra", "1")[:-1] + f', "{"f" * 100_000}": 0}}'},
        f"unknown field(s): {'f' * 80}...",
    ),
    "check of a field named x, a line break and y": (
        ["check", "a.json"], {"a.json": one_dim("algebra", "1")[:-1] + ', "x\\ny": 0}'},
        "unknown field(s): x\\ny",
    ),
    "check of a field named by 100 line breaks": (
        ["check", "a.json"], {"a.json": one_dim("algebra", "1")[:-1] + ', "' + "\\n" * 100 + '": 0}'},
        "unknown field(s): " + "\\n" * 40 + "...",
    ),
    "catalog emit of a 100,000-character name": (
        ["catalog", "emit", "n" * 100_000, "-o", "out.json"], {},
        f"unknown catalog instance {'n' * 80!r}...",
    ),
    "check of a 4,300-digit left": (
        ["check", "a.json"], {"a.json": one_dim("algebra", "1").replace('"left": 1', '"left": ' + "9" * 4300)},
        f"index out of range: 'left' = {'9' * 80}...",
    ),
    "check of a 5,000-character path": (
        ["check", "p" * 5000], {},
        f"[Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}: ...{'p' * 80!r}",
    ),
}


@pytest.mark.parametrize("case", LONG_INPUTS)
def test_an_error_quotes_a_long_input_by_an_excerpt(case, tmp_path, monkeypatch):
    argv, files, message = LONG_INPUTS[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(*argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert len(err.encode()) <= ERROR_BYTES
    assert sorted(os.listdir()) == sorted(files)


# A path that shows in at most 80 characters is quoted whole, as Python
# quotes it; a longer one by its last 80, where the file name is.
@pytest.mark.parametrize("path", ["m" * 80, "\u00e9" * 80, "a\nb", "\udcff"])
def test_an_error_quotes_a_short_path_as_python_does(path, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(OSError) as exc:
        os.open(path, os.O_RDONLY)
    assert run_cli("check", path) == (2, "", f"error: {exc.value}\n")


def test_an_os_error_without_a_path_is_printed_as_it_is(monkeypatch):
    def failing(path):
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr("nalg.cli._read_table", failing)
    assert run_cli("check", "a.json") == (2, "", "error: [Errno 5] Input/output error\n")
