"""The exit-code contract of every command, on hostile input.

``nalg`` exits 0 on success and 2 on an input error, and on 2 it writes
one ``error:`` line to stderr, never a traceback.  Here every leaf
command of the grammar runs in-process through ``cli.main`` on files made
by structural mutation of catalog documents: keys dropped or repeated,
values of the wrong type, indices out of range, huge ints, the wrong kind
and deep nesting; and the ``s3`` commands on bad expressions.  Every run
must keep the contract within ``TIME_BOUND_S``.
"""

import copy
import json
import os
import tempfile
import time

from hypothesis import given, settings
from hypothesis import strategies as st
from shared import PLAIN_WORDS, argvs, run_cli

from nalg import catalog

# Seconds one command may take.  The largest input here is a catalog
# document of dim 4; in 12,000 runs on a 2-core VM the slowest took 0.7 s.
TIME_BOUND_S = 10


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
        kind = draw(st.sampled_from(("drop", "repeat", "type", "range", "huge", "kind", "nest")))
        if kind in ("drop", "repeat") and isinstance(target, dict) and target:
            key = draw(st.sampled_from(sorted(target)))
            pairs = Pairs((k, v) for k, v in target.items() if k != key)
            if kind == "repeat":
                pairs = Pairs(target.items())
                value = draw(st.one_of(wrong_types, st.just(target[key])))
                pairs.insert(draw(st.integers(0, len(pairs))), (key, value))
            doc = replace(doc, path, pairs)
        elif kind == "type":
            doc = replace(doc, path, draw(wrong_types))
        elif kind == "range" and type(target) is int:
            doc = replace(doc, path, draw(st.sampled_from((0, -1, target + 1, 5, 2**63))))
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
    else:
        assert err == ""
    assert "Traceback" not in err
    assert seconds < TIME_BOUND_S, (argv, seconds)
