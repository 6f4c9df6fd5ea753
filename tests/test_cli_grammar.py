"""The table parser of ``nalg.cli`` against argparse.

``main`` reads argv off the grammar table with ``_parse``, and builds
argparse's parser from the same table only for an argv that ``_parse``
hands over.  So for every argv, ``_parse`` must either give the namespace
that argparse gives, or give None.  The differential test draws argv from
the grammar plus noise (``shared.argvs``): option prefixes, ``=`` forms,
reordered options, "--", stray "-" words and empty strings.
"""

import contextlib
import io

import pytest
from hypothesis import given
from shared import argvs, run_cli

from nalg import catalog, cli


def argparse_namespace(argv):
    """argparse's namespace for ``argv`` as a dict, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            return None


@given(argvs(noise=True))
def test_table_parser_agrees_with_argparse_or_hands_over(argv):
    fast = cli._parse(argv)
    if fast is not None:
        assert vars(fast) == argparse_namespace(argv)


@given(argvs(noise=False))
def test_table_parser_reads_every_argv_of_the_grammar(argv):
    fast = cli._parse(argv)
    assert fast is not None
    assert vars(fast) == argparse_namespace(argv)


ACCEPTED = [
    ["check", "a.json", "--json"],
    ["check", "--json", "a.json"],
    ["check", ""],
    ["tensor", "-o", "c.json", "a.json", "b.json"],
    ["convolve", "c.json", "a.json", "--literal-bang", "--output", "x.json"],
    ["annihilator", "a.json"],
    ["s3", "orbit", "id + c1"],
    ["s3", "span", "id"],
    ["catalog", "list"],
    ["catalog", "emit", "mat2", "-o", "m.json", "-o", "n.json"],
    ["catalog", "regen"],
]


@pytest.mark.parametrize("argv", ACCEPTED, ids=" ".join)
def test_table_parser_reads_the_grammar(argv):
    fast = cli._parse(argv)
    assert fast is not None
    assert vars(fast) == argparse_namespace(argv)


# Each "--", ``--output=X`` and option-prefix form, with its exact spelling.
SPELLINGS = [
    (["check", "--", "a.json"], ["check", "a.json"]),
    (["check", "--json", "--", "a.json"], ["check", "--json", "a.json"]),
    (["check", "a.json", "--js"], ["check", "a.json", "--json"]),
    (["dualize", "a.json", "--output=b.json"], ["dualize", "a.json", "--output", "b.json"]),
    (["tensor", "a.json", "-o", "c.json", "--", "b.json"], ["tensor", "a.json", "-o", "c.json", "b.json"]),
    (["s3", "decompose", "--", "id"], ["s3", "decompose", "id"]),
]

HANDED_OVER = [form for form, _ in SPELLINGS] + [
    [],
    ["-h"],
    ["check", "a.json", "-h"],
    ["convolve", "c.json", "a.json", "-ox.json"],
    ["dualize", "a.json", "-o=x.json"],
    ["dualize", "a.json", "--output="],
    ["dualize", "a.json", "-o", "-x"],
    ["check", "-1"],
    ["check", "-"],
    ["check", "a.json", "--"],
    ["check", "--", "--json"],
    ["check"],
    ["check", "a.json", "b.json"],
    ["check", "a.json", "-o", "x.json"],
    ["dualize", "a.json"],
    ["s3"],
    ["s3", "--", "orbit", "id"],
    ["--", "check", "a.json"],
    ["no-such-command"],
]


@pytest.mark.parametrize("argv", HANDED_OVER, ids=" ".join)
def test_table_parser_hands_over(argv):
    assert cli._parse(argv) is None


def run_main(argv, workdir, monkeypatch):
    """stdout, stderr, the exit code and every file's bytes after ``main``
    runs ``argv`` in ``workdir``, which holds the algebra files a.json and
    b.json."""
    workdir.mkdir()
    (workdir / "a.json").write_text(catalog.data_text("vinberg2"), encoding="utf-8")
    (workdir / "b.json").write_text(catalog.data_text("trunc_poly2"), encoding="utf-8")
    monkeypatch.chdir(workdir)
    code, out, err = run_cli(*argv)
    return out, err, code, {path.name: path.read_bytes() for path in workdir.iterdir()}


@pytest.mark.parametrize("form, exact", SPELLINGS, ids=[" ".join(form) for form, _ in SPELLINGS])
def test_handed_over_form_runs_as_its_exact_spelling(form, exact, tmp_path, monkeypatch):
    assert cli._parse(exact) is not None
    runs = [run_main(argv, tmp_path / name, monkeypatch) for argv, name in ((form, "form"), (exact, "exact"))]
    assert runs[0] == runs[1]
