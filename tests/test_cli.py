import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
import reference_cogebras as reference
from hypothesis import assume, given, settings
from shared import DATA, SRC, algebras, report_doc, run_cli

from nalg import catalog, cogebras
from nalg.algebras import Algebra, _solve, annihilator, classify, gi_check
from nalg.cli import _CHUNK, _build_parser, _json_report, main
from nalg.duality import dualize_algebra
from nalg.cogebras import Cogebra
from nalg.formats import format_ga_expr, parse_document, print_document
from nalg.products import convolution_algebra, tensor_algebras
from nalg.sym3 import GroupAlgElem

GOLDEN = Path(__file__).parent / "golden"


def data_path(name):
    return str(DATA / f"{name}.json")


# A catalog file with a unit, one with a counit, and a cogebra without one.
BUILT_FOR_A_UNIT = [("mat2", Algebra), ("dual_mat2", Cogebra), ("dual_vinberg2", Cogebra)]


def count_builds(monkeypatch):
    """The list that each later ``_init`` of an Algebra or a Cogebra appends its class to."""
    built = []
    for cls in (Algebra, Cogebra):
        def counted(self, *args, init=cls._init):
            built.append(type(self))
            return init(self, *args)

        monkeypatch.setattr(cls, "_init", counted)
    return built


class TestCheck:
    def test_json_golden_algebra(self):
        code, out, err = run_cli("check", data_path("mat2"), "--json")
        assert code == 0 and err == ""
        assert out == (GOLDEN / "check_mat2.json").read_text()

    def test_json_golden_cogebra(self):
        code, out, err = run_cli("check", data_path("dual_vinberg2"), "--json")
        assert code == 0
        assert out == (GOLDEN / "check_dual_vinberg2.json").read_text()

    def test_json_matches_library(self):
        code, out, _ = run_cli("check", data_path("vinberg2"), "--json")
        assert code == 0
        doc = json.loads(out)
        report = classify(catalog.get("vinberg2"))
        assert doc["gi_assoc"] == {str(i): report.gi_assoc[i] for i in range(1, 7)}
        assert doc["gi_bang"] == {str(i): report.gi_bang[i] for i in range(2, 7)}
        assert doc["annihilator_dim"] == report.annihilator_dim
        assert doc["annihilator_basis"] == [
            format_ga_expr(e) for e in report.annihilator_basis
        ]

    def test_text_report_names_the_checks(self):
        code, out, _ = run_cli("check", data_path("vinberg2"))
        assert code == 0
        for label in (
            "associative",
            "Vinberg",
            "pre-Lie",
            "G4",
            "G5-generalized-Jacobi",
            "Lie-admissible",
        ):
            assert label in out
        assert "annihilator dim          3" in out

    def test_missing_file(self):
        code, _, err = run_cli("check", "/nonexistent/file.json")
        assert code == 2
        assert "error:" in err

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, _, err = run_cli("check", str(bad))
        assert code == 2
        assert "syntax error" in err

    def test_deeply_nested_file(self, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        code, out, err = run_cli("check", str(deep))
        assert code == 2 and out == ""
        assert err == "error: document is nested too deeply\n"

    def test_out_of_memory_exits_2(self, monkeypatch):
        def exhausted(P, has_unit):
            raise MemoryError

        # An algebra check classifies the reader's cleared table.
        monkeypatch.setattr("nalg.cli._classify", exhausted)
        code, out, err = run_cli("check", data_path("mat2"))
        assert (code, out, err) == (2, "", "error: out of memory\n")

    def test_algebra_check_classifies_the_readers_table(self, monkeypatch):
        # The reader hands over the table cleared of denominators, so an
        # algebra check does not clear it a second time.
        def unreachable(products):
            raise AssertionError("table cleared twice")

        monkeypatch.setattr("nalg.algebras._integer_table", unreachable)
        code, out, err = run_cli("check", data_path("mat2"), "--json")
        assert (code, err) == (0, "")
        assert out == (GOLDEN / "check_mat2.json").read_text()

    def test_algebra_without_unit_is_not_built(self, monkeypatch, tmp_path):
        # An algebra with no unit is classified from the reader's cleared
        # table alone: no Fraction table, no Algebra.
        rng = random.Random(5)
        table = {key: rng.choice(("-2", "-1", "-1/2", "1/2", "1", "2"))
                 for key in itertools.product(range(1, 6), repeat=3) if rng.random() < 0.5}
        A = Algebra(5, {key: F(c) for key, c in table.items()})
        dense = tmp_path / "dense.json"
        dense.write_text(print_document(A))
        expected = {path: json.dumps(report_doc("algebra", X.dim, classify(X)), indent=2) + "\n"
                    for path, X in ((data_path("generic3"), catalog.get("generic3")), (str(dense), A))}

        def unreachable(*args):
            raise AssertionError("structure built")

        monkeypatch.setattr(Algebra, "_init", unreachable)
        for path, report in expected.items():
            assert run_cli("check", "--json", path) == (0, report, "")

    @pytest.mark.parametrize("name, cls", BUILT_FOR_A_UNIT)
    def test_built_only_for_a_unit(self, monkeypatch, name, cls):
        # Either kind is classified from the reader's cleared table, and a
        # (co)unit is checked on that table: no structure is built.
        golden = GOLDEN / f"check_{name}.json"
        X = catalog.get(name)
        kind, report = ("algebra", classify(X)) if cls is Algebra else ("cogebra", cogebras.classify_cogebra(X))
        expected = json.dumps(report_doc(kind, X.dim, report), indent=2) + "\n"
        if golden.exists():
            assert expected == golden.read_text()
        built = count_builds(monkeypatch)
        assert run_cli("check", "--json", data_path(name)) == (0, expected, "")
        assert built == []

    def test_unit_failing_the_axiom_exits_2(self, tmp_path):
        bad = tmp_path / "bad_unit.json"
        bad.write_text(catalog.data_text("mat2").replace('"unit": [\n    "1",', '"unit": [\n    "2",'))
        assert run_cli("check", "--json", str(bad)) == (2, "", "error: declared unit is not a two-sided unit\n")

    def test_unwritable_output_exits_2(self, tmp_path):
        # An OSError while writing -o is still an input error.
        code, out, err = run_cli("dualize", data_path("mat2"), "-o", str(tmp_path))
        assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "bad_counit.json"],
        ["annihilator", "bad_counit.json"],
        ["dualize", "bad_counit.json", "-o", "x.json"],
        ["convolve", "bad_counit.json", "mat2.json", "-o", "x.json"],
        ["annihilator", "bad_unit.json"],
        ["dualize", "bad_unit.json", "-o", "x.json"],
        ["tensor", "bad_unit.json", "mat2.json", "-o", "x.json"],
        ["convolve", "dual_mat2.json", "bad_unit.json", "-o", "x.json"],
    ],
    ids=" ".join,
)
def test_failing_unit_or_counit_exits_2(tmp_path, monkeypatch, argv):
    # Every command that reads a file rejects a (co)unit that fails its
    # axiom, on either side of a product, and writes no output file.
    for name, field in (("mat2", "unit"), ("dual_mat2", "counit")):
        doc = json.loads(catalog.data_text(name))
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        doc[field][0] = "2"
        (tmp_path / f"bad_{field}.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    if "bad_counit.json" in argv:
        err = "error: declared counit fails the counit axiom\n"
    else:
        err = "error: declared unit is not a two-sided unit\n"
    assert run_cli(*argv) == (2, "", err)
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("name", catalog.NAMES)
def test_json_report_is_json_dumps_on_the_catalog(name):
    X = catalog.get(name)
    kind, report = ("algebra", classify(X)) if isinstance(X, Algebra) else ("cogebra", cogebras.classify_cogebra(X))
    code, out, err = run_cli("check", "--json", data_path(name))
    assert (code, err) == (0, "")
    assert out == json.dumps(report_doc(kind, X.dim, report), indent=2) + "\n"


@given(algebras())
@settings(max_examples=60, deadline=None)
def test_json_report_is_json_dumps(A):
    # Tables whose annihilator basis is not empty, so the list prints too.
    report = classify(A)
    assume(report.annihilator_dim)
    co_report = cogebras.classify_cogebra(dualize_algebra(A))
    for kind, r in (("algebra", report), ("cogebra", co_report)):
        assert _json_report(kind, A.dim, r) == json.dumps(report_doc(kind, A.dim, r), indent=2)


class TestReading:
    """The file is read as UTF-8 with newlines translated, as text mode reads it."""

    def check(self, tmp_path, data: bytes):
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        return run_cli("check", "--json", str(path))

    def test_lone_cr_ends_a_line(self, tmp_path):
        data = b'{\r"kind": "algebra",\r"dim": ,\r"basis": []}'
        code, out, err = self.check(tmp_path, data)
        assert (code, out) == (2, "")
        assert err == "error: syntax error at line 3, column 8: Expecting value\n"

    def test_crlf_file_parses(self, tmp_path):
        data = catalog.data_text("mat2").replace("\n", "\r\n").encode()
        assert self.check(tmp_path, data) == (0, (GOLDEN / "check_mat2.json").read_text(), "")

    def test_invalid_utf8_exits_2(self, tmp_path):
        code, out, err = self.check(tmp_path, b"\xff" + catalog.data_text("mat2").encode())
        assert (code, out) == (2, "")
        assert err.startswith("error: 'utf-8' codec can't decode byte 0xff ")

    def test_utf8_bom_exits_2(self, tmp_path):
        code, out, err = self.check(tmp_path, b"\xef\xbb\xbf" + catalog.data_text("mat2").encode())
        assert (code, out) == (2, "")
        assert err.startswith("error: syntax error at line 1, column 1: Unexpected UTF-8 BOM")

    def test_directory_exits_2(self, tmp_path):
        path = str(tmp_path)
        assert run_cli("check", path) == (2, "", f"error: [Errno 21] Is a directory: {path!r}\n")

    def test_missing_path_exits_2(self, tmp_path):
        path = str(tmp_path / "missing.json")
        assert run_cli("check", path) == (2, "", f"error: [Errno 2] No such file or directory: {path!r}\n")

    def test_file_longer_than_one_read_parses(self, tmp_path):
        # Spaces after the first line break, so that the document is whole
        # only when every read is joined.
        text = catalog.data_text("mat2").replace("\n", "\n" + " " * (2 * _CHUNK), 1)
        assert self.check(tmp_path, text.encode()) == (0, (GOLDEN / "check_mat2.json").read_text(), "")

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd to count descriptors")
    def test_reads_leak_no_descriptor(self, tmp_path):
        # The reader's raw descriptors raise no ResourceWarning if left
        # open, so count the process's open descriptors instead.
        text = catalog.data_text("mat2")
        files = {
            "good.json": (text.encode(), 0),
            "long.json": (text.replace("\n", "\n" + " " * (2 * _CHUNK), 1).encode(), 0),
            "not_utf8.json": (b"\xff" + text.encode(), 2),
        }
        for name, (data, _) in files.items():
            (tmp_path / name).write_bytes(data)
        cases = [(str(tmp_path / name), code) for name, (_, code) in files.items()]
        cases += [(str(tmp_path), 2), (str(tmp_path / "missing.json"), 2)]
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(50):
            assert [run_cli("check", path)[0] for path, _ in cases] == [code for _, code in cases]
        assert len(os.listdir("/proc/self/fd")) == before



@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv",
    [["check", "--json", data_path("generic3")], ["s3", "orbit", "id"], ["--help"], ["check", "-h"]],
    ids=["check", "orbit", "help", "check-help"],
)
def test_closed_stdout_exits_0_quietly(argv, unbuffered):
    # A reader that closes stdout early is not an input error.  Buffered,
    # the write fails only when stdout is flushed; unbuffered, in print.
    # Help is written by argparse, which then exits.
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    r, w = os.pipe()
    os.close(r)
    try:
        done = subprocess.run([sys.executable, "-m", "nalg.cli", *argv], stdout=w, stderr=subprocess.PIPE, env=env, timeout=30)
    finally:
        os.close(w)
    assert (done.returncode, done.stderr) == (0, b"")


class TestTransforms:
    def test_dualize_matches_committed_dual(self, tmp_path):
        out_file = tmp_path / "dual.json"
        for name in catalog.ALGEBRA_NAMES:
            assert run_cli("dualize", data_path(name), "-o", str(out_file)) == (0, "", ""), name
            assert out_file.read_text() == catalog.data_text(f"dual_{name}"), name

    def test_dualize_cogebra_back(self, tmp_path):
        # Byte for byte, through either spelling of the output option.
        out_file = tmp_path / "alg.json"
        for option in (["-o", str(out_file)], [f"--output={out_file}"]):
            out_file.unlink(missing_ok=True)
            assert run_cli("dualize", data_path("dual_mat2"), *option) == (0, "", "")
            assert out_file.read_text() == catalog.data_text("mat2")

    def test_tensor_towers(self, tmp_path):
        # mat2 (x) mat2 is M_4: associative, so its annihilator is all of
        # Q[S3]; and M_4 (x) mat2, dualized twice, gives back its own bytes.
        m4, m8, dual, back = (str(tmp_path / f"{name}.json") for name in ("m4", "m8", "dual", "back"))
        assert run_cli("tensor", data_path("mat2"), data_path("mat2"), "-o", m4) == (0, "", "")
        code, out, _ = run_cli("check", "--json", m4)
        assert code == 0 and json.loads(out)["annihilator_dim"] == 6
        assert run_cli("tensor", m4, data_path("mat2"), "-o", m8) == (0, "", "")
        assert run_cli("dualize", m8, "-o", dual) == (0, "", "")
        assert run_cli("dualize", dual, "-o", back) == (0, "", "")
        assert Path(back).read_bytes() == Path(m8).read_bytes()

    def test_dualize_twice_keeps_every_basis_name(self, tmp_path):
        # A name holding a quote, a backslash and a non-ASCII letter is
        # written back as it was read.
        doc = {"kind": "algebra", "dim": 1, "basis": ['q"b\\\u00e9'],
               "products": [{"left": 1, "right": 1, "out": [{"k": 1, "c": "1"}]}], "unit": None}
        odd, dual, back = (tmp_path / f"{name}.json" for name in ("odd", "dual", "back"))
        odd.write_text(json.dumps(doc, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
        assert run_cli("dualize", str(odd), "-o", str(dual)) == (0, "", "")
        assert run_cli("dualize", str(dual), "-o", str(back)) == (0, "", "")
        assert back.read_bytes() == odd.read_bytes()

    def test_tensor(self, tmp_path):
        out_file = tmp_path / "tensor.json"
        code, _, _ = run_cli("tensor", data_path("vinberg2"), data_path("trunc_poly2"), "-o", str(out_file))
        assert code == 0
        expected = tensor_algebras(catalog.get("vinberg2"), catalog.get("trunc_poly2"))
        assert parse_document(out_file.read_text()).products == expected.products

    def test_tensor_rejects_cogebra_input(self, tmp_path):
        code, _, err = run_cli("tensor", data_path("dual_mat2"), data_path("k1"), "-o", str(tmp_path / "x.json"))
        assert code == 2 and "algebra" in err

    def test_convolve_reports_guarantees(self, tmp_path):
        out_file = tmp_path / "conv.json"
        code, out, _ = run_cli("convolve", data_path("dual_trunc_poly2"), data_path("vinberg2"), "-o", str(out_file))
        assert code == 0
        assert "normalized reading" in out and "2" in out
        expected = convolution_algebra(
            catalog.get("dual_trunc_poly2"), catalog.get("vinberg2")
        )
        assert parse_document(out_file.read_text()).products == expected.products

    def test_convolve_literal_flag(self, tmp_path):
        code, out, _ = run_cli(
            "convolve",
            data_path("dual_trunc_poly2"),
            data_path("vinberg2"),
            "-o",
            str(tmp_path / "c.json"),
            "--literal-bang",
        )
        assert code == 0
        assert "literal reading" in out
        assert "guarantees no G_i" in out

    @pytest.mark.parametrize("literal", [False, True], ids=["normalized", "literal"])
    def test_convolve_guarantee_matches_per_index_checks(self, tmp_path, literal):
        flag = ["--literal-bang"] if literal else []
        reading = "literal" if literal else "normalized"
        for c in catalog.COGEBRA_NAMES:
            C = catalog.get(c)
            for a in catalog.ALGEBRA_NAMES:
                A = catalog.get(a)

                def expected(checks):
                    """The guarantee line, with the cogebra checks of ``checks``."""
                    indices = [
                        str(i)
                        for i in range(1, 7)
                        if gi_check(A, i)
                        and (
                            checks.gi_cocheck(C, 1)
                            if i == 1
                            else checks.gi_bang_cocheck(C, i, literal=literal)
                        )
                    ]
                    claim = f"G_i for i = {', '.join(indices)}" if indices else "no G_i here"
                    return f"construction theorem ({reading} reading) guarantees {claim}\n"

                out_file = str(tmp_path / "c.json")
                code, out, err = run_cli("convolve", data_path(c), data_path(a), "-o", out_file, *flag)
                assert (code, err) == (0, "")
                assert out == expected(cogebras), (c, a)
                assert out == expected(reference), (c, a)


class TestAnnihilatorCommand:
    def test_json(self):
        code, out, _ = run_cli("annihilator", data_path("prelie2"), "--json")
        assert code == 0
        doc = json.loads(out)
        sub = annihilator(catalog.get("prelie2"))
        assert doc["dim"] == sub.dim == 5
        assert len(doc["basis"]) == 5

    def test_text(self):
        code, out, _ = run_cli("annihilator", data_path("generic3"))
        assert code == 0
        assert out.splitlines()[0] == "dim 0"

    @pytest.mark.parametrize("name, cls", BUILT_FOR_A_UNIT)
    def test_built_only_for_a_unit(self, monkeypatch, name, cls):
        X = catalog.get(name)
        sub = annihilator(X) if cls is Algebra else cogebras.coannihilator(X)
        exprs = [format_ga_expr(GroupAlgElem(row)) for row in sub.basis]
        expected = {
            (): "".join([f"dim {sub.dim}\n"] + [f"  {e}\n" for e in exprs]),
            ("--json",): json.dumps({"dim": sub.dim, "basis": exprs}, indent=2) + "\n",
        }
        built = count_builds(monkeypatch)
        for flags, out in expected.items():
            assert run_cli("annihilator", data_path(name), *flags) == (0, out, "")
        assert built == []

    @pytest.mark.parametrize("name", ["mat2", "dual_mat2", "m4", "generic3"])
    def test_solves_once(self, monkeypatch, tmp_path, name):
        # One solve for the associator's generator and no classification:
        # an associative table (mat2, m4) solves no (xy)z generator and
        # reads no flags, and a generic one stops at its probe all the same.
        if name == "m4":
            X = tensor_algebras(catalog.get("mat2"), catalog.get("mat2"))
            path = tmp_path / "m4.json"
            path.write_text(print_document(X))
        else:
            X, path = catalog.get(name), data_path(name)
        sub = annihilator(X) if isinstance(X, Algebra) else cogebras.coannihilator(X)
        expected = "".join([f"dim {sub.dim}\n"] + [f"  {format_ga_expr(GroupAlgElem(row))}\n" for row in sub.basis])
        solves = []

        def counted(*args, solve=_solve):
            solves.append(args[1:])
            return solve(*args)

        def unreachable(*args):
            raise AssertionError("classified")

        for home in ("nalg.algebras", "nalg.cli"):
            monkeypatch.setattr(f"{home}._solve", counted)
            monkeypatch.setattr(f"{home}._classify", unreachable)
        assert run_cli("annihilator", str(path)) == (0, expected, "")
        assert solves == [(1, -1)]


class TestS3Commands:
    def test_orbit(self):
        code, out, _ = run_cli("s3", "orbit", "id + c1 + c2")
        assert code == 0
        lines = out.splitlines()
        assert lines.count("id + c1 + c2") == 3
        assert lines.count("t12 + t13 + t23") == 3
        # One image per permutation, rational coefficients kept.
        code, out, _ = run_cli("s3", "orbit", "3/2*c1 - t12")
        assert code == 0
        assert out.splitlines() == [
            "-t12 + 3/2*c1", "-id + 3/2*t23", "3/2*t12 - c1", "3/2*t13 - c2", "3/2*id - t23", "-t13 + 3/2*c2",
        ]

    def test_span(self):
        code, out, _ = run_cli("s3", "span", "id - t12 - t13 - t23 + c1 + c2")
        assert code == 0
        assert out.splitlines()[0] == "dim 1"
        assert "id - t12 - t13 - t23 + c1 + c2" in out

    def test_zero_round_trips(self):
        # The orbit of zero prints "0", and "0" reads back as zero.
        code, out, _ = run_cli("s3", "orbit", "0*id")
        assert code == 0 and out.splitlines() == ["0"] * 6
        code, out, _ = run_cli("s3", "span", "0")
        assert code == 0 and out == "dim 0\n"

    def test_decompose(self):
        lines = {
            "id + t12 + t13 + t23 + c1 + c2": "trivial=1 sign=0 standard=0",
            "id - t12": "trivial=0 sign=1 standard=1",
            "id + t12": "trivial=1 sign=0 standard=1",
            "id": "trivial=1 sign=1 standard=2",
        }
        for expr, line in lines.items():
            assert run_cli("s3", "decompose", expr) == (0, line + "\n", ""), expr

    def test_bad_expression(self):
        code, _, err = run_cli("s3", "orbit", "id ++ q")
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            # The bad term starts at 5, after the '+' at 3.
            ("id + 2*", "malformed term at position 5 in 'id + 2*'"),
            # 't12' starts at 4, after two spaces.
            ("id  t12", "expected '+' or '-' at position 4 in 'id  t12'"),
            ("id + 1/0*t12",
             "malformed rational: '1/0' (denominator must be positive) (at position 5 in 'id + 1/0*t12')"),
            # A term missing at the end is placed at the end of the text.
            ("id + ", "malformed term at position 5 in 'id + '"),
            ("id\tt12", "expected '+' or '-' at position 3 in 'id\\tt12'"),
            # A digit outside ASCII is no coefficient.
            ("\u0663*id", "malformed term at position 0 in '\u0663*id'"),
        ],
    )
    def test_error_positions_count_the_text_as_given(self, text, message):
        code, out, err = run_cli("s3", "span", text)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestCatalogCommands:
    def test_list(self):
        code, out, _ = run_cli("catalog", "list")
        assert code == 0
        assert out.split() == list(catalog.NAMES)
        assert (len(catalog.NAMES), catalog.NAMES[0], catalog.NAMES[-1]) == (22, "mat2", "dual_generic3")

    def test_emit(self, tmp_path):
        out_file = tmp_path / "sl2.json"
        code, _, _ = run_cli("catalog", "emit", "sl2", "-o", str(out_file))
        assert code == 0
        assert out_file.read_text() == catalog.data_text("sl2")

    def test_emit_unknown(self, tmp_path):
        code, _, err = run_cli("catalog", "emit", "zzz", "-o", str(tmp_path / "x.json"))
        assert code == 2 and "unknown catalog instance" in err

    def test_regen(self):
        code, out, _ = run_cli("catalog", "regen")
        assert code == 0
        assert "all instances reproduced" in out
        for name in catalog.NAMES:
            assert f"{name}: ok" in out


def outcome(capsys, call):
    """The exit code, stdout and stderr of a call that ends in SystemExit."""
    with pytest.raises(SystemExit) as exc:
        call()
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


USAGE = {
    "help": ["-h"],
    "check-help": ["check", "-h"],
    "s3-help": ["s3", "-h"],
    "s3-span-help": ["s3", "span", "-h"],
    "catalog-help": ["catalog", "-h"],
    "catalog-emit-help": ["catalog", "emit", "-h"],
    "missing-positional": ["check"],
    "extra-positional": ["check", "a.json", "b.json"],
    "unknown-command": ["no-such-command"],
    "output-without-value": ["dualize", "a.json", "-o"],
}


@pytest.mark.parametrize("argv", list(USAGE.values()), ids=list(USAGE))
def test_help_and_usage_errors_match_argparse(capsys, argv):
    # Help exits 0 with the usage on stdout; a usage error exits 2 with it
    # on stderr.  Both are argparse's own output for the same argv.
    code, out, err = outcome(capsys, lambda: main(argv))
    assert (code, out, err) == outcome(capsys, lambda: _build_parser().parse_args(argv))
    asks_help = "-h" in argv
    assert code == (0 if asks_help else 2)
    assert (out if asks_help else err).startswith("usage: nalg")
