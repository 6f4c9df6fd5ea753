"""Command-line interface.

Exit codes: 0 on success, and when the reader closes stdout early; 2 on
input errors (bad files, bad expressions, unknown names) and on running out
of memory.  Exit code 1 is reserved for future use by check-style
commands with expectation flags.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace

from . import catalog
from .algebras import Algebra, _classify, _solve, classify
from .cogebras import _inverted, _mirrored, classify_cogebra, gi_bang_cocheck
from .duality import dualize_algebra, dualize_cogebra
from .formats import (
    _scan,
    format_ga_expr,
    parse_algebra,
    parse_cogebra,
    parse_document,
    parse_ga_expr,
    print_document,
)
from .products import convolution_algebra, tensor_algebras
from .sym3 import GroupAlgElem, maschke_multiplicities, orbit, orbit_span, right_annihilator

_GI_LABELS = {
    1: "associative",
    2: "Vinberg",
    3: "pre-Lie",
    4: "G4",
    5: "G5-generalized-Jacobi",
    6: "Lie-admissible",
}


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


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _json_report(kind: str, dim: int, report) -> str:
    """``json.dumps(doc, indent=2)`` of the ``--json`` report ``doc``, written
    out for its fixed shape.  Its strings need no escapes: the field names,
    and expressions in ids, digits, "/", "*", "+", "-" and spaces."""
    b, names = ("false", "true"), report.__slots__
    gi, bang, assoc, lie, power, unit, ann_dim, ann_basis = report._fields()
    gi = ",\n".join([f'    "{i}": {b[flag]}' for i, flag in gi.items()])
    bang = ",\n".join([f'    "{i}": {b[flag]}' for i, flag in bang.items()])
    basis = ",\n".join([f'    "{format_ga_expr(e)}"' for e in ann_basis])
    basis = f"[\n{basis}\n  ]" if basis else "[]"
    return (
        f'{{\n  "kind": "{kind}",\n  "dim": {dim},\n  "{names[5]}": {b[unit]},\n'
        f'  "{names[0]}": {{\n{gi}\n  }},\n  "{names[1]}": {{\n{bang}\n  }},\n'
        f'  "{names[2]}": {b[assoc]},\n  "{names[3]}": {b[lie]},\n  "{names[4]}": {b[power]},\n'
        f'  "{names[6]}": {ann_dim},\n  "{names[7]}": {basis}\n}}'
    )


def _read_table(path: str) -> tuple:
    """The class and dimension of the file at ``path``, the reader's cleared
    table in product order, a cogebra's as its dual's, and whether it
    declares a (co)unit, checked on that table with the cleared (co)unit
    and scale the reader hands over: nothing is built."""
    (cls, dim, *_), cleared, unit = _scan(_read(path))
    P = cls._in_product_order(cleared)
    if unit is not None:
        cls._check_unit(P, *unit)
    return cls, dim, P, unit is not None


def _cmd_check(args) -> int:
    cls, dim, P, has_unit = _read_table(args.file)
    report = _classify(P, has_unit)
    kind, report = ("algebra", report) if cls is Algebra else ("cogebra", _mirrored(report))
    if args.json:
        print(_json_report(kind, dim, report))
        return 0
    # The two reports list the same eight fields in the same order, and the
    # cogebra's names and labels differ only by "co".
    co = "co" if kind == "cogebra" else ""
    gi, bang, _, _, power, unit, ann_dim, ann_basis = report._fields()
    print(f"kind: {kind}  dim: {dim}  {co}unit: {_yes(unit)}")
    lines = [((co and "co-") + _GI_LABELS[i], flag) for i, flag in gi.items()]
    lines += [(f"G{i}! {co and 'co '}triple symmetry", flag) for i, flag in bang.items()]
    lines.append((f"3-power-{co}associative", power))
    for label, value in lines:
        print(f"  {label:<24} {_yes(value)}")
    print(f"  {co + 'annihilator dim':<24} {ann_dim}")
    for e in ann_basis:
        print(f"    {format_ga_expr(e)}")
    return 0


def _cmd_dualize(args) -> int:
    obj = parse_document(_read(args.file))
    dual = dualize_algebra(obj) if isinstance(obj, Algebra) else dualize_cogebra(obj)
    _write(args.output, print_document(dual))
    return 0


def _cmd_tensor(args) -> int:
    A = parse_algebra(_read(args.file_a))
    B = parse_algebra(_read(args.file_b))
    _write(args.output, print_document(tensor_algebras(A, B)))
    return 0


def _cmd_convolve(args) -> int:
    C = parse_cogebra(_read(args.cogebra_file))
    A = parse_algebra(_read(args.algebra_file))
    conv = convolution_algebra(C, A)
    _write(args.output, print_document(conv))
    # G_i on A, and coassociativity (i = 1) or the G_i! symmetry on C.
    # The literal reading of G_i! does not depend on i.
    gi = classify(A).gi_assoc
    co = classify_cogebra(C)
    bang = co.gi_bang_co
    if args.literal_bang:
        bang = dict.fromkeys(bang, gi_bang_cocheck(C, 2, literal=True))
    guaranteed = [i for i, flag in gi.items() if flag and (co.is_coassociative if i == 1 else bang[i])]
    reading = "literal" if args.literal_bang else "normalized"
    if guaranteed:
        indices = ", ".join(str(i) for i in guaranteed)
        print(f"construction theorem ({reading} reading) guarantees G_i for i = {indices}")
    else:
        print(f"construction theorem ({reading} reading) guarantees no G_i here")
    return 0


def _cmd_annihilator(args) -> int:
    # One solve, as in _classify; a cogebra's is its dual's moved by p -> p^-1.
    cls, _, P, _ = _read_table(args.file)
    sub = right_annihilator(_solve(P, 1, -1))
    sub = sub if cls is Algebra else _inverted(sub.basis)
    exprs = [format_ga_expr(GroupAlgElem(row)) for row in sub.basis]
    if args.json:
        print(json.dumps({"dim": sub.dim, "basis": exprs}, indent=2))
        return 0
    print(f"dim {sub.dim}")
    for expr in exprs:
        print(f"  {expr}")
    return 0


def _cmd_s3_orbit(args) -> int:
    elem = parse_ga_expr(args.expr)
    for translate in orbit(elem):
        print(format_ga_expr(translate))
    return 0


def _cmd_s3_span(args) -> int:
    sub = orbit_span(parse_ga_expr(args.expr))
    print(f"dim {sub.dim}")
    for row in sub.basis:
        print(f"  {format_ga_expr(GroupAlgElem(row))}")
    return 0


def _cmd_s3_decompose(args) -> int:
    m = maschke_multiplicities(orbit_span(parse_ga_expr(args.expr)))
    print(f"trivial={m[0]} sign={m[1]} standard={m[2]}")
    return 0


def _cmd_catalog_list(args) -> int:
    for name in catalog.NAMES:
        print(name)
    return 0


def _cmd_catalog_emit(args) -> int:
    _write(args.output, catalog.data_text(args.name))
    return 0


def _cmd_catalog_regen(args) -> int:
    report = catalog.regenerate()
    for name, status in report.items():
        print(f"{name}: {status}")
    print("all instances reproduced")
    return 0


# The grammar, read by ``_parse`` and by ``_build_parser``.  A command
# maps to its help and either its subcommands or a leaf: the handler, then
# the names of its positionals and of its options.  An option maps to its
# spellings and its argparse keywords; a flag is stored as True, an option
# with a value is required.
_LITERAL_HELP = "use the literal (unnormalized) reading of the cogebra triple symmetry"
_OPTIONS = {
    "json": (("--json",), {"action": "store_true"}),
    "output": (("-o", "--output"), {"required": True}),
    "literal_bang": (("--literal-bang",), {"action": "store_true", "help": _LITERAL_HELP}),
}
_S3 = {
    "orbit": ("the six translates of an expression", (_cmd_s3_orbit, "expr", "")),
    "span": ("span of the orbit of an expression", (_cmd_s3_span, "expr", "")),
    "decompose": ("isotypic multiplicities of the orbit span", (_cmd_s3_decompose, "expr", "")),
}
_CATALOG = {
    "list": ("list instance names", (_cmd_catalog_list, "", "")),
    "emit": ("write an instance's committed file", (_cmd_catalog_emit, "name", "output")),
    "regen": ("rebuild all instances and verify the data files", (_cmd_catalog_regen, "", "")),
}
_GRAMMAR = {
    "check": ("classify an algebra or cogebra file", (_cmd_check, "file", "json")),
    "dualize": ("write the dual of an algebra or cogebra file", (_cmd_dualize, "file", "output")),
    "tensor": ("tensor product of two algebra files", (_cmd_tensor, "file_a file_b", "output")),
    "convolve": (
        "convolution algebra on Hom(cogebra, algebra)",
        (_cmd_convolve, "cogebra_file algebra_file", "output literal_bang"),
    ),
    "annihilator": ("slot-permutation annihilator of a file", (_cmd_annihilator, "file", "json")),
    "s3": ("group-algebra utilities", _S3),
    "catalog": ("named example instances", _CATALOG),
}


def _build_parser():
    """argparse's parser for the grammar.  It is built, and argparse
    imported, only for argv that ``_parse`` leaves to it."""
    import argparse

    def add(parser, spec, dest):
        if isinstance(spec, dict):
            sub = parser.add_subparsers(dest=dest, required=True)
            for name, (text, inner) in spec.items():
                add(sub.add_parser(name, help=text), inner, f"{name}_command")
            return
        func, positionals, options = spec
        for name in positionals.split():
            parser.add_argument(name)
        for name in options.split():
            spellings, keywords = _OPTIONS[name]
            parser.add_argument(*spellings, **keywords)
        parser.set_defaults(func=func)

    parser = argparse.ArgumentParser(
        prog="nalg",
        description="Workbench for nonassociative algebras and cogebras over exact rationals.",
    )
    add(parser, _GRAMMAR, "command")
    return parser


def _parse(argv) -> SimpleNamespace | None:
    """The namespace argparse gives for ``argv``, read off the grammar by
    exact spelling only, options anywhere; or None for any other argv, which
    argparse reads with rules and messages of its own: help, "--",
    ``--output=X``, ``-oX``, abbreviations, values and positionals that
    start with "-", unknown words and wrong counts."""
    found, spec, dest = {}, _GRAMMAR, "command"
    words = iter(argv)
    while isinstance(spec, dict):
        name = next(words, None)
        if name not in spec:
            return None
        found[dest], spec, dest = name, spec[name][1], f"{name}_command"
    func, positionals, options = spec[0], spec[1].split(), spec[2].split()
    spelled = {s: name for name in options for s in _OPTIONS[name][0]}
    flags = [name for name in options if "action" in _OPTIONS[name][1]]
    found.update(dict.fromkeys(flags, False))
    values = []
    for word in words:
        if not word.startswith("-"):
            values.append(word)
        elif spelled.get(word) in flags:
            found[spelled[word]] = True
        else:
            name, value = spelled.get(word), next(words, "")
            if name is None or value[:1] in ("", "-"):
                return None
            found[name] = value
    if len(values) != len(positionals) or any(name not in found for name in options):
        return None
    found.update(zip(positionals, values), func=func)
    return SimpleNamespace(**found)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        try:
            args = _parse(argv) or _build_parser().parse_args(argv)
            return args.func(args)
        finally:
            # Flushed here, after argparse's help too, so that a closed stdout
            # raises where it is handled.
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull so that the flush
        # at exit finds it writable, as the signal module's SIGPIPE note does.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
