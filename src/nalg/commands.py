"""The handlers of the commands that build structures or read
expressions (``dualize``, ``tensor``, ``convolve`` and ``s3``), and
argparse's parser for the grammar of :mod:`nalg.cli`.

This module is lazy (see ``nalg/__init__.py``): ``nalg.cli`` looks a
handler up here when one of these commands runs, and builds the parser
here only for an argv that its table parser leaves to argparse.  Each
name is also read as ``nalg.cli``'s, where it was defined before.  The
lazy modules a handler calls into are read at call time, so a command
runs only the modules it uses.
"""

from __future__ import annotations

from . import cogebras, documents, duality, groupalg, products, structures
from .cli import _GRAMMAR, _OPTIONS, _handler
from .formats import _read, _write, format_ga_expr
from .sym3 import GroupAlgElem


def _cmd_dualize(args) -> int:
    obj = documents.parse_document(_read(args.file))
    dual = duality.dualize_algebra(obj) if isinstance(obj, structures.Algebra) else duality.dualize_cogebra(obj)
    _write(args.output, documents.print_document(dual))
    return 0


def _cmd_tensor(args) -> int:
    A = documents.parse_algebra(_read(args.file_a))
    B = documents.parse_algebra(_read(args.file_b))
    _write(args.output, documents.print_document(products.tensor_algebras(A, B)))
    return 0


def _cmd_convolve(args) -> int:
    C = documents.parse_cogebra(_read(args.cogebra_file))
    A = documents.parse_algebra(_read(args.algebra_file))
    conv = products.convolution_algebra(C, A)
    _write(args.output, documents.print_document(conv))
    # G_i on A, and coassociativity (i = 1) or the G_i! symmetry on C.  The
    # literal reading of G_i! does not depend on i.
    gi = structures.classify(A).gi_assoc
    co = cogebras.classify_cogebra(C)
    bang = co.gi_bang_co
    if args.literal_bang:
        bang = dict.fromkeys(bang, cogebras.gi_bang_cocheck(C, 2, literal=True))
    guaranteed = [i for i, flag in gi.items() if flag and (co.is_coassociative if i == 1 else bang[i])]
    reading = "literal" if args.literal_bang else "normalized"
    if guaranteed:
        indices = ", ".join(str(i) for i in guaranteed)
        print(f"construction theorem ({reading} reading) guarantees G_i for i = {indices}")
    else:
        print(f"construction theorem ({reading} reading) guarantees no G_i here")
    return 0


def _cmd_s3_orbit(args) -> int:
    elem = documents.parse_ga_expr(args.expr)
    for translate in groupalg.orbit(elem):
        print(format_ga_expr(translate))
    return 0


def _cmd_s3_span(args) -> int:
    sub = groupalg.orbit_span(documents.parse_ga_expr(args.expr))
    print(f"dim {sub.dim}")
    for row in sub.basis:
        print(f"  {format_ga_expr(GroupAlgElem(row))}")
    return 0


def _cmd_s3_decompose(args) -> int:
    m = groupalg.maschke_multiplicities(groupalg.orbit_span(documents.parse_ga_expr(args.expr)))
    print(f"trivial={m[0]} sign={m[1]} standard={m[2]}")
    return 0


def _build_parser():
    """argparse's parser for the grammar.  It is built, and argparse
    imported, only for argv that ``cli._parse`` leaves to it."""
    import argparse

    def add(parser, spec, dest, path):
        if isinstance(spec, dict):
            sub = parser.add_subparsers(dest=dest, required=True)
            for name, (text, inner) in spec.items():
                add(sub.add_parser(name, help=text), inner, f"{name}_command", [*path, name])
            return
        home, positionals, options = spec
        for name in positionals.split():
            parser.add_argument(name)
        for name in options.split():
            spellings, keywords = _OPTIONS[name]
            parser.add_argument(*spellings, **keywords)
        parser.set_defaults(func=_handler(home, path))

    parser = argparse.ArgumentParser(
        prog="nalg",
        description="Workbench for nonassociative algebras and cogebras over exact rationals.",
    )
    add(parser, _GRAMMAR, "command", [])
    return parser
