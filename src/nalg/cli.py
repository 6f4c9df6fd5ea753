"""Command-line interface.

Exit codes: 0 on success, 2 on input errors (bad files, bad expressions,
unknown names) and on running out of memory.  Exit code 1 is reserved for future use by check-style
commands with expectation flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import catalog
from .algebras import Algebra, annihilator, classify
from .cogebras import classify_cogebra, coannihilator, gi_bang_cocheck
from .duality import dualize_algebra, dualize_cogebra
from .formats import (
    FormatError,
    format_ga_expr,
    parse_algebra,
    parse_cogebra,
    parse_document,
    parse_ga_expr,
    print_document,
)
from .products import convolution_algebra, tensor_algebras
from .sym3 import GroupAlgElem, maschke_multiplicities, orbit, orbit_span

_GI_LABELS = {
    1: "associative",
    2: "Vinberg",
    3: "pre-Lie",
    4: "G4",
    5: "G5-generalized-Jacobi",
    6: "Lie-admissible",
}


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _cmd_check(args) -> int:
    obj = parse_document(_read(args.file))
    # The two reports list the same eight fields in the same order, and
    # the cogebra's names and labels differ only by "co".
    if isinstance(obj, Algebra):
        kind, co, report = "algebra", "", classify(obj)
    else:
        kind, co, report = "cogebra", "co", classify_cogebra(obj)
    names, fields = report.__slots__, report._fields()
    gi, bang, _, _, power, unit, ann_dim, ann_basis = fields
    if args.json:
        doc = {
            "kind": kind,
            "dim": obj.dim,
            names[5]: unit,
            names[0]: {str(i): gi[i] for i in range(1, 7)},
            names[1]: {str(i): bang[i] for i in range(2, 7)},
        }
        doc.update(zip(names[2:5], fields[2:5]))
        doc[names[6]] = ann_dim
        doc[names[7]] = [format_ga_expr(e) for e in ann_basis]
        print(json.dumps(doc, indent=2))
        return 0
    print(f"kind: {kind}  dim: {obj.dim}  {co}unit: {_yes(unit)}")
    lines = [((co and "co-") + _GI_LABELS[i], gi[i]) for i in range(1, 7)]
    lines += [(f"G{i}! {co and 'co '}triple symmetry", bang[i]) for i in range(2, 7)]
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
    guaranteed = [
        i for i in range(1, 7) if gi[i] and (co.is_coassociative if i == 1 else bang[i])
    ]
    reading = "literal" if args.literal_bang else "normalized"
    if guaranteed:
        indices = ", ".join(str(i) for i in guaranteed)
        print(f"construction theorem ({reading} reading) guarantees G_i for i = {indices}")
    else:
        print(f"construction theorem ({reading} reading) guarantees no G_i here")
    return 0


def _cmd_annihilator(args) -> int:
    obj = parse_document(_read(args.file))
    sub = annihilator(obj) if isinstance(obj, Algebra) else coannihilator(obj)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nalg",
        description="Workbench for nonassociative algebras and cogebras over exact rationals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="classify an algebra or cogebra file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("dualize", help="write the dual of an algebra or cogebra file")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_dualize)

    p = sub.add_parser("tensor", help="tensor product of two algebra files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("convolve", help="convolution algebra on Hom(cogebra, algebra)")
    p.add_argument("cogebra_file")
    p.add_argument("algebra_file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument(
        "--literal-bang",
        action="store_true",
        help="use the literal (unnormalized) reading of the cogebra triple symmetry",
    )
    p.set_defaults(func=_cmd_convolve)

    p = sub.add_parser("annihilator", help="slot-permutation annihilator of a file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_annihilator)

    p = sub.add_parser("s3", help="group-algebra utilities")
    s3sub = p.add_subparsers(dest="s3_command", required=True)
    q = s3sub.add_parser("orbit", help="the six translates of an expression")
    q.add_argument("expr")
    q.set_defaults(func=_cmd_s3_orbit)
    q = s3sub.add_parser("span", help="span of the orbit of an expression")
    q.add_argument("expr")
    q.set_defaults(func=_cmd_s3_span)
    q = s3sub.add_parser("decompose", help="isotypic multiplicities of the orbit span")
    q.add_argument("expr")
    q.set_defaults(func=_cmd_s3_decompose)

    p = sub.add_parser("catalog", help="named example instances")
    catsub = p.add_subparsers(dest="catalog_command", required=True)
    q = catsub.add_parser("list", help="list instance names")
    q.set_defaults(func=_cmd_catalog_list)
    q = catsub.add_parser("emit", help="write an instance's committed file")
    q.add_argument("name")
    q.add_argument("-o", "--output", required=True)
    q.set_defaults(func=_cmd_catalog_emit)
    q = catsub.add_parser("regen", help="rebuild all instances and verify the data files")
    q.set_defaults(func=_cmd_catalog_regen)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
