"""Command-line interface.

Exit codes: 0 on success, and when the reader closes stdout early; 2 on
input errors (bad files, bad expressions, unknown names) and on running out
of memory.  Exit code 1 is reserved for future use by check-style
commands with expectation flags.

This module holds what ``nalg check`` and ``nalg annihilator`` run: their
handlers, the grammar and its table parser, and ``main``.  The handlers
of the other commands live in lazy modules (see ``nalg/__init__.py``),
the catalog's in :mod:`nalg.catalog` and the rest in
:mod:`nalg.commands`, with ``_build_parser``, which argparse's rules and
messages need; a module runs when its first handler is looked up, so a
command runs only the modules it uses.  Names that lived here before
are read through the module ``__getattr__`` (PEP 562).  Every file a
command reads or writes goes through ``nalg.formats``.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from . import _forward, catalog, commands, errors
from .algebras import _classify, _mirrored
from .formats import _read_table, format_ga_expr

_GI_LABELS = {
    1: "associative",
    2: "Vinberg",
    3: "pre-Lie",
    4: "G4",
    5: "G5-generalized-Jacobi",
    6: "Lie-admissible",
}


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


def _report(path: str) -> tuple:
    """The kind, dimension and report of the file at ``path``, a cogebra's
    mirrored from its dual's: ``check`` and ``annihilator`` print from it."""
    kind, dim, P, has_unit = _read_table(path)
    report = _classify(P, has_unit)
    return kind, dim, report if kind == "algebra" else _mirrored(report)


def _cmd_check(args) -> int:
    kind, dim, report = _report(args.file)
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


def _cmd_annihilator(args) -> int:
    ann_dim, ann_basis = _report(args.file)[2]._fields()[6:]
    exprs = [format_ga_expr(e) for e in ann_basis]
    if args.json:
        print(json.dumps({"dim": ann_dim, "basis": exprs}, indent=2))
    else:
        print("\n".join([f"dim {ann_dim}"] + [f"  {e}" for e in exprs]))
    return 0


# The grammar, read by ``_parse`` and by ``commands._build_parser``.  A
# command maps to its help and either its subcommands or a leaf: the
# module that holds its handler (see ``_handler``), then the names of its
# positionals and of its options.  An option maps to its spellings and its
# argparse keywords; a flag is stored as True, an option with a value is
# required.
_HERE = sys.modules[__name__]
_LITERAL_HELP = "use the literal (unnormalized) reading of the cogebra triple symmetry"
_OPTIONS = {
    "json": (("--json",), {"action": "store_true"}),
    "output": (("-o", "--output"), {"required": True}),
    "literal_bang": (("--literal-bang",), {"action": "store_true", "help": _LITERAL_HELP}),
}
_S3 = {
    "orbit": ("the six translates of an expression", (commands, "expr", "")),
    "span": ("span of the orbit of an expression", (commands, "expr", "")),
    "decompose": ("isotypic multiplicities of the orbit span", (commands, "expr", "")),
}
_CATALOG = {
    "list": ("list instance names", (catalog, "", "")),
    "emit": ("write an instance's committed file", (catalog, "name", "output")),
    "regen": ("rebuild all instances and verify the data files", (catalog, "", "")),
}
_GRAMMAR = {
    "check": ("classify an algebra or cogebra file", (_HERE, "file", "json")),
    "dualize": ("write the dual of an algebra or cogebra file", (commands, "file", "output")),
    "tensor": ("tensor product of two algebra files", (commands, "file_a file_b", "output")),
    "convolve": (
        "convolution algebra on Hom(cogebra, algebra)",
        (commands, "cogebra_file algebra_file", "output literal_bang"),
    ),
    "annihilator": ("slot-permutation annihilator of a file", (_HERE, "file", "json")),
    "s3": ("group-algebra utilities", _S3),
    "catalog": ("named example instances", _CATALOG),
}


def _handler(home, path: list[str]):
    """The handler of the command whose words are ``path``: ``_cmd_`` and
    the words joined by "_", read in its module ``home``, which runs then
    if it is lazy."""
    return getattr(home, "_cmd_" + "_".join(path))


def _parse(argv) -> SimpleNamespace | None:
    """The namespace argparse gives for ``argv``, read off the grammar by
    exact spelling only, options anywhere; or None for any other argv, which
    argparse reads with rules and messages of its own: help, "--",
    ``--output=X``, ``-oX``, abbreviations, values and positionals that
    start with "-", unknown words and wrong counts."""
    found, spec, dest, path = {}, _GRAMMAR, "command", []
    words = iter(argv)
    while isinstance(spec, dict):
        name = next(words, None)
        if name not in spec:
            return None
        path.append(name)
        found[dest], spec, dest = name, spec[name][1], f"{name}_command"
    home, positionals, options = spec[0], spec[1].split(), spec[2].split()
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
    found.update(zip(positionals, values), func=_handler(home, path))
    return SimpleNamespace(**found)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        try:
            args = _parse(argv) or commands._build_parser().parse_args(argv)
            return args.func(args)
        finally:
            # Flushed here, after argparse's help too, so that a closed stdout
            # raises where it is handled.
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull so that the flush
        # at exit finds it writable, as the signal module's SIGPIPE note does.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (ValueError, OSError) as exc:
        if isinstance(exc, OSError) and isinstance(exc.filename, str):
            # Python's own line, with the path quoted up to its end.
            exc = f"[Errno {exc.errno}] {exc.strerror}: {errors._quoted(exc.filename, len(exc.filename))}"
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


__getattr__ = _forward(__name__, commands)


if __name__ == "__main__":
    sys.exit(main())
