"""Run one ``nalg`` command in a fresh process, as a shell user would.

    python3 perfbench/runner.py [--trace SPANS_FILE OP_ID] -- ARGS...

calls ``nalg.cli.main(ARGS)`` from the ``src`` tree of the checkout and
exits with its code.  With ``--trace`` the stage wrappers of
``perfbench/spans.py`` go on before ``main`` runs and the op's spans are
written to SPANS_FILE when it returns.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: list[str]) -> int:
    split = argv.index("--")
    options, args = argv[:split], argv[split + 1 :]
    from nalg import cli

    if not options:
        return cli.main(args)
    import json

    from spans import Tracer

    _, spans_file, op = options
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.run_op(int(op), cli.main, args)
    finally:
        Path(spans_file).write_text(json.dumps(tracer.spans), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
