"""The README's examples run as written: its Python blocks execute, each
``nalg ... # -> output`` line prints that output first, and its command
block lists exactly the leaf commands of the CLI's grammar."""

import re
import shlex
from pathlib import Path

from shared import leaves, run_cli

from nalg import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)


def _leaf(words):
    """The leading words of ``words`` that name a leaf of the grammar."""
    spec, leaf = cli._GRAMMAR, []
    for word in words:
        if not isinstance(spec, dict) or word not in spec:
            break
        leaf.append(word)
        spec = spec[word][1]
    return " ".join(leaf)


def _leaves():
    """Every leaf command of the grammar, its words joined by spaces."""
    return [" ".join(path) for path, _ in leaves(cli._GRAMMAR)]


def test_python_blocks_run():
    assert _blocks("python")
    for block in _blocks("python"):
        exec(compile(block, "README.md", "exec"), {})


def test_commands_print_what_the_readme_says():
    examples = re.findall(r"^nalg (.*?)\s+# -> (.*)$", "".join(_blocks("sh")), re.M)
    assert examples
    for argv, expected in examples:
        code, out, _ = run_cli(*shlex.split(argv))
        assert (code, out.splitlines()[0]) == (0, expected), argv


def test_the_command_block_lists_every_leaf_command():
    block = README[README.index("## Command line") :]
    block = block[block.index("```sh\n") : block.index("\n```\n")]
    listed = [_leaf(line.split()[1:]) for line in block.splitlines() if line.startswith("nalg ")]
    assert listed == _leaves()


_NUMBERS = "zero one two three four five six seven eight nine ten eleven twelve thirteen".split()


def test_the_startup_notes_count_the_leaf_commands():
    # "grammar is one table in `nalg/cli.py`: eleven leaf commands", the
    # words possibly broken across lines.
    text = " ".join(README.split())
    (word,) = re.findall(r"grammar is one table in `nalg/cli\.py`: (\w+) leaf commands", text)
    assert _NUMBERS.index(word) == len(_leaves())
