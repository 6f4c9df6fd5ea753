"""The error lines about bad input, which no valid input runs: how a line
quotes the input it names (``_quoted``, the one quoting rule of every
error line), the error of a number past Python's digit limit, and the
reader's place and index errors (see :mod:`nalg.formats`).

This module is lazy (see ``nalg/__init__.py``): it runs when the first
such error is raised, so a command on valid input never runs it.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from itertools import accumulate

from .formats import FormatError


def _too_long() -> ValueError:
    """The error for a numerator or denominator past Python's limit on the
    digits of an int read from or written as text, in place of Python's."""
    return ValueError(f"a numerator or denominator has more than {sys.get_int_max_str_digits()} digits")


# The most characters of an input that an error message shows, each
# non-printable one counted as the characters of its escape: a longer
# input is quoted by an excerpt, from a little before the place that the
# message names.
_QUOTED = 80


def _shown(ch: str) -> str:
    """The character ``ch`` as an error line shows it: as it is if it is
    printable, else escaped as ``repr`` escapes it, so one line stays one."""
    return ch if ch.isprintable() else repr(ch)[1:-1]


def _quoted(text: str, at: int = 0, show=repr) -> str:
    """How an error line shows the input ``text`` at its place, index ``at``:
    ``show`` of an excerpt, each character as ``_shown`` shows it.  The
    excerpt is all of a text that shows in ``_QUOTED`` characters;
    otherwise it shows in at most ``_QUOTED``, from at most a quarter of
    that before ``at``, moved back where the text ends, with "..." for each
    end cut off."""
    # Only the _QUOTED characters on each side of ``at`` can show; cum[i]
    # is the width of the first i of them, and width grows with i.
    lo = max(at - _QUOTED, 0)
    cum = list(accumulate((len(_shown(ch)) for ch in text[lo:at + _QUOTED]), initial=0))
    start = bisect_left(cum, cum[at - lo] - _QUOTED // 4)
    end = bisect_right(cum, cum[start] + _QUOTED) - 1
    start, end = lo + bisect_left(cum, cum[end] - _QUOTED), lo + end
    excerpt = "".join(map(_shown, show(text[start:end])))
    return "..." * (start > 0) + excerpt + "..." * (end < len(text))


def _place(noun: str, head: int | tuple | None) -> str:
    return noun if head is None else f"{noun} {head}"


def _read_index(obj: dict, fields: tuple, dim: int) -> None:
    for field in fields:
        if type(obj[field]) is not int:
            raise FormatError(f"'{field}' must be an integer")
        if not 1 <= obj[field] <= dim:
            raise FormatError(f"index out of range: '{field}' = {_quoted(str(obj[field]), show=str)}")
