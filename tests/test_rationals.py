"""The strict "p/q" text form against the regular expression it replaced.

``linalg._rational_pair`` reads the form with ``str.partition`` and
``isdigit() and isascii()`` on each digit run.  The expression below is
the one it replaced, kept as the oracle: both must accept the same texts,
give the same pairs, and fail with the same error texts, also where
``int`` itself fails on a text past Python's int-digit limit: there nalg
names the limit in its own words, in place of Python's text.
"""

import re
import sys
from fractions import Fraction
from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nalg import linalg
from nalg.linalg import parse_rational

_RATIONAL_FORM = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?\Z")


def to_int(digits):
    """``int(digits)``, failing past Python's int-digit limit with nalg's text."""
    try:
        return int(digits)
    except ValueError:
        raise ValueError(f"a numerator or denominator has more than {sys.get_int_max_str_digits()} digits") from None


def regex_pair(text):
    m = _RATIONAL_FORM.match(text)
    if m is None:
        raise ValueError(f"malformed rational: {text!r}")
    if m.group(2) is None:
        return to_int(m.group(1)), 1
    q = to_int(m.group(2))
    if q == 0:
        raise ValueError(f"malformed rational: {text!r} (denominator must be positive)")
    p = to_int(m.group(1))
    g = gcd(p, q)
    return p // g, q // g


def outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


# "²" and "١" pass ``isdigit`` but are not ASCII digits.
ALPHABET = "0123456789+-/ _.e²١"
# Digit runs around the int-digit limit (4,300 by default), so that ``int``
# fails on some of them, in the numerator or the denominator.
long_runs = st.builds(lambda n, d: d * n, st.integers(4290, 4310), st.sampled_from("0179"))
texts = st.one_of(
    st.text(ALPHABET, max_size=12),
    st.lists(st.one_of(st.sampled_from(("", "+", "-", "/", "0", "7", "12", "²", "١", " ", "_", ".", "e")), long_runs),
             max_size=5).map("".join),
)


@example("")
@example("-0")
@example("+4/6")
@example("0/5")
@example("1/0")
@example("1/2/3")
@example("²")
@example("1/١")
@example(" 1")
@example("1_0")
@example("1e3")
@example("-" + "9" * 4301)
@example("1/" + "9" * 4301)
@example("9" * 4301 + "/0")
@given(texts)
@settings(max_examples=400)
def test_rational_pair_matches_the_regular_expression(text):
    ours = outcome(linalg._rational_pair, text)
    assert ours == outcome(regex_pair, text)
    if type(ours) is tuple:
        assert parse_rational(text) == Fraction(*ours)
