from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nalg.linalg import (
    Subspace,
    _echelon,
    format_rational,
    kernel,
    member,
    parse_rational,
    span,
)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


class TestRationalText:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("-3/2", F(-3, 2)),
            ("7", F(7)),
            ("+5", F(5)),
            ("0", F(0)),
            ("2/4", F(1, 2)),
            ("-0/3", F(0)),
        ],
    )
    def test_accepts(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize(
        "text",
        ["", "1.5", "1/0", "1/-2", "1 / 2", "a", "--1", "1/2/3", "1e3", " 1"],
    )
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    @given(rationals)
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q

    @pytest.mark.parametrize("text", ["-3/2", "7", "0", "1/2", "-12"])
    def test_canonical_strings_reproduce(self, text):
        assert format_rational(parse_rational(text)) == text


class TestSpan:
    def test_empty_span(self):
        s = span([], 6)
        assert s.dim == 0 and s.ambient_dim == 6

    def test_empty_span_needs_dim(self):
        with pytest.raises(ValueError):
            span([])

    def test_full_plane(self):
        s = span([(1, 0), (0, 1), (1, 1)])
        assert s.dim == 2
        assert s.basis == ((F(1), F(0)), (F(0), F(1)))

    def test_mismatched_dims(self):
        with pytest.raises(ValueError):
            span([(1, 0), (1, 0, 0)])

    def test_orbit_translates_of_alternating_vector(self):
        # the six translates of the alternating sum span a line
        from nalg.sym3 import orbit, special_vector

        s = span([e.coords for e in orbit(special_vector("V"))], 6)
        assert s.dim == 1

    @given(st.lists(st.lists(rationals, min_size=3, max_size=3), max_size=5))
    @settings(max_examples=60)
    def test_idempotent(self, vectors):
        s = span(vectors, 3)
        assert span(s.basis, 3) == s


class TestKernel:
    def test_identity(self):
        assert kernel([(1, 0, 0), (0, 1, 0), (0, 0, 1)]).dim == 0

    def test_zero_matrix(self):
        assert kernel([[0] * 5, [0] * 5]).dim == 5

    def test_proportional_rows(self):
        k = kernel([(1, 1), (2, 2)])
        assert k.dim == 1
        assert k.basis == ((F(1), F(-1)),)

    def test_empty_matrix(self):
        assert kernel([], 4).dim == 4
        with pytest.raises(ValueError):
            kernel([])

    def test_rows_of_ints_fractions_and_strings_agree(self):
        ints = [(2, -4, 0, 6), (1, 1, 1, 1)]
        halves = [tuple(F(x, 2) for x in r) for r in ints]
        texts = [tuple(str(x) for x in r) for r in halves]
        assert kernel(ints, 4) == kernel(halves, 4) == kernel(texts, 4)
        assert kernel(ints, 4).basis == ((1, 0, F(-2, 3), F(-1, 3)), (0, 1, F(-5, 3), F(2, 3)))

    @given(
        st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=1, max_size=6)
    )
    @settings(max_examples=60)
    def test_rank_nullity(self, rows):
        assert span(rows, 4).dim + kernel(rows, 4).dim == 4


class TestMember:
    def test_zero_vector(self):
        assert member((0, 0), span([(1, 1)]))
        assert member((0, 0, 0), span([], 3))

    def test_not_member(self):
        assert not member((1, 0), span([(0, 1)]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            member((1, 0, 0), span([(0, 1)]))

    def test_alternating_vector_in_right_ideal(self):
        # expanding (id - t12)(id + c1 + c2) in the group algebra gives the
        # alternating vector, so it lies in the right ideal of id - t12
        from nalg.sym3 import ga_multiply, right_ideal, special_vector

        product = ga_multiply(special_vector("a2"), special_vector("a5"))
        assert product == special_vector("V")
        assert member(special_vector("V").coords, right_ideal(special_vector("a2")))

    def test_subspace_contains_matches_member(self):
        s = span([(1, 2, 3), (0, 1, 1)])
        assert s.contains((1, 3, 4))
        assert not s.contains((0, 0, 1))


def test_subspace_equality_is_canonical():
    a = span([(1, 1), (1, -1)])
    b = span([(2, 0), (0, 3)])
    assert a == b
    assert isinstance(a, Subspace)


def _reference_rref(rows, ncols):
    """Textbook Gauss-Jordan elimination over Fraction."""
    basis = []
    for row in rows:
        work = [F(x) for x in row]
        for r in basis:
            p = next(j for j, x in enumerate(r) if x)
            work = [x - work[p] * y for x, y in zip(work, r)]
        p = next((j for j, x in enumerate(work) if x), None)
        if p is None:
            continue
        work = [x / work[p] for x in work]
        basis = [[x - r[p] * y for x, y in zip(r, work)] for r in basis]
        basis.append(work)
    basis.sort(key=lambda r: next(j for j, x in enumerate(r) if x))
    return tuple(tuple(r) for r in basis)


def _reference_kernel(rows, ncols):
    rref = _reference_rref(rows, ncols)
    pivots = [next(j for j, x in enumerate(r) if x) for r in rref]
    vectors = []
    for f in range(ncols):
        if f not in pivots:
            v = [F(0)] * ncols
            v[f] = F(1)
            for r, p in zip(rref, pivots):
                v[p] = -r[f]
            vectors.append(v)
    return _reference_rref(vectors, ncols)


@given(st.lists(st.lists(rationals, min_size=6, max_size=6), max_size=8))
@settings(max_examples=60)
def test_integer_elimination_matches_fraction_reference(rows):
    # Proportional and repeated rows make the dependent cases common.
    rows = rows + [[2 * x for x in r] for r in rows[:2]] + [[x - y for x, y in zip(r, s)] for r, s in zip(rows, rows[1:3])]
    assert span(rows, 6).basis == _reference_rref(rows, 6)
    assert kernel(rows, 6).basis == _reference_kernel(rows, 6)


@given(st.lists(st.lists(rationals, min_size=6, max_size=6), max_size=8), st.data())
@settings(max_examples=60)
def test_member_matches_fraction_reference(rows, data):
    # Half the vectors are drawn as rational combinations of the rows, so
    # members are common even when the rows span a proper subspace.
    if rows and data.draw(st.booleans()):
        coeffs = data.draw(st.lists(rationals, min_size=len(rows), max_size=len(rows)))
        v = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(6)]
    else:
        v = data.draw(st.lists(rationals, min_size=6, max_size=6))
    assert member(v, span(rows, 6)) == (len(_reference_rref(rows + [v], 6)) == len(_reference_rref(rows, 6)))


def test_echelon_stops_at_full_rank():
    # Six independent rows fill the six columns; the row after them must
    # never be read.
    def rows():
        for i in range(6):
            yield [3 * (j >= i) + (j == i) for j in range(6)]
        raise AssertionError("row read after the rank reached the column count")

    pivots, basis = _echelon(rows())
    assert pivots == list(range(6))
    assert basis == [[int(i == j) for j in range(6)] for i in range(6)]
