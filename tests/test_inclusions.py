"""The paper's inclusion diagram among the classes of the associator,
derived from the group algebra and witnessed on tables.

Each of the seven associator flags (the signed subgroup sums a1..a6 and
the symmetrizer W) holds exactly when its vector lies in the annihilator,
and the annihilator is a right ideal of Q[S3].  So flag i implies flag j
whenever a_j lies in the right ideal a_i Q[S3].  That rule only proves
implications; the witnesses below show that it misses none on these
seven flags: every pair it leaves unimplied has a table where flag i
holds and flag j fails.

For the triple-symmetry flags, G_i! implies G_j! when G_j is a subgroup
of G_i, and every one of them implies associativity.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_engine_differential import algebras, dense_algebras

from nalg import catalog
from nalg.algebras import Algebra, classify
from nalg.linalg import member
from nalg.sym3 import SUBGROUPS, right_ideal, special_vector

FLAGS = ("a1", "a2", "a3", "a4", "a5", "a6", "W")
NAMES = dict(zip(FLAGS, (
    "associative", "Vinberg", "pre-Lie", "reversal", "generalized Jacobi", "Lie-admissible", "3-power associative",
)))
README = Path(__file__).resolve().parent.parent / "README.md"
BEGIN, END = "<!-- inclusions: begin -->\n", "<!-- inclusions: end -->\n"


def _implications():
    """The pairs (i, j), i != j, with a_j in the right ideal a_i Q[S3]."""
    ideals = {f: right_ideal(special_vector(f)) for f in FLAGS}
    return {(i, j) for i in FLAGS for j in FLAGS if i != j and member(special_vector(j).coords, ideals[i])}


IMPLIED = _implications()
UNIMPLIED = {(i, j) for i in FLAGS for j in FLAGS if i != j} - IMPLIED
BANG_IMPLIED = {(i, j) for i in range(2, 7) for j in range(2, 7) if i != j and set(SUBGROUPS[j]) <= set(SUBGROUPS[i])}


def flags(report):
    """The seven associator flags of a classification report, by vector name."""
    return {**{f"a{i}": report.gi_assoc[i] for i in range(1, 7)}, "W": report.is_3_power_associative}


def assert_diagram_holds(report):
    held = flags(report)
    for i, j in IMPLIED:
        assert not held[i] or held[j], (i, j)
    for i, j in BANG_IMPLIED:
        assert not report.gi_bang[i] or report.gi_bang[j], (i, j)
    for i in range(2, 7):
        assert not report.gi_bang[i] or report.is_associative, i


@pytest.fixture(scope="module")
def tables():
    """Every catalog algebra, in catalog order, then all 3**8 tables of dim 2
    with constants in {-1, 0, 1}, in the catalog's search order."""
    tables = [catalog.get(name) for name in catalog.ALGEBRA_NAMES]
    tables += [Algebra(2, P) for P in catalog._candidates(catalog._DIM2)]
    assert len(tables) == len(catalog.ALGEBRA_NAMES) + 6561
    return tables


@pytest.fixture(scope="module")
def reports(tables):
    return [classify(A) for A in tables]


def test_the_implication_matrix():
    # Associativity implies every flag; each order-2 subgroup identity
    # implies Lie-admissibility; the generalized Jacobi identity implies
    # Lie-admissibility and 3-power associativity.
    expected = {("a1", j) for j in FLAGS[1:]}
    expected |= {(i, "a6") for i in ("a2", "a3", "a4", "a5")} | {("a5", "W")}
    assert IMPLIED == expected
    assert len(UNIMPLIED) == 31
    # G6 = S3 contains every subgroup, and no other two of G2..G5 nest.
    assert BANG_IMPLIED == {(6, j) for j in range(2, 6)}


def test_every_implication_holds_on_the_catalog_and_dim_2(reports):
    for report in reports:
        assert_diagram_holds(report)


def test_every_unimplied_pair_has_a_witness(reports):
    # A table where flag i holds and flag j fails, for each pair the rule
    # leaves open: on these seven flags the right-ideal rule is the whole
    # diagram.
    missing = {(i, j) for i, j in UNIMPLIED if not any(f[i] and not f[j] for f in map(flags, reports))}
    assert missing == set()


@given(st.one_of(algebras(), dense_algebras()))
@settings(max_examples=100 * settings.default.max_examples // 100, deadline=None)
def test_every_implication_holds_on_drawn_tables(A):
    assert_diagram_holds(classify(A))


def inclusion_table(tables, reports):
    """The README's table of the implications, one row for each, in flag
    order, with the first table where j holds and i fails: a catalog
    instance by name, else a dim-2 table by its nonzero products."""
    rows = ["| i | implies j | strict: j holds and i fails on |", "|---|---|---|"]
    for i, j in sorted(IMPLIED, key=lambda pair: tuple(map(FLAGS.index, pair))):
        A = next(A for A, f in zip(tables, map(flags, reports)) if f[j] and not f[i])
        witness = f"`{A.name or dict(sorted(A.products.items()))}`"
        rows.append(f"| {i} ({NAMES[i]}) | {j} ({NAMES[j]}) | {witness} |")
    return "\n".join(rows) + "\n"


def test_the_readme_shows_the_inclusion_table(tables, reports):
    text = README.read_text("utf-8")
    block = text[text.index(BEGIN) + len(BEGIN) : text.index(END)]
    assert block == inclusion_table(tables, reports)
