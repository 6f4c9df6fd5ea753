"""The single-pass classify engine against the reference implementation.

Tables of dimension 1 to 6 are sparse with coefficients over denominators
1, 2, 3 and 5, so the engine's denominator clearing always has work to
do, and the layered associator has up to six layers to stop in.  Commutator
algebras of the same tables are drawn too, because they satisfy many
identities at once, which brings annihilators of every dimension from 0
to 6.  Half the tables only multiply upward (e_i e_j lands on indices at
least max(i, j)); those are often associative with nonzero triple
products, whose slot stabilizer is then neither trivial nor everything.
Dense tables of dimension 3 to 6 are drawn as well, because the orbit
probe alone decides most of them, and sparse ones seldom.
"""

import itertools
from fractions import Fraction

import reference_algebras as reference
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_scaling import dense_table_text

import nalg.algebras
from nalg import catalog
from nalg.algebras import (
    _BANG_VECTORS,
    Algebra,
    ClassificationReport,
    _composite_layers,
    _integer_table,
    _kills,
    _orbit_probe,
    _orbit_splits,
    _solve,
    _split_solve,
    annihilator,
    associator,
    classify,
    commutator_algebra,
    gi_bang_check,
    gi_check,
    is_sigma3_assoc_for,
    jacobi_check,
    phi_precompose,
    power_assoc_check,
)
from nalg.cogebras import coannihilator
from nalg.duality import dualize_algebra
from nalg.formats import parse_document
from nalg.linalg import _echelon, span
from nalg.products import tensor_algebras
from nalg.sym3 import (
    PERMS,
    GroupAlgElem,
    ga_multiply,
    inverse,
    killed,
    right_annihilator,
    special_vector,
    split,
)


@st.composite
def algebras(draw):
    n = draw(st.integers(1, 6))
    upward = draw(st.booleans())
    slots = [
        (i, j, k)
        for i, j, k in itertools.product(range(1, n + 1), repeat=3)
        if not upward or k >= max(i, j)
    ]
    keys = draw(st.lists(st.sampled_from(slots), unique=True, max_size=8))
    # A denominator shared by the table keeps the coincidences between
    # coefficients that the identities need; one drawn per entry mixes
    # denominators within the table.
    shared = draw(st.sampled_from((1, 2, 3, 5, 30)))
    table = {}
    for key in keys:
        numerator = draw(st.sampled_from((1, -1, 2, -2)))
        table[key] = Fraction(numerator, shared * draw(st.sampled_from((1, 1, 1, 2, 3, 5))))
    A = Algebra(n, table)
    return commutator_algebra(A) if draw(st.booleans()) else A


DENSE_VALUES = tuple(Fraction(c) for c in ("-2", "-1", "-1/2", "1/2", "1", "2"))


@st.composite
def dense_algebras(draw):
    """Tables of dimension 3 to 6 with about half of all slots set, to the
    values of the benchmark's dense tables: generic enough that the orbit
    probe usually decides them alone, which ``algebras()`` with its eight
    keys rarely is."""
    n = draw(st.integers(3, 6))
    slots = list(itertools.product(range(1, n + 1), repeat=3))
    values = draw(st.lists(st.sampled_from((None,) * 6 + DENSE_VALUES), min_size=len(slots), max_size=len(slots)))
    return Algebra(n, {slot: c for slot, c in zip(slots, values) if c is not None})


# The exterior algebra on two generators, with its unit: (xy)z has the
# support of (yx)z and the opposite sign.
EXTERIOR2 = Algebra(
    4,
    {
        (1, 1, 1): 1,
        **{(1, i, i): 1 for i in (2, 3, 4)},
        **{(i, 1, i): 1 for i in (2, 3, 4)},
        (2, 3, 4): Fraction(1, 2),
        (3, 2, 4): Fraction(-1, 2),
    },
    unit=(1, 0, 0, 0),
)

# e1 e2 = f12, e2 e3 = f23, e3 e1 = f31 (e4, e5, e6), and f12 e3 = f23 e1
# = f31 e2 = e1 f23 = e2 f31 = e3 f12 = w (e7): associative, and (xy)z is
# fixed by exactly {id, c1, c2}.
CYCLIC7 = Algebra(
    7,
    {
        (1, 2, 4): 1, (2, 3, 5): 1, (3, 1, 6): 1,
        (4, 3, 7): 1, (5, 1, 7): 1, (6, 2, 7): 1,
        (1, 5, 7): 1, (2, 6, 7): 1, (3, 4, 7): 1,
    },
)

# e1 e2 = f12, e3 e2 = f32, e2 e3 = g23, e2 e1 = g21 (e4 to e7), and
# f12 e3 = f32 e1 = e1 g23 = e3 g21 = w (e8): associative, and (xy)z is
# fixed by exactly {id, t13}.
REVERSAL8 = Algebra(
    8,
    {
        (1, 2, 4): 1, (3, 2, 5): 1, (2, 3, 6): 1, (2, 1, 7): 1,
        (4, 3, 8): 1, (5, 1, 8): 1, (1, 6, 8): 1, (3, 7, 8): 1,
    },
)

# Cases random draws rarely reach: annihilators of dimension 5 and 2, one
# that is a single standard copy (g has both scalars nonzero and rho of
# rank 1), associative algebras whose (xy)z is fixed by {id, t12}, by
# {id, t23}, by the identity alone, by {id, c1, c2} and by {id, t13}, and
# a unital one.
RARE = (
    Algebra(3, {(3, 3, 2): Fraction(-1, 2), (3, 2, 1): Fraction(1, 3)}),
    Algebra(3, {(3, 3, 3): Fraction(-1, 5), (2, 1, 3): Fraction(2, 3)}),
    Algebra(4, {(2, 2, 1): 2, (1, 2, 3): 1, (2, 1, 3): -1, (4, 2, 4): -1, (2, 4, 4): 1, (3, 4, 3): 1, (4, 3, 3): -1}),
    Algebra(2, {(1, 1, 1): Fraction(1, 2), (1, 2, 2): Fraction(1, 2)}),
    Algebra(2, {(1, 1, 1): Fraction(-1, 3), (2, 1, 2): Fraction(-1, 3)}),
    Algebra(4, {(1, 1, 1): Fraction(-1, 5), (1, 3, 3): Fraction(-1, 5), (4, 1, 4): Fraction(-1, 5)}),
    EXTERIOR2,
    CYCLIC7,
    REVERSAL8,
)


def with_rare_examples(*rest):
    def decorate(test):
        for A in RARE:
            test = example(A, *rest)(test)
        return test

    return decorate


ga_elems = st.builds(
    GroupAlgElem,
    st.tuples(*[st.sampled_from((0, 0, 1, -1, Fraction(1, 2), Fraction(-2, 3)))] * 6),
)


@with_rare_examples()
@given(algebras())
@settings(max_examples=120 * settings.default.max_examples // 100, deadline=None)
def test_classify_report_matches_reference(A):
    ours, ref = classify(A), reference.classify(A)
    for name in ClassificationReport.__slots__:
        assert getattr(ours, name) == getattr(ref, name), name


@with_rare_examples(special_vector("a5") + special_vector("v2"))
@given(algebras(), ga_elems)
@settings(max_examples=80 * settings.default.max_examples // 100, deadline=None)
def test_single_checks_match_reference(A, v):
    for i in range(1, 7):
        assert gi_check(A, i) == reference.gi_check(A, i), i
    for i in range(2, 7):
        assert gi_bang_check(A, i) == reference.gi_bang_check(A, i), i
    assert power_assoc_check(A) == reference.power_assoc_check(A)
    assert jacobi_check(A) == reference.jacobi_check(A)
    assert is_sigma3_assoc_for(A, v) == reference.is_sigma3_assoc_for(A, v)
    assert annihilator(A) == reference.annihilator(A)


def test_only_the_exact_stabilizer_holds():
    # The triple-symmetry flags of index 4 and 5 are not full symmetry.
    assert classify(CYCLIC7).gi_bang == {2: False, 3: False, 4: False, 5: True, 6: False}
    assert classify(REVERSAL8).gi_bang == {2: False, 3: False, 4: True, 5: False, 6: False}


@given(algebras(), ga_elems)
@settings(max_examples=60 * settings.default.max_examples // 100, deadline=None)
def test_trilinear_maps_match_reference(A, v):
    T = associator(A)
    assert T == reference.associator(A)
    assert phi_precompose(T, v) == reference.phi_precompose(T, v)
    left, right = reference.left_assoc_map(A), reference.right_assoc_map(A)
    for coefficients in ((1, 0), (0, 1), (2, -3)):
        layers, scale = _layers(A, *coefficients)
        assert all(max(key[:3]) == t for t, layer in zip(_used(A), layers, strict=True) for key in layer)
        ref = reference.combine(A.dim, zip(coefficients, (left, right)))
        assert {key: Fraction(c, scale) for layer in layers for key, c in layer.items()} == ref.entries


@given(algebras())
@settings(max_examples=60 * settings.default.max_examples // 100, deadline=None)
def test_annihilator_is_closed_under_right_multiplication(A):
    # The identity is among the permutations, so the translates span the closure.
    ann = annihilator(A)
    translates = [ga_multiply(GroupAlgElem(row), GroupAlgElem.from_perm(p)).coords for row in ann.basis for p in PERMS]
    assert span(translates, 6) == ann


def _used(A):
    """The indices that the table of ``A`` uses, one per layer."""
    return sorted({t for key in A.products for t in key})


def _layers(A, left=1, right=-1):
    P, d = _integer_table(A.products)
    return list(_composite_layers(P, left, right)), d * d


def _rank_after_each_layer(A):
    rows, ranks = [], []
    for layer in _layers(A)[0]:
        rows.extend(reference.slot_rows(layer))
        ranks.append(len(_echelon(rows)[1]))
    return ranks


@given(algebras())
@settings(max_examples=60 * settings.default.max_examples // 100, deadline=None)
def test_layers_partition_the_associator(A):
    layers, scale = _layers(A)
    seen = set()
    for t, layer in zip(_used(A), layers, strict=True):
        assert all(max(key[:3]) == t for key in layer), t
        assert seen.isdisjoint(layer), t
        seen.update(layer)
    union = {key: Fraction(c, scale) for layer in layers for key, c in layer.items()}
    assert union == reference.associator(A).entries
    assert associator(A) == reference.associator(A)


# Rank 6 is reached only in the last of three layers: the first is zero,
# the second has rank 3.
LAST_LAYER = Algebra(3, {(1, 2, 1): Fraction(-1, 2), (1, 3, 2): 1})


def test_rank_six_only_in_the_last_layer():
    assert _rank_after_each_layer(LAST_LAYER) == [0, 3, 6]
    assert _layers_pulled(LAST_LAYER, 1, -1) == (3, 3)
    assert annihilator(LAST_LAYER) == reference.annihilator(LAST_LAYER)
    assert annihilator(LAST_LAYER).dim == 0
    assert classify(LAST_LAYER) == reference.classify(LAST_LAYER)


def test_rank_six_never_reached():
    # mat2 is associative: every layer is empty and the scan never stops
    # early.  vinberg2 keeps rank 3 through all of its layers.
    mat2, vinberg2 = catalog.get("mat2"), catalog.get("vinberg2")
    assert _layers(mat2)[0] == [{}] * mat2.dim
    assert _rank_after_each_layer(vinberg2)[-1] == 3
    for A in (mat2, vinberg2):
        assert classify(A) == reference.classify(A)
        assert gi_check(A, 1) == reference.gi_check(A, 1)


def test_dimension_one_and_empty_tables():
    for A in (Algebra(1, {(1, 1, 1): Fraction(-2, 3)}), Algebra(1, {}), Algebra(4, {})):
        assert classify(A) == reference.classify(A)
        assert annihilator(A).dim == 6
        assert all(gi_check(A, i) for i in range(1, 7))
        assert power_assoc_check(A)
    assert _layers(Algebra(1, {(1, 1, 1): 1}))[0] == [{}]
    assert _layers(Algebra(4, {}))[0] == []


def test_one_layer_per_used_index():
    # The layers follow the indices a table uses, not its largest index.
    n = 10**5
    A = Algebra(n, {(n, n, n): 1})
    assert _layers(A)[0] == [{}]
    assert classify(A) == reference.classify(Algebra(1, {(1, 1, 1): 1}))
    # Three indices spread up to 10**9: the join files entries by the
    # indices themselves, so any table sized by the largest one would
    # exhaust memory here.  Relabelled in order onto 1, 2, 3, the table
    # gives the same report.
    n, h = 10**9, 5 * 10**8
    A = Algebra(n, {(2, n, h): 1, (h, 2, 2): -1, (n, h, 2): 1})
    assert len(_layers(A)[0]) == 3
    assert classify(A) == classify(Algebra(3, {(1, 3, 2): 1, (2, 1, 1): -1, (3, 2, 1): 1}))


def _counted(layers, pulled):
    for layer in layers:
        pulled.append(layer)
        yield layer


def _layers_pulled(A, left, right):
    """How many layers of the composite the split solve and the slot-row
    solve each pull before they stop."""
    P = _integer_table(A.products)[0]
    by_split, by_rows = [], []
    _split_solve(_orbit_splits(_counted(_composite_layers(P, left, right), by_split)))
    reference.slot_kernel(_counted(_composite_layers(P, left, right), by_rows))
    return len(by_split), len(by_rows)


# The integer vectors a report reads: a_1..a_6 and W on the associator, the
# bang vectors on (xy)z.
ASSOCIATOR_VECTORS = {
    name: tuple(map(int, special_vector(name).coords)) for name in ("a1", "a2", "a3", "a4", "a5", "a6", "W")
}
INVERSE_ORDER = [PERMS.index(inverse(p)) for p in PERMS]


@with_rare_examples((2, -1, 0, 0, 1, -2))
@given(algebras(), st.tuples(*[st.integers(-2, 2)] * 6))
@settings(max_examples=80 * settings.default.max_examples // 100, deadline=None)
def test_split_solve_matches_the_slot_row_solve(A, v):
    P = _integer_table(A.products)[0]
    solved = {}
    for composite, vectors in (((1, -1), ASSOCIATOR_VECTORS), ((1, 0), _BANG_VECTORS)):
        g = _split_solve(_orbit_splits(_composite_layers(P, *composite)))
        ann = reference.slot_kernel(_composite_layers(P, *composite))
        assert right_annihilator(g) == ann
        by_split, by_rows = _layers_pulled(A, *composite)
        assert by_split == by_rows
        for w in (v, *vectors.values()):
            assert killed(g, split(w)) == ann.contains(w)
            ours = _kills(split(w), _composite_layers(P, *composite))
            assert ours == reference.slot_kills(w, _composite_layers(P, *composite))
        solved[composite] = ann
    ann, sym = solved[(1, -1)], solved[(1, 0)]
    assert annihilator(A) == ann
    inverted = [tuple(row[q] for q in INVERSE_ORDER) for row in ann.basis]
    assert coannihilator(dualize_algebra(A)) == span(inverted, 6)
    report = classify(A)
    gi = {i: ann.contains(ASSOCIATOR_VECTORS[f"a{i}"]) for i in range(1, 7)}
    assert report.gi_assoc == gi
    assert report.gi_bang == {i: gi[1] and sym.contains(u) for i, u in _BANG_VECTORS.items()}
    assert report.is_3_power_associative == ann.contains(ASSOCIATOR_VECTORS["W"])
    assert report.annihilator_dim == ann.dim
    assert report.annihilator_basis == tuple(GroupAlgElem(row) for row in ann.basis)


# Used indices 3 and 7 only: no orbit with three distinct indices.
TWO_INDICES = Algebra(9, {(3, 7, 3): 1, (7, 7, 3): Fraction(-1, 2), (7, 3, 7): 2})
# Used indices 2, 5 and 9, so the probe reads the slot permutations of
# (2, 5, 9), not of (1, 2, 3).
SPREAD = Algebra(9, {(2, 5, 9): 1, (9, 2, 5): 2, (5, 9, 2): -1, (9, 9, 9): Fraction(1, 3), (5, 2, 2): 1})
# e4 e4 = e1 + e2 + e3 and e4 e1 = e4: every product among e1, e2, e3 is
# zero, so the probe is zero in both composites, and the first nonzero
# layer is the fourth.
LATE = Algebra(4, {(4, 4, 1): 1, (4, 4, 2): 1, (4, 4, 3): 1, (4, 1, 4): 1})


def _at_probe_keys(A, left, right):
    """The splits of the orbits of the composite over all layers at the
    keys whose input indices are the first three that the table uses, in
    some order: one orbit per output index whose values there are not all
    zero, its six values read in the order of PERMS from the first three
    indices in increasing order, sorted."""
    P = _integer_table(A.products)[0]
    first = _used(A)[:3]
    if len(first) < 3:
        return []
    at_keys = {
        key: c for layer in _composite_layers(P, left, right) for key, c in layer.items() if sorted(key[:3]) == first
    }
    orders = [tuple(first[s(t) - 1] for t in (1, 2, 3)) for s in PERMS]
    return sorted(split([at_keys.get((*order, l), 0) for order in orders]) for l in {key[3] for key in at_keys})


@example(TWO_INDICES)
@example(SPREAD)
@example(LATE)
# Associative: the probe reaches outputs whose associator orbits are zero.
@example(catalog.get("mat2"))
@given(st.one_of(algebras(), dense_algebras()))
@settings(max_examples=60 * settings.default.max_examples // 100, deadline=None)
def test_probe_is_the_composite_at_its_keys(A):
    P = _integer_table(A.products)[0]
    for composite in ((1, -1), (1, 0)):
        steps = list(_orbit_probe(P, *composite))
        # One nonzero orbit, so one output index, per step, never one twice
        # and none left out: the steps are the splits of the composite's
        # orbits at the probe's keys.
        assert all(any(step) for step in steps), composite
        assert sorted(steps) == _at_probe_keys(A, *composite), composite
        ann = reference.slot_kernel(_composite_layers(P, *composite))
        assert right_annihilator(_solve(P, *composite)) == ann, composite
    ann = reference.slot_kernel(_composite_layers(P, 1, -1))
    assert annihilator(A) == ann
    report = classify(A)
    assert report.annihilator_basis == tuple(GroupAlgElem(row) for row in ann.basis)
    assert report.gi_assoc == {i: ann.contains(ASSOCIATOR_VECTORS[f"a{i}"]) for i in range(1, 7)}


def test_probe_cases():
    for composite in ((1, -1), (1, 0)):
        assert list(_orbit_probe(_integer_table(TWO_INDICES.products)[0], *composite)) == []
        # The orbits at the permutations of (2, 5, 9); those of (1, 2, 3)
        # are zero.
        probe = list(_orbit_probe(_integer_table(SPREAD.products)[0], *composite))
        assert probe and sorted(probe) == _at_probe_keys(SPREAD, *composite)
        # A zero probe leaves the solve to the layers, which it reads to
        # the fourth, the first nonzero one.
        assert list(_orbit_probe(_integer_table(LATE.products)[0], *composite)) == []
        layers = _layers(LATE, *composite)[0]
        assert layers[:3] == [{}] * 3 and layers[3]
    assert _layers_pulled(LATE, 1, -1) == (4, 4)
    assert _pulled_by_classify(LATE) == [4]
    for A in (TWO_INDICES, SPREAD, LATE):
        assert classify(A) == reference.classify(A)


def _pulled_by_classify(A, name="_composite_layers"):
    """How many layers (or, with ``name`` "_orbit_probe", probe steps) each
    call of the generator ``name`` made by ``classify(A)`` pulls; a call
    whose items are never read is absent."""
    pulled = []
    generator = getattr(nalg.algebras, name)

    def counting(P, left, right):
        items = []
        pulled.append(items)
        yield from _counted(generator(P, left, right), items)

    setattr(nalg.algebras, name, counting)
    try:
        classify(A)
    finally:
        setattr(nalg.algebras, name, generator)
    return [len(items) for items in pulled]


class _CountingGets(dict):
    """A table that counts its ``get`` calls."""

    gets = 0

    def get(self, key, default=None):
        self.gets += 1
        return super().get(key, default)


def test_generic_tables_are_decided_by_the_probe():
    # A generic dense table, and the dim-40 table of the scaling guard,
    # are decided before the first layer is computed; the associative
    # mat2 reads all four of its (empty) associator layers, as before the
    # probe, and the probe decides its (xy)z.  A refactor that drops the
    # probe keeps every answer, so only these counts show it.
    for dim in (5, 40):
        A = parse_document(dense_table_text(dim))
        assert _pulled_by_classify(A) == [], dim
        # The probe itself stops after its first output index, and joins
        # the later ones only when they are pulled.
        assert _pulled_by_classify(A, "_orbit_probe") == [1], dim
        P = _CountingGets(_integer_table(A.products)[0])
        steps = _orbit_probe(P, 1, -1)
        next(steps)
        first = P.gets
        assert list(steps) and P.gets > first, dim
    mat2 = catalog.get("mat2")
    assert _pulled_by_classify(mat2) == [mat2.dim]


def test_probe_reads_only_the_outputs_its_rows_reach():
    # On the mat2 towers the probe's terms reach the same few outputs
    # whatever the dimension, so past the reads that build its terms (six
    # keys at every used index, once per nonzero coefficient) its steps
    # read the same number of keys on every tower; ranging over every
    # used output would read more on each larger tower.
    mat2 = catalog.get("mat2")
    m4 = tensor_algebras(mat2, mat2)
    for composite in ((1, -1), (1, 0)):
        extra = set()
        for A in (mat2, m4, tensor_algebras(m4, mat2)):
            P = _CountingGets(_integer_table(A.products)[0])
            list(_orbit_probe(P, *composite))
            extra.add(P.gets - 6 * len(set().union(*P)) * sum(map(bool, composite)))
        assert len(extra) == 1, composite
