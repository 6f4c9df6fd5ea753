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
from shared import algebras, dense_algebras, dense_table_text

import nalg.algebras
from nalg import catalog
from nalg.algebras import (
    Algebra,
    ClassificationReport,
    _PROBE_ORDERS,
    _PROBE_SHAPES,
    _SLOT_ORDERS,
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
    is_antisymmetric,
    is_commutative,
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
    SUBGROUPS,
    GroupAlgElem,
    ga_multiply,
    inverse,
    killed,
    right_annihilator,
    special_vector,
    split,
)


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
# u_i - |G_i| id for i = 2..6, with u_i the sum of the members of G_i: it
# kills (xy)z under slot permutation exactly when (xy)z is G_i-invariant.
BANG_VECTORS = {
    i: tuple(int(p in G) - len(G) * (p == PERMS[0]) for p in PERMS) for i, G in SUBGROUPS.items() if i > 1
}
INVERSE_ORDER = [PERMS.index(inverse(p)) for p in PERMS]


@with_rare_examples((2, -1, 0, 0, 1, -2))
@given(algebras(), st.tuples(*[st.integers(-2, 2)] * 6))
@settings(max_examples=80 * settings.default.max_examples // 100, deadline=None)
def test_split_solve_matches_the_slot_row_solve(A, v):
    P = _integer_table(A.products)[0]
    solved = {}
    for composite, vectors in (((1, -1), ASSOCIATOR_VECTORS), ((1, 0), BANG_VECTORS)):
        g = _split_solve(_orbit_splits(_composite_layers(P, *composite)))
        ann = reference.slot_kernel(_composite_layers(P, *composite))
        assert right_annihilator(g) == ann
        by_split, by_rows = _layers_pulled(A, *composite)
        assert by_split == by_rows
        for w in (v, *vectors.values()):
            assert killed(g, split(w)) == ann.contains(w)
            ours = _kills(split(w), P, *composite)
            assert ours == reference.slot_kills(w, _composite_layers(P, *composite))
        solved[composite] = ann
    ann, sym = solved[(1, -1)], solved[(1, 0)]
    assert annihilator(A) == ann
    inverted = [tuple(row[q] for q in INVERSE_ORDER) for row in ann.basis]
    assert coannihilator(dualize_algebra(A)) == span(inverted, 6)
    report = classify(A)
    gi = {i: ann.contains(ASSOCIATOR_VECTORS[f"a{i}"]) for i in range(1, 7)}
    assert report.gi_assoc == gi
    assert report.gi_bang == {i: gi[1] and sym.contains(u) for i, u in BANG_VECTORS.items()}
    assert report.is_3_power_associative == ann.contains(ASSOCIATOR_VECTORS["W"])
    assert report.annihilator_dim == ann.dim
    assert report.annihilator_basis == tuple(GroupAlgElem(row) for row in ann.basis)


# Used indices 3 and 7 only: no orbit with three distinct indices, so
# the probe reads the orbits of (3, 3, 7) and (3, 7, 7).
TWO_INDICES = Algebra(9, {(3, 7, 3): 1, (7, 7, 3): Fraction(-1, 2), (7, 3, 7): 2})
# Used indices 2, 5 and 9, so the probe reads the slot permutations of
# (2, 5, 9), not of (1, 2, 3).
SPREAD = Algebra(9, {(2, 5, 9): 1, (9, 2, 5): 2, (5, 9, 2): -1, (9, 9, 9): Fraction(1, 3), (5, 2, 2): 1})
# e4 e4 = e1 + e2 + e3 and e4 e1 = e4: every product among e1, e2, e3 is
# zero, so the probe is zero in both composites, and the first nonzero
# layer is the fourth.
LATE = Algebra(4, {(4, 4, 1): 1, (4, 4, 2): 1, (4, 4, 3): 1, (4, 1, 4): 1})


def _probe_starts(A):
    """The probe's starts: the first three indices the table uses, in
    increasing order; (a, a, b) and (a, b, b) when it uses exactly two,
    a < b; none when it uses fewer."""
    used = _used(A)
    if len(used) == 2:
        a, b = used
        return [(a, a, b), (a, b, b)]
    return [tuple(used[:3])] if len(used) > 2 else []


def _at_probe_keys(A, left, right):
    """The splits of the orbits of the composite over all layers at the
    keys whose input indices are a start of the probe, in some order: for
    each start, one orbit per output index whose values there are not all
    zero, its six values read in the order of PERMS from the start, all
    sorted."""
    P = _integer_table(A.products)[0]
    composite = {key: c for layer in _composite_layers(P, left, right) for key, c in layer.items()}
    out = []
    for start in _probe_starts(A):
        at_keys = {key: c for key, c in composite.items() if tuple(sorted(key[:3])) == start}
        orders = [tuple(start[s(t) - 1] for t in (1, 2, 3)) for s in PERMS]
        out += [split([at_keys.get((*order, l), 0) for order in orders]) for l in {key[3] for key in at_keys}]
    return sorted(out)


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
    assert _probe_starts(TWO_INDICES) == [(3, 3, 7), (3, 7, 7)]
    for composite in ((1, -1), (1, 0)):
        # The orbits of (3, 3, 7) and (3, 7, 7): one per output index.
        probe = list(_orbit_probe(_integer_table(TWO_INDICES.products)[0], *composite))
        assert probe and sorted(probe) == _at_probe_keys(TWO_INDICES, *composite)
        # Each is fixed by a transposition, so its sign is zero.
        assert all(step[1] == 0 for step in probe)
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
    return _pulled_by(lambda: classify(A), name)


def _pulled_by(call, name="_composite_layers"):
    """``_pulled_by_classify`` for any ``call`` without arguments."""
    pulled = []
    generator = getattr(nalg.algebras, name)

    def counting(*args):
        items = []
        pulled.append(items)
        yield from _counted(generator(*args), items)

    setattr(nalg.algebras, name, counting)
    try:
        call()
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


# --- the early exits: kill tests read the probe first, two-index probes, caps

def _check_against_reference(A):
    """The capped solves of both composites against the uncapped slot-row
    oracle, and every kill test against the oracle's own (every slot row
    orthogonal to the vector)."""
    P = _integer_table(A.products)[0]
    layers = {composite: list(_composite_layers(P, *composite)) for composite in ((1, -1), (1, 0))}

    def kills(w, composite):
        return reference.slot_kills(w, layers[composite])

    gi = {i: kills(ASSOCIATOR_VECTORS[f"a{i}"], (1, -1)) for i in range(1, 7)}
    for i in range(1, 7):
        assert gi_check(A, i) == gi[i], i
    assert power_assoc_check(A) == kills(ASSOCIATOR_VECTORS["W"], (1, -1))
    for i, u in BANG_VECTORS.items():
        assert gi_bang_check(A, i) == (gi[1] and kills(u, (1, 0))), i
    assert right_annihilator(_solve(P, 1, -1)) == reference.slot_kernel(layers[(1, -1)])
    for associative in {False, gi[1]}:
        assert right_annihilator(_solve(P, 1, 0, associative)) == reference.slot_kernel(layers[(1, 0)])


def test_every_dim_2_table_against_the_reference(dim2_tables):
    # All 3**8 tables with constants in {-1, 0, 1}, the catalog's dim-2
    # candidates: each is on at most two indices, so its probe reads the
    # orbits of (1, 1, 2) and (1, 2, 2), and sgn(g) is certified zero.
    tables = list(dim2_tables.values())
    assert len(tables) == 6561
    assert [A.products for A in tables] == list(catalog._candidates(catalog._DIM2))
    for A in tables:
        _check_against_reference(A)
    # With sgn(g) certified zero, the probe alone brings g to its cap, and
    # the solve computes no layer, on all but 696 of them.
    assert sum(_layers_pulled_by_solve(A, 1, -1)[0] == 0 for A in tables) == 5865


def test_kill_tests_read_the_probe_first():
    # The prelie2 search's 356 candidates: the kill tests read the probe's
    # orbits of (1, 1, 2) and (1, 2, 2) first, and pull 20 layers in all,
    # against 721 when they read the layers alone.
    candidates = list(itertools.islice(catalog._candidates(catalog._DIM2), 356))
    pulled = [_pulled_by(lambda: catalog._holds(P, 3) and not catalog._holds(P, 1)) for P in candidates]
    assert sum(map(sum, pulled)) == 20
    # A generic dense table fails every identity at the probe's first orbit,
    # and its solve never checks the table's symmetry.
    checked = []
    symmetric = nalg.algebras._symmetric
    nalg.algebras._symmetric = lambda *args: checked.append(args) or symmetric(*args)
    try:
        for dim in (5, 40):
            A = parse_document(dense_table_text(dim))
            assert _pulled_by(lambda: [gi_check(A, i) for i in range(1, 7)] + [power_assoc_check(A)]) == [], dim
            assert _pulled_by(lambda: [gi_bang_check(A, i) for i in range(2, 7)]) == [], dim
            assert _pulled_by_classify(A) == [] and checked == [], dim
    finally:
        nalg.algebras._symmetric = symmetric


@st.composite
def two_index_algebras(draw):
    """Tables on exactly two indices a < b inside a larger dimension."""
    n = draw(st.integers(3, 7))
    a, b = sorted(draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)))
    slots = list(itertools.product((a, b), repeat=3))
    keys = draw(st.lists(st.sampled_from(slots), unique=True, min_size=1, max_size=8))
    table = {key: Fraction(draw(st.sampled_from((1, -1, 2, -2))), draw(st.sampled_from((1, 2, 3)))) for key in keys}
    return Algebra(n, table) if len({t for key in table for t in key}) == 2 else Algebra(n, {(a, b, b): 1})


@example(Algebra(6, {(2, 5, 2): 1, (5, 5, 5): -1, (5, 2, 5): Fraction(1, 2)}))
@given(two_index_algebras())
@settings(max_examples=60 * settings.default.max_examples // 100, deadline=None)
def test_tables_on_two_indices(A):
    P = _integer_table(A.products)[0]
    for composite in ((1, -1), (1, 0)):
        probe = list(_orbit_probe(P, *composite))
        assert sorted(probe) == _at_probe_keys(A, *composite), composite
        assert all(step[1] == 0 for step in probe), composite
        # sgn(g) = 0 is certified, so a probe that makes eps(g) nonzero
        # and rho(g) invertible ends the solve before any layer.
        g = _split_solve(probe)
        if g[0] and g[5]:
            assert _layers_pulled_by_solve(A, *composite)[0] == 0, composite
    _check_against_reference(A)
    assert classify(A) == reference.classify(A)


def test_the_probe_joins_each_distinct_slot_order_once():
    # For each start shape, the table is the grouping of the six images of
    # a concrete start under _SLOT_ORDERS: each distinct image at its first
    # place, and every later place copying that one.  A two-index start has
    # three distinct images, each twice; a three-index start six.
    indices = (3, 7, 9)
    for n, shapes in _PROBE_SHAPES.items():
        assert [len(set(shape)) for shape in shapes] == [n] * len(shapes)
        for shape, (orders, copies) in zip(shapes, _PROBE_ORDERS[n], strict=True):
            start = tuple(indices[t] for t in shape)
            groups = {}
            for p, (s1, s2, s3) in enumerate(_SLOT_ORDERS):
                groups.setdefault((start[s1], start[s2], start[s3]), []).append(p)
            assert [(p, tuple(indices[t] for t in image)) for p, image in orders] == [
                (places[0], image) for image, places in groups.items()
            ]
            assert sorted(copies) == sorted((p, places[0]) for places in groups.values() for p in places[1:])
            assert sorted(map(len, groups.values())) == ([1] * 6 if n == 3 else [2] * 3)


def _probe_outputs(A, start, left, right):
    """The outputs l in the order the probe meets them at ``start``: that
    of the first key (a, b, l) of the table whose e_a e_b a term of the
    start reads, e_m e_k after e_i e_j -> e_m for (xy)z and e_i e_m after
    e_j e_k -> e_m for x(yz), at each slot permutation (i, j, k) of it."""
    pairs = set()
    for i, j, k in {(start[s1], start[s2], start[s3]) for s1, s2, s3 in _SLOT_ORDERS}:
        for a, b, m in A.products:
            if left and (a, b) == (i, j):
                pairs.add((m, k))
            if right and (a, b) == (j, k):
                pairs.add((i, m))
    return list(dict.fromkeys(l for a, b, l in A.products if (a, b) in pairs))


@example(TWO_INDICES)
@example(SPREAD)
@given(st.one_of(two_index_algebras(), algebras(), dense_algebras()))
@settings(max_examples=60 * settings.default.max_examples // 100, deadline=None)
def test_probe_splits_in_order_against_the_reference(A):
    # Each split the probe yields is that of the reference composite at the
    # same start and output, scaled by d^2 as the probe reads the cleared
    # table, in the same order: on two indices, with its copied places,
    # and on three or more.
    P, d = _integer_table(A.products)
    for composite, reference_map in (((1, -1), reference.associator), ((1, 0), reference.left_assoc_map)):
        T = {key: c * d * d for key, c in reference_map(A).entries.items()}
        expected = []
        for start in _probe_starts(A):
            keys = [(start[s1], start[s2], start[s3]) for s1, s2, s3 in _SLOT_ORDERS]
            for l in _probe_outputs(A, start, *composite):
                values = [T.get((*key, l), 0) for key in keys]
                if any(values):
                    expected.append(split(values))
        assert list(_orbit_probe(P, *composite)) == expected, composite


def _symmetrized(A, sign):
    """A + sign * A^op: commutative for 1, anticommutative for -1."""
    out = {}
    for (i, j, k), c in A.products.items():
        out[(i, j, k)] = out.get((i, j, k), 0) + c
        out[(j, i, k)] = out.get((j, i, k), 0) + sign * c
    return Algebra(A.dim, out)


# Commutative, not associative, and its probe reads zero: the first orbit
# of (xy)z, that of (1, 1, 1), has rho zero, and that of (2, 2, 3) a row.
@example(Algebra(3, {(1, 1, 1): 1, (2, 2, 3): 1, (3, 3, 1): 1}), 1)
@given(algebras(), st.sampled_from((1, -1)))
@settings(max_examples=60 * settings.default.max_examples // 100, deadline=None)
def test_commutative_and_anticommutative_tables(A, sign):
    A = _symmetrized(A, sign)
    # The certified vectors bound g: id + t13 gives eps(g) = 0 and rank
    # rho(g) <= 1, and V gives sgn(g) = 0 when the table is commutative.
    eps, sgn, *rho = _solve(_integer_table(A.products)[0], 1, -1)
    assert eps == 0 and rho[2:] == [0, 0] and (sign < 0 or sgn == 0)
    _check_against_reference(A)
    assert classify(A) == reference.classify(A)


def _layers_pulled_by_solve(A, left, right, associative=False):
    """How many layers ``_solve`` pulls, and how many there are."""
    P = _integer_table(A.products)[0]
    return sum(_pulled_by(lambda: _solve(P, left, right, associative))), len(_used(A))


def _direct_sum(A, B):
    """A and B side by side, every product between the two blocks zero."""
    shifted = {(i + A.dim, j + A.dim, k + A.dim): c for (i, j, k), c in B.products.items()}
    return Algebra(A.dim + B.dim, {**A.products, **shifted})


def test_tables_whose_cap_is_never_reached():
    # The annihilator is larger than the certified part.  A Lie algebra
    # also has a5 in it, so sgn(g) = 0 short of its cap.  A commutative
    # associative table, and the Heisenberg algebra ([e1, e2] = e3, every
    # other bracket zero), have the whole group algebra, so rho(g) = 0.
    # Zero blocks: sums whose cross products are zero.  The solve reads
    # every layer, and still answers as the oracle does.
    mat2, trunc, sl2 = catalog.get("mat2"), catalog.get("trunc_poly2"), catalog.get("sl2")
    heisenberg = Algebra(3, {(1, 2, 3): 1, (2, 1, 3): -1})
    lie = [sl2, commutator_algebra(mat2), commutator_algebra(tensor_algebras(mat2, trunc)), _direct_sum(sl2, heisenberg)]
    commutative = [trunc, catalog.get("k1"), tensor_algebras(trunc, trunc), _direct_sum(trunc, trunc)]
    for A in lie + commutative + [heisenberg]:
        assert is_commutative(A) or is_antisymmetric(A), A
        assert _layers_pulled_by_solve(A, 1, -1) == (len(_used(A)),) * 2, A
        _check_against_reference(A)
        assert classify(A) == reference.classify(A)
    for A in lie:
        assert killed(_solve(_integer_table(A.products)[0], 1, -1), split(ASSOCIATOR_VECTORS["a5"]))
    # (xy)z of a commutative associative table is fully symmetric, so its
    # cap leaves rho(g) zero and the solve stops at the first nonzero orbit.
    for A in commutative:
        assert _layers_pulled_by_solve(A, 1, 0, True)[0] <= 1, A
