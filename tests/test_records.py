"""The contract of the value classes, and argparse's usage errors.

The nine value classes are plain ``__slots__`` classes on
``nalg._record.Record``.  They keep the behaviour of the frozen
dataclasses they replace: field-wise equality within one class, the hash
of the tuple of fields (unhashable when a field is a dict), the
``Name(field=value, ...)`` repr, and ``AttributeError`` on assignment.
``tests/test_lazy_modules.py`` checks that importing ``nalg.cli`` loads
none of ``dataclasses``, ``inspect`` and ``ast``, and that a command that
parses loads neither ``argparse`` nor ``gettext``.
"""

import copy
import pickle
import re
from fractions import Fraction as F

import pytest
from shared import SRC, run_fresh

from nalg import catalog
from nalg.algebras import Algebra, ClassificationReport, TrilinearMap, classify
from nalg.cogebras import Cogebra, CogebraReport, CubeMap, classify_cogebra
from nalg.linalg import Subspace, as_vec, span
from nalg.sym3 import GroupAlgElem, Perm3


def test_check_loads_argparse_only_for_a_usage_error():
    # A command that parses loads neither argparse nor gettext
    # (tests/test_lazy_modules.py); a usage error gets argparse's text.
    done = run_fresh("from nalg.cli import main; main(['check'])", SRC, returncode=2)
    assert done.stderr.startswith("usage: nalg check [-h] [--json] file\n")
    assert done.stderr.endswith("error: the following arguments are required: file\n")


# Each maker returns a fresh value for variant 0 or a different one for 1.
MAKERS = {
    Subspace: lambda v: span([(1, v)]),
    Perm3: lambda v: Perm3(((1, 2, 3), (2, 1, 3))[v]),
    GroupAlgElem: lambda v: GroupAlgElem((1, v, 0, 0, 0, 0)),
    Algebra: lambda v: Algebra(1, {(1, 1, 1): 1 + v}, name="k"),
    TrilinearMap: lambda v: TrilinearMap(1, {(1, 1, 1, 1): 1 + v}),
    ClassificationReport: lambda v: classify(catalog.get(("k1", "vinberg2")[v])),
    Cogebra: lambda v: Cogebra(1, {(1, 1, 1): 1}, counit=(1,) if v == 0 else None),
    CubeMap: lambda v: CubeMap(1, {(1, 1, 1, 1): 1 + v}),
    CogebraReport: lambda v: classify_cogebra(catalog.get(("dual_k1", "dual_vinberg2")[v])),
}
HASHABLE = {Subspace, Perm3, GroupAlgElem}
CLASSES = pytest.mark.parametrize("cls", list(MAKERS), ids=lambda cls: cls.__name__)


def fields(value):
    return tuple(getattr(value, name) for name in value.__slots__)


@CLASSES
def test_equality_is_field_wise_within_one_class(cls):
    make = MAKERS[cls]
    a, b = make(0), make(0)
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert a != make(1)
    assert a.__eq__(object()) is NotImplemented


def test_same_fields_in_another_class_are_unequal():
    assert TrilinearMap(1, {}) != CubeMap(1, {})
    assert TrilinearMap(1, {}).__eq__(CubeMap(1, {})) is NotImplemented


@CLASSES
def test_hash_is_the_hash_of_the_fields(cls):
    a = MAKERS[cls](0)
    if cls in HASHABLE:
        assert hash(a) == hash(MAKERS[cls](0)) == hash(fields(a))
        assert len({a, MAKERS[cls](0), MAKERS[cls](1)}) == 2
    else:
        with pytest.raises(TypeError):
            hash(a)


@CLASSES
def test_values_are_immutable(cls):
    a = MAKERS[cls](0)
    field = cls.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == MAKERS[cls](0)


@CLASSES
def test_repr_lists_every_field(cls):
    a = MAKERS[cls](0)
    inner = ", ".join(f"{name}={getattr(a, name)!r}" for name in cls.__slots__)
    assert repr(a) == f"{cls.__name__}({inner})"


def test_repr_text():
    assert repr(Perm3((2, 1, 3))) == "Perm3(images=(2, 1, 3))"
    assert repr(Subspace(1, ())) == "Subspace(ambient_dim=1, basis=())"
    assert repr(Algebra(1, {(1, 1, 1): 2}, name="k")) == (
        "Algebra(dim=1, products={(1, 1, 1): Fraction(2, 1)}, unit=None, basis=None, name='k')"
    )
    assert repr(GroupAlgElem((1, 0, 0, 0, 0, F(1, 2)))).startswith(
        "GroupAlgElem(coords=(Fraction(1, 1), Fraction(0, 1),"
    )


@CLASSES
def test_copies_and_pickles_are_equal(cls):
    a = MAKERS[cls](0)
    assert copy.copy(a) == a
    assert copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a


def test_constructor_keywords_and_defaults():
    assert Algebra(dim=1, products={}, unit=None, basis=None, name=None) == Algebra(1, {})
    assert Cogebra(dim=1, coproducts={}, counit=None, basis=None, name=None) == Cogebra(1, {})
    assert Subspace(ambient_dim=1, basis=()) == Subspace(1, ())
    assert TrilinearMap(dim=1, entries={}) == TrilinearMap(1, {})
    assert CubeMap(dim=1, entries={}) == CubeMap(1, {})
    assert Perm3(images=(1, 2, 3)) == Perm3((1, 2, 3))
    assert GroupAlgElem(coords=(0,) * 6) == GroupAlgElem.zero()


def test_reports_take_their_fields_by_position_or_name():
    for report in (classify(catalog.get("vinberg2")), classify_cogebra(catalog.get("dual_vinberg2"))):
        cls, values = type(report), fields(report)
        named = dict(zip(cls.__slots__, values))
        assert cls(*values) == cls(**named) == cls(*values[:3], **dict(list(named.items())[3:])) == report
        first = cls.__slots__[0]
        for args, kwargs in ((values[:-1], {}), (values, {"extra": 1}), (values, {first: values[0]})):
            with pytest.raises(TypeError, match=f"{cls.__name__} takes the fields {first}, "):
                cls(*args, **kwargs)


def test_no_structure_skips_its_constructor():
    # Every value is made through its class's checks: the catalog's search
    # candidates are int tables, not structures stored without them.
    found = [
        f"{path.name}:{number}"
        for path in sorted((SRC / "nalg").glob("*.py"))
        for number, line in enumerate(path.read_text("utf-8").splitlines(), 1)
        if "__new__(" in line
    ]
    assert found == []


def test_catalog_instances_carry_their_names():
    for name in catalog.NAMES:
        assert catalog.get(name).name == name
        assert catalog.build(name).name == name


# Each structure-table class with its key length and the name its errors
# give an entry.
TABLES = pytest.mark.parametrize(
    "cls, size, what",
    [(Algebra, 3, "product"), (Cogebra, 3, "coproduct"), (TrilinearMap, 4, "trilinear"), (CubeMap, 4, "cube")],
    ids=lambda x: getattr(x, "__name__", None),
)


@TABLES
def test_tables_store_nonzero_fractions(cls, size, what):
    value = cls(3, {(1,) * size: F(2, 4), (2,) * size: 0, (3,) * size: 5})
    table = getattr(value, cls.__slots__[1])
    assert table == {(1,) * size: F(1, 2), (3,) * size: F(5)}
    assert all(type(c) is F for c in table.values())


@TABLES
def test_tables_reject_indices_out_of_range(cls, size, what):
    for bad in ((0,) + (1,) * (size - 1), (1,) * (size - 1) + (4,)):
        with pytest.raises(ValueError, match=re.escape(f"index out of range in {what} entry {bad}")):
            cls(3, {bad: 1})


@TABLES
def test_tables_reject_keys_of_the_wrong_length(cls, size, what):
    for bad in ((1,) * (size - 1), (1,) * (size + 1)):
        with pytest.raises(ValueError, match=f"{what} entry"):
            cls(3, {bad: 1})


@TABLES
def test_tables_reject_floats(cls, size, what):
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10.
    for c in (0.1, 0.5, 2.0):
        with pytest.raises(ValueError, match=re.escape(f"not an exact number: {c!r} (floats are rejected)")):
            cls(2, {(1,) * size: c})
    value = cls(2, {(1,) * size: "1/10", (2,) * size: 3})
    assert getattr(value, cls.__slots__[1]) == {(1,) * size: F(1, 10), (2,) * size: F(3)}


def test_vectors_and_group_algebra_elements_reject_floats():
    one = GroupAlgElem.from_perm(Perm3((1, 2, 3)))
    for make in (
        lambda: as_vec((1, 0.5)),
        lambda: Algebra(1, {(1, 1, 1): 1}, unit=(1.0,)),
        lambda: Cogebra(1, {(1, 1, 1): 1}, counit=(1.0,)),
        lambda: Algebra(1, {(1, 1, 1): 1}).multiply((0.5,), (1,)),
        lambda: GroupAlgElem((0.5, 0, 0, 0, 0, 0)),
        lambda: one * 0.5,
        lambda: 0.5 * one,
    ):
        with pytest.raises(ValueError, match="floats are rejected"):
            make()
    # Ints, Fractions and rational strings still pass.
    assert as_vec((1, F(1, 2), "-2/6")) == (F(1), F(1, 2), F(-1, 3))
    assert GroupAlgElem(("1/2", 1, F(1, 3), 0, 0, 0)).coords == (F(1, 2), F(1), F(1, 3), 0, 0, 0)
    assert one * "1/2" == F(1, 2) * one == GroupAlgElem((F(1, 2), 0, 0, 0, 0, 0))


@TABLES
def test_tables_reject_indices_and_dims_that_are_not_ints(cls, size, what):
    # A bool or a float equals an int index, and would print as true or 2.0.
    for bad, index in (((2.0,) + (1,) * (size - 1), "2.0"), ((1,) * (size - 1) + (True,), "True")):
        with pytest.raises(ValueError, match=re.escape(f"index {index} is not an int in {what} entry {bad}")):
            cls(2, {bad: 1})
    for dim in (True, 2.0, 0):
        with pytest.raises(ValueError, match="dimension must be an int of at least 1"):
            cls(dim, {(1,) * size: 1})
