"""The shared base of the package's immutable value types.

Subspaces, permutations, group-algebra elements, algebras, cogebras,
trilinear and cube maps and the classification reports are plain
``__slots__`` classes, with hand-written constructors where there are
arguments to check.  They behave like frozen dataclasses: the fields are
the slots, in constructor order; equality compares the fields of two
values of the same class; the hash is the hash of the tuple of fields (so
a value holding a dict is unhashable); the repr is ``Name(field=value,
...)``; and assignment raises ``AttributeError``.  Nothing is generated at
import time, which keeps ``import nalg`` cheap for a CLI that runs one
command per process.
"""

from __future__ import annotations


class Record:
    """Field-wise equality, hash and repr over ``__slots__``, and no
    assignment after construction.

    A subclass lists its fields in ``__slots__`` in constructor order.  One
    with arguments to check has an ``__init__`` that validates them and
    stores them with ``_assign``; the others take the fields as given.
    """

    __slots__ = ()

    def __init__(self, *values, **named):
        values += tuple(named.pop(name) for name in self.__slots__[len(values) :] if name in named)
        if named or len(values) != len(self.__slots__):
            fields = ", ".join(self.__slots__)
            raise TypeError(f"{type(self).__qualname__} takes the fields {fields}")
        self._assign(*values)

    def _assign(self, *values):
        """Store ``values`` in the fields, in ``__slots__`` order; return self."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        return self

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # Rebuilt through the constructor, so copies and pickles stay valid.
        return (self.__class__, self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
