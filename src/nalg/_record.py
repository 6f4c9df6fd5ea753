"""The shared base of the package's immutable value types.

Subspaces, permutations, group-algebra elements, algebras, cogebras,
trilinear and cube maps and the classification reports are plain
``__slots__`` classes with hand-written constructors.  They behave like
frozen dataclasses: the fields are the slots, in constructor order;
equality compares the fields of two values of the same class; the hash
is the hash of the tuple of fields (so a value holding a dict is
unhashable); the repr is ``Name(field=value, ...)``; and assignment
raises ``AttributeError``.  Nothing is generated at import time, which
keeps ``import nalg`` cheap for the one-command-per-process CLI.
"""

from __future__ import annotations


class Record:
    """Field-wise equality, hash and repr over ``__slots__``, and no
    assignment after construction.

    A subclass lists its fields in ``__slots__`` in constructor order, and
    its ``__init__`` validates the arguments and stores them with
    ``_assign``.
    """

    __slots__ = ()

    def _assign(self, *values) -> None:
        """Store ``values`` in the fields, in ``__slots__`` order."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

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
