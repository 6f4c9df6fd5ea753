"""Exact-rational workbench for finite-dimensional nonassociative algebras
and cogebras: structure-constant arithmetic, slot-permutation invariance
checks on the associator (associative, Vinberg, pre-Lie, generalized
Jacobi, Lie-admissible, and their cogebra mirrors), dualization,
convolution and tensor products, and a catalog of named examples.

``_record``, ``linalg``, ``sym3``, ``algebras``, ``formats`` and ``cli``
run on import and hold only what ``nalg check`` and ``nalg annihilator``
run, on either kind of file.  Every other module is lazy: it is in
``sys.modules`` and an attribute of this package from the start, and runs
when some code first reads one of its attributes, so a command runs only
the modules it uses.  Each of those six modules but ``_record`` has a
lazy partner that holds the rest of its code: ``linalg`` ``subspaces``,
``sym3`` ``groupalg``, ``algebras`` ``structures`` (the structure types
and the library's checks), ``formats`` ``documents`` and ``cli``
``commands``; the module ``__getattr__`` (PEP 562) that ``_forward``
makes reads there each name the module no longer defines.  ``catalog``,
``cogebras``, ``duality`` and ``products`` are lazy as a whole, and
``errors`` holds the error lines of bad input, which valid input never
runs.

A module that runs without a lazy module on some path imports the lazy
module, not names from it, and reads the names at call time: ``from
.duality import x`` would run ``duality`` on import.  A lazy module that
no use runs without another, as ``cogebras`` with ``structures``, imports
names from it.  The public names of the lazy modules resolve here through
the module ``__getattr__``.
"""

import importlib.util as _util
import sys as _sys

__version__ = "0.1.0"

# The lazy modules, and the public names each exports through ``nalg``.
_LAZY = {
    "catalog": "",
    "cogebras": "classify_cogebra coannihilator flip gi_bang_cocheck gi_cocheck is_lie_cogebra lie_cogebra_from",
    "commands": "",
    "documents": "",
    "duality": "dualize_algebra dualize_cogebra",
    "errors": "",
    "groupalg": "action compose ga_multiply maschke_multiplicities orbit orbit_span right_ideal",
    "products": "convolution_algebra pair_index tensor_algebras",
    "structures": (
        "Algebra Cogebra TrilinearMap annihilator associator classify commutator_algebra gi_bang_check gi_check "
        "is_antisymmetric is_commutative is_sigma3_assoc_for jacobi_check power_assoc_check"
    ),
    "subspaces": "kernel member parse_rational",
}
_HOMES = {name: module for module, names in _LAZY.items() for name in names.split()}


def _lazy(name: str):
    """The submodule ``name``, registered to run on first attribute access;
    a module already in ``sys.modules`` is kept, so that it never runs twice."""
    full = f"{__name__}.{name}"
    module = _sys.modules.get(full)
    if module is None:
        spec = _util.find_spec(full)
        spec.loader = _util.LazyLoader(spec.loader)
        module = _util.module_from_spec(spec)
        _sys.modules[full] = module
        spec.loader.exec_module(module)
    return module


def _forward(module: str, partner):
    """The module ``__getattr__`` of ``module``, which reads each name it
    lacks in its lazy ``partner``, so that running the partner waits for
    the first such read.  Dunder names, which the import system and
    ``copy`` probe, are not read there."""

    def __getattr__(name: str):
        if name[:2] != "__" and hasattr(partner, name):
            return getattr(partner, name)
        raise AttributeError(f"module {module!r} has no attribute {name!r}")

    return __getattr__


# Registered before the eager modules run, which import their partners.
catalog, cogebras, commands, documents, duality, errors, groupalg, products, structures, subspaces = map(_lazy, _LAZY)

from .algebras import ClassificationReport, CogebraReport  # noqa: E402
from .linalg import Subspace, format_rational, span  # noqa: E402
from .sym3 import PERMS, SUBGROUPS, GroupAlgElem, Perm3, inverse, sign, special_vector  # noqa: E402


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[home], name)


def __dir__():
    return sorted({*globals(), *_HOMES})


# ``from nalg import *`` gives the lazy names too; reading them runs their module.
__all__ = [name for name in __dir__() if not name.startswith("_")]
