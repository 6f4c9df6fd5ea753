"""Exact-rational workbench for finite-dimensional nonassociative algebras
and cogebras: structure-constant arithmetic, slot-permutation invariance
checks on the associator (associative, Vinberg, pre-Lie, generalized
Jacobi, Lie-admissible, and their cogebra mirrors), dualization,
convolution and tensor products, and a catalog of named examples.

``algebras``, ``linalg`` and ``sym3``, which every command needs, run on
import.  ``catalog``, ``cogebras``, ``duality`` and ``products`` are lazy:
each is in ``sys.modules`` and an attribute of this package from the
start, and runs when some code first reads one of its attributes, so a
command runs only the modules it uses.  A module that calls into one of
them imports the module, not names from it, and reads the names at call
time: ``from .duality import x`` would run ``duality`` on import.  Their
public names resolve here through the module ``__getattr__`` (PEP 562).
"""

import importlib.util as _util
import sys as _sys

from .algebras import (
    Algebra,
    ClassificationReport,
    Cogebra,
    TrilinearMap,
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
    power_assoc_check,
)
from .linalg import (
    Subspace,
    format_rational,
    kernel,
    member,
    parse_rational,
    span,
)
from .sym3 import (
    PERMS,
    SUBGROUPS,
    GroupAlgElem,
    Perm3,
    action,
    compose,
    ga_multiply,
    inverse,
    maschke_multiplicities,
    orbit,
    orbit_span,
    right_ideal,
    sign,
    special_vector,
)

__version__ = "0.1.0"

# The lazy modules, and the public names each exports through ``nalg``.
_LAZY = {
    "catalog": (),
    "cogebras": (
        "CogebraReport",
        "classify_cogebra",
        "coannihilator",
        "flip",
        "gi_bang_cocheck",
        "gi_cocheck",
        "is_lie_cogebra",
        "lie_cogebra_from",
    ),
    "duality": ("dualize_algebra", "dualize_cogebra"),
    "products": ("convolution_algebra", "pair_index", "tensor_algebras"),
}
_HOMES = {name: module for module, names in _LAZY.items() for name in names}


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


catalog, cogebras, duality, products = map(_lazy, _LAZY)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[home], name)


def __dir__():
    return sorted({*globals(), *_HOMES})


# ``from nalg import *`` gives the lazy names too; reading them runs their module.
__all__ = [name for name in __dir__() if not name.startswith("_")]
