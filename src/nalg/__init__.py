"""Exact-rational workbench for finite-dimensional nonassociative algebras
and cogebras: structure-constant arithmetic, slot-permutation invariance
checks on the associator (associative, Vinberg, pre-Lie, generalized
Jacobi, Lie-admissible, and their cogebra mirrors), dualization,
convolution and tensor products, and a catalog of named examples."""

from .algebras import (
    Algebra,
    ClassificationReport,
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
from .cogebras import (
    Cogebra,
    CogebraReport,
    classify_cogebra,
    coannihilator,
    flip,
    gi_bang_cocheck,
    gi_cocheck,
    is_lie_cogebra,
    lie_cogebra_from,
)
from .duality import dualize_algebra, dualize_cogebra
from .linalg import (
    Subspace,
    format_rational,
    kernel,
    member,
    parse_rational,
    span,
)
from .products import convolution_algebra, pair_index, tensor_algebras
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
