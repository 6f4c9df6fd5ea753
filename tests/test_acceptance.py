"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Everything here is exact rational arithmetic; the stated tolerance of
every criterion is zero and the assertions are plain equalities.
"""

import itertools
import time

from reference_algebras import basis_vec, evaluate

from nalg import catalog
from nalg.algebras import (
    TrilinearMap,
    annihilator,
    associator,
    commutator_algebra,
    gi_bang_check,
    gi_check,
    jacobi_check,
    phi_precompose,
    power_assoc_check,
)
from nalg.cogebras import gi_bang_cocheck, gi_cocheck, is_lie_cogebra, lie_cogebra_from
from nalg.duality import dualize_algebra, dualize_cogebra
from nalg.formats import print_document
from nalg.linalg import member, span
from nalg.products import convolution_algebra, tensor_algebras
from nalg.sym3 import (
    PERMS,
    GroupAlgElem,
    compose,
    maschke_multiplicities,
    orbit_span,
    right_ideal,
    special_vector,
)


def _report(num, description, ok):
    print(f"acceptance {num:02d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num}: {description}"


def _algebras():
    return {name: catalog.get(name) for name in catalog.ALGEBRA_NAMES}


def test_criterion_01_one_dimensional_orbit_spans():
    ok = (
        orbit_span(special_vector("V")).dim == 1
        and orbit_span(special_vector("W")).dim == 1
        and maschke_multiplicities(orbit_span(special_vector("V"))) == (0, 1, 0)
        and maschke_multiplicities(orbit_span(special_vector("W"))) == (1, 0, 0)
        and maschke_multiplicities(
            span([GroupAlgElem.from_perm(p).coords for p in PERMS], 6)
        )
        == (1, 1, 2)
    )
    _report(1, "orbit spans of V and W are lines with multiplicities (0,1,0)/(1,0,0); full space is (1,1,2)", ok)


def test_criterion_02_alternating_vector_in_signed_right_ideals():
    V = special_vector("V")
    ok = all(
        member(V.coords, right_ideal(special_vector(f"a{i}"))) for i in range(1, 7)
    )
    _report(2, "V lies in the right ideal of every signed subgroup sum", ok)


def test_criterion_03_lie_admissibility_across_catalog():
    algs = _algebras()
    ok = True
    for A in algs.values():
        for i in range(1, 7):
            if gi_check(A, i):
                ok = ok and jacobi_check(commutator_algebra(A))
    ok = (
        ok
        and gi_check(algs["vinberg2"], 2)
        and not gi_check(algs["vinberg2"], 1)
        and gi_check(algs["prelie2"], 3)
        and not gi_check(algs["prelie2"], 1)
    )
    _report(3, "every subgroup identity implies a Lie-admissible commutator; designated instances behave", ok)


def test_criterion_04_duality_transport_and_involution():
    ok = True
    for name in catalog.ALGEBRA_NAMES:
        A = catalog.get(name)
        D = dualize_algebra(A)
        for i in range(1, 7):
            ok = ok and gi_check(A, i) == gi_cocheck(D, i)
        for i in range(2, 7):
            ok = ok and gi_bang_check(A, i) == gi_bang_cocheck(D, i)
        ok = ok and print_document(dualize_cogebra(D)) == print_document(A)
    for name in catalog.COGEBRA_NAMES:
        C = catalog.get(name)
        ok = ok and print_document(dualize_algebra(dualize_cogebra(C))) == print_document(C)
    _report(4, "subgroup checks commute with dualization; double dual is the identity on bytes", ok)


def test_criterion_05_lie_cogebras_from_duals():
    ok = True
    for A in _algebras().values():
        if any(gi_check(A, i) for i in range(1, 7)):
            DL = lie_cogebra_from(dualize_algebra(A))
            antisym = all(
                DL.coproducts.get((k, j, i), 0) == -c
                for (k, i, j), c in DL.coproducts.items()
            )
            ok = ok and antisym and is_lie_cogebra(DL)
    _report(5, "antisymmetrized dual coproducts satisfy both Lie cogebra axioms", ok)


def test_criterion_06_convolution_theorem():
    algs = _algebras()
    pairs = {
        1: ("mat2", "dual_mat2"),
        2: ("vinberg2", "dual_trunc_poly2"),
        3: ("prelie2", "dual_trunc_poly2"),
    }
    ok = True
    for i, (alg_name, cog_name) in pairs.items():
        A = algs[alg_name]
        C = catalog.get(cog_name)
        ok = ok and gi_check(A, i)
        ok = ok and (gi_cocheck(C, 1) if i == 1 else gi_bang_cocheck(C, i))
        ok = ok and gi_check(convolution_algebra(C, A), i)
    conv = convolution_algebra(catalog.get("dual_mat2"), algs["mat2"])
    ok = ok and conv.dim == 16 and gi_check(conv, 1)
    _report(6, "convolution algebras inherit the subgroup identity for i in {1,2,3}; the 16-dim case is associative", ok)


def test_criterion_07_tensor_theorem():
    algs = _algebras()
    ok = gi_check(tensor_algebras(algs["vinberg2"], algs["trunc_poly2"]), 2)
    ok = ok and gi_check(tensor_algebras(algs["prelie2"], algs["trunc_poly2"]), 3)
    for A in algs.values():
        T = tensor_algebras(A, algs["k1"])
        ok = ok and T.products == A.products and T.dim == A.dim
    _report(7, "tensor products inherit the designated identities; tensoring with scalars is the identity", ok)


def test_criterion_08_tensor_negative_result():
    algs = _algebras()
    T = tensor_algebras(algs["vinberg2"], algs["prelie2"])
    ok = annihilator(T).dim == 0
    _report(8, "the designated non-associative pair has a tensor product with trivial annihilator", ok)


def test_criterion_09_slot_action_homomorphism():
    entries = {}
    value = 1
    for key in itertools.product((1, 2, 3), repeat=4):
        entries[key] = value
        value += 1
    T = TrilinearMap(3, entries)
    ok = all(
        phi_precompose(phi_precompose(T, p), q) == phi_precompose(T, compose(p, q))
        for p, q in itertools.product(PERMS, repeat=2)
    )
    _report(9, "slot precomposition is a right-compatible action on an 81-coordinate symbolic map", ok)


def test_criterion_10_power_associativity_equivalence():
    from nalg.algebras import Algebra

    def symmetrized_coefficients_vanish(A):
        T = associator(A)
        for multiset in itertools.combinations_with_replacement(range(1, A.dim + 1), 3):
            for l in range(1, A.dim + 1):
                total = sum(
                    (T.entries.get((i, j, k, l), 0) for i, j, k in set(itertools.permutations(multiset))),
                    start=0,
                )
                if total:
                    return False
        return True

    ok = all(
        power_assoc_check(A) == symmetrized_coefficients_vanish(A)
        for A in _algebras().values()
    )
    witness = Algebra(2, {(1, 1, 2): 1, (2, 1, 1): 1})
    e1 = basis_vec(2, 1)
    ok = ok and not power_assoc_check(witness)
    ok = ok and evaluate(associator(witness), e1, e1, e1) == e1
    _report(10, "the full-symmetrization test agrees with the cubic coefficient tensor; the 2-dim witness fails", ok)


def test_criterion_11_catalog_regeneration():
    start = time.monotonic()
    report = catalog.regenerate()
    elapsed = time.monotonic() - start
    ok = set(report.values()) == {"ok"} and set(report) == set(catalog.NAMES)
    ok = ok and elapsed < 60
    _report(11, f"catalog regenerated byte-for-byte in {elapsed:.1f}s (< 60s)", ok)
