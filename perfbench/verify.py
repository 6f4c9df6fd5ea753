"""Output checks for benchmark ops, independent of ``nalg``.

Group-algebra vectors are six Fractions in the basis order
``id, t12, t13, t23, c1, c2``; the product of basis permutations is
composition with the right factor applied first.  Every check here holds
for every input, so a failure is a wrong answer, never a seed artefact.
"""

from __future__ import annotations

import re
from fractions import Fraction

PERMS = ((1, 2, 3), (2, 1, 3), (3, 2, 1), (1, 3, 2), (2, 3, 1), (3, 1, 2))
NAMES = ("id", "t12", "t13", "t23", "c1", "c2")
_INDEX = {p: i for i, p in enumerate(PERMS)}
_TERM = re.compile(r"([+-]?)(?:([0-9]+(?:/[0-9]+)?)\*)?(id|t12|t13|t23|c1|c2)")

# a_i: signed sums over the subgroups {id}, <t12>, <t23>, <t13>, A3, S3.
SUBGROUP_SUMS = {
    1: (1, 0, 0, 0, 0, 0),
    2: (1, -1, 0, 0, 0, 0),
    3: (1, 0, 0, -1, 0, 0),
    4: (1, 0, -1, 0, 0, 0),
    5: (1, 0, 0, 0, 1, 1),
    6: (1, -1, -1, -1, 1, 1),
}
FULL_SUM = (1, 1, 1, 1, 1, 1)

# Cogebra report keys and the algebra report keys of the dual they mirror.
DUAL_KEYS = {
    "has_counit": "has_unit",
    "gi_coassoc": "gi_assoc",
    "gi_bang_co": "gi_bang",
    "is_coassociative": "is_associative",
    "is_lie_coadmissible": "is_lie_admissible",
    "is_3_power_coassociative": "is_3_power_associative",
    "coannihilator_dim": "annihilator_dim",
}


def parse_expr(text: str) -> tuple[Fraction, ...]:
    coords = [Fraction(0)] * 6
    s = text.replace(" ", "")
    if s == "0":
        return tuple(coords)
    pos = 0
    while pos < len(s):
        m = _TERM.match(s, pos)
        if m is None or (pos and not m.group(1)):
            raise ValueError(f"bad group-algebra expression {text!r}")
        c = Fraction(m.group(2) or 1)
        coords[NAMES.index(m.group(3))] += -c if m.group(1) == "-" else c
        pos = m.end()
    return tuple(coords)


def times_perm(v, s) -> tuple[Fraction, ...]:
    """v * s in the group algebra."""
    out = [Fraction(0)] * 6
    for p, c in zip(PERMS, v):
        out[_INDEX[tuple(p[s[k] - 1] for k in range(3))]] += c
    return tuple(out)


def rank(vectors) -> int:
    rows = [list(map(Fraction, v)) for v in vectors]
    r = 0
    for col in range(6):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][col] / rows[r][col]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def check_algebra_report(report: dict, dim: int) -> list[str]:
    """Problems with an algebra ``check --json`` report; empty when sound."""
    problems = []
    if report.get("kind") != "algebra" or report.get("dim") != dim:
        return [f"expected an algebra report of dim {dim}"]
    basis = [parse_expr(e) for e in report["annihilator_basis"]]
    r = rank(basis)
    if r != len(basis) or r != report["annihilator_dim"]:
        problems.append("annihilator basis is not a basis of the stated dimension")

    def inside(v):
        return rank(basis + [v]) == r

    for i in range(1, 7):
        if report["gi_assoc"][str(i)] != inside(SUBGROUP_SUMS[i]):
            problems.append(f"gi_assoc[{i}] disagrees with a{i} in the annihilator")
    if report["is_3_power_associative"] != inside(FULL_SUM):
        problems.append("is_3_power_associative disagrees with W in the annihilator")
    if any(not inside(times_perm(b, s)) for b in basis for s in PERMS):
        problems.append("annihilator is not closed under right multiplication")
    if report["is_associative"] != report["gi_assoc"]["1"]:
        problems.append("is_associative differs from gi_assoc[1]")
    if report["is_lie_admissible"] != report["gi_assoc"]["6"]:
        problems.append("is_lie_admissible differs from gi_assoc[6]")
    if any(report["gi_bang"].values()) and not report["is_associative"]:
        problems.append("a triple symmetry holds on a non-associative algebra")
    return problems


def check_dual_report(cogebra: dict, algebra: dict) -> list[str]:
    """Problems with a cogebra report against the report of the algebra it dualizes."""
    if cogebra.get("kind") != "cogebra" or cogebra.get("dim") != algebra["dim"]:
        return [f"expected a cogebra report of dim {algebra['dim']}"]
    return [
        f"{co_key} differs from {key} of the dual algebra"
        for co_key, key in DUAL_KEYS.items()
        if cogebra[co_key] != algebra[key]
    ]
