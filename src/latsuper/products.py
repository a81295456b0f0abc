"""Point-wise products of supercharacters and their basis decompositions.

Characters and class functions are rows over the block nodes of the theory's
integer character table.  The supercharacter span is closed under point-wise
products, so a basis decomposition always exists (orthogonal projection).
When both cover sets are in general position and every cover of the meet lies
in one of the factors, the product collapses to a single scaled
supercharacter at the meet.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, mul
from typing import Sequence

from .errors import ArgumentError, InternalConsistencyError
from .lattice import NormalLattice, is_general_position
from .sct import SCTheory, build_theory, inner_product


def decompose_class_function(theory: SCTheory, f: Sequence) -> dict[int, Fraction]:
    """Coefficients c_N = <f, chi^{N.}> / <chi^{N.}, chi^{N.}> with f = sum of
    c_N chi^{N.}, for a row f of ints or Fractions over the block nodes, from
    one inner_product of den f, den the lcm of f's denominators.  The norm is
    chi^{N.}(1), the diagonal of the identity R D R^T = |G| diag(R[N][0]) that
    verify_sct proves for the rows.  The reconstruction is re-checked exactly."""
    if len(f) != len(theory.nodes):
        raise ArgumentError("class function must assign a value to every superclass",
                            check="class_function", witness=len(f))
    rows, den = theory.rows, lcm(*(v.denominator for v in f))
    g = [v.numerator * (den // v.denominator) for v in f]  # den f, as ints
    scale = den * len(theory.partition.block_of)
    coeffs = {n: Fraction(dot, scale * rows[n][0]) for n, (dot,)
              in zip(theory.nonzero, inner_product(theory, [g])) if dot and rows[n][0]}
    d = lcm(den, *(c.denominator for c in coeffs.values()))  # d f and d c_N are ints
    recon = [0] * len(f)
    for n, c in coeffs.items():
        recon = list(map(add, recon, map((c.numerator * (d // c.denominator)).__mul__, rows[n])))
    if recon != [x * (d // den) for x in g]:
        raise InternalConsistencyError(
            "projection coefficients failed to reconstruct the function",
            check="decompose",
        )
    return coeffs


@dataclass
class ProductReport:
    M: int
    N: int
    meet: int
    hypothesis_general_position: tuple[bool, bool]
    hypothesis_cover_containment: bool
    identity_holds: bool
    coefficients: dict[int, Fraction]   # decomposition of chi^{M.} (.) chi^{N.}


def tensor_product(L: NormalLattice, m: int, n: int) -> ProductReport:
    """Decompose chi^{M.} (.) chi^{N.}; hypothesis failure is data, not an error."""
    theory = build_theory(L)
    meet = L.meet(m, n)
    gp = (
        is_general_position(L, L.covers(m), m),
        is_general_position(L, L.covers(n), n),
    )
    containment = all(
        L.leq(o, m) or L.leq(o, n) for o in L.covers(meet)
    )
    chi_m, chi_n = theory.rows[m], theory.rows[n]
    product = list(map(mul, chi_m, chi_n))
    if gp[0] and gp[1] and containment:
        chi_meet = theory.rows[meet]
        if chi_m[0] <= 0 or chi_n[0] <= 0 or chi_meet[0] <= 0:
            raise InternalConsistencyError(
                "general position should force positive degrees", check="tensor_product"
            )
        scale = Fraction(chi_m[0] * chi_n[0], chi_meet[0])
        for b, p, v in zip(theory.nodes, product, chi_meet):
            if p * chi_meet[0] != chi_m[0] * chi_n[0] * v:
                raise InternalConsistencyError(
                    "tensor-product identity fails despite its hypotheses",
                    check="tensor_product",
                    witness={"M": m, "N": n, "block": b},
                )
        return ProductReport(m, n, meet, gp, containment, True, {meet: scale})
    coeffs = decompose_class_function(theory, product)
    return ProductReport(m, n, meet, gp, containment, False, coeffs)


def product_report_to_json(L: NormalLattice, report: ProductReport) -> dict:
    return {
        "M": {"node": report.M, "label": L.node_label(report.M)},
        "N": {"node": report.N, "label": L.node_label(report.N)},
        "meet": {"node": report.meet, "label": L.node_label(report.meet)},
        "hypothesis_general_position": list(report.hypothesis_general_position),
        "hypothesis_cover_containment": report.hypothesis_cover_containment,
        "identity_holds": report.identity_holds,
        "coefficients": [
            {"node": node, "label": L.node_label(node), "coefficient": str(c)}
            for node, c in sorted(report.coefficients.items())
        ],
    }
