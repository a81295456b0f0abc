"""Point-wise products of supercharacters and their basis decompositions.

The supercharacter span is closed under point-wise products, so a basis
decomposition always exists (orthogonal projection).  When both cover sets are
in general position and every cover of the meet lies in one of the factors,
the product collapses to a single scaled supercharacter at the meet.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Mapping, Union

from .errors import ArgumentError, InternalConsistencyError
from .lattice import NormalLattice, is_general_position
from .sct import SCTheory, Supercharacter, build_theory


def decompose_class_function(
    theory: SCTheory, f: Union[Supercharacter, Mapping[int, Fraction]]
) -> dict[int, Fraction]:
    """Coefficients c_N with f = sum of c_N chi^{N.}, by orthogonal projection
    onto the theory's integer rows; the reconstruction is re-checked exactly."""
    values = f.values if isinstance(f, Supercharacter) else f
    if set(values) != set(theory.partition.blocks):
        raise ArgumentError("class function must assign a value to every superclass")
    block_nodes, sizes, rows = theory.table()
    # integer dot products while f is integer valued, as most class functions here are
    fvec = list(map(values.__getitem__, block_nodes))
    weighted = list(map(mul, sizes, fvec))
    coeffs: dict[int, Fraction] = {}
    for chi in theory.chars:
        row = rows[chi.label]
        dot = sum(map(mul, weighted, row))
        if dot:
            coeffs[chi.label] = Fraction(dot, sum(map(mul, sizes, map(mul, row, row))))
    recon = [0] * len(block_nodes)
    for label, c in coeffs.items():
        recon = [r + c * v if v else r for r, v in zip(recon, rows[label])]
    if recon != fvec:
        raise InternalConsistencyError(
            "projection coefficients failed to reconstruct the function",
            check="decompose",
        )
    return coeffs


def pointwise_product(f: Supercharacter, h: Supercharacter) -> dict[int, Fraction]:
    return {b: f.values[b] * h.values[b] for b in f.values}


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
    chi_m = theory.char_by_node[m]
    chi_n = theory.char_by_node[n]
    product = pointwise_product(chi_m, chi_n)
    if gp[0] and gp[1] and containment:
        chi_meet = theory.char_by_node[meet]
        if chi_m.degree <= 0 or chi_n.degree <= 0 or chi_meet.degree <= 0:
            raise InternalConsistencyError(
                "general position should force positive degrees", check="tensor_product"
            )
        scale = Fraction(chi_m.degree * chi_n.degree, chi_meet.degree)
        for b in product:
            if product[b] != scale * chi_meet.values[b]:
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
