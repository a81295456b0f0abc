"""Restriction of supercharacters along a subgroup embedding.

Both lattices must be distributive.  A context is *favorable* when (R1)
intersection with H maps every G-node to an H-node and (R2) every cover
relation collapses or maps to a cover; beyond the printed conditions we also
require each non-collapsing cover to satisfy (N cap H) M = N, which the
factorization argument uses via the diamond isomorphism (automatic for full
normal lattices).

For an antichain A of meet irreducibles of the G-lattice, the restriction of
chi^{meet(A).} factors through chi^{meet(A_H).} and the subgroup character of
join(C(meet(A))) cap H, and decomposes over the interval between those two
nodes with closed-form nonzero coefficients, cross-checked against orthogonal
projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Optional, Sequence

from .errors import (
    ArgumentError,
    CompatibilityError,
    ConstructionError,
    InternalConsistencyError,
    UnfavorableEmbeddingError,
    VerificationError,
)
from .groups import GroupTable, _bits, closure_mask, mask_of
from .lattice import (
    NormalLattice,
    birkhoff_antichain,
    cover_to_irreducible_map,
    _check_antichain,
    _require_distributive,
)
from .products import decompose_class_function
from .sct import build_theory, chi_subgroup, degree_sum


@dataclass(frozen=True)
class GroupEmbedding:
    """Injective homomorphism H -> G given by an element map."""

    source: GroupTable
    target: GroupTable
    map: tuple[int, ...]

    def __post_init__(self):
        """A failure's witness is the field "map", the first offending index
        (for a wrong length, the first missing or extra) and its image if any."""
        H, G, phi = self.source, self.target, self.map

        def fail(message: str, i: int):
            witness = {"field": "map", "index": i, **({"value": phi[i]} if i < len(phi) else {})}
            raise ConstructionError(message, check="embedding", witness=witness)

        if len(phi) != H.order:
            fail(f"embedding map has length {len(phi)}, expected {H.order}",
                 min(len(phi), H.order))
        if any(not (0 <= x < G.order) for x in phi):
            fail("embedding image out of range",
                 next(i for i, x in enumerate(phi) if not 0 <= x < G.order))
        if len(set(phi)) != H.order:
            fail("embedding is not injective",
                 next(i for i, x in enumerate(phi) if phi.index(x) < i))
        if phi[0] != 0:
            fail("embedding must send identity to identity", 0)
        # the b with phi(a*b) = phi(a)*phi(b) for all a are closed under products,
        # so the generator columns decide; the pair scan names the first failure
        if any(list(map(phi.__getitem__, map(itemgetter(s), H.mul)))
               != list(map(itemgetter(phi[s]), map(G.mul.__getitem__, phi)))
               for s in H.generators):
            for a in range(H.order):
                for b in range(H.order):
                    if phi[H.mul[a][b]] != G.mul[phi[a]][phi[b]]:
                        raise ConstructionError(
                            f"embedding is not a homomorphism at ({a},{b})",
                            check="embedding", witness=[a, b],
                        )


@dataclass
class RestrictionContext:
    embedding: GroupEmbedding
    latticeG: NormalLattice
    latticeH: NormalLattice
    intersect: dict[int, Optional[int]]      # G-node -> H-node (None if (R1) fails there)
    favorable: bool
    r1_failures: list[int]
    r2_witnesses: list[tuple[int, int]]      # cover pairs (M, N) violating (R2)
    index_witnesses: list[tuple[int, int]]   # cover pairs where (N cap H) M != N

    def witnesses_json(self) -> dict:
        lg = self.latticeG
        return {
            "r1_failures": [
                {"node": n, "label": lg.node_label(n)} for n in self.r1_failures
            ],
            "r2_witnesses": [
                {"M": lg.node_label(m), "N": lg.node_label(n)} for m, n in self.r2_witnesses
            ],
            "index_witnesses": [
                {"M": lg.node_label(m), "N": lg.node_label(n)} for m, n in self.index_witnesses
            ],
        }


def build_restriction_context(
    embedding: GroupEmbedding, latticeG: NormalLattice, latticeH: NormalLattice
) -> RestrictionContext:
    """Compute the intersection map and the favorability flags."""
    if latticeG.group is not embedding.target or latticeH.group is not embedding.source:
        raise ArgumentError("lattices do not match the embedding's groups",
                            check="embedding_lattices",
                            witness={"G": latticeG.group.name, "H": latticeH.group.name})
    _require_distributive(latticeG)
    _require_distributive(latticeH)
    H = embedding.source
    intersect: dict[int, Optional[int]] = {}
    r1_failures: list[int] = []
    for i, node in enumerate(latticeG.nodes):
        pulled = mask_of(h for h in range(H.order) if node >> embedding.map[h] & 1)
        try:
            intersect[i] = latticeH.index_of(pulled)
        except ArgumentError:
            intersect[i] = None
            r1_failures.append(i)
    r2_witnesses: list[tuple[int, int]] = []
    index_witnesses: list[tuple[int, int]] = []
    if not r1_failures:
        G = latticeG.group
        for m in range(len(latticeG.nodes)):
            for n in latticeG.covers_up[m]:
                mh, nh = intersect[m], intersect[n]
                assert mh is not None and nh is not None
                if mh == nh:
                    continue
                if nh not in latticeH.covers_up[mh]:
                    r2_witnesses.append((m, n))
                    continue
                # diamond condition: the cover must be generated by M and N cap H
                image_in_g = mask_of(map(embedding.map.__getitem__, _bits(latticeH.nodes[nh])))
                if closure_mask(G, latticeG.nodes[m] | image_in_g) != latticeG.nodes[n]:
                    index_witnesses.append((m, n))
    favorable = not r1_failures and not r2_witnesses and not index_witnesses
    return RestrictionContext(
        embedding, latticeG, latticeH, intersect, favorable,
        r1_failures, r2_witnesses, index_witnesses,
    )


def _require_favorable(ctx: RestrictionContext) -> None:
    if not ctx.favorable:
        raise UnfavorableEmbeddingError("context is not restriction favorable",
                                        check="favorable", witness=ctx.witnesses_json())


def compute_A_H(ctx: RestrictionContext, A: Sequence[int]) -> tuple[int, ...]:
    """The antichain A_H of H-meet-irreducibles: for each cover O of meet(A)
    whose intersection with H does not collapse, take the irreducible assigned
    to the H-cover (O cap H) by the cover-to-irreducible bijection."""
    _require_favorable(ctx)
    lg, lh = ctx.latticeG, ctx.latticeH
    _check_antichain(lg, A, lg.meet_irreducibles,
                     "meet irreducible in the G-lattice")
    meet_a = lg.meet_all(A)
    base_h = ctx.intersect[meet_a]
    assert base_h is not None
    # the top of H (no covers) has the empty antichain and the empty bijection
    bijection = cover_to_irreducible_map(lh, birkhoff_antichain(lh, base_h))
    chosen = [bijection[ctx.intersect[o]] for o in lg.covers_up[meet_a]
              if ctx.intersect[o] != base_h]
    return tuple(dict.fromkeys(chosen))


@dataclass
class RestrictionTerm:
    node: int                          # H-lattice node K
    normalized_coefficient: Fraction   # coefficient of chi^{K.} in Res(chi)/chi(1)
    coefficient: Fraction              # coefficient of chi^{K.} in Res(chi)


@dataclass
class RestrictionReport:
    anchor: int                        # G-node meet(A)
    antichain: tuple[int, ...]
    A_H: tuple[int, ...]
    meet_A_H: int                      # H-node (top of H when A_H is empty)
    collapsed: bool
    terms: list[RestrictionTerm]


def restrict_decompose(
    ctx: RestrictionContext, A: Sequence[int] | int
) -> RestrictionReport:
    """Restrict chi^{meet(A).} to H: verify the factorization, produce the
    closed-form interval coefficients, and cross-check by projection."""
    _require_favorable(ctx)
    lg, lh = ctx.latticeG, ctx.latticeH
    if isinstance(A, int):
        antichain = birkhoff_antichain(lg, A)
    else:
        antichain = tuple(dict.fromkeys(A))  # each node once, as meet_all reads A
    a_h = compute_A_H(ctx, antichain)  # checks the antichain before the theories are built
    meet_a = lg.meet_all(antichain)
    theory_g = build_theory(lg)
    theory_h = build_theory(lh)
    chi = theory_g.rows[meet_a]
    if not any(chi):
        raise ArgumentError("anchor node has a zero supercharacter", check="anchor_character",
                            witness=meet_a)
    degree = chi[0]

    # (1) direct restriction, checked constant on H-superclasses
    value_of = dict(zip(theory_g.nodes, chi))
    block_of, phi = theory_g.partition.block_of, ctx.embedding.map
    restricted: list[int] = []
    for bnode in theory_h.nodes:
        vals = {value_of[block_of[phi[h]]] for h in _bits(theory_h.partition.blocks[bnode])}
        if len(vals) != 1:
            raise CompatibilityError(
                "restricted character is not constant on an H-superclass",
                check="restriction_constancy",
                witness={"anchor": meet_a, "H_block": bnode},
            )
        restricted.append(vals.pop())

    # (2) part (a) factorization
    meet_ah = lh.meet_all(a_h)          # top of H when A_H is empty
    c_g = lg.cover_join(meet_a)
    c_h = ctx.intersect[c_g]
    assert c_h is not None
    chi_mh = theory_h.rows[meet_ah]
    chi_c = chi_subgroup(lh, c_h)
    # the factorization can genuinely fail on favorable pairs outside the
    # full-lattice / q=2 block-sum classes, so failure is a verification
    # result, not a bug signal.  r / chi(1) = (mh / chi_mh(1)) (c / chi_c(1)), in ints
    for bnode, r, mh, c in zip(theory_h.nodes, restricted, chi_mh, chi_c):
        if r * chi_mh[0] * chi_c[0] != mh * c * degree:
            raise VerificationError(
                "restriction factorization fails on this favorable pair",
                check="restriction_factorization",
                witness={"anchor": meet_a, "H_block": bnode},
            )

    # (3) closed-form coefficients over the interval [c_h meet meet_ah, meet_ah]
    low = lh.meet(c_h, meet_ah)
    interval = lh.interval(low, meet_ah)
    terms: list[RestrictionTerm] = []
    for k in interval:
        inside = [q for q in lh.covers_up[k] if lh.leq(q, meet_ah)]
        x = lh.meet(lh.cover_join(k), meet_ah)
        chi_k = theory_h.rows[k]
        denom = lh.size(x) * chi_k[theory_h.nodes.index(x)]
        if denom == 0:
            raise InternalConsistencyError(
                "vanishing denominator in the coefficient formula",
                check="restriction_coefficient", witness={"K": k},
            )
        ncoeff = Fraction(lh.size(low) * (-1) ** len(inside), denom)
        # independent route: the degree-sum theorem inside H
        ds = degree_sum(lh, k, meet_ah, c_h)
        alt = Fraction(ds.value, chi_c[0] * chi_k[0])
        if alt != ncoeff:
            raise InternalConsistencyError(
                "coefficient closed form disagrees with the degree-sum route",
                check="restriction_coefficient",
                witness={"K": k, "closed": str(ncoeff), "degree_sum": str(alt)},
            )
        terms.append(RestrictionTerm(k, ncoeff, ncoeff * degree))

    # (4) cross-check against orthogonal projection of the direct restriction
    projection = decompose_class_function(theory_h, restricted)
    closed = {t.node: t.coefficient for t in terms}
    if projection != closed:
        raise InternalConsistencyError(
            "projection decomposition disagrees with the closed form",
            check="restriction_projection",
            witness={
                "projection": {str(k): str(v) for k, v in sorted(projection.items())},
                "closed_form": {str(k): str(v) for k, v in sorted(closed.items())},
            },
        )

    return RestrictionReport(
        anchor=meet_a,
        antichain=antichain,
        A_H=a_h,
        meet_A_H=meet_ah,
        collapsed=lh.leq(meet_ah, c_h),
        terms=terms,
    )


def restriction_report_to_json(ctx: RestrictionContext, report: RestrictionReport) -> dict:
    lg, lh = ctx.latticeG, ctx.latticeH
    return {
        "favorable": True,  # an unfavorable context raises instead
        "anchor": {"node": report.anchor, "label": lg.node_label(report.anchor)},
        "antichain": [
            {"node": p, "label": lg.node_label(p)} for p in report.antichain
        ],
        "A_H": [{"node": p, "label": lh.node_label(p)} for p in report.A_H],
        "meet_A_H": {"node": report.meet_A_H, "label": lh.node_label(report.meet_A_H)},
        "collapsed": report.collapsed,
        "empty_A_H": not report.A_H,
        "part_a_verified": True,  # a failed factorization raises instead
        "terms": [
            {
                "node": t.node,
                "label": lh.node_label(t.node),
                "coefficient": str(t.coefficient),
                "normalized_coefficient": str(t.normalized_coefficient),
            }
            for t in report.terms
        ],
    }
