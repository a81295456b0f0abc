"""The normal lattice supercharacter theory of a sublattice of normal subgroups.

Superclasses: for each lattice node N, the block N_o of elements of N lying in
no smaller node.  Characters: one chi^{N.} per node, evaluated two ways --
by Moebius inversion of

    chi^N = sum over nodes O >= N of chi^{O.},

chi^N being |G/N| on N and zero off it, done as one transform over the
join-irreducibles of the lattice, and, when the covers of N are in general
position, the multiplicative closed form with degree
|G/join(C(N))| * prod(|O/N| - 1).  build_theory builds the blocks and the
Moebius rows together, once per lattice.  Every supercharacter is integer
valued, so a character is a row of ints over the theory's nodes, the block
nodes in ascending order and the one column order, and the theory is the
table of these rows.  Numbers are ints in every closed form and every check;
no Fraction is built here.  inner_product (one packed sum) serves the
projections of the products and restriction layers; verify_sct derives
orthogonality from its exact checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import prod
from operator import mul, sub
from typing import Sequence

from .errors import (
    AmbiguityError,
    ArgumentError,
    FormulaInapplicableError,
    InternalConsistencyError,
    VerificationError,
)
from .groups import _bits, mask_of
from .lattice import NormalLattice, is_general_position


@dataclass
class SuperclassPartition:
    """The nonempty blocks N_o keyed by lattice node, in ascending order, and the
    block of each element; built by build_theory and holding no lattice."""

    blocks: dict[int, int]            # node index -> element bitmask
    block_of: list[int]               # element index -> node index


def chi_subgroup(L: NormalLattice, n: int) -> list[int]:
    """chi^N: |G/N| inside N, zero outside (the G/N permutation character),
    as a row over the columns of the lattice's theory."""
    return _chi_subgroup(L, n, build_theory(L).nodes)


def _chi_subgroup(L: NormalLattice, n: int, nodes: list[int]) -> list[int]:
    size, down = L.group.order // L.size(n), L.down_mask[n]
    return [size if down >> b & 1 else 0 for b in nodes]


def chi_bullet_multiplicative(L: NormalLattice, m: int) -> list[int]:
    """chi^{M.} by the multiplicative formula, as a row over the block nodes;
    requires C(M) nonempty and in general position over M.  Checked exactly
    against the row of the lattice's theory.

    With top = cover_join(M), r_O the join of M with the covers other than O,
    and S the covers O with b not under r_O, the formula's value at a block
    b <= top is |G/top| prod over C(M) of (|O:M| - 1) times prod over S of
    1 / (1 - |O:M|).  As (x - 1) / (1 - x) = -1, that is the integer
    (-1)^|S| |G/top| prod over O in C(M) - S of (|O:M| - 1), computed once per
    set of r_O above b; b <= join(M, S) is tested for every block, and the
    row is compared with the Moebius row after the loop, so the first
    ambiguous block raises even after a mismatch at an earlier block."""
    covers = L.covers(m)
    if not covers:
        raise FormulaInapplicableError("multiplicative formula needs a nonempty cover set",
                                       check="cover_set", witness=m)
    if not is_general_position(L, covers, m):
        raise FormulaInapplicableError("covers are not in general position",
                                       check="general_position", witness=m)
    theory = build_theory(L)
    top = L.cover_join(m)
    quotient = L.group.order // L.size(top)
    rests = [L.join_all([m, *(p for p in covers if p != o)]) for o in covers]
    rest_mask = mask_of(rests)
    by_key: dict[int, tuple[int, int]] = {}   # r_O above b -> (join(M, S), value)
    row: list[int] = []
    for b in theory.nodes:
        up = L.up_mask[b]
        if not up >> top & 1:
            row.append(0)
            continue
        key = up & rest_mask
        if key not in by_key:
            minimal = [o for o, rest in zip(covers, rests) if not key >> rest & 1]
            value = (-1) ** len(minimal) * quotient * prod(
                L.size(o) // L.size(m) - 1 for o in covers if o not in minimal)
            by_key[key] = L.join_all([m, *minimal]), value
        join, value = by_key[key]
        if not up >> join & 1:
            raise AmbiguityError("no unique minimal cover subset for a block",
                                 check="ambiguity", witness={"M": m, "block": b})
        row.append(value)
    if row != theory.rows[m]:
        raise InternalConsistencyError(
            "multiplicative and Moebius character values disagree",
            check="dual_path", witness={"node": m},
        )
    return row


# ---------------------------------------------------------------------------
# Theory assembly.


@dataclass
class SCTheory:
    """The integer character table: the value row of every node's chi^{N.}
    over the block nodes, in ascending order.  Column 0 is the identity block,
    so rows[n][0] is the degree of chi^{N.}."""

    partition: SuperclassPartition
    nodes: list[int]                   # block nodes, ascending
    sizes: list[int]                   # their block sizes
    rows: list[list[int]]              # one row per lattice node, zero rows kept
    nonzero: list[int]                 # nodes whose row is not all zero


def build_theory(L: NormalLattice) -> SCTheory:
    """The superclasses N_o = N minus all smaller nodes, and the rows of all
    chi^{N.} over them, built once per lattice and cached on it.

    The chi_subgroup rows are inverted in place by the lattice Moebius
    transform of Bjorklund, Husfeldt, Kaski, Koivisto, Nederlof and
    Parviainen ("Fast zeta transforms for lattices with few irreducibles",
    SODA 2012), exact on every finite lattice, distributive or not.  With
    J(x) the join-irreducibles below x, take each join-irreducible p in
    descending index order, and for every node x not above p set
    row[x] -= row[x v p], skipped when J(x v p) - J(x) holds an irreducible
    of index above p.  After step p, row[x] is the sum of chi^{O.} over the
    O >= x whose irreducibles outside J(x) all have index below p, so at the
    end it is chi^{x.}; a skipped step would subtract an empty sum.  Step p
    leaves the rows of the nodes above p as they are, so the order of the x
    is free.  That is at most m |J| subtractions of whole rows."""
    if L._theory is not None:
        return L._theory
    blocks: dict[int, int] = {}
    block_of = [-1] * L.group.order
    for i, node in enumerate(L.nodes):
        smaller = 0
        for j in _bits(L.down_mask[i] & ~(1 << i)):
            smaller |= L.nodes[j]
        block = node & ~smaller
        if block:
            blocks[i] = block
            for g in _bits(block):
                block_of[g] = i
    if -1 in block_of:
        raise InternalConsistencyError("superclasses do not cover the group",
                                       check="superclass_partition")
    nodes = list(blocks)
    rows = [_chi_subgroup(L, n, nodes) for n in range(len(L.nodes))]
    irreducible = mask_of(L.join_irreducibles)
    below = [down & irreducible for down in L.down_mask]
    for p in reversed(L.join_irreducibles):
        above_p = -2 << p
        for x in range(len(rows)):
            y = L.join(x, p)
            if y != x and not below[y] & ~below[x] & above_p:
                rows[x] = list(map(sub, rows[x], rows[y]))
    theory = SCTheory(SuperclassPartition(blocks, block_of), nodes,
                      [b.bit_count() for b in blocks.values()], rows,
                      [n for n, row in enumerate(rows) if any(row)])
    L._theory = theory
    return theory


def inner_product(theory: SCTheory, fs: Sequence[Sequence[int]]) -> list[list[int]]:
    """|G| <f, chi> = sum over blocks K of |K| f(K) chi(K), an exact int for every int
    row f of fs: one list over fs per chi of theory.nonzero.  fs is packed by column,
    P_k = sum_i |K_k| f_ik 2^(s i), read off bytes holding |K_k| f_ik + H, H = 2^(s-1),
    less H R, R = sum_i 2^(s i); a chi then costs one sum S = sum_k chi_k P_k.  Exactness
    bound: B = |G| max|f| max(1, max|chi|) bounds each |K_k f_ik| and |G| |<f_i, chi>|,
    and s >= bit_length(B) + 2, so field i of S + H R is |G| <f_i, chi> + H, in [0, 2^s)."""
    if any(len(f) != len(theory.sizes) for f in fs):
        raise ArgumentError("inner product requires characters on the same partition",
                            check="partition", witness=list(map(len, fs)))
    chars = list(map(theory.rows.__getitem__, theory.nonzero))
    bound = len(theory.partition.block_of) * max(map(abs, chain([0], *fs)))
    width = (bound * max(map(abs, chain([1], *chars)))).bit_length() + 9 >> 3  # bytes per field
    half = 1 << 8 * width - 1
    halves = int.from_bytes((bytes(width - 1) + b"\x80") * len(fs), "little")  # H R
    columns = [int.from_bytes(b"".join([(size * v + half).to_bytes(width, "little") for v in col]),
                              "little") - halves for size, col in zip(theory.sizes, zip(*fs))]
    products = []
    for chi in chars:
        raw = (sum(map(mul, chi, columns)) + halves).to_bytes(len(fs) * width, "little")
        products.append([int.from_bytes(raw[i:i + width], "little") - half
                         for i in range(0, len(raw), width)])
    return products


@dataclass
class DegreeSumResult:
    value: int                         # brute-force sum of qualifying degrees
    closed_form_applicable: bool       # False when general position fails


def degree_sum(L: NormalLattice, k: int, lnode: int, m: int) -> DegreeSumResult:
    """Sum of chi^{N.}(1) over nodes N >= M with N meet L = K, by the closed
    form, cross-checked against the node-by-node sum.  The closed form is
    |G/join(KM, P)| prod over P of (|O/KM| - 1), P the covers O of KM with
    O meet L != K: |G/KM| when P is empty, and 0 when KM meet L != K.  Every
    index is an int, and so is the closed form."""
    rows = build_theory(L).rows
    km = L.join(k, m)
    brute = sum(rows[n][0] for n in _bits(L.up_mask[m]) if L.meet(n, lnode) == k)
    perp = [o for o in L.covers(km) if L.meet(o, lnode) != k]
    if not is_general_position(L, perp, km):
        return DegreeSumResult(brute, False)
    closed = (L.meet(km, lnode) == k) * (L.group.order // L.size(L.join_all([km, *perp])))
    closed *= prod(L.size(o) // L.size(km) - 1 for o in perp)
    if closed != brute:
        raise InternalConsistencyError(
            "degree-sum closed form disagrees with the node scan",
            check="degree_sum",
            witness={"K": k, "L": lnode, "M": m, "closed": str(closed), "brute": str(brute)},
        )
    return DegreeSumResult(brute, True)


# ---------------------------------------------------------------------------
# Axioms.


def verify_sct(L: NormalLattice) -> dict:
    """Check the theory of L, in this order: SC1, SC2, integrality, positive_degree,
    subgroup_decomposition, orthogonality (implied by those), then the oracle-side
    Schur-ring closure and (abelian only) the direct SC3 sums.  Returns the report;
    raises VerificationError naming the first failed axiom.

    Orthogonality is proved, not computed.  Premises: L is a NormalLattice as its
    constructor certified it (meet N cap O, join NO), and theory.sizes and .nonzero
    are as build_theory derives them.  Let R be the rows, Z the chi^N rows (|G/N| on
    the block columns under N), D the block sizes and zeta the up-set sum.
    subgroup_decomposition checks zeta R = Z exactly; zeta is unitriangular in node
    order, so R = mu Z is the only table that passes.  The blocks under a node
    partition it, so (Z D Z^T)[N][O] = |G/N| |G/O| |N cap O| = |G| |G/(N v O)|, which
    is (zeta Delta zeta^T)[N][O] for Delta_P = |G| R[P][0]: column 0 is the identity
    block (SC1) and (zeta R)[X][0] = |G/X|.  So R D R^T = mu zeta Delta zeta^T mu^T =
    Delta: distinct rows are orthogonal, and positive_degree makes each nonzero norm
    positive."""
    from . import oracle  # oracle stays independent of the formula paths

    theory = build_theory(L)
    part, rows, report = theory.partition, theory.rows, {}

    if part.blocks.get(L.bottom) != 1 << 0:
        raise VerificationError("identity block is not {1}", check="SC1",
                                witness=sorted(part.blocks))
    report["SC1"] = "pass"

    if len(theory.nonzero) != len(part.blocks):
        raise VerificationError(
            f"{len(theory.nonzero)} nonzero supercharacters vs {len(part.blocks)} blocks",
            check="SC2",
            witness={"chars": len(theory.nonzero), "blocks": len(part.blocks)},
        )
    report["SC2"] = "pass"
    report["block_constancy"] = "pass (by construction: values stored per block)"

    for n in theory.nonzero:
        row = rows[n]
        for v in row:
            if v.denominator != 1:
                raise VerificationError(
                    f"non-integer supercharacter value {v} at node {n}",
                    check="integrality", witness={"node": n, "value": str(v)},
                )
        if any(row) and row[0] <= 0:
            raise VerificationError(
                f"nonzero supercharacter with degree {row[0]}",
                check="positive_degree", witness={"node": n},
            )
    report["integrality"] = "pass"

    # partition of unity: chi^N = sum of chi^{O.} over O >= N, as integer rows.
    # The rows are re-summed upward over the whole up-set of N, the zeta sum
    # itself, so this does not share the join-irreducible steps of build_theory
    for n in range(len(L.nodes)):
        total = list(map(sum, zip(*map(rows.__getitem__, _bits(L.up_mask[n])))))
        if total != chi_subgroup(L, n):
            raise VerificationError(
                f"sum of chi^{{O.}} over O >= {n} does not give chi^N",
                check="subgroup_decomposition", witness={"node": n},
            )
    report["subgroup_decomposition"] = "pass"
    report["orthogonality"] = "pass"

    report["schur_closure"] = oracle.schur_closure_check(L, theory)["status"]
    if L.group.is_abelian:
        report["SC3_abelian"] = oracle.verify_sc3_abelian(L, theory)["status"]
    else:
        report["SC3_abelian"] = "skipped (nonabelian group; certified via Schur closure)"
    return report
