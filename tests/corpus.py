"""Shared corpus builders, memoized so lattices (and their character caches)
are constructed once per test session."""

from __future__ import annotations

import random
from functools import lru_cache

from hypothesis import strategies as st

from latsuper import GroupSpec, build_theory, make_group, normal_lattice
from latsuper.catalog import dihedral_group, quaternion_group, symmetric_group
from latsuper.groups import Subgroup, mask_of
from latsuper.lattice import NormalLattice, closed_sublattice, subspace_lattice

RANDOM_SUBLATTICE_SEED = 20260810


@lru_cache(maxsize=None)
def cyclic_group(n: int):
    return make_group(GroupSpec.cyclic(n))


@lru_cache(maxsize=None)
def cyclic_lattice(n: int) -> NormalLattice:
    return normal_lattice(cyclic_group(n))


@lru_cache(maxsize=None)
def vector_space_group(q: int, dim: int):
    return make_group(GroupSpec.vector_space(q, dim))


@lru_cache(maxsize=None)
def subsp_lattice(q: int, dim: int) -> NormalLattice:
    return subspace_lattice(vector_space_group(q, dim))


def basis_sublattice(G) -> NormalLattice:
    """The spans of subsets of the standard basis of a vector-space group G, a
    new lattice object each call: closed_sublattice of the lines
    {c q^(dim-1-i)}, which are F_q e_i, as indices are row-major."""
    q, dim = G.vs.q, G.vs.dim
    lines = [mask_of(c * q ** (dim - 1 - i) for c in range(q)) for i in range(dim)]
    return closed_sublattice(G, [Subgroup(line) for line in lines])


@lru_cache(maxsize=None)
def basis_lattice(q: int, dim: int) -> NormalLattice:
    return basis_sublattice(vector_space_group(q, dim))


@lru_cache(maxsize=None)
def s3_lattice() -> NormalLattice:
    return normal_lattice(symmetric_group(3))


@lru_cache(maxsize=None)
def d4_lattice() -> NormalLattice:
    return normal_lattice(dihedral_group(4))


@lru_cache(maxsize=None)
def q8_lattice() -> NormalLattice:
    return normal_lattice(quaternion_group())


def node_of_size(L: NormalLattice, size: int) -> int:
    hits = [i for i in range(len(L.nodes)) if L.size(i) == size]
    assert len(hits) == 1, f"{len(hits)} nodes of size {size}"
    return hits[0]


def basis_node(L: NormalLattice, subset) -> int:
    """Node index of span{e_i : i in subset} in a basis lattice, found by its
    mask: the elements whose coordinates outside subset are 0 (coordinate i
    is the base-q digit of q^(dim-1-i))."""
    q, dim, subset = L.group.vs.q, L.group.vs.dim, set(subset)
    outside = [q ** (dim - 1 - i) for i in range(dim) if i not in subset]
    return L.index_of(mask_of(v for v in range(L.group.order)
                              if all(v // step % q == 0 for step in outside)))


def degree_sum_case(L: NormalLattice, k: int, lnode: int, m: int) -> str:
    """The case of the degree-sum closed form for K, L, M, read off the lattice."""
    km = L.join(k, m)
    if L.meet(km, lnode) != k:
        return "disjoint"
    return "product" if any(L.meet(o, lnode) != k for o in L.covers(km)) else "no_covers"


def reference_moebius_row(L: NormalLattice, n: int) -> dict[int, int]:
    """mu(n, o) for every node o >= n, by the defining recursion mu(n, n) = 1
    and mu(n, o) = -sum of mu(n, p) over n <= p < o.  Index order is a linear
    extension (nodes are sorted by size), so each o comes after the p below
    it."""
    row: dict[int, int] = {}
    for o in range(n, len(L.nodes)):
        if L.leq(n, o):
            row[o] = 1 if o == n else -sum(mu for p, mu in row.items() if L.leq(p, o))
    return row


def rebuilt_rows(L: NormalLattice) -> list[list[int]]:
    """The character table built afresh on a new lattice object with the nodes
    of L, not read from L's cache (which other tests may have checked or
    tampered with)."""
    return build_theory(NormalLattice(L.group, L.nodes, check_normal=False)).rows


def restricted_row(ctx, anchor: int) -> list[int]:
    """Res(chi^{anchor.}) over the H-block nodes of a restriction context: the
    G row read through the embedding at the least element of each H-block."""
    theory_g, theory_h = build_theory(ctx.latticeG), build_theory(ctx.latticeH)
    value_of = dict(zip(theory_g.nodes, theory_g.rows[anchor]))
    block_of, phi = theory_g.partition.block_of, ctx.embedding.map
    return [value_of[block_of[phi[theory_h.partition.representative(b)]]] for b in theory_h.nodes]


def basis_vector(vs, i: int) -> int:
    """Element index of e_i in F_q^dim: indices are row-major, coordinate 0
    most significant."""
    return vs.q ** (vs.dim - 1 - i)


@lru_cache(maxsize=None)
def random_cyclic_sublattices(n: int, count: int = 2) -> tuple[NormalLattice, ...]:
    rng = random.Random(RANDOM_SUBLATTICE_SEED + n)
    L = cyclic_lattice(n)
    out = []
    for _ in range(count):
        k = rng.randrange(0, len(L.nodes))
        gens = rng.sample(range(len(L.nodes)), k) if k else []
        out.append(closed_sublattice(L.group, [L.nodes[i] for i in gens]))
    return tuple(out)


@lru_cache(maxsize=None)
def full_corpus() -> tuple[tuple[str, NormalLattice], ...]:
    """The acceptance corpus: cyclic (full and random sublattices), basis
    lattices, subspace lattices, and the nonabelian trio."""
    entries: list[tuple[str, NormalLattice]] = []
    for n in range(1, 61):
        entries.append((f"ker(C{n})", cyclic_lattice(n)))
    for n in (6, 12, 24, 30, 36, 48, 60):
        for j, sub in enumerate(random_cyclic_sublattices(n)):
            entries.append((f"sub{j}(C{n})", sub))
    for q in (2, 3, 4, 5):
        for dim in (1, 2, 3):
            entries.append((f"subsp_B(F{q}^{dim})", basis_lattice(q, dim)))
            entries.append((f"subsp(F{q}^{dim})", subsp_lattice(q, dim)))
    entries.append(("ker(S3)", s3_lattice()))
    entries.append(("ker(D4)", d4_lattice()))
    entries.append(("ker(Q8)", q8_lattice()))
    return tuple(entries)


@lru_cache(maxsize=None)
def small_corpus() -> tuple[tuple[str, NormalLattice], ...]:
    """Cheaper slice for per-module property tests."""
    keep = []
    for name, lat in full_corpus():
        if lat.group.order <= 16 or name in ("ker(C30)", "subsp(F5^3)", "ker(C60)"):
            keep.append((name, lat))
    return tuple(keep)


# ---------------------------------------------------------------------------
# Lattices drawn for equivalence and tamper tests: small abelian products,
# F_p^k (full lattices, F3^2's not distributive, and basis lattices), D_n,
# S4 and Q8 x C4.


def _cyclic_product(*orders: int):
    return make_group(GroupSpec.product([GroupSpec.cyclic(n) for n in orders]))


DRAWN_GROUPS = {
    "C2xC4": lambda: _cyclic_product(2, 4),
    "C2xC2xC3": lambda: _cyclic_product(2, 2, 3),
    "C3xC6": lambda: _cyclic_product(3, 6),
    "C2xC6xC5": lambda: _cyclic_product(2, 6, 5),
    "F2^3": lambda: vector_space_group(2, 3),
    "F3^2": lambda: vector_space_group(3, 2),
    "D4": lambda: dihedral_group(4),
    "D5": lambda: dihedral_group(5),
    "D6": lambda: dihedral_group(6),
    "S4": lambda: symmetric_group(4),
    "Q8xC4": lambda: make_group(GroupSpec.product([quaternion_group().spec, GroupSpec.cyclic(4)])),
}


@lru_cache(maxsize=None)
def drawn_full_lattice(name: str) -> NormalLattice:
    return normal_lattice(DRAWN_GROUPS[name]())


def fresh_lattice(name: str, kind: str, picks: tuple[int, ...] = ()) -> NormalLattice:
    """A new lattice object, so with its own theory cache: the full normal
    lattice, the basis lattice of a vector space, or the sublattice closed
    from the picked nodes of the full lattice."""
    full = drawn_full_lattice(name)
    if kind == "full":
        return NormalLattice(full.group, full.nodes, check_normal=False)
    if kind == "basis":
        return basis_sublattice(full.group)
    return closed_sublattice(full.group, [full.nodes[i] for i in picks])


@st.composite
def drawn_lattices(draw, abelian_only: bool = False) -> NormalLattice:
    names = [n for n in sorted(DRAWN_GROUPS)
             if not abelian_only or drawn_full_lattice(n).group.is_abelian]
    name = draw(st.sampled_from(names))
    full = drawn_full_lattice(name)
    kind = draw(st.sampled_from(["full", "closed"] + (["basis"] if full.group.vs else [])))
    picks = draw(st.sets(st.integers(0, len(full.nodes) - 1), max_size=3))
    return fresh_lattice(name, kind, tuple(sorted(picks)))
