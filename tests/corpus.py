"""Shared corpus builders, memoized so lattices (and their character caches)
are constructed once per test session."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import gcd
from typing import Iterable, Sequence

from hypothesis import strategies as st

from latsuper import (
    ArgumentError,
    CapacityError,
    GroupSpec,
    GroupTable,
    build_theory,
    make_group,
    normal_lattice,
)
from latsuper.errors import InternalConsistencyError
from latsuper.groups import _bits, mask_of
from latsuper.lattice import NormalLattice, _check_antichain, _require_distributive, closed_sublattice

RANDOM_SUBLATTICE_SEED = 20260810


# Small named groups built as raw tables: the nonabelian corpus and CLI fixtures.


def symmetric_group(n: int) -> GroupTable:
    """S_n as a table; elements ordered with the identity permutation first."""
    if n > 7:
        raise CapacityError(f"S_{n} is past the desk-scale cap")
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    # composition (p*q)(x) = p(q(x))
    mul = [[index[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms]
    g = make_group(GroupSpec.table(mul))
    g.name = f"S{n}"
    return g


def dihedral_group(n: int) -> GroupTable:
    """D_n of order 2n: elements r^i (0..n-1) then s*r^i (n..2n-1)."""
    order = 2 * n
    mul = [[0] * order for _ in range(order)]
    for a in range(order):
        ai, aflip = a % n, a >= n
        for b in range(order):
            bi, bflip = b % n, b >= n
            # (s^x r^i)(s^y r^j) = s^(x+y) r^(i+j) or s^(x+y) r^(j-i) when y = 1
            i = (bi - ai) % n if bflip else (ai + bi) % n
            mul[a][b] = i + (n if aflip != bflip else 0)
    g = make_group(GroupSpec.table(mul))
    g.name = f"D{n}"
    return g


def quaternion_group() -> GroupTable:
    """Q_8 = {1, -1, i, -i, j, -j, k, -k} in that element order."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    sign = {x: (-1 if x.startswith("-") else 1) for x in names}
    base = {x: x.lstrip("-") for x in names}

    def mul_base(a: str, b: str) -> tuple[int, str]:
        if a == "1":
            return 1, b
        if b == "1":
            return 1, a
        if a == b:
            return -1, "1"
        table = {("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
                 ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j")}
        return table[(a, b)]

    idx = {x: i for i, x in enumerate(names)}
    mul = [[0] * 8 for _ in range(8)]
    for a in names:
        for b in names:
            s, c = mul_base(base[a], base[b])
            s *= sign[a] * sign[b]
            mul[idx[a]][idx[b]] = idx[c if s == 1 else "-" + c] if c != "1" else idx["1" if s == 1 else "-1"]
    g = make_group(GroupSpec.table(mul))
    g.name = "Q8"
    return g


@lru_cache(maxsize=None)
def cyclic_group(n: int):
    return make_group(GroupSpec.cyclic(n))


@lru_cache(maxsize=None)
def cyclic_lattice(n: int) -> NormalLattice:
    return normal_lattice(cyclic_group(n))


@lru_cache(maxsize=None)
def vector_space_group(q: int, dim: int):
    return make_group(GroupSpec.vector_space(q, dim))


# F_4 = F_2[x]/(x^2 + x + 1), a0 + a1 x at index a0 + 2 a1: the field the
# corpus needs besides the prime fields
_F4_MUL = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))


def coordinates(G, v: int) -> tuple[int, ...]:
    """The coordinates of element v of a vector-space group F_q^dim: indices
    are row-major, coordinate 0 most significant."""
    q, dim = G.spec.q, G.spec.dim
    return tuple(v // q ** (dim - 1 - i) % q for i in range(dim))


def scale(G, c: int, v: int) -> int:
    """The element c v of a vector-space group F_q^dim, for q prime or 4."""
    q = G.spec.q
    assert q == 4 or all(q % d for d in range(2, q)), f"no field arithmetic for q={q}"
    times = _F4_MUL[c].__getitem__ if q == 4 else (lambda x: c * x % q)
    out = 0
    for x in coordinates(G, v):
        out = out * q + times(x)
    return out


@lru_cache(maxsize=None)
def subsp_lattice(q: int, dim: int) -> NormalLattice:
    """All subspaces of F_q^dim: closed_sublattice of the lines F_q v (the
    subgroup generated by two subspaces is their sum)."""
    G = vector_space_group(q, dim)
    lines = {mask_of(scale(G, c, v) for c in range(q)) for v in range(1, G.order)}
    return closed_sublattice(G, lines)


def basis_sublattice(G) -> NormalLattice:
    """The spans of subsets of the standard basis of a vector-space group G, a
    new lattice object each call: closed_sublattice of the lines
    {c q^(dim-1-i)}, which are F_q e_i, as indices are row-major."""
    q, dim = G.spec.q, G.spec.dim
    lines = [mask_of(c * q ** (dim - 1 - i) for c in range(q)) for i in range(dim)]
    return closed_sublattice(G, lines)


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


def lower_covers(L: NormalLattice, j: int) -> list[int]:
    """The nodes that node j covers, read off down_mask and covers_up."""
    return [i for i in _bits(L.down_mask[j]) if j in L.covers_up[i]]


def node_of_size(L: NormalLattice, size: int) -> int:
    hits = [i for i in range(len(L.nodes)) if L.size(i) == size]
    assert len(hits) == 1, f"{len(hits)} nodes of size {size}"
    return hits[0]


def basis_node(L: NormalLattice, subset) -> int:
    """Node index of span{e_i : i in subset} in a basis lattice, found by its
    mask: the elements whose coordinates outside subset are 0 (coordinate i
    is the base-q digit of q^(dim-1-i))."""
    q, dim, subset = L.group.spec.q, L.group.spec.dim, set(subset)
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


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def moebius_mu(n: int) -> int:
    mu, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            mu = -mu
        d += 1
    if n > 1:
        mu = -mu
    return mu


def euler_phi(n: int) -> int:
    result = n
    for p in prime_factors(n):
        result = result // p * (p - 1)
    return result


def ramanujan_sum(n: int, k: int) -> int:
    """c_n(k) = mu(n/g) phi(n) / phi(n/g) with g = gcd(n, k): the reference
    the characters chi^{N.} of the full lattice of C_n are compared with."""
    g = gcd(n, k) if k else n
    m = n // g
    return moebius_mu(m) * euler_phi(n) // euler_phi(m)


# Exact cyclotomic arithmetic, the reference for the packed SC3 sums of
# latsuper.oracle: a sum of e-th roots of unity is an integer polynomial in
# x = zeta_e, and two sums are equal exactly when their remainders modulo the
# e-th cyclotomic polynomial are equal.


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


_cyclotomic_cache: dict[int, tuple[int, ...]] = {}


def _poly_divmod(num: Sequence[int], den: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of num by the monic den, in exact integers; the
    remainder has exactly deg(den) coefficients, so it is canonical."""
    num = list(num)
    dd = len(den) - 1
    terms = [(j, dj) for j, dj in enumerate(den) if dj]
    quot = [0] * max(1, len(num) - dd)
    for i in range(len(num) - dd - 1, -1, -1):
        c = num[i + dd]
        if c:
            quot[i] = c
            for j, dj in terms:
                num[i + j] -= c * dj
    return quot, (num + [0] * dd)[:dd]


def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Phi_e via iterated exact division of x^e - 1 by the Phi_d, d | e, d < e."""
    if e in _cyclotomic_cache:
        return _cyclotomic_cache[e]
    poly = [-1] + [0] * (e - 1) + [1]  # x^e - 1
    for d in divisors(e)[:-1]:
        quot, rem = _poly_divmod(poly, cyclotomic_polynomial(d))
        if any(rem):
            raise ArgumentError(f"cyclotomic division left a remainder at e={e}, d={d}")
        poly = quot
    result = tuple(poly)
    _cyclotomic_cache[e] = result
    return result


def cyclotomic_residue(e: int, exponents: Iterable[int]) -> tuple[int, ...]:
    """The sum of zeta_e^k over the multiset of exponents k, as its remainder
    modulo Phi_e: phi(e) integers, low degree first.  The integer c is
    (c, 0, ..., 0)."""
    counts = [0] * e
    for k in exponents:
        counts[k % e] += 1
    return tuple(_poly_divmod(counts, cyclotomic_polynomial(e))[1])


def product_to_cover_map(L: NormalLattice, B: Sequence[int]) -> dict[int, int]:
    """For an antichain B of product irreducibles, the bijection sending each
    lower cover L' of join(B) to the unique K in B with K meet L' != K: the
    product-irreducible/cover bijection of the paper, dual to
    latsuper.lattice.cover_to_irreducible_map."""
    _require_distributive(L)
    bset = _check_antichain(L, B, L.join_irreducibles, "product irreducible")
    top = L.join_all(bset)
    mapping: dict[int, int] = {}
    for lnode in [i for i in _bits(L.down_mask[top]) if top in L.covers_up[i]]:
        hits = [k for k in bset if L.meet(k, lnode) != k]
        if len(hits) != 1:
            raise InternalConsistencyError(
                f"no unique member avoiding lower cover {lnode}", check="product_to_cover",
                witness={"L": lnode, "hits": hits},
            )
        mapping[lnode] = hits[0]
    # verify the stated inverse: K -> M_K * join(B - K)
    inverse: dict[int, int] = {}
    for k in bset:
        # k is join-irreducible: its one lower cover is the largest node below it
        m_k = (L.down_mask[k] ^ 1 << k).bit_length() - 1
        inverse[k] = L.join_all([m_k, *(b for b in bset if b != k)])
    if sorted(mapping.values()) != sorted(bset) or any(
        mapping[inverse[k]] != k for k in bset
    ):
        raise InternalConsistencyError("product_to_cover map is not a bijection",
                                       check="product_to_cover")
    return mapping


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
    return [value_of[block_of[phi[next(_bits(theory_h.partition.blocks[b]))]]] for b in theory_h.nodes]


def basis_vector(G, i: int) -> int:
    """Element index of e_i in the vector-space group F_q^dim: indices are
    row-major, coordinate 0 most significant."""
    return G.spec.q ** (G.spec.dim - 1 - i)


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
    basis = ["basis"] if full.group.spec.kind == "vector_space" else []
    kind = draw(st.sampled_from(["full", "closed", *basis]))
    picks = draw(st.sets(st.integers(0, len(full.nodes) - 1), max_size=3))
    return fresh_lattice(name, kind, tuple(sorted(picks)))


# ---------------------------------------------------------------------------
# The projections by the plain pair loop: one Fraction inner product per pair
# of rows over the blocks of a theory.


def reference_inner_product(theory, f: Sequence, h: Sequence) -> Fraction:
    """<f, h> = (1/|G|) sum over blocks of |block| f(block) h(block)."""
    total = sum((size * a * b for size, a, b in zip(theory.sizes, f, h, strict=True)), Fraction(0))
    return total / len(theory.partition.block_of)


def reference_decomposition(theory, f: Sequence) -> dict[int, Fraction]:
    """The nonzero c_N = <f, chi^{N.}> / <chi^{N.}, chi^{N.}> over the nonzero
    characters, each norm summed over the blocks."""
    coeffs = {}
    for n in theory.nonzero:
        row = theory.rows[n]
        dot = reference_inner_product(theory, f, row)
        if dot:
            coeffs[n] = dot / reference_inner_product(theory, row, row)
    return coeffs
