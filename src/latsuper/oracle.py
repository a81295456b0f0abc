"""Independent brute-force verifiers.

Nothing here reuses the lattice/character formula paths: dual groups are
enumerated as homomorphisms into Z_e, character sums are compared in exact
cyclotomic arithmetic (divisibility by the e-th cyclotomic polynomial), Schur
closure works on raw convolution counts, and normal subgroups are re-derived
by scanning all subgroups.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import TYPE_CHECKING, Optional

from .errors import ArgumentError, CapacityError, VerificationError
from .groups import GroupTable, Subgroup, closure_mask, is_normal
from .lattice import _bits

if TYPE_CHECKING:
    from .sct import SCTheory


# ---------------------------------------------------------------------------
# Elementary number theory (kept self-contained on purpose).


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


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def ramanujan_sum(n: int, k: int) -> int:
    """c_n(k) = mu(n/g) phi(n) / phi(n/g) with g = gcd(n, k)."""
    g = gcd(n, k) if k else n
    m = n // g
    return moebius_mu(m) * euler_phi(n) // euler_phi(m)


# ---------------------------------------------------------------------------
# Exact cyclotomic arithmetic: integer polynomials modulo x^e - 1, with
# equality decided modulo the e-th cyclotomic polynomial.

_cyclotomic_cache: dict[int, tuple[int, ...]] = {}


def _poly_divmod(num: list[int], den: tuple[int, ...]) -> tuple[list[int], list[int]]:
    # den is monic; exact integer division
    num = list(num)
    dd = len(den) - 1
    quot = [0] * max(1, len(num) - dd)
    for i in range(len(num) - dd - 1, -1, -1):
        c = num[i + dd]
        if c:
            quot[i] = c
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


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


@dataclass(frozen=True)
class CyclotomicElement:
    """Sum of e-th roots of unity, stored as exponent counts modulo x^e - 1."""

    exponent: int
    coefficients: tuple[int, ...]

    @classmethod
    def zero(cls, e: int) -> "CyclotomicElement":
        return cls(e, (0,) * e)

    def bump(self, k: int) -> "CyclotomicElement":
        coeffs = list(self.coefficients)
        coeffs[k % self.exponent] += 1
        return CyclotomicElement(self.exponent, tuple(coeffs))

    def minus_integer(self, c: int) -> list[int]:
        coeffs = list(self.coefficients)
        coeffs[0] -= c
        return coeffs

    def equals_integer(self, c: int) -> bool:
        _, rem = _poly_divmod(self.minus_integer(c), cyclotomic_polynomial(self.exponent))
        return not any(rem)

    def equals(self, other: "CyclotomicElement") -> bool:
        diff = [a - b for a, b in zip(self.coefficients, other.coefficients)]
        _, rem = _poly_divmod(diff, cyclotomic_polynomial(self.exponent))
        return not any(rem)

    def approx(self) -> complex:
        import cmath

        e = self.exponent
        return sum(c * cmath.exp(2j * cmath.pi * k / e) for k, c in enumerate(self.coefficients))


# ---------------------------------------------------------------------------
# Dual groups of abelian groups.


@dataclass
class DualCharacter:
    """Homomorphism psi: G -> <zeta_e> stored as exponents k(g), psi(g) = zeta_e^k(g)."""

    group: GroupTable
    exponent: int
    exponents: tuple[int, ...]
    kernel: Subgroup

    def value(self, g: int) -> int:
        return self.exponents[g]


def group_exponent(G: GroupTable) -> int:
    e = 1
    for g in range(G.order):
        o = G.element_order(g)
        e = e * o // gcd(e, o)
    return e


def dual_characters(G: GroupTable) -> list[DualCharacter]:
    """All |G| homomorphisms G -> Z_e, built by extending along a generating
    sequence (each extension solves d*x = v mod e)."""
    if not G.is_abelian:
        raise ArgumentError("dual_characters requires an abelian group")
    e = group_exponent(G)
    # generating sequence: grow the span one generator at a time
    gens: list[int] = []
    span = 1
    for g in range(G.order):
        if not (span >> g) & 1:
            gens.append(g)
            span = closure_mask(G, span | (1 << g))
    partial: list[dict[int, int]] = [{0: 0}]
    for g in gens:
        extended: list[dict[int, int]] = []
        for table in partial:
            # relative order d: least d >= 1 with g^d in the current span
            d = 1
            x = g
            while x not in table:
                x = G.mul[x][g]
                d += 1
            v = table[x]
            gg = gcd(d, e)
            if v % gg != 0:
                raise VerificationError(
                    "no character extension exists (group is not abelian?)",
                    check="dual_group", witness={"generator": g},
                )
            step = e // gg
            x0 = (v // gg) * pow(d // gg, -1, step) % step
            for t in range(gg):
                val = (x0 + t * step) % e
                new_table = dict(table)
                for h, kh in table.items():
                    acc_elem, acc_val = h, kh
                    for _ in range(d - 1):
                        acc_elem = G.mul[acc_elem][g]
                        acc_val = (acc_val + val) % e
                        new_table[acc_elem] = acc_val
                extended.append(new_table)
        partial = extended
    if len(partial) != G.order:
        raise VerificationError(
            f"dual group has {len(partial)} characters, expected {G.order}",
            check="dual_group",
        )
    out = []
    for table in partial:
        exps = tuple(table[g] for g in range(G.order))
        kernel_mask = 0
        for g, k in enumerate(exps):
            if k == 0:
                kernel_mask |= 1 << g
        out.append(DualCharacter(G, e, exps, Subgroup(kernel_mask)))
    out.sort(key=lambda c: c.exponents)
    return out


# ---------------------------------------------------------------------------
# Checks against a theory.


def verify_sc3_abelian(theory: "SCTheory") -> dict:
    """SC3 from first principles on abelian groups: partition the dual by the
    maximal lattice node inside each kernel, form the exact cyclotomic sums,
    and compare with the computed integer supercharacter values."""
    L = theory.lattice
    G = L.group
    psis = dual_characters(G)
    e = psis[0].exponent if psis else 1
    blocks_of_dual: dict[int, list[DualCharacter]] = {}
    for psi in psis:
        inside = [n for n in range(len(L.nodes)) if L.nodes[n].mask & ~psi.kernel.mask == 0]
        n_max = max(inside, key=lambda n: L.size(n))
        for n in inside:
            if not L.leq(n, n_max):
                raise VerificationError(
                    "kernel nodes not closed under join", check="SC3",
                    witness={"kernel": psi.kernel.to_json()},
                )
        blocks_of_dual.setdefault(n_max, []).append(psi)
    # the X-blocks must exactly mirror the nonzero supercharacters
    nonzero_nodes = {f.label for f in theory.chars}
    if set(blocks_of_dual) != nonzero_nodes:
        raise VerificationError(
            "dual partition does not match nonzero supercharacters",
            check="SC3",
            witness={"dual_blocks": sorted(blocks_of_dual), "chars": sorted(nonzero_nodes)},
        )
    if sum(len(v) for v in blocks_of_dual.values()) != G.order:
        raise VerificationError("X-blocks do not partition the dual", check="SC3")
    for n, block in blocks_of_dual.items():
        char = theory.char_by_node[n]
        sums: dict[int, CyclotomicElement] = {}
        for g in range(G.order):
            acc = CyclotomicElement.zero(e)
            for psi in block:
                acc = acc.bump(psi.value(g))
            sums[g] = acc
        for bnode, bmask in theory.partition.blocks.items():
            rep = (bmask & -bmask).bit_length() - 1
            expected = char.values[bnode]
            assert expected.denominator == 1
            for g in _bits(bmask):
                if not sums[g].equals(sums[rep]):
                    raise VerificationError(
                        "SC3 sum not constant on a superclass", check="SC3",
                        witness={"node": n, "elements": [rep, g]},
                    )
            if not sums[rep].equals_integer(int(expected)):
                raise VerificationError(
                    "SC3 sum disagrees with the supercharacter value", check="SC3",
                    witness={"node": n, "block": bnode, "expected": str(expected)},
                )
    return {"status": "pass", "dual_size": len(psis)}


def schur_closure_check(theory: "SCTheory") -> dict:
    """Convolution of superclass sums must have constant multiplicity on each
    superclass; the structure constants are reported."""
    L = theory.lattice
    G = L.group
    part = theory.partition
    nodes = part.block_nodes()
    constants: dict[str, int] = {}
    for i in nodes:
        for j in nodes:
            counts = [0] * G.order
            for a in _bits(part.blocks[i]):
                row = G.mul[a]
                for b in _bits(part.blocks[j]):
                    counts[row[b]] += 1
            for k in nodes:
                bmask = part.blocks[k]
                rep = (bmask & -bmask).bit_length() - 1
                c = counts[rep]
                for g in _bits(bmask):
                    if counts[g] != c:
                        raise VerificationError(
                            "superclass convolution is not constant on a block",
                            check="schur_closure",
                            witness={"blocks": [i, j, k], "elements": [rep, g]},
                        )
                if c:
                    constants[f"{i},{j}->{k}"] = c
    return {"status": "pass", "constants": constants}


def brute_force_normal_subgroups(G: GroupTable) -> list[Subgroup]:
    """Re-derive the normal subgroups by enumerating all subgroups (breadth-first
    one-generator extensions) and filtering by normality.  Only closure_mask is
    shared with lattice.normal_lattice, which joins cyclic subgroups or normal
    closures of conjugacy classes and never scans the other subgroups."""
    if G.order > 256:
        raise CapacityError("brute-force subgroup scan capped at order 256")
    seen = {1}
    frontier = [1]
    while frontier:
        mask = frontier.pop()
        for g in range(1, G.order):
            if (mask >> g) & 1:
                continue
            bigger = closure_mask(G, mask | (1 << g))
            if bigger not in seen:
                seen.add(bigger)
                frontier.append(bigger)
    return [Subgroup(m) for m in sorted(seen) if is_normal(G, Subgroup(m))]


def cross_check_normal_lattice(L) -> dict:
    """The full-lattice constructor and the brute-force scan must agree."""
    expected = {s.mask for s in brute_force_normal_subgroups(L.group)}
    actual = {s.mask for s in L.nodes}
    if expected != actual:
        raise VerificationError(
            "normal-subgroup enumeration mismatch", check="normal_subgroups",
            witness={
                "missing": [Subgroup(m).to_json() for m in sorted(expected - actual)],
                "extra": [Subgroup(m).to_json() for m in sorted(actual - expected)],
            },
        )
    return {"status": "pass", "count": len(expected)}
