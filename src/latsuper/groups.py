"""Finite groups as dense multiplication tables.

Elements are indices 0..order-1 with the identity pinned at 0; subgroups are
int bitmasks over those indices.  Groups come from structured specs (cyclic,
vector space over F_q, direct product) or raw tables, and every constructor
re-checks the table axioms.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from .errors import ArgumentError, CapacityError, ConstructionError

DEFAULT_MAX_ORDER = 4096
EXHAUSTIVE_ASSOC_LIMIT = 512
SPOT_CHECK_TRIPLES_PER_ELEMENT = 10


def max_order() -> int:
    """Desk-scale order cap; LATSUPER_MAX_ORDER overrides it."""
    raw = os.environ.get("LATSUPER_MAX_ORDER")
    if raw is None:
        return DEFAULT_MAX_ORDER
    try:
        value = int(raw)
    except ValueError:
        raise CapacityError(f"LATSUPER_MAX_ORDER={raw!r} is not an integer")
    if value < 1:
        raise CapacityError(f"LATSUPER_MAX_ORDER={value} must be positive")
    return value


# ---------------------------------------------------------------------------
# Finite fields F_q for prime powers q (needed for F_q-subspace lattices).


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, k) with q = p^k, p prime; error otherwise."""
    if q < 2:
        raise ConstructionError(f"q={q} is not a prime power", check="prime_power")
    p = None
    for cand in range(2, q + 1):
        if q % cand == 0:
            p = cand
            break
    assert p is not None
    k = 0
    rest = q
    while rest % p == 0:
        rest //= p
        k += 1
    if rest != 1:
        raise ConstructionError(f"q={q} is not a prime power", check="prime_power")
    return p, k


def _poly_is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    # coeffs low-to-high, monic, degree >= 2; trial division by all monic
    # polynomials of degree 1..deg//2.
    deg = len(coeffs) - 1

    def divides(d: tuple[int, ...]) -> bool:
        rem = list(coeffs)
        dd = len(d) - 1
        for i in range(deg - dd, -1, -1):
            c = rem[i + dd] % p
            if c:
                for j, dj in enumerate(d):
                    rem[i + j] = (rem[i + j] - c * dj) % p
        return all(x % p == 0 for x in rem)

    for dd in range(1, deg // 2 + 1):
        for low in range(p**dd):
            d = []
            t = low
            for _ in range(dd):
                d.append(t % p)
                t //= p
            d.append(1)
            if divides(tuple(d)):
                return False
    return True


class PrimePowerField:
    """F_q with elements encoded as integers 0..q-1 (base-p coefficient digits).

    For k > 1 the field is F_p[x] modulo the lexicographically smallest monic
    irreducible polynomial of degree k (smallest when read as the base-p integer
    of its non-leading coefficients).
    """

    def __init__(self, q: int):
        self.q = q
        self.p, self.k = factor_prime_power(q)
        self.modulus: Optional[tuple[int, ...]] = None
        if self.k > 1:
            for low in range(q):
                coeffs = self._digits(low) + (1,)
                if _poly_is_irreducible(coeffs, self.p):
                    self.modulus = coeffs
                    break
            assert self.modulus is not None

    def _digits(self, a: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def _encode(self, digits: Sequence[int]) -> int:
        val = 0
        for d in reversed(digits):
            val = val * self.p + (d % self.p)
        return val

    def add(self, a: int, b: int) -> int:
        da, db = self._digits(a), self._digits(b)
        return self._encode([x + y for x, y in zip(da, db)])

    def neg(self, a: int) -> int:
        return self._encode([-x for x in self._digits(a)])

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        assert self.modulus is not None
        for i in range(len(prod) - 1, self.k - 1, -1):
            c = prod[i] % self.p
            if c:
                for j in range(self.k + 1):
                    prod[i - self.k + j] = (prod[i - self.k + j] - c * self.modulus[j]) % self.p
        return self._encode(prod[: self.k])

    def elements(self) -> range:
        return range(self.q)


# ---------------------------------------------------------------------------
# Group specs.


@dataclass(frozen=True)
class GroupSpec:
    """Structured descriptor: cyclic(n), vector_space(q, dim), table(mul), product(factors)."""

    kind: str
    n: Optional[int] = None
    q: Optional[int] = None
    dim: Optional[int] = None
    mul: Optional[tuple[tuple[int, ...], ...]] = None
    factors: Optional[tuple["GroupSpec", ...]] = None

    @classmethod
    def cyclic(cls, n: int) -> "GroupSpec":
        return cls(kind="cyclic", n=n)

    @classmethod
    def vector_space(cls, q: int, dim: int) -> "GroupSpec":
        return cls(kind="vector_space", q=q, dim=dim)

    @classmethod
    def table(cls, mul: Sequence[Sequence[int]]) -> "GroupSpec":
        return cls(kind="table", mul=tuple(tuple(int(x) for x in row) for row in mul))

    @classmethod
    def product(cls, factors: Sequence["GroupSpec"]) -> "GroupSpec":
        return cls(kind="product", factors=tuple(factors))

    @property
    def name(self) -> str:
        if self.kind == "cyclic":
            return f"C{self.n}"
        if self.kind == "vector_space":
            return f"F{self.q}^{self.dim}"
        if self.kind == "table":
            return f"T{len(self.mul or ())}"
        if self.kind == "product":
            return "x".join(f.name for f in self.factors or ())
        return self.kind

    def to_json(self) -> dict:
        if self.kind == "cyclic":
            return {"kind": "cyclic", "n": self.n}
        if self.kind == "vector_space":
            return {"kind": "vector_space", "q": self.q, "dim": self.dim}
        if self.kind == "table":
            return {"kind": "table", "mul": [list(row) for row in self.mul or ()]}
        if self.kind == "product":
            return {"kind": "product", "factors": [f.to_json() for f in self.factors or ()]}
        raise ArgumentError(f"unknown spec kind {self.kind!r}")

    @classmethod
    def from_json(cls, data: dict) -> "GroupSpec":
        if not isinstance(data, dict) or "kind" not in data:
            raise ArgumentError("group spec JSON must be an object with a 'kind' field")
        kind = data["kind"]

        def field_of(name: str, kind_of: type):
            value = data.get(name)
            if isinstance(value, kind_of) and not isinstance(value, bool):
                return value
            raise ArgumentError(f"{kind} spec field {name!r} must be of type {kind_of.__name__}",
                                check="spec", witness={"field": name, "value": value})

        if kind == "cyclic":
            return cls.cyclic(field_of("n", int))
        if kind == "vector_space":
            return cls.vector_space(field_of("q", int), field_of("dim", int))
        if kind == "table":
            try:
                return cls.table(field_of("mul", list))
            except (TypeError, ValueError):
                raise ArgumentError("table rows must be lists of integers", check="spec",
                                    witness={"field": "mul"})
        if kind == "product":
            return cls.product([cls.from_json(f) for f in field_of("factors", list)])
        raise ArgumentError(f"unknown spec kind {kind!r}")


@dataclass(frozen=True)
class VectorSpaceData:
    """Coordinate structure of a vector-space group: F_q^dim in row-major order."""

    field: PrimePowerField
    dim: int

    @property
    def q(self) -> int:
        return self.field.q

    def decode(self, idx: int) -> tuple[int, ...]:
        coords = []
        for _ in range(self.dim):
            coords.append(idx % self.q)
            idx //= self.q
        return tuple(reversed(coords))

    def encode(self, coords: Sequence[int]) -> int:
        idx = 0
        for c in coords:
            idx = idx * self.q + c
        return idx

    def scale(self, c: int, idx: int) -> int:
        return self.encode([self.field.mul(c, x) for x in self.decode(idx)])

    def basis_vector(self, i: int) -> int:
        coords = [0] * self.dim
        coords[i] = 1
        return self.encode(coords)


# ---------------------------------------------------------------------------
# Group tables.


class GroupTable:
    """Immutable finite group: order, mul table, inverse table, identity = 0."""

    def __init__(
        self,
        mul: Sequence[Sequence[int]],
        spec: GroupSpec,
        *,
        name: Optional[str] = None,
        vs: Optional[VectorSpaceData] = None,
        seed: int = 0,
    ):
        self.mul = tuple(tuple(int(x) for x in row) for row in mul)
        self.order = len(self.mul)
        self.spec = spec
        self.name = name or spec.name
        self.vs = vs
        self._validate(seed)
        self.inv = tuple(self.mul[g].index(0) for g in range(self.order))
        for g in range(self.order):
            if self.mul[self.inv[g]][g] != 0:
                raise ConstructionError(
                    f"{self.name}: inverse of {g} is one-sided", check="inverses", witness=g
                )
        self._abelian: Optional[bool] = None
        self._classes: Optional[list[int]] = None

    # -- validation ---------------------------------------------------------

    def _validate(self, seed: int) -> None:
        n = self.order
        if n < 1:
            raise ConstructionError("empty multiplication table", check="order")
        cap = max_order()
        if n > cap:
            raise CapacityError(f"order {n} exceeds cap {cap}", check="order_cap", witness=n)
        ident = list(range(n))
        for g, row in enumerate(self.mul):
            if len(row) != n:
                raise ConstructionError(
                    f"row {g} has length {len(row)}, expected {n}",
                    check="latin_square", witness=g,
                )
            if sorted(row) != ident:
                raise ConstructionError(
                    f"row {g} is not a permutation of 0..{n - 1}",
                    check="latin_square", witness=g,
                )
        for c in range(n):
            if sorted(self.mul[g][c] for g in range(n)) != ident:
                raise ConstructionError(
                    f"column {c} is not a permutation of 0..{n - 1}",
                    check="latin_square", witness=c,
                )
        for g in range(n):
            if self.mul[0][g] != g or self.mul[g][0] != g:
                raise ConstructionError(
                    f"element 0 is not a two-sided identity at {g}",
                    check="identity", witness=g,
                )
        if n <= EXHAUSTIVE_ASSOC_LIMIT:
            self._check_associativity_light()
        else:
            self._check_associativity_spot(seed)

    def _check_associativity_light(self) -> None:
        # Light's test: checking (a*g)*c == a*(g*c) over a generating set g is
        # equivalent to exhaustive associativity.
        n, mul = self.order, self.mul
        gens: list[int] = []
        closed = {0}
        for g in range(n):
            if g in closed:
                continue
            gens.append(g)
            frontier = [g]
            closed.add(g)
            while frontier:
                x = frontier.pop()
                for y in tuple(closed):
                    for z in (mul[x][y], mul[y][x]):
                        if z not in closed:
                            closed.add(z)
                            frontier.append(z)
        for g in gens:
            col_g = [mul[a][g] for a in range(n)]
            row_g = mul[g]
            for a in range(n):
                row_a = mul[a]
                if mul[col_g[a]] != tuple(row_a[x] for x in row_g):
                    for c in range(n):
                        if mul[col_g[a]][c] != row_a[row_g[c]]:
                            raise ConstructionError(
                                f"associativity fails at ({a},{g},{c})",
                                check="associativity", witness=[a, g, c],
                            )

    def _check_associativity_spot(self, seed: int) -> None:
        rng = random.Random(seed)
        n, mul = self.order, self.mul
        for _ in range(SPOT_CHECK_TRIPLES_PER_ELEMENT * n):
            a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                raise ConstructionError(
                    f"associativity fails at ({a},{b},{c})",
                    check="associativity", witness=[a, b, c],
                )

    # -- basic queries -------------------------------------------------------

    def mult(self, a: int, b: int) -> int:
        return self.mul[a][b]

    def inverse(self, a: int) -> int:
        return self.inv[a]

    def elements(self) -> range:
        return range(self.order)

    @property
    def is_abelian(self) -> bool:
        if self._abelian is None:
            self._abelian = all(
                self.mul[a][b] == self.mul[b][a]
                for a in range(self.order)
                for b in range(a + 1, self.order)
            )
        return self._abelian

    def element_order(self, g: int) -> int:
        k, x = 1, g
        while x != 0:
            x = self.mul[x][g]
            k += 1
        return k

    def __repr__(self) -> str:
        return f"GroupTable({self.name}, order={self.order})"


def _cyclic_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _vector_space_table(q: int, dim: int) -> tuple[list[list[int]], VectorSpaceData]:
    fld = PrimePowerField(q)
    vs = VectorSpaceData(field=fld, dim=dim)
    order = q**dim
    table = [[0] * order for _ in range(order)]
    coords = [vs.decode(i) for i in range(order)]
    for i in range(order):
        ci = coords[i]
        for j in range(order):
            cj = coords[j]
            table[i][j] = vs.encode([fld.add(a, b) for a, b in zip(ci, cj)])
    return table, vs


def _product_table(tables: Sequence[GroupTable]) -> list[list[int]]:
    orders = [g.order for g in tables]
    total = 1
    for o in orders:
        total *= o
    if total > max_order():
        raise CapacityError(f"product order {total} exceeds cap {max_order()}", check="order_cap")

    def decode(x: int) -> list[int]:
        out = []
        for o in reversed(orders):
            out.append(x % o)
            x //= o
        return list(reversed(out))

    def encode(parts: Sequence[int]) -> int:
        x = 0
        for p, o in zip(parts, orders):
            x = x * o + p
        return x

    table = [[0] * total for _ in range(total)]
    for i in range(total):
        pi = decode(i)
        for j in range(total):
            pj = decode(j)
            table[i][j] = encode([g.mul[a][b] for g, a, b in zip(tables, pi, pj)])
    return table


def make_group(spec: GroupSpec, *, seed: int = 0) -> GroupTable:
    """Build a GroupTable from a spec, validating every table invariant."""
    if spec.kind == "cyclic":
        if spec.n is None or spec.n < 1:
            raise ConstructionError(f"cyclic order must be >= 1, got {spec.n}", check="spec")
        if spec.n > max_order():
            raise CapacityError(f"order {spec.n} exceeds cap {max_order()}", check="order_cap")
        return GroupTable(_cyclic_table(spec.n), spec, seed=seed)
    if spec.kind == "vector_space":
        if spec.q is None or spec.dim is None or spec.dim < 1:
            raise ConstructionError("vector_space needs q and dim >= 1", check="spec")
        p, k = factor_prime_power(spec.q)
        if spec.q**spec.dim > max_order():
            raise CapacityError(
                f"order {spec.q**spec.dim} exceeds cap {max_order()}", check="order_cap"
            )
        table, vs = _vector_space_table(spec.q, spec.dim)
        return GroupTable(table, spec, vs=vs, seed=seed)
    if spec.kind == "table":
        if not spec.mul:
            raise ConstructionError("table spec has no rows", check="spec")
        return GroupTable(spec.mul, spec, seed=seed)
    if spec.kind == "product":
        if not spec.factors:
            raise ConstructionError("product spec has no factors", check="spec")
        tables = [make_group(f, seed=seed) for f in spec.factors]
        return GroupTable(_product_table(tables), spec, seed=seed)
    raise ConstructionError(f"unknown spec kind {spec.kind!r}", check="spec")


# ---------------------------------------------------------------------------
# Subgroups as bitmasks.


@dataclass(frozen=True)
class Subgroup:
    """Subgroup stored as a bitmask over element indices."""

    mask: int
    label: Optional[str] = field(default=None, compare=False)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def elements(self) -> Iterator[int]:
        mask = self.mask
        i = 0
        while mask:
            if mask & 1:
                yield i
            mask >>= 1
            i += 1

    def __contains__(self, g: int) -> bool:
        return bool((self.mask >> g) & 1)

    def to_json(self) -> list[int]:
        return list(self.elements())

    def relabel(self, label: Optional[str]) -> "Subgroup":
        return Subgroup(self.mask, label)


def mask_of(elements: Iterable[int]) -> int:
    mask = 0
    for g in elements:
        mask |= 1 << g
    return mask


def closure_mask(G: GroupTable, mask: int) -> int:
    """Bitmask of the subgroup generated by the elements of mask."""
    mask |= 1
    if G.is_abelian:
        # Extend by one generator at a time; <H,g> is the union of cosets H*g^j.
        result = 1
        rest = mask & ~result
        while rest:
            g = (rest & -rest).bit_length() - 1
            base = result
            x = g
            while not (result >> x) & 1:
                shifted = 0
                m = base
                while m:
                    h = (m & -m).bit_length() - 1
                    m &= m - 1
                    shifted |= 1 << G.mul[h][x]
                result |= shifted
                x = G.mul[x][g]
            rest = mask & ~result
        return result
    result = mask
    frontier = [g for g in range(G.order) if (mask >> g) & 1]
    while frontier:
        x = frontier.pop()
        m = result
        while m:
            h = (m & -m).bit_length() - 1
            m &= m - 1
            for z in (G.mul[x][h], G.mul[h][x]):
                if not (result >> z) & 1:
                    result |= 1 << z
                    frontier.append(z)
    return result


def subgroup_generated(G: GroupTable, gens: Iterable[int], label: Optional[str] = None) -> Subgroup:
    """Smallest subgroup containing gens; empty gens gives the trivial subgroup."""
    gens = list(gens)
    for g in gens:
        if not (0 <= g < G.order):
            raise ArgumentError(f"generator {g} out of range for order {G.order}")
    return Subgroup(closure_mask(G, mask_of(gens)), label)


def is_normal(G: GroupTable, H: Subgroup) -> bool:
    """True iff g H g^-1 = H for all g."""
    mask = H.mask
    for g in range(G.order):
        ginv = G.inv[g]
        m = mask
        while m:
            h = (m & -m).bit_length() - 1
            m &= m - 1
            if not (mask >> G.mul[G.mul[g][h]][ginv]) & 1:
                return False
    return True


def conjugacy_classes(G: GroupTable) -> list[int]:
    """Conjugacy classes as bitmasks, sorted by minimal element; {0} comes first."""
    if G._classes is not None:
        return list(G._classes)
    seen = 0
    classes = []
    for g in range(G.order):
        if (seen >> g) & 1:
            continue
        orbit = 0
        for h in range(G.order):
            orbit |= 1 << G.mul[G.mul[h][g]][G.inv[h]]
        classes.append(orbit)
        seen |= orbit
    G._classes = classes
    return list(classes)


def group_to_json(G: GroupTable) -> dict:
    return G.spec.to_json()


def group_from_json(data: dict | str, *, seed: int = 0) -> GroupTable:
    if isinstance(data, str):
        data = json.loads(data)
    return make_group(GroupSpec.from_json(data), seed=seed)
