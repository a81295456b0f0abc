"""Finite groups as dense multiplication tables.

Elements are indices 0..order-1 with the identity pinned at 0; subgroups are
int bitmasks over those indices.  Groups come from structured specs (cyclic,
vector_space(q, dim) with q = p^k, direct product) or raw tables.  Structured
tables are built by index arithmetic on whole rows; F_q^dim under addition is
C_p^(k dim).  Every constructor proves the table a group at C speed,
exhaustively at every order, reading each entry about once: row 0 and column 0
are 0..n-1, the greedy generators S of `_generators` number at most log2 n,
their rows are permutations, (i) on every edge y = x*s of the walk from 0 row y
is row x composed with row s, and (ii) s*(a*t) = (s*a)*t for all a and s, t in
S.  By (ii) the group P of the generator rows commutes with the maps a -> a*t,
which carry 0 to every element along the walk, so only the identity of P fixes
0 and |P| <= n.  By (i) and induction the n rows lie in P; they are distinct
(row y sends 0 to y), so they are P, and row x composed with row y is the row
sending 0 to x*y: associativity.  Every group passes with the same S (by
Lagrange each generator at least doubles the subgroup reached).  A table that
fails is scanned in the order rows, identity, Light's test, the columns before
an identity or associativity error, so the error raised (check, message,
witness) is that of the order rows, columns, identity, associativity.
`is_abelian` needs no transpose: a group is abelian iff its generators commute.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain, combinations, compress, count, repeat
from operator import eq, itemgetter, ne
from typing import Iterable, Iterator, Optional, Sequence

from .errors import ArgumentError, CapacityError, ConstructionError

MAX_ORDER = 4096  # desk-scale order cap: no table has more than MAX_ORDER rows
_Walk = tuple[list[int], list[int], list[int]]  # members, src, via of `_generators`


# ---------------------------------------------------------------------------
# Group specs.


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, k) with q = p^k, p prime; error otherwise."""
    if q >= 2:
        p = next(cand for cand in range(2, q + 1) if q % cand == 0)
        k, rest = 0, q
        while rest % p == 0:
            rest //= p
            k += 1
        if rest == 1:
            return p, k
    raise ConstructionError(f"q={q} is not a prime power", check="prime_power",
                            witness={"field": "q", "value": q})


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
        """Raw table; ArgumentError, naming the first bad row or entry of one
        scan row by row, unless every row is a list of plain ints (bools,
        floats and strings are refused, not converted)."""
        for r, row in enumerate(mul):
            if not isinstance(row, (list, tuple)):
                raise ArgumentError(f"table row {r} is not a list", check="spec",
                                    witness={"field": "mul", "row": r, "value": row})
            if not set(map(type, row)) <= {int}:
                c = next(c for c, x in enumerate(row) if type(x) is not int)
                raise ArgumentError(
                    f"table entry ({r}, {c}) is not an integer", check="spec",
                    witness={"field": "mul", "row": r, "column": c, "value": row[c]},
                )
        return cls(kind="table", mul=tuple(map(tuple, mul)))

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
            return "x".join(f.name for f in _factors(self))
        return self.kind

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        for name in _SPEC_FIELDS[self.kind]:
            value = getattr(self, name)
            out[name] = ([list(row) for row in value] if name == "mul"
                         else [f.to_json() for f in value] if name == "factors" else value)
        return out

    @classmethod
    def from_json(cls, data) -> "GroupSpec":
        kind = data.get("kind") if isinstance(data, dict) else data
        if type(kind) is not str or kind not in _SPEC_FIELDS:
            raise ArgumentError(f"a group spec needs a 'kind' of {', '.join(_SPEC_FIELDS)}",
                                check="spec", witness={"field": "kind", "value": kind})
        fields = read_fields(data, {"kind": str, **_SPEC_FIELDS[kind]}, f"{kind} spec",
                             check="spec")
        if kind == "table":
            return cls.table(fields["mul"])
        if kind == "product":
            return cls.product([cls.from_json(f) for f in fields["factors"]])
        if kind == "vector_space":
            return cls.vector_space(fields["q"], fields["dim"])
        return cls.cyclic(fields["n"])


# the fields of a group spec of each kind, after "kind", with their JSON types
_SPEC_FIELDS = {"cyclic": {"n": int}, "vector_space": {"q": int, "dim": int},
                "table": {"mul": list}, "product": {"factors": list}}


def read_fields(data, fields: dict, what: str, *, check: str = "shape",
                bare: bool = False, one: bool = False) -> dict:
    """The fields of the JSON object data, by name; with bare, a list stands
    for {first field: list}.  Each field has the type fields gives it: a type
    (a bool is no int; object admits a missing field), list[int], or GroupSpec
    for a group spec, returned read.  With one, data holds exactly one field.
    ArgumentError, witness {field, value}: data that is no object, then a
    missing or mistyped field in the order of fields, then an extra field."""
    first = next(iter(fields))
    if bare and type(data) is list:
        data = {first: data}
    if type(data) is not dict:
        raise ArgumentError(f"{what} must be a JSON object" + (" or a list" if bare else ""),
                            check=check, witness={"field": first, "value": data})
    names = [next((name for name in data if name in fields), first)] if one else list(fields)
    out = {}
    for name in names:
        value, kind = data.get(name), fields[name]
        if kind is GroupSpec:
            ok = name in data
        elif kind == list[int]:
            ok = type(value) is list and set(map(type, value)) <= {int}
        else:
            ok = isinstance(value, kind) and not (kind is int and type(value) is bool)
        if not ok:
            raise ArgumentError(f"{what} field {name!r} must be of type "
                                f"{kind if kind == list[int] else kind.__name__}",
                                check=check, witness={"field": name, "value": value})
        out[name] = GroupSpec.from_json(value) if kind is GroupSpec else value
    extra = next((name for name in data if name not in names), None)
    if extra is not None:
        raise ArgumentError(f"{what} has the extra field {extra!r}; it takes "
                            f"{'exactly one of' if one else 'only'} {', '.join(fields)}",
                            check=check, witness={"field": extra, "value": data[extra]})
    return out


# ---------------------------------------------------------------------------
# Group tables.


class GroupTable:
    """Immutable finite group: order, mul table, inverse table, identity = 0.

    Construction proves the table a group (module docstring); only a table
    that fails the proof is scanned row by row, for the first failing check.
    `is_abelian` is True iff the generators, which generate it, commute pairwise.
    """

    def __init__(self, mul: Sequence[Sequence[int]], spec: GroupSpec):
        self.mul = tuple(map(tuple, mul))
        self.order = len(self.mul)
        self.spec = spec
        self.name = spec.name
        self.generators, walk = self._validate()
        self.inv = self._inverses(*walk)
        self.is_abelian = all(self.mul[a][b] == self.mul[b][a]
                              for a, b in combinations(self.generators, 2))

    # -- validation ---------------------------------------------------------

    def _validate(self) -> tuple[list[int], _Walk]:
        """Prove the table a group (module docstring); return the generators
        and the walk of `_generators` that reached every element from them."""
        n, mul = self.order, self.mul
        if n < 1:
            raise ConstructionError("empty multiplication table", check="order")
        if n > MAX_ORDER:
            raise CapacityError(f"order {n} exceeds cap {MAX_ORDER}", check="order_cap", witness=n)
        ident = tuple(range(n))
        try:
            if mul[0] == ident and tuple(map(itemgetter(0), mul)) == ident:
                gens, walk = self._generators()
                if (1 << len(gens) <= n and all(tuple(sorted(mul[s])) == ident for s in gens)
                        and self._proof(gens, walk)):
                    return gens, walk
        except (IndexError, TypeError):  # a short row or an entry out of range
            pass
        return self._scan(ident)

    def _proof(self, gens: list[int], walk: _Walk) -> bool:
        """(i) row y is row x composed with row s on every walk edge y = x*s,
        one gather per edge; then, the rows proved permutations, (ii)
        s*(a*t) == (s*a)*t for every a and s, t in gens, two gathers a pair."""
        mul, row = self.mul, self.mul.__getitem__
        _, src, via = walk
        composes = [itemgetter(*mul[s]) for s in gens]  # row x -> row x composed with row s
        for s, compose in zip(gens, composes):
            ys = list(compress(count(), map(s.__eq__, via)))
            if not all(map(eq, map(row, ys), map(compose, map(row, map(src.__getitem__, ys))))):
                return False
        columns = [(col, itemgetter(*col)) for col in (tuple(map(itemgetter(t), mul)) for t in gens)]
        return all(through_col(mul[s]) == compose(col)
                   for s, compose in zip(gens, composes) for col, through_col in columns)

    def _scan(self, ident: tuple[int, ...]) -> tuple[list[int], _Walk]:
        """Raise for the first failing check: rows, identity, Light's test."""
        n, mul = self.order, self.mul
        full = frozenset(ident)  # faster than sorted(row) except on rotations
        for g, row in enumerate(mul):
            if len(row) != n:
                raise ConstructionError(f"row {g} has length {len(row)}, expected {n}",
                                        check="latin_square", witness=g)
            if frozenset(row) != full:
                raise ConstructionError(f"row {g} is not a permutation of 0..{n - 1}",
                                        check="latin_square", witness=g)
        if mul[0] != ident or tuple(map(itemgetter(0), mul)) != ident:
            self._check_columns(ident)
            g = next(g for g in ident if mul[0][g] != g or mul[g][0] != g)
            raise ConstructionError(f"element 0 is not a two-sided identity at {g}",
                                    check="identity", witness=g)
        gens, walk = self._generators()
        failure = self._light_test(gens)
        if failure is not None:
            self._check_columns(ident)
            a, g = failure
            row_ag, row_a, row_g = mul[mul[a][g]], mul[a], mul[g]
            c = next(c for c in range(n) if row_ag[c] != row_a[row_g[c]])
            raise ConstructionError(f"associativity fails at ({a},{g},{c})",
                                    check="associativity", witness=[a, g, c])
        return gens, walk

    def _check_columns(self, ident: tuple[int, ...]) -> None:
        """Raise for the first column that is not a permutation of 0..n-1."""
        for c, column in enumerate(zip(*self.mul)):
            if tuple(sorted(column)) != ident:
                raise ConstructionError(f"column {c} is not a permutation of 0..{len(ident) - 1}",
                                        check="latin_square", witness=c)

    def _generators(self) -> tuple[list[int], _Walk]:
        """A set S such that every element is 0 or a product s1*s2*...*sk of
        elements of S, multiplied left to right; found by right-multiplication
        reachability from 0.  The walk is (members, src, via): members lists
        every element once in the order reached, 0 first, and y = src[y]*via[y]
        with via[y] in S and src[y] listed before y, for every y but 0."""
        n, mul = self.order, self.mul
        reached = bytearray(n)
        reached[0] = 1
        members = [0]
        src, via = [0] * n, [0] * n
        gens: list[int] = []
        for g in range(n):
            if reached[g]:
                continue
            gens.append(g)
            # members reached before g need multiplying by g only
            old, i = len(members), 0
            while i < len(members):
                x = members[i]
                row = mul[x]
                for s in gens[-1:] if i < old else gens:
                    y = row[s]
                    if not reached[y]:
                        reached[y] = 1
                        members.append(y)
                        src[y], via[y] = x, s
                i += 1
        return gens, (members, src, via)

    def _inverses(self, members: list[int], src: list[int], via: list[int]) -> tuple[int, ...]:
        """inv(x*s) = inv(s)*inv(x) along the walk, with one row scan per
        generator for inv(s): O(n) after validation has proved a group."""
        mul = self.mul
        inv = [0] * self.order
        inv_row = {s: mul[mul[s].index(0)] for s in self.generators}
        for y in members[1:]:
            inv[y] = inv_row[via[y]][inv[src[y]]]
        return tuple(inv)

    def _light_test(self, gens: list[int]) -> Optional[tuple[int, int]]:
        """Light's test, for the scan of a table that failed the proof: the
        first (a, g), g in gens, with row a*g not row a composed with row g,
        or None.  Generators suffice: the g that pass are closed under products."""
        mul = self.mul
        for g in gens:
            lhs = map(mul.__getitem__, map(itemgetter(g), mul))
            rhs = map(itemgetter(*mul[g]), mul)
            a = next(compress(count(), map(ne, lhs, rhs)), None)
            if a is not None:
                return a, g
        return None

    # -- basic queries -------------------------------------------------------

    def element_order(self, g: int) -> int:
        k, x = 1, g
        while x != 0:
            x = self.mul[x][g]
            k += 1
        return k

    def __repr__(self) -> str:
        return f"GroupTable({self.name}, order={self.order})"


def _cyclic_table(n: int) -> list[tuple[int, ...]]:
    doubled = tuple(range(n)) * 2
    return [doubled[i:i + n] for i in range(n)]


def _pair_table(
    A: Sequence[tuple[int, ...]], B: Sequence[tuple[int, ...]]
) -> Sequence[tuple[int, ...]]:
    """Table of A x B with (i1, i2) at index i1*|B| + i2: row (i1, i2) is row i1
    of A scaled by |B| plus row i2 of B.  It is built as row (i1, 0) composed
    with row (0, i2), so every entry is taken from one range tuple."""
    a, b = len(A), len(B)
    if a == 1 or b == 1:
        return B if a == 1 else A
    base = tuple(range(a * b))
    blocks = [base[k * b:(k + 1) * b] for k in range(a)]
    # row (0, i2) sends (j1, j2) to (j1, B[i2][j2]); row (i1, 0) sends it to (A[i1][j1], j2)
    then_b = [itemgetter(*chain.from_iterable(map(itemgetter(*row), blocks))) for row in B]
    rows_a = (tuple(chain.from_iterable(map(blocks.__getitem__, row))) for row in A)
    return [compose(row) for row in rows_a for compose in then_b]


def _spec_order(spec: GroupSpec) -> int:
    """The order of the group of spec, read off the spec before any table is
    built.  Refusals come in this order: a malformed spec (a q up to
    MAX_ORDER that is not a prime power included; a larger q is not
    factored), each factor's own refusal, factors in turn, and then the order
    cap.  The order is multiplied up one factor or coordinate at a time and
    refused at the first product over MAX_ORDER, so no number above
    MAX_ORDER**2 is formed; the message says "at least" when factors are left."""
    what = "order"
    if spec.kind == "cyclic":
        if spec.n is None or spec.n < 1:
            raise ConstructionError(f"cyclic order must be >= 1, got {spec.n}", check="spec",
                                    witness={"field": "n", "value": spec.n})
        sizes, last = [spec.n], 1
    elif spec.kind == "vector_space":
        if spec.q is None or spec.dim is None or spec.dim < 1:
            name = "q" if spec.q is None else "dim"
            raise ConstructionError("vector_space needs q and dim >= 1", check="spec",
                                    witness={"field": name, "value": getattr(spec, name)})
        if spec.q <= MAX_ORDER:
            factor_prime_power(spec.q)
        sizes, last = repeat(spec.q, spec.dim), spec.dim
    elif spec.kind == "table":
        if not spec.mul:
            raise ConstructionError("table spec has no rows", check="spec",
                                    witness={"field": "mul", "value": spec.mul})
        sizes, last = [len(spec.mul)], 1
    elif spec.kind == "product":
        if not spec.factors:
            raise ConstructionError("product spec has no factors", check="spec",
                                    witness={"field": "factors", "value": spec.factors})
        what, sizes = "product order", [_spec_order(f) for f in spec.factors]
        last = len(sizes)
    else:
        raise ConstructionError(f"unknown spec kind {spec.kind!r}", check="spec",
                                witness={"field": "kind", "value": spec.kind})
    order = 1
    for i, size in enumerate(sizes, 1):
        order *= size
        if order > MAX_ORDER:
            bound = "" if i == last else "at least "
            raise CapacityError(f"{what} {bound}{order} exceeds cap {MAX_ORDER}",
                                check="order_cap", witness=order)
    return order


def make_group(spec: GroupSpec) -> GroupTable:
    """Build a GroupTable from a spec, validating every table invariant.  The
    whole spec is sized first, so a refused spec builds no table."""
    _spec_order(spec)
    if spec.kind == "cyclic":
        return GroupTable(_cyclic_table(spec.n), spec)
    if spec.kind == "vector_space":
        # F_q^dim under addition is C_p^(k*dim): the base-p digits of an index
        # are the coefficient digits of its coordinates, added digit by digit
        p, k = factor_prime_power(spec.q)
        return GroupTable(reduce(_pair_table, [_cyclic_table(p)] * (k * spec.dim)), spec)
    if spec.kind == "table":
        return GroupTable(spec.mul, spec)
    # mixed radix, the first factor most significant
    return GroupTable(reduce(_pair_table, (make_group(f).mul for f in _factors(spec))), spec)


def _factors(spec: GroupSpec) -> list[GroupSpec]:
    """The factors of a product spec, nested products flattened in order: the
    same table and name as the nesting, got without a stack as deep as it."""
    out, todo = [], [spec]
    while todo:
        f = todo.pop()
        if f.kind != "product":
            out.append(f)
        todo.extend(reversed(f.factors or ()))
    return out


# ---------------------------------------------------------------------------
# Subsets as int bitmasks: subgroups and classes over the element indices.


def mask_of(elements: Iterable[int]) -> int:
    mask = 0
    for g in elements:
        mask |= 1 << g
    return mask


def _bits(mask: int) -> Iterator[int]:
    """The set bits of mask, lowest first: the elements of a subgroup mask,
    the node indices of an order mask.  A dense mask is read from its binary
    digits in one pass; a sparse one bit by bit, as each step is a pass."""
    if mask.bit_count() * 16 > mask.bit_length():
        return compress(count(), bin(mask)[:1:-1].encode().translate(_DIGIT_FLAGS))
    return _sparse_bits(mask)


def _sparse_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


_FLAG_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _dimino_step(G: GroupTable, elements: list[int], flags: bytearray, gens: list[int],
                 g: int) -> None:
    """One step of Dimino's algorithm: grow H, given as its elements (identity
    first), a flag per element of G and its generators, in place to <H, g>
    for g not in H, appending g to gens.  <H, g> is the union of the cosets
    x*H, and every new coset representative is multiplied on the left by every
    generator, so the step costs about |<H, g>| times the number of generators."""
    mul = G.mul
    gens.append(g)
    size = len(elements)
    if size == 1:  # H = <g>, walked by powers
        x = g
        while not flags[x]:
            flags[x] = 1
            elements.append(x)
            x = mul[x][g]
        return
    # row x of the table at the elements of H is the coset x*H, x first
    coset_of = itemgetter(*elements)
    rep = 0  # the identity: only g itself leaves H
    while rep < len(elements):
        r = elements[rep]
        for s in gens:
            x = mul[s][r]
            if not flags[x]:
                coset = coset_of(mul[x])
                elements.extend(coset)
                for y in coset:
                    flags[y] = 1
        rep += size


def closure_mask(G: GroupTable, mask: int) -> int:
    """Bitmask of the subgroup generated by the elements of mask, by Dimino's
    algorithm: the trivial subgroup grown by _dimino_step by each element of
    mask, in ascending order, that it does not yet hold."""
    flags = bytearray(G.order)
    flags[0] = 1
    elements = [0]
    gens: list[int] = []
    # the elements of mask in ascending order, read off its binary digits
    for g in compress(count(), bin(mask)[:1:-1].encode().translate(_DIGIT_FLAGS)):
        if not flags[g]:
            _dimino_step(G, elements, flags, gens, g)
    return int(flags.translate(_FLAG_DIGITS)[::-1], 2)


def is_normal(G: GroupTable, H: int) -> bool:
    """True iff g H g^-1 = H for all g: the finite set H is mapped into itself
    by conjugation by each generator of G, so by their products, which are all
    of G.  |generators| * |H| lookups; True at once when G is abelian."""
    if G.is_abelian:
        return True
    inside = set(_bits(H))

    def conjugates(g: int) -> Iterator[int]:  # g*h*g^-1 for h in H, row by row
        return map(itemgetter(G.inv[g]), map(G.mul.__getitem__, map(G.mul[g].__getitem__, inside)))

    return all(inside.issuperset(conjugates(g)) for g in G.generators)


def conjugacy_classes(G: GroupTable) -> list[int]:
    """Conjugacy classes as bitmasks, sorted by minimal element; {0} comes first.
    Each class is the orbit of its least element under conjugation by the
    generators of G, which generate G: |generators| lookups per element."""
    conjugate = [list(map(itemgetter(G.inv[s]), map(G.mul.__getitem__, G.mul[s])))
                 for s in G.generators]  # x -> s*x*s^-1
    seen, classes = bytearray(G.order), []
    for g in range(G.order):
        if seen[g]:
            continue
        seen[g] = 1
        orbit = [g]
        for x in orbit:  # the orbit grows while it is walked
            for row in conjugate:
                y = row[x]
                if not seen[y]:
                    seen[y] = 1
                    orbit.append(y)
        classes.append(mask_of(orbit))
    return classes
