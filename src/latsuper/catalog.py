"""Small named groups built as raw tables (test corpus and CLI fixtures), kept
as a module: no package code imports it, and latbench counts lines by module."""

from __future__ import annotations

from itertools import permutations

from .errors import CapacityError
from .groups import GroupSpec, GroupTable, make_group


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
