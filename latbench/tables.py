"""Group tables and subgroups built with the standard library only.

The benchmark writes its own inputs, so it does not depend on
``latsuper.catalog``.  Every table has the identity at index 0.  Product specs
index elements in mixed radix with the first factor most significant, which
is how ``latsuper`` lays out ``{"kind": "product"}`` groups.
"""

from __future__ import annotations

import random
from itertools import permutations


def cyclic_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def dihedral_table(n: int) -> list[list[int]]:
    """D_n of order 2n: index i is r^i, index n + i is s r^i."""
    order = 2 * n
    mul = [[0] * order for _ in range(order)]
    for a in range(order):
        ai, af = a % n, a // n
        for b in range(order):
            bi, bf = b % n, b // n
            # (s^af r^ai)(s^bf r^bi) = s^(af+bf) r^(ai * (-1)^bf + bi)
            i = ((-ai if bf else ai) + bi) % n
            mul[a][b] = i + n * ((af + bf) % 2)
    return mul


def quaternion_table() -> list[list[int]]:
    """Q8 with index 2k + s for the unit k in (1, i, j, k) and sign (-1)^s."""
    # unit products: (a, b) -> (sign, unit)
    prod = {
        (1, 1): (1, 0), (2, 2): (1, 0), (3, 3): (1, 0),
        (1, 2): (0, 3), (2, 3): (0, 1), (3, 1): (0, 2),
        (2, 1): (1, 3), (3, 2): (1, 1), (1, 3): (1, 2),
    }
    mul = [[0] * 8 for _ in range(8)]
    for a in range(8):
        for b in range(8):
            ua, sa = divmod(a, 2)
            ub, sb = divmod(b, 2)
            if ua == 0 or ub == 0:
                s, u = 0, ua or ub
            else:
                s, u = prod[(ua, ub)]
            mul[a][b] = 2 * u + (s + sa + sb) % 2
    return mul


def symmetric_table(k: int) -> list[list[int]]:
    """S_k on sorted permutations (identity first), (p*q)(x) = p(q(x))."""
    perms = sorted(permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[x]] for x in range(k))] for q in perms] for p in perms]


def direct_product_table(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Table of A x B with (x, y) at index x * |B| + y."""
    nb = len(b)
    return [[x * nb + y for x in ra for y in rb] for ra in a for rb in b]


def abelian_table(orders: list[int]) -> list[list[int]]:
    """Raw table of C_o1 x C_o2 x ... in mixed radix."""
    mul = [[0]]
    for o in orders:
        mul = direct_product_table(mul, cyclic_table(o))
    return mul


def mixed_radix(orders: list[int]) -> list[tuple[int, ...]]:
    """Coordinates of every element, first coordinate most significant."""
    out = [()]
    for o in orders:
        out = [c + (x,) for c in out for x in range(o)]
    return out


def relabel_permutation(order: int, rng: random.Random) -> list[int]:
    """A random relabelling of 0..order-1 that keeps the identity at 0."""
    rest = list(range(1, order))
    rng.shuffle(rest)
    return [0] + rest


def relabel(mul: list[list[int]], perm: list[int]) -> list[list[int]]:
    """The table of the same group with element x renamed perm[x]."""
    inv = [0] * len(perm)
    for x, px in enumerate(perm):
        inv[px] = x
    return [[perm[row[b]] for b in inv] for row in (mul[a] for a in inv)]


def product_subgroup(orders: list[int], parts: list[int]) -> list[int]:
    """Elements of the subgroup whose i-th coordinate ranges over the
    multiples of orders[i] // parts[i] (a cyclic subgroup of order parts[i])."""
    out = []
    for i, coords in enumerate(mixed_radix(orders)):
        if all(c % (o // d) == 0 for c, o, d in zip(coords, orders, parts)):
            out.append(i)
    return out


def cyclic_subgroup(n: int, d: int) -> list[int]:
    """The subgroup of order d of C_n."""
    return list(range(0, n, n // d))


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]
