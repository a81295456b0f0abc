"""Independent brute-force verifiers.

Nothing here reuses the lattice/character formula paths, and the module
imports only errors and groups at run time: dual groups are enumerated as
homomorphisms into Z_e, character sums are compared exactly as integers
packed in the powerful basis of Z[zeta_e], and Schur closure works on raw
convolution counts.  Normal subgroups are re-derived only for the full
lattice of a group of order <= 256, from all subgroups, enumerated by
joining cyclic subgroups one at a time: each join is one Dimino step from
the subgroup's stored state, and a join of prime index marks all of its
elements joined.  Any other lattice has each node certified as a subgroup
closed under conjugation.

The SC3 check enumerates the dual along a coset walk of a generating
sequence, as bytes rows of one byte per exponent (two when e > 255),
already sorted by their exponents in element order, and checks one X-block
at a time.
Its sums are exact (Lyubashevsky, Peikert and Regev, EUROCRYPT 2013, sec. 4):
write e as the product of its exact prime-power divisors q = p^a.  Then
Z[zeta_e] is the tensor product of the Z[w_q] and, by the CRT, zeta_e^k is
the product of the w_q^(k mod q).  Z[w_q] has the basis w^j, 0 <= j <
phi(q); as Phi_q(w) = sum over l < p of w^(l q/p) = 0, each w^j with j >=
phi(q) is minus the sum of w^(j - l q/p), 0 < l < p: one fold per axis,
with no cascade.  So every zeta_e^k has coordinates in {-1, 0, 1}, and a
column of at most |G| roots has coordinates of absolute value at most |G|.
With bound the largest of |G| and the |v| of the compared theory values v,
balanced base-B packing, B = 2 bound + 1, is injective: two sums are equal
exactly when their packed integers are, and a sum equals the integer v
exactly when its packed integer is v.

The Schur check counts each block K_i against every block at once, as the
base-W digits of one integer per element, a digit at most |K_i| < W; over a
partition the counts c_ij(x) sum over i to |K_j|, so the largest is skipped.
"""

from __future__ import annotations

import sys
from itertools import accumulate, cycle, islice, repeat
from math import gcd, lcm
from operator import add, mod, mul
from typing import TYPE_CHECKING

from .errors import ArgumentError, CapacityError, LatsuperError, VerificationError
from .groups import GroupTable, _FLAG_DIGITS, _bits, _dimino_step, closure_mask, is_normal, mask_of

if TYPE_CHECKING:
    from .lattice import NormalLattice
    from .sct import SCTheory, SuperclassPartition


def _root_keys(e: int, bound: int) -> list[int]:
    """key[k] is zeta_e^k in the powerful basis of Z[zeta_e], its coordinates
    the digits of one integer in balanced base B = 2 bound + 1 (see the
    module docstring).  Each axis q takes the digits stride * j, j < phi(q),
    so key[k] is the product over the axes of the table entry w_q^(k mod q):
    the powers below phi(q), then the folded ones."""
    base = 2 * bound + 1
    key, stride, rest, p = [1] * e, 1, e, 2
    while rest > 1:
        q = 1
        while rest % p == 0:
            rest, q = rest // p, q * p
        if q > 1:
            phi, step = q - q // p, q // p
            powers = list(accumulate(repeat(base**stride, phi - 1), mul, initial=1))
            table = powers + [-sum(powers[j - l * step] for l in range(1, p))
                              for j in range(phi, q)]
            key = list(map(mul, key, islice(cycle(table), e)))
            stride *= phi
        p += 1
    return key


# ---------------------------------------------------------------------------
# Checks against a theory.


def _representatives(part: "SuperclassPartition") -> tuple[list[int], list[int], list[int], bool]:
    """The block nodes, sorted (the theory's columns are not trusted), the least
    element of each block, rep_of[g] (the least element of the last block
    holding g, or g when none does), and whether the blocks are nonempty and
    partition the group, as build_theory ensures and the checks below need."""
    nodes = sorted(part.blocks)
    order = len(part.block_of)
    reps = [(part.blocks[k] & -part.blocks[k]).bit_length() - 1 for k in nodes]
    rep_of = list(range(order))
    covered = total = 0
    for k, rep in zip(nodes, reps):
        covered |= part.blocks[k]
        total += part.blocks[k].bit_count()
        for g in _bits(part.blocks[k]):
            rep_of[g] = rep
    is_partition = all(map(part.blocks.__getitem__, nodes)) and total == order
    return nodes, reps, rep_of, is_partition and covered == (1 << order) - 1


def _add_mod(packed: int, c: int, e: int, ones: int) -> int:
    """Add c mod e to every 16-bit field, each below e, of packed; ones holds
    1 in each field.  A field q of packed + c·ones is below 2e, so q + 0x8000
    − e sets bit 15 exactly when q >= e and, as e <= 0x8000, carries into no
    other field."""
    q = packed + c * ones
    return q - e * ((q + (0x8000 - e) * ones) >> 15 & ones)


def _dual_walk(G: GroupTable) -> tuple[int, list[int], list[bytes]]:
    """The exponent e, the walk and the |G| dual characters as bytes rows of
    exponents over the walk, one byte each when e <= 255, else two in native
    order.  Adding generator g with relative order d to the span S appends
    the cosets S*g^j, 0 < j < d, so the extended row is the old row shifted
    by j times the value chosen for g, coset after coset: by translates of
    bytes, or above 255 by doubling with _add_mod (exact as e <= MAX_ORDER =
    4096), in log2(d) big-int steps; no sort and no per-element index.

    Each generator of G is the least element outside the span of the earlier
    ones, so two characters first differ, in element order, at the first
    generator where they differ.  Rows are extended in order and with
    ascending values, so they come sorted by their exponents in element order."""
    if not G.is_abelian:
        raise ArgumentError("the dual walk requires an abelian group", check="abelian",
                            witness=G.name)
    walk, levels = [0], []
    for g in G.generators:
        position = {x: i for i, x in enumerate(walk)}
        d, x = 1, g
        while x not in position:
            x = G.mul[x][g]
            d += 1
        s = len(walk)
        levels.append((g, d, position[x], s))
        for _ in range(d - 1):
            walk += map(G.mul[g].__getitem__, walk[-s:])
    e = lcm(*(G.element_order(g) for g, *_ in levels))
    width = 1 if e <= 255 else 2
    # tables[c] adds c mod e to every byte below e
    tables = ([bytes(range(c, e)) + bytes(range(c)) + bytes(256 - e) for c in range(e)]
              if width == 1 else None)
    rows = [bytes(width)]
    for g, d, at, s in levels:
        gg = gcd(d, e)
        step = e // gg
        inverse = pow(d // gg, -1, step)
        # ones[k] is 1 in each 16-bit field of s << k exponents
        ones = [((1 << (16 * s << k)) - 1) // 0xFFFF for k in range((d - 1).bit_length())]
        extended = []
        for row in rows:
            v = int.from_bytes(row[width * at:width * at + width], sys.byteorder)
            if v % gg != 0:
                raise VerificationError(
                    "no character extension exists (group is not abelian?)",
                    check="dual_group", witness={"generator": g},
                )
            x0 = (v // gg) * inverse % step
            for val in range(x0, e, step):
                if tables:
                    shifts = map(mod, range(0, d * val, val), repeat(e)) if val else repeat(0, d)
                    extended.append(b"".join(map(row.translate, map(tables.__getitem__, shifts))))
                    continue
                # copies j < 2^(k+1): those j < 2^k, then them shifted by 2^k val
                copies = int.from_bytes(row, sys.byteorder)
                for k, one in enumerate(ones):
                    copies |= _add_mod(copies, (val << k) % e, e, one) << (16 * s << k)
                copies &= (1 << 16 * d * s) - 1
                extended.append(copies.to_bytes(2 * d * s, sys.byteorder))
        rows = extended
    if len(rows) != G.order:
        raise VerificationError(
            f"dual group has {len(rows)} characters, expected {G.order}", check="dual_group",
        )
    return e, walk, rows


# b"1" at exponent 0 and b"0" elsewhere: a row's kernel as binary digits
_ZERO_DIGITS = b"1" + b"0" * 255


def verify_sc3_abelian(L: "NormalLattice", theory: "SCTheory") -> dict:
    """SC3 from first principles on abelian groups: partition the dual by the
    maximal node of L inside each kernel, form the exact sums of roots of
    unity, and compare with the integer values of theory, built on L (the
    theory holds no lattice, so L is passed with it; tests pass tampered
    theories).

    The rows of _dual_walk hold one byte per exponent when the exponent e
    fits in a byte and two above, exact while e <= MAX_ORDER = 4096 (see
    _add_mod).  Kernels, the exponents with every byte zero, are read by one
    translate per byte over walk positions, where the node masks are moved
    once.  For each X-block the exponents at each element form a column of
    its rows, a strided slice keyed by its bytes; equal columns are sorted,
    and equal multisets summed, once, each as the sum of the _root_keys of
    its exponents.  bound is at least |G| and every |v| compared, so by the
    module docstring two sums are equal exactly when the sums of roots are,
    and a sum is v exactly when the sum of roots is.

    Every element of every superclass is compared: for each X-block, the sums
    must equal the sums at their superclass representatives, and the sums at
    the representatives must equal the values, each as one list comparison.
    Only a failing X-block, or every X-block when the superclasses are not a
    partition into nonempty sets, is rescanned superclass by superclass for
    the first witness.  The rows come sorted by their exponents in element
    order, so X-blocks and witnesses come in that order too."""
    G = L.group
    order = G.order
    e, walk, rows = _dual_walk(G)
    # node masks over walk positions, bit p for position p
    masks = []
    for s in L.nodes:
        digits = bin(s)[:1:-1].ljust(order, "0")
        masks.append(int("".join(map(digits.__getitem__, reversed(walk))), 2))
    n_max_of: dict[int, int] = {}        # kernel over positions -> largest node inside
    blocks_of_dual: dict[int, list] = {}
    width = len(rows[0]) // order      # bytes per exponent
    for row in rows:
        # an exponent is zero when each of its bytes is
        kernel = -1
        for lane in range(width):
            kernel &= int(row[lane::width].translate(_ZERO_DIGITS)[::-1], 2)
        if kernel not in n_max_of:
            inside = 0
            for n, mask in enumerate(masks):
                if mask & kernel == mask:
                    inside |= 1 << n
            # nodes are sorted by size, so the last one inside is a largest
            n_max = inside.bit_length() - 1
            if inside & ~L.down_mask[n_max]:
                raise VerificationError(
                    "kernel nodes not closed under join", check="SC3",
                    witness={"kernel": sorted(map(walk.__getitem__, _bits(kernel)))},
                )
            n_max_of[kernel] = n_max
        blocks_of_dual.setdefault(n_max_of[kernel], []).append(row)
    # the X-blocks must exactly mirror the nonzero supercharacters
    nonzero_nodes = set(theory.nonzero)
    if set(blocks_of_dual) != nonzero_nodes:
        raise VerificationError(
            "dual partition does not match nonzero supercharacters",
            check="SC3",
            witness={"dual_blocks": sorted(blocks_of_dual), "chars": sorted(nonzero_nodes)},
        )
    bound = max([order, *(abs(v) for n in blocks_of_dual for v in theory.rows[n])])
    key = _root_keys(e, bound)
    _, reps, rep_of, is_partition = _representatives(theory.partition)
    position_of = sorted(range(order), key=walk.__getitem__)
    columns_at = [slice(p, None, order) for p in position_of]
    for n, block in blocks_of_dual.items():
        values = theory.rows[n]
        # the exponents of the block at each element: strided slices of its
        # joined rows, 16-bit ones keyed by their bytes
        if width == 1:
            columns = list(map(b"".join(block).__getitem__, columns_at))
        else:
            view = memoryview(b"".join(block)).cast("H")
            columns = [view[at].tobytes() for at in columns_at]
        # each distinct column is sorted once and each distinct multiset summed once
        residue_of: dict[tuple[int, ...], int] = {}
        sum_of = {}
        for column in set(columns):
            multiset = tuple(sorted(column if width == 1 else memoryview(column).cast("H")))
            if multiset not in residue_of:
                residue_of[multiset] = sum(map(key.__getitem__, multiset))
            sum_of[column] = residue_of[multiset]
        sums = list(map(sum_of.__getitem__, columns))
        if (is_partition and sums == list(map(sums.__getitem__, rep_of))
                and list(map(sums.__getitem__, reps)) == values):
            continue
        for bnode, value in zip(theory.nodes, values):
            bmask = theory.partition.blocks[bnode]
            rep = (bmask & -bmask).bit_length() - 1
            for g in _bits(bmask):
                if sums[g] != sums[rep]:
                    raise VerificationError(
                        "SC3 sum not constant on a superclass", check="SC3",
                        witness={"node": n, "elements": [rep, g]},
                    )
            if sums[rep] != value:
                raise VerificationError(
                    "SC3 sum disagrees with the supercharacter value", check="SC3",
                    witness={"node": n, "block": bnode, "expected": str(value)},
                )
    return {"status": "pass", "dual_size": len(rows)}



def _pair_counts(G: GroupTable, left: list[int], right: list[int]) -> list[int]:
    """How often each element is a product a*b with a in left and b in right."""
    counts = [0] * G.order
    for a in left:
        row = G.mul[a]
        for b in right:
            counts[row[b]] += 1
    return counts


def schur_closure_check(L: "NormalLattice", theory: "SCTheory") -> dict:
    """Convolution of superclass sums must have constant multiplicity on each
    superclass of theory, a theory on the nodes of L.  Only the group of L is
    read: the theory holds no lattice.

    Each block K_i is counted against every block at once.  Element g weighs
    W^t, t the position of its block among the block nodes and W one more
    than the largest block size, so digit t of h_i[x] = sum over a in K_i of
    weight[a^-1 x] counts the products a*b = x with b in K_t: at most |K_i| <
    W, so no digit carries.  Block i passes when h_i equals its values at the
    least element of each block, rep_of[x].  The largest block is not counted:
    over a partition, the counts c_ij(x) summed over i are |K_j| at every x.

    If the blocks are no partition into nonempty sets (never those of
    build_theory) or a block fails, every pair (i, j) is counted in
    node order and scanned block by block for the first witness."""
    G = L.group
    part = theory.partition
    nodes, reps, rep_of, is_partition = _representatives(part)
    members = {k: list(_bits(part.blocks[k])) for k in nodes}
    if is_partition:
        largest = max(nodes, key=lambda k: len(members[k]))
        base = len(members[largest]) + 1
        power = {rep: base**t for t, rep in enumerate(reps)}
        weight = list(map(power.__getitem__, rep_of))
        for i in filter(largest.__ne__, nodes):
            packed = [0] * G.order
            for a in members[i]:
                packed = list(map(add, packed, map(weight.__getitem__, G.mul[G.inv[a]])))
            if packed != list(map(packed.__getitem__, rep_of)):
                break
        else:
            return {"status": "pass"}
    for i in nodes:
        for j in nodes:
            counts = _pair_counts(G, members[i], members[j])
            for k, rep in zip(nodes, reps):
                for g in members[k]:
                    if counts[g] != counts[rep]:
                        raise VerificationError(
                            "superclass convolution is not constant on a block",
                            check="schur_closure",
                            witness={"blocks": [i, j, k], "elements": [rep, g]},
                        )
    return {"status": "pass"}


_PRIMES = set(range(2, 257)).difference(*(range(p * p, 257, p) for p in range(2, 17)))  # sieve


def brute_force_normal_subgroups(G: GroupTable) -> list[int]:
    """Re-derive the normal subgroups by enumerating all subgroups and
    filtering by normality.  The enumeration starts from the trivial subgroup
    and joins each subgroup X found with every distinct cyclic subgroup <g> it
    does not contain; every subgroup is such a chain of joins, so none is
    missed.  X is stored as the state Dimino's algorithm ends with (elements,
    flags, generators, as bytes: the order is at most 256), and <X, g> is one
    _dimino_step from a copy of it.  <X, g·x> = <X, g> for x in X, so a cyclic
    subgroup with a generator in a coset g·X already joined is skipped.  When
    |<X, g>:X| is a prime, X < <X, h> <= <X, g> for every h in <X, g> outside
    X, so <X, h> = <X, g> by Lagrange: all of <X, g> counts as joined.  The
    Dimino step is the only code shared with the lattice builders, which
    never scan the other subgroups."""
    if G.order > 256:
        raise CapacityError("brute-force subgroup scan capped at order 256", check="order_cap",
                            witness=G.order)
    # each distinct cyclic subgroup with the mask of its generators
    cyclic: dict[int, int] = {}
    for g in range(1, G.order):
        c = closure_mask(G, 1 << g)
        cyclic[c] = cyclic.get(c, 0) | 1 << g
    seen = {1: (b"\0", b"\1" + bytes(G.order - 1), b"")}
    frontier = [1]
    while frontier:
        mask = frontier.pop()
        elements, flags, gens = seen[mask]
        joined = mask  # the cosets g·X joined so far, X itself first
        for generators in cyclic.values():
            if generators & joined:
                continue
            g = (generators & -generators).bit_length() - 1
            joined |= mask_of(map(G.mul[g].__getitem__, elements))
            grown, grown_flags, grown_gens = list(elements), bytearray(flags), list(gens)
            _dimino_step(G, grown, grown_flags, grown_gens, g)
            bigger = int(grown_flags.translate(_FLAG_DIGITS)[::-1], 2)
            if len(grown) // len(elements) in _PRIMES:
                joined |= bigger
            if bigger not in seen:
                seen[bigger] = bytes(grown), bytes(grown_flags), bytes(grown_gens)
                frontier.append(bigger)
    return [m for m in sorted(seen) if is_normal(G, m)]


def cross_check_normal_lattice(L: "NormalLattice", full: bool) -> dict:
    """The nodes of L are normal subgroups: for the full lattice (full) of a
    group of order <= 256 the brute-force scan finds exactly them; otherwise
    each node must be its own closure and normal, and nothing is enumerated."""
    G = L.group
    if full and G.order <= 256:
        expected = set(brute_force_normal_subgroups(G))
        actual = set(L.nodes)
        if expected != actual:
            raise VerificationError(
                "normal-subgroup enumeration mismatch", check="normal_subgroups",
                witness={"missing": [list(_bits(m)) for m in sorted(expected - actual)],
                         "extra": [list(_bits(m)) for m in sorted(actual - expected)]},
            )
        return {"status": "pass", "count": len(expected)}
    for node in L.nodes:
        if node >> G.order or closure_mask(G, node) != node or not is_normal(G, node):
            raise LatsuperError(
                "sublattice node not among the normal subgroups",
                check="normal_subgroups", witness=list(_bits(node)),
            )
    skipped = {"enumeration": "skipped (order > 256)"} if full else {}
    return {"status": "pass", "nodes": len(L.nodes), **skipped}
