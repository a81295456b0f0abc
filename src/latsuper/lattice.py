"""Lattices of normal subgroups: order structure, covers, irreducibles,
a yes/no distributivity test and the Birkhoff antichain of one node.

A NormalLattice owns a list of normal subgroups (int bitmasks) of one group,
closed under join (subgroup product) and meet (intersection), always
containing the trivial subgroup and the whole group.  Nodes are referenced by
their index in ``nodes``, sorted by size.  Group elements are multiplied only
to enumerate nodes, and the builders (normal_lattice, closed_sublattice) look
each join up in one _JoinIndex of the nodes found so far, so closure_mask runs
only for a join that is new.  The order is one up-set and one down-set bitmask
of node indices per node, and meet and join have one rule, read off them: the
join of i and j is the lowest index in up(i) & up(j), the meet the highest
index in down(i) & down(j).  No m x m table is kept.

Closure is certified and reached through the irreducibles.  In a family of
normal subgroups holding 1 and G, a node with two upper covers A, B is A & B,
so by downward induction the family is closed under intersection once N & P
is a node for every node N and every P with one upper cover (the
meet-irreducibles M); dually, under product once NP is a node for every P
with one lower cover (the join-irreducibles J).  The constructor checks
these m (|M| + |J|) pairs, whoever built the nodes, and closed_sublattice
adds their meets and joins until none is new.

Nothing Birkhoff-related is cached: distributive_analysis answers yes or no,
the witness _first_violation is searched only when an operation refuses, and
birkhoff_antichain computes the antichain of the one node asked for.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress, count, repeat
from math import gcd
from operator import and_, eq, or_
from typing import Iterable, Optional, Sequence

from .errors import (
    ArgumentError,
    CapacityError,
    ConstructionError,
    InternalConsistencyError,
    UnsupportedStructureError,
)
from .groups import (
    GroupTable,
    _bits,
    closure_mask,
    conjugacy_classes,
    mask_of,
)

SUBGROUP_ENUM_CAP = 20000


class NormalLattice:
    """A sublattice of the normal subgroups of a finite group, its order kept
    as up_mask/down_mask, its upper covers as index lists and its meet- and
    join-irreducibles (one upper, one lower cover) as index tuples.
    _build_order certifies closure by meeting every node with each
    meet-irreducible and joining it with each join-irreducible.  With
    check_normal=False the caller vouches that every node is normal, which the
    product formula certifying joins needs."""

    def __init__(self, group: GroupTable, nodes: Sequence[int], *, check_normal: bool = True):
        self.group = group
        distinct = set(nodes)
        _check_cap(len(distinct))
        self.nodes: list[int] = sorted(distinct, key=lambda s: (s.bit_count(), s))
        self._index = {s: i for i, s in enumerate(self.nodes)}
        self._validate(check_normal)
        self._build_order()
        self._theory = None

    # -- construction checks --------------------------------------------------

    def _validate(self, check_normal: bool) -> None:
        G = self.group
        if 1 not in self._index:
            raise ConstructionError("lattice must contain the trivial subgroup",
                                    check="lattice_bounds", witness=[0])
        if (1 << G.order) - 1 not in self._index:
            raise ConstructionError("lattice must contain the whole group",
                                    check="lattice_bounds", witness=list(range(G.order)))
        if check_normal:
            bad = _first_non_normal(G, self.nodes)
            if bad is not None:
                elements = list(_bits(bad))
                raise ConstructionError(f"node {elements} is not normal", check="normality",
                                        witness=elements)

    def _build_order(self) -> None:
        # Nodes are sorted by size: N_i <= N_j needs j >= i.  For each i in
        # index order, the meet with each meet-irreducible p must be the node
        # N_i & N_p, then the join with each join-irreducible p, which (L2)
        # requires to have the size of the product N_i N_p, must satisfy the
        # product formula.  A p above i needs no check.
        m = len(self.nodes)
        masks = self.nodes
        sizes = [s.bit_count() for s in masks]
        up = self.up_mask = [0] * m    # up_mask[i]: bitmask of j with nodes[i] <= nodes[j]
        down = self.down_mask = [0] * m
        for i in range(m):
            mi = masks[i]
            for j in range(i, m):
                if mi & masks[j] == mi:
                    up[i] |= 1 << j
                    down[j] |= 1 << i
        self.bottom = self._index[1]
        self.top = self._index[(1 << self.group.order) - 1]
        upper = _upper_covers(up)
        self.covers_up: list[list[int]] = [list(_bits(c)) for c in upper]
        self.meet_irreducibles, self.join_irreducibles = _irreducibles(upper)
        meet_irr, join_irr = mask_of(self.meet_irreducibles), mask_of(self.join_irreducibles)
        for i in range(m):
            mi, up_i, down_i = masks[i], up[i], down[i]
            for p in _bits(meet_irr & ~up_i):
                if masks[(down_i & down[p]).bit_length() - 1] != mi & masks[p]:
                    raise ConstructionError("lattice not closed under intersection",
                                            check="meet_closure", witness=self._pair(i, p))
            for p in _bits(join_irr & ~up_i):
                above = up_i & up[p]
                join = (above & -above).bit_length() - 1
                if sizes[join] * (mi & masks[p]).bit_count() != sizes[i] * sizes[p]:
                    raise ConstructionError("lattice not closed under product",
                                            check="join_closure", witness=self._pair(i, p))

    def _pair(self, i: int, j: int) -> list[list[int]]:
        return [list(_bits(self.nodes[k])) for k in sorted((i, j))]

    # -- basic queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def index_of(self, mask: int) -> int:
        if mask not in self._index:
            elements = list(_bits(mask))
            raise ArgumentError(f"subgroup {elements} is not a lattice node",
                                check="lattice_node", witness=elements)
        return self._index[mask]

    def leq(self, i: int, j: int) -> bool:
        return bool((self.up_mask[i] >> j) & 1)

    def meet(self, i: int, j: int) -> int:
        """Greatest common lower bound: the highest index in down(i) & down(j)."""
        return (self.down_mask[i] & self.down_mask[j]).bit_length() - 1

    def join(self, i: int, j: int) -> int:
        """Least common upper bound: the lowest index in up(i) & up(j)."""
        upper = self.up_mask[i] & self.up_mask[j]
        return (upper & -upper).bit_length() - 1

    def meet_all(self, idxs: Iterable[int]) -> int:
        """Meet of a node set; empty set gives the top."""
        lower = reduce(and_, map(self.down_mask.__getitem__, idxs), self.down_mask[self.top])
        return lower.bit_length() - 1

    def join_all(self, idxs: Iterable[int]) -> int:
        """Join of a node set; empty set gives the bottom."""
        upper = reduce(and_, map(self.up_mask.__getitem__, idxs), self.up_mask[self.bottom])
        return (upper & -upper).bit_length() - 1

    def meet_row(self, i: int, start: int = 0) -> list[int]:
        """meet(i, j) for every node j >= start, in index order, at C speed."""
        lower = map(self.down_mask[i].__and__, self.down_mask[start:])
        return list(map((-1).__add__, map(int.bit_length, lower)))

    def covers(self, i: int) -> list[int]:
        """C(i): the minimal strict super-elements of node i."""
        return list(self.covers_up[i])

    def cover_join(self, i: int) -> int:
        """Join of node i with all of its covers (= i itself when i is the top)."""
        return self.join_all([i, *self.covers_up[i]])

    def interval(self, i: int, j: int) -> list[int]:
        """Nodes k with i <= k <= j."""
        return list(_bits(self.up_mask[i] & self.down_mask[j]))

    def size(self, i: int) -> int:
        return self.nodes[i].bit_count()

    def node_label(self, i: int) -> str:
        if self.group.spec.kind == "cyclic":
            return f"C{self.size(i)}"
        return f"N{i}"

    def __repr__(self) -> str:
        return f"NormalLattice({self.group.name}, {len(self.nodes)} nodes)"


# ---------------------------------------------------------------------------
# Construction.


def _check_cap(count: int) -> None:
    if count > SUBGROUP_ENUM_CAP:
        raise CapacityError(
            f"more than {SUBGROUP_ENUM_CAP} lattice nodes; pass an explicit sublattice",
            check="subgroup_cap", witness=count,
        )


def _first_non_normal(G: GroupTable, masks: Iterable[int]) -> Optional[int]:
    """Raise ArgumentError at the first of masks that is not its own closure
    (not a subgroup); return the first that is not a union of conjugacy classes
    (not normal, never when G is abelian), or None."""
    classes = () if G.is_abelian else conjugacy_classes(G)
    for mask in masks:
        if mask >> G.order or closure_mask(G, mask) != mask:
            elements = list(_bits(mask))
            raise ArgumentError(f"{elements} is not a subgroup", check="subgroup",
                                witness=elements)
        if any(c & mask and c & ~mask for c in classes):
            return mask
    return None


def _cyclic_subgroups(G: GroupTable) -> set[int]:
    """The cyclic subgroups <g>, each walked once: the powers g^k with k prime
    to the order of g generate the same subgroup and are skipped."""
    out = set()
    walked = bytearray(G.order)
    for g in range(1, G.order):
        if walked[g]:
            continue
        powers = [g]
        while powers[-1] != 0:
            powers.append(G.mul[powers[-1]][g])
        for k, x in enumerate(powers, 1):
            if gcd(k, len(powers)) == 1:
                walked[x] = 1
        out.add(mask_of(powers))
    return out


def _upper_covers(up: Sequence[int]) -> list[int]:
    """Each node's upper covers as a bitset: its strict up set minus everything
    strictly above one of its members, where up[i] is the bitset of the nodes
    containing node i.  Members are taken lowest index first, each taking its
    up set out of the rest, so in size order only covers are taken; in any
    order a member taken above a cover is taken out at the end."""
    out = []
    for i, above in enumerate(up):
        rest = above ^ 1 << i
        taken = higher = 0
        while rest:
            low = rest & -rest
            up_low = up[low.bit_length() - 1]
            taken |= low
            higher |= up_low ^ low
            rest &= ~up_low
        out.append(taken & ~higher)
    return out


def _irreducibles(upper: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The meet-irreducibles (one upper cover) and the join-irreducibles (one
    lower cover), given each node's upper covers as a bitset."""
    lower = [0] * len(upper)
    for covers in upper:
        for j in _bits(covers):
            lower[j] += 1
    return (tuple(i for i, covers in enumerate(upper) if covers.bit_count() == 1),
            tuple(j for j, n in enumerate(lower) if n == 1))


class _JoinIndex:
    """The nodes a lattice builder has found, so that the join of two of them
    is looked up, not closed.  masks holds the nodes in insertion order, at
    the index of each mask, up[i] the bitset of the nodes that contain node i
    and of_size[s] the bitset of the nodes of size s.  The join of normal
    subgroups a and b is their product, of size |a||b|/|a & b|, and a known
    node of that size containing both is the product itself: the lookup
    up[i] & up[j] & of_size[|a||b|/|a & b|] is exact, and a miss means the
    join is new.  Each add sets the new node's bit in the up sets of the
    nodes below it, found in one C-level pass over the masks."""

    def __init__(self) -> None:
        self.masks: list[int] = []
        self.at: dict[int, int] = {}
        self.up: list[int] = []
        self.of_size: dict[int, int] = {}

    def add(self, mask: int, above: Optional[int] = None) -> None:
        """Add a node unless it is known; above, when given, is the bitset of
        the known nodes that contain it."""
        if mask in self.at:
            return
        k = len(self.masks)
        _check_cap(k + 1)
        bit = 1 << k
        masks, up = self.masks, self.up
        if above is None:
            meets = map(and_, repeat(mask), masks)
            above = mask_of(compress(count(), map(eq, repeat(mask), meets)))
        for i in compress(count(), map(eq, repeat(mask), map(or_, repeat(mask), masks))):
            up[i] |= bit
        up.append(above | bit)
        self.at[mask] = k
        masks.append(mask)
        size = mask.bit_count()
        self.of_size[size] = self.of_size.get(size, 0) | bit

    def add_join(self, G: GroupTable, i: int, j: int) -> None:
        """Add the join of nodes i and j: looked up, or closed when it is new."""
        a, b = self.masks[i], self.masks[j]
        above = self.up[i] & self.up[j]
        if not above & self.of_size.get(a.bit_count() * b.bit_count() // (a & b).bit_count(), 0):
            self.add(closure_mask(G, a | b), above)


def _join_closure(G: GroupTable, gens: Iterable[int]) -> _JoinIndex:
    """The trivial subgroup and every join of the normal subgroups in gens,
    reached one generator at a time by joining each node with each generator.
    The generators, the joins of the trivial node, come next; every later
    join is looked up in the _JoinIndex returned, and only a new one is
    closed."""
    index = _JoinIndex()
    for mask in (1, *sorted(set(gens))):
        index.add(mask)
    at_gens = range(1, len(index.masks))
    for i, _ in enumerate(index.masks):  # the masks grow while they are walked
        for g in at_gens:
            index.add_join(G, i, g)
    return index


def normal_lattice(G: GroupTable) -> NormalLattice:
    """The full lattice of normal subgroups of G.

    A normal subgroup is the join of the normal closures of the conjugacy
    classes in it, and a subgroup of an abelian group is the join of its cyclic
    subgroups, so the nodes are the join closure of the class closures (or of
    the <g>, found by walking powers).  Only the node count is capped, not the
    number of classes.  The constructor certifies each node with one closure
    and a class test, and each join by the product formula.

    When every <g> has the same order p, which is then prime, G is
    elementary abelian, F_p^d with p^d = |G| however it was specified, and
    its subgroups are counted before any is enumerated.
    """
    if G.is_abelian:
        gens = _cyclic_subgroups(G)
        orders = {mask.bit_count() for mask in gens}
        if len(orders) == 1:
            p, = orders
            d = 1
            while p**d < G.order:
                d += 1
            _check_cap(_subspace_count(p, d))
    else:
        gens = [closure_mask(G, c) for c in conjugacy_classes(G)[1:]]
    return NormalLattice(G, _join_closure(G, gens).masks, check_normal=True)


def closed_sublattice(G: GroupTable, gens: Sequence[int]) -> NormalLattice:
    """Smallest lattice containing gens plus the trivial subgroup and G.

    The join closure of gens and G grows in rounds through its _JoinIndex:
    each meets every node with each meet-irreducible and joins it with each
    join-irreducible, read off the nodes at the start of the round.  A round
    that adds nothing has certified the pairs the constructor checks, and
    every node is a meet or join of gens.  closure_mask runs only for a join
    that is new.
    """
    bad = _first_non_normal(G, gens)
    if bad is not None:
        elements = list(_bits(bad))
        raise ArgumentError(f"generator {elements} is not a normal subgroup",
                            check="normality", witness=elements)
    index = _join_closure(G, [(1 << G.order) - 1, *gens])
    masks, up = index.masks, index.up
    known = 0
    while known < len(masks):
        known = len(masks)
        meet_irr, join_irr = map(mask_of, _irreducibles(_upper_covers(up)))
        for i, a in enumerate(masks):  # the masks grow while they are walked
            for p in _bits(meet_irr & ~up[i]):
                index.add(a & masks[p])
            for p in _bits(join_irr & ~up[i]):
                index.add_join(G, i, p)
    return NormalLattice(G, masks, check_normal=False)


def _subspace_count(q: int, dim: int) -> int:
    """Subspaces of F_q^dim, by the Galois-number recurrence
    G(n+1) = 2 G(n) + (q^n - 1) G(n-1)."""
    before, count = 1, 2
    for n in range(1, dim):
        before, count = count, 2 * count + (q**n - 1) * before
    return count


# ---------------------------------------------------------------------------
# Distributivity and Birkhoff structure.


def distributive_analysis(L: NormalLattice) -> bool:
    """Whether L is distributive.

    With J(x) the product (join-) irreducibles below x, L is distributive iff
    J(x v p) = J(x) | J(p) for every node x and product irreducible p, in m |J|
    joins: join-irreducibles of a distributive lattice are join-prime, and the
    identity makes x -> J(x) an embedding into a Boolean lattice (Birkhoff,
    "Rings of sets", 1937).  The witness of a failure is _first_violation."""
    irreducible = mask_of(L.join_irreducibles)
    below = [down & irreducible for down in L.down_mask]
    return all(below[L.join(x, p)] == below[x] | below[p]
               for x in range(len(L.nodes)) for p in L.join_irreducibles)


def birkhoff_antichain(L: NormalLattice, k: int) -> tuple[int, ...]:
    """The minimal meet-irreducibles above node k, in L.meet_irreducibles
    order: on a distributive lattice, the one antichain of meet-irreducibles
    whose meet is k (Birkhoff).  The meet is checked."""
    above = L.up_mask[k] & mask_of(L.meet_irreducibles)
    minimal = tuple(p for p in _bits(above) if L.down_mask[p] & above == 1 << p)
    if L.meet_all(minimal) != k:
        raise InternalConsistencyError(f"antichain meet mismatch at node {k}", check="birkhoff")
    return minimal


def _first_violation(L: NormalLattice) -> tuple[int, int, int]:
    """The first (k, a, b), b >= a, with k v (a ^ b) != (k v a) ^ (k v b); both
    sides are compared over all b at once, from meet rows.  k = bottom and
    a <= k are skipped: both sides are then a ^ b, or k."""
    m = len(L.nodes)
    for k in range(m):
        if k == L.bottom:
            continue
        jk = [L.join(k, x) for x in range(m)]
        for a in range(m):
            if L.leq(a, k):
                continue
            lhs = list(map(jk.__getitem__, L.meet_row(a, a)))
            rhs = list(map(L.meet_row(jk[a]).__getitem__, jk[a:]))
            if lhs != rhs:
                return k, a, a + next(i for i, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
    raise InternalConsistencyError(
        "Birkhoff test fails but no triple violates distributivity", check="distributivity"
    )


def _require_distributive(L: NormalLattice) -> None:
    if not distributive_analysis(L):
        raise UnsupportedStructureError(
            "operation requires a distributive lattice", check="distributivity",
            witness=list(_first_violation(L)),
        )


def is_general_position(L: NormalLattice, A: Sequence[int], M: int) -> bool:
    """A subset of C(M) is in general position over M when dropping any member
    strictly shrinks the join; equivalently (for cover sets) the join of the
    rest meets each member in M.  Both tests run and must agree.
    """
    cover_set = set(L.covers_up[M])
    aset = list(dict.fromkeys(A))
    if not cover_set.issuperset(aset):
        raise ArgumentError("general position requires A to be a subset of C(M)",
                            check="cover_subset", witness={"M": M, "A": aset})
    total = L.join_all([M, *aset])
    join_cond = True
    meet_cond = True
    for o in aset:
        rest = L.join_all([M, *(p for p in aset if p != o)])
        if rest == total:
            join_cond = False
        if L.meet(rest, o) != M:
            meet_cond = False
    if join_cond != meet_cond:
        raise InternalConsistencyError(
            "general-position criteria disagree", check="general_position",
            witness={"M": M, "A": list(aset)},
        )
    return join_cond


def _check_antichain(L: NormalLattice, nodes: Sequence[int], pool: Iterable[int], what: str) -> list[int]:
    out = list(dict.fromkeys(nodes))
    pool = set(pool)
    for p in out:
        if p not in pool:
            raise ArgumentError(f"node {p} is not {what}", check="irreducible", witness=p)
    for a in out:
        for b in out:
            if a != b and L.leq(a, b):
                raise ArgumentError(f"nodes {a},{b} are comparable; not an antichain",
                                    check="antichain", witness=[a, b])
    return out


def cover_to_irreducible_map(L: NormalLattice, A: Sequence[int]) -> dict[int, int]:
    """For an antichain A of meet irreducibles, the bijection sending each upper
    cover O of meet(A) to the unique P in A with P join O a cover of P."""
    _require_distributive(L)
    aset = _check_antichain(L, A, L.meet_irreducibles, "meet irreducible")
    bottom = L.meet_all(aset)
    mapping: dict[int, int] = {}
    for onode in L.covers_up[bottom]:
        hits = [p for p in aset if L.join(p, onode) in L.covers_up[p]]
        if len(hits) != 1:
            raise InternalConsistencyError(
                f"no unique irreducible for cover {onode}", check="cover_to_irreducible",
                witness={"O": onode, "hits": hits},
            )
        mapping[onode] = hits[0]
    for p in aset:
        upper = L.covers_up[p][0]
        rest = L.meet_all([a for a in aset if a != p])
        if mapping.get(L.meet(upper, rest)) != p:
            raise InternalConsistencyError(
                "cover_to_irreducible map is not a bijection", check="cover_to_irreducible"
            )
    return mapping


# ---------------------------------------------------------------------------
# Export.


def lattice_to_json(L: NormalLattice) -> dict:
    return {
        "group": L.group.spec.to_json(),
        "nodes": [list(_bits(s)) for s in L.nodes],
        "labels": [L.node_label(i) for i in range(len(L.nodes))],
        "hasse": [[i, j] for i in range(len(L.nodes)) for j in L.covers_up[i]],
    }


def lattice_to_dot(L: NormalLattice) -> str:
    lines = ["digraph lattice {", "  rankdir=BT;"]
    for i in range(len(L.nodes)):
        lines.append(f'  n{i} [label="{L.size(i)}:{L.node_label(i)}"];')
    for i in range(len(L.nodes)):
        for j in L.covers_up[i]:
            lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
