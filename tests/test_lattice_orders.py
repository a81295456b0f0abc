"""Property tests of the order-theoretic lattice constructions.

The lattice layer multiplies group elements only to enumerate nodes; joins are
certified by the product formula |NM| |N & M| = |N| |M|.  These tests compare
it with routes that multiply: closure_mask on every pair, the brute-force
normal-subgroup oracle, and closed forms of the normal subgroups of D_n and S_5.
"""

import json
from functools import lru_cache, reduce
from itertools import permutations
from operator import and_, or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latsuper.lattice as lattice_mod
import latsuper.oracle as oracle_mod
from latsuper import (
    ArgumentError,
    CapacityError,
    ConstructionError,
    GroupSpec,
    NormalLattice,
    UnsupportedStructureError,
    cover_to_irreducible_map,
    make_group,
    normal_lattice,
)
from latsuper.cli import main
from latsuper.errors import InternalConsistencyError
from latsuper.groups import (
    _bits,
    _dimino_step,
    closure_mask,
    conjugacy_classes,
    mask_of,
)
from latsuper.lattice import (
    _cyclic_subgroups,
    _first_violation,
    _join_closure,
    _subspace_count,
    birkhoff_antichain,
    closed_sublattice,
    distributive_analysis,
)
from latsuper.oracle import brute_force_normal_subgroups

from corpus import (
    DRAWN_GROUPS,
    basis_lattice,
    basis_node,
    coordinates,
    cyclic_group,
    dihedral_group,
    drawn_full_lattice,
    drawn_lattices,
    fresh_lattice,
    lower_covers,
    product_to_cover_map,
    quaternion_group,
    subsp_lattice,
    symmetric_group,
    vector_space_group,
)

# Derandomized so that the suite draws the same examples on every run.
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def _product(*factors):
    return make_group(GroupSpec.product([f.spec for f in factors]))


SMALL_GROUPS = (
    lambda: cyclic_group(12),
    lambda: cyclic_group(30),
    lambda: cyclic_group(36),
    lambda: _product(cyclic_group(2), cyclic_group(2), cyclic_group(3)),
    lambda: vector_space_group(3, 2),
    lambda: symmetric_group(3),
    lambda: symmetric_group(4),
    lambda: dihedral_group(6),
    lambda: quaternion_group(),
    lambda: _product(symmetric_group(3), cyclic_group(3)),
)


@lru_cache(maxsize=None)
def full_lattice(i):
    return normal_lattice(SMALL_GROUPS[i]())


def naive_closure(G, masks):
    """Fixed point of pairwise intersections and closure_mask joins."""
    out = {1, (1 << G.order) - 1, *masks}
    while True:
        new = {f(a, b) for a in out for b in out
               for f in (lambda x, y: x & y, lambda x, y: closure_mask(G, x | y))}
        if new <= out:
            return out
        out |= new


def first_unclosed_pair(G, masks):
    """(check, witness) of the first pair whose meet or join is missing, in
    the order the constructor certifies: each node a in node order, met with
    every node of one upper cover, then joined with every node of one lower
    cover; the pair is named in node order.  None for a closed set."""
    nodes = sorted(masks, key=lambda m: (m.bit_count(), m))

    def below(a, b):
        return a != b and a & b == a

    upper = {a: [b for b in nodes if below(a, b)
                 and not any(below(a, c) and below(c, b) for c in nodes)] for a in nodes}
    meet_irr = [p for p in nodes if len(upper[p]) == 1]
    join_irr = [p for p in nodes if sum(p in upper[a] for a in nodes) == 1]
    scans = (("meet_closure", meet_irr, lambda a, p: a & p),
             ("join_closure", join_irr, lambda a, p: closure_mask(G, a | p)))
    for a in nodes:
        for check, pool, combine in scans:
            for p in pool:
                if combine(a, p) not in masks:
                    pair = sorted((a, p), key=nodes.index)
                    return check, [list(_bits(x)) for x in pair]
    return None


node_subsets = st.integers(0, len(SMALL_GROUPS) - 1).flatmap(
    lambda i: st.tuples(st.just(i), st.sets(st.integers(0, len(full_lattice(i)) - 1)))
)


@PROPERTY
@given(node_subsets)
def test_closed_sublattice_joins_and_meets_multiply_out(case):
    i, picked = case
    L = full_lattice(i)
    G = L.group
    gens = [L.nodes[k] for k in sorted(picked)]
    S = closed_sublattice(G, gens)
    masks = S.nodes
    assert set(masks) == naive_closure(G, gens)
    for a in range(len(S)):
        for b in range(len(S)):
            assert masks[S.join(a, b)] == closure_mask(G, masks[a] | masks[b])
            assert masks[S.meet(a, b)] == masks[a] & masks[b]


@PROPERTY
@given(node_subsets)
def test_strict_nodes_fail_on_the_first_unclosed_pair(case):
    i, picked = case
    L = full_lattice(i)
    masks = {1, (1 << L.group.order) - 1} | {L.nodes[k] for k in picked}
    expected = first_unclosed_pair(L.group, masks)
    nodes = list(masks)
    if expected is None:
        assert set(NormalLattice(L.group, nodes).nodes) == masks
        return
    with pytest.raises(ConstructionError) as info:
        NormalLattice(L.group, nodes)
    assert (info.value.check, info.value.witness) == expected


def test_the_witness_is_the_first_pair_of_the_scan_by_irreducibles():
    # {1, C4, C5, C30, C60} in C60 misses C2 = C4 & C30 and C20 = C4 C5.  A
    # scan of all pairs in node order would name C4, C5 first; the scan by
    # irreducibles meets C4 with C30 (one upper cover) before it joins C4
    # with C5 (one lower cover), so it names C4, C30
    G = cyclic_group(60)
    nodes = [mask_of(range(0, 60, 60 // n)) for n in (1, 4, 5, 30, 60)]
    with pytest.raises(ConstructionError) as info:
        NormalLattice(G, nodes)
    witness = [list(range(0, 60, 15)), list(range(0, 60, 2))]
    assert (info.value.check, info.value.witness) == ("meet_closure", witness)
    assert first_unclosed_pair(G, set(nodes)) == ("meet_closure", witness)


@settings(PROPERTY, max_examples=8)
@given(st.integers(1, 200))
def test_cyclic_normal_lattice_matches_the_oracle(n):
    G = cyclic_group(n)
    assert (list(normal_lattice(G).nodes)
            == sorted(brute_force_normal_subgroups(G),
                      key=lambda m: (m.bit_count(), m)))


@pytest.mark.parametrize("name", ["Q8xC4", "S4", "D12", "D60", "S5", "D17", "D24", "S3xC6",
                                  "C3^4"])
def test_nonabelian_normal_lattice_matches_the_oracle(name):
    # D17's joins stop at prime index; C3^4 is abelian, where coset skips
    # already cover every join of prime index
    groups = {
        "Q8xC4": lambda: _product(quaternion_group(), cyclic_group(4)),
        "S4": lambda: symmetric_group(4),
        "D12": lambda: dihedral_group(12),
        "D60": lambda: dihedral_group(60),
        "S5": lambda: symmetric_group(5),
        "D17": lambda: dihedral_group(17),
        "D24": lambda: dihedral_group(24),
        "S3xC6": lambda: _product(symmetric_group(3), cyclic_group(6)),
        "C3^4": lambda: make_group(GroupSpec.vector_space(3, 4)),
    }
    G = groups[name]()
    expected = set(brute_force_normal_subgroups(G))
    assert set(normal_lattice(G).nodes) == expected


def dihedral_normals(n):
    """Normal subgroups of D_n (n even) in dihedral_group's order (rotations r^i are
    0..n-1, reflections s r^i are n..2n-1): <r^d> for d | n, the two dihedral
    subgroups of index 2, and D_n itself."""
    rotations = [mask_of(range(0, n, d)) for d in range(1, n + 1) if n % d == 0]
    even = mask_of(range(0, n, 2))
    return set(rotations) | {
        even | (even << n), even | (mask_of(range(1, n, 2)) << n), (1 << 2 * n) - 1,
    }


def test_d60_and_s5_normal_lattices_match_closed_forms():
    # Closed forms: a route that shares no code with the oracle.
    D60 = dihedral_group(60)
    L = normal_lattice(D60)
    assert len(L) == 15
    assert set(L.nodes) == dihedral_normals(60)
    S5 = symmetric_group(5)
    perms = sorted(permutations(range(5)))

    def even(p):
        return sum(p[a] > p[b] for a in range(5) for b in range(a + 1, 5)) % 2 == 0

    alternating = mask_of(i for i, p in enumerate(perms) if even(p))
    assert list(normal_lattice(S5).nodes) == [1, alternating, (1 << 120) - 1]


def test_dihedral_closed_form_matches_the_oracle():
    D6 = dihedral_group(6)
    assert dihedral_normals(6) == set(brute_force_normal_subgroups(D6))


# ---------------------------------------------------------------------------
# One node cap, checked before the quadratic work.


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_subspace_count_matches_the_enumerated_subspaces(q, dim):
    # the count that refuses F_p^d before enumeration, against the subspaces
    # the corpus closes from the lines F_q v
    assert len(subsp_lattice(q, dim)) == _subspace_count(q, dim)


def _raw_table(G):
    return make_group(GroupSpec.table([list(row) for row in G.mul]))


@pytest.mark.parametrize("build, count", [
    pytest.param(lambda: vector_space_group(2, 7), 29212, id="2-7-29212"),
    pytest.param(lambda: vector_space_group(4, 4), 417199, id="4-4-417199"),
    pytest.param(lambda: vector_space_group(9, 3), 56632, id="9-3-56632"),
    pytest.param(lambda: _product(*[cyclic_group(2)] * 8), 417199, id="C2^8 product"),
    pytest.param(lambda: _raw_table(vector_space_group(2, 8)), 417199, id="F2^8 raw table"),
])
def test_vector_space_normal_lattice_hits_the_cap_before_enumerating(build, count, monkeypatch):
    # The subgroups of an elementary abelian group of order p^d are the
    # subspaces of F_p^d, however the group is specified: F4^4, the product
    # of eight C2 and a raw table of F2^8 have as many as F2^8.  No closure
    # may run, so only a count made before any enumeration can reject them.
    G = build()

    def no_closure(G, mask):
        raise AssertionError("normal_lattice enumerated before counting")

    monkeypatch.setattr(lattice_mod, "closure_mask", no_closure)
    with pytest.raises(CapacityError) as info:
        normal_lattice(G)
    assert info.value.check == "subgroup_cap"
    assert info.value.witness == count


def test_every_constructor_checks_the_node_cap(monkeypatch):
    L = normal_lattice(cyclic_group(12))
    monkeypatch.setattr(lattice_mod, "SUBGROUP_ENUM_CAP", 4)
    for build in (
        lambda: normal_lattice(cyclic_group(12)),
        lambda: closed_sublattice(L.group, L.nodes),
        lambda: NormalLattice(L.group, L.nodes),
    ):
        with pytest.raises(CapacityError):
            build()


# ---------------------------------------------------------------------------
# The builders look joins up in an index: the same nodes, in the same order,
# as closure_mask on every pair, and one closure per node found.


def naive_join_closure(G, gens):
    """_join_closure's nodes in insertion order, closing each node with each
    generator."""
    gens = sorted(set(gens))
    nodes = [1]
    for node in nodes:
        for gen in gens:
            join = closure_mask(G, node | gen)
            if join not in nodes:
                nodes.append(join)
    return nodes


def naive_closed_nodes(G, gens):
    """closed_sublattice's nodes: each pair of nodes adds its meet, then its
    join by closure_mask, until none is new."""
    nodes = []
    for mask in (1, (1 << G.order) - 1, *gens):
        if mask not in nodes:
            nodes.append(mask)
    for j, b in enumerate(nodes):
        for a in nodes[:j]:
            for mask in (a & b, closure_mask(G, a | b)):
                if mask not in nodes:
                    nodes.append(mask)
    return nodes


def closed_nodes(G, gens):
    """The node list closed_sublattice hands to NormalLattice, in its order."""
    handed = []

    def record(G, nodes, **kwargs):
        handed.append(list(nodes))
        return NormalLattice(G, nodes, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lattice_mod, "NormalLattice", record)
        closed_sublattice(G, list(gens))
    return handed[0]


@st.composite
def join_generators(draw):
    """A drawn group and normal subgroups of it: the ones normal_lattice
    joins (cyclic subgroups, or closures of classes), or up to five nodes of
    its full lattice, which are mostly met, not joined."""
    full = drawn_full_lattice(draw(st.sampled_from(sorted(DRAWN_GROUPS))))
    G = full.group
    if draw(st.booleans()):
        if G.is_abelian:
            return G, sorted(_cyclic_subgroups(G))
        return G, [closure_mask(G, c) for c in conjugacy_classes(G)[1:]]
    picks = draw(st.lists(st.integers(0, len(full.nodes) - 1), max_size=5))
    return G, [full.nodes[i] for i in picks]


@PROPERTY
@given(join_generators())
def test_builders_find_the_nodes_of_closure_on_every_pair(case):
    # _join_closure's insertion order is its result; closed_sublattice's is
    # not observable once NormalLattice sorts the nodes, so only its set is
    G, gens = case
    for build, naive, same in (
            (lambda: _join_closure(G, gens).masks, naive_join_closure(G, gens), list),
            (lambda: closed_nodes(G, gens), naive_closed_nodes(G, gens), set)):
        assert same(build()) == same(naive)
        if len(naive) == 1:
            continue  # a cap below 1 would refuse the trivial subgroup
        # the cap trips on the node past it, as it did when every pair was closed
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lattice_mod, "SUBGROUP_ENUM_CAP", len(naive) - 1)
            with pytest.raises(CapacityError) as info:
                build()
        assert (info.value.check, info.value.witness) == ("subgroup_cap", len(naive))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lattice_mod, "SUBGROUP_ENUM_CAP", len(naive))
            assert same(build()) == same(naive)


def count_closures(monkeypatch, module):
    """The masks closure_mask is called on through module, as they come."""
    calls = []
    monkeypatch.setattr(module, "closure_mask", lambda G, m: calls.append(m) or closure_mask(G, m))
    return calls


@pytest.mark.parametrize("n", [360, 2520])
def test_normal_lattice_closes_once_per_node(monkeypatch, n):
    G = cyclic_group(n)
    calls = count_closures(monkeypatch, lattice_mod)
    L = normal_lattice(G)
    # at most one join closed per node found, and _first_non_normal's one per node
    assert len(calls) <= 2 * len(L)


def test_basis_sublattice_closes_once_per_node(monkeypatch):
    G = vector_space_group(2, 8)
    gens = [closure_mask(G, 1 << (1 << i)) for i in range(8)]
    calls = count_closures(monkeypatch, lattice_mod)
    L = closed_sublattice(G, gens)
    assert len(L) == 256
    assert len(calls) <= len(L) + len(gens)


def test_basis_sublattice_work_is_linear_in_the_irreducibles(monkeypatch):
    # the join closure of the lines and G, then rounds of meets with the
    # meet-irreducibles and joins with the join-irreducibles: no pair walk
    G = vector_space_group(2, 10)
    gens = [closure_mask(G, 1 << (1 << i)) for i in range(10)]
    calls = []
    for name in ("add", "add_join"):
        method = getattr(lattice_mod._JoinIndex, name)
        monkeypatch.setattr(lattice_mod._JoinIndex, name, lambda self, *args, method=method:
                            calls.append(1) or method(self, *args))
    L = closed_sublattice(G, gens)
    assert len(L) == 1024
    M, J = L.meet_irreducibles, L.join_irreducibles
    assert len(M) == len(J) == 10
    assert len(calls) <= len(L) * (len(gens) + 1 + len(M) + len(J))


def test_brute_force_oracle_skips_joins_it_has_made(monkeypatch):
    # each join <X, g> is one _dimino_step from the stored state of X; the
    # masks X | 1 << g are recorded as they come
    calls = []

    def step(G, elements, flags, gens, g):
        calls.append(mask_of(elements) | 1 << g)
        _dimino_step(G, elements, flags, gens, g)

    monkeypatch.setattr(oracle_mod, "_dimino_step", step)
    for G, most in ((dihedral_group(24), None), (dihedral_group(17), 40)):
        calls.clear()
        found = brute_force_normal_subgroups(G)
        assert len(found) == len(normal_lattice(G))
        cyclic = {closure_mask(G, 1 << g) for g in range(1, G.order)}
        subgroups = {1} | {closure_mask(G, m) for m in calls}
        pairs = sum(c & ~x != 0 for x in subgroups for c in cyclic)
        assert len(calls) < pairs
        if most is not None:
            # two reflections generate D17, of prime index 17 over either, so
            # the first such join from a reflection marks all of D17 joined
            assert len(calls) <= most


# ---------------------------------------------------------------------------
# Strict `nodes` input through the CLI: exit 1, category and check unchanged.


@pytest.mark.parametrize(
    "group, nodes, category, check",
    [
        ({"kind": "cyclic", "n": 12}, [[0], [0, 6], [0, 4, 8], list(range(12))],
         "ConstructionError", "join_closure"),
        ({"kind": "cyclic", "n": 12}, [[0], [0, 2, 4, 6, 8, 10], [0, 3, 6, 9], list(range(12))],
         "ConstructionError", "meet_closure"),
        ({"kind": "table", "mul": [list(r) for r in symmetric_group(3).mul]},
         [[0], [0, 1], list(range(6))], "ConstructionError", "normality"),
        ({"kind": "cyclic", "n": 12}, [[0], [0, 5], list(range(12))], "ArgumentError", "subgroup"),
        ({"kind": "cyclic", "n": 12}, [[0], [0, 99], list(range(12))], "ArgumentError", "shape"),
    ],
)
def test_strict_nodes_errors_exit1(tmp_path, capsys, group, nodes, category, check):
    (tmp_path / "g.json").write_text(json.dumps(group))
    (tmp_path / "s.json").write_text(json.dumps({"nodes": nodes}))
    code = main(["sct", "--group", str(tmp_path / "g.json"),
                 "--sublattice", str(tmp_path / "s.json")])
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 1
    assert error["category"] == category
    assert error.get("check") == check
    assert "witness" in error


def test_non_subgroup_generator_is_an_argument_error():
    with pytest.raises(ArgumentError) as info:
        closed_sublattice(cyclic_group(12), [mask_of([0, 5])])
    assert (info.value.check, info.value.witness) == ("subgroup", [0, 5])


# ---------------------------------------------------------------------------
# One order rule: meets and joins read off the up- and down-set masks agree
# with intersections and closure_mask joins, and the Birkhoff distributivity
# test agrees with the cubic scan it replaced.


def reference_order(L):
    """(meet, join) tables of L from masks: the intersection, and the node of
    closure_mask of the union."""
    masks = L.nodes
    index = {mask: i for i, mask in enumerate(masks)}
    meet = [[index[a & b] for b in masks] for a in masks]
    join = [[index[closure_mask(L.group, a | b)] for b in masks] for a in masks]
    return meet, join


def cubic_scan(L):
    """The first (k, a, b), b >= a, with k v (a ^ b) != (k v a) ^ (k v b),
    over reference tables, or None: the scan distributivity was once tested by."""
    meet, join = reference_order(L)
    m = len(L)
    for k in range(m):
        for a in range(m):
            for b in range(a, m):
                if join[k][meet[a][b]] != meet[join[k][a]][join[k][b]]:
                    return k, a, b
    return None


@PROPERTY
@given(drawn_lattices(), st.data())
def test_meet_and_join_follow_the_masks(L, data):
    masks = L.nodes
    index = {mask: i for i, mask in enumerate(masks)}
    meet, join = reference_order(L)
    m = len(L)
    for a in range(m):
        assert [L.meet(a, b) for b in range(m)] == L.meet_row(a) == meet[a]
        assert [L.join(a, b) for b in range(m)] == join[a]
        cover = reduce(or_, (masks[c] for c in L.covers(a)), masks[a])
        assert L.cover_join(a) == index[closure_mask(L.group, cover)]
    for _ in range(5):
        picked = data.draw(st.lists(st.integers(0, m - 1), max_size=4), label="nodes")
        chosen = [masks[i] for i in picked]
        assert L.meet_all(picked) == index[reduce(and_, chosen, masks[L.top])]
        assert L.join_all(picked) == index[closure_mask(L.group, reduce(or_, chosen, 1))]


@PROPERTY
@given(drawn_lattices())
def test_birkhoff_test_agrees_with_the_cubic_scan(L):
    expected = cubic_scan(L)
    assert distributive_analysis(L) is (expected is None)
    if expected is not None:
        assert _first_violation(L) == expected


def _antichain(L, pool, data):
    """A random antichain drawn from pool: nodes in a random order, each kept
    when it is incomparable with the ones kept before it."""
    picked = []
    for p in data.draw(st.permutations(pool), label="order")[:data.draw(st.integers(0, 4))]:
        if not any(L.leq(p, q) or L.leq(q, p) for q in picked):
            picked.append(p)
    return picked


@settings(PROPERTY, max_examples=80)
@given(drawn_lattices(), st.data())
def test_birkhoff_maps_are_bijections_onto_the_antichain(L, data):
    """product_to_cover_map: each lower cover of join(B) goes to the one member
    of B not below it.  cover_to_irreducible_map: each upper cover of meet(A)
    goes to the one member of A not above it.  Both are onto the antichain;
    a non-distributive lattice is refused."""
    if not distributive_analysis(L):
        for birkhoff_map in (product_to_cover_map, cover_to_irreducible_map):
            with pytest.raises(UnsupportedStructureError):
                birkhoff_map(L, [])
        return
    B = _antichain(L, L.join_irreducibles, data)
    mapping = product_to_cover_map(L, B)
    assert sorted(mapping) == lower_covers(L, L.join_all(B))
    assert sorted(mapping.values()) == sorted(B)
    for lower, k in mapping.items():
        assert [b for b in B if not L.leq(b, lower)] == [k]
    A = _antichain(L, L.meet_irreducibles, data)
    mapping = cover_to_irreducible_map(L, A)
    assert sorted(mapping) == sorted(L.covers_up[L.meet_all(A)])
    assert sorted(mapping.values()) == sorted(A)
    for upper, p in mapping.items():
        assert [a for a in A if not L.leq(upper, a)] == [p]


@pytest.mark.parametrize("name, kind, violation", [
    ("F3^2", "full", (1, 2, 3)),
    ("F2^3", "full", (1, 2, 3)),
    ("Q8xC4", "full", (1, 2, 3)),
    ("D4", "full", (2, 3, 4)),
    ("D6", "full", (1, 4, 5)),
    ("F2^3", "basis", None),
    ("F3^2", "basis", None),
    ("S4", "full", None),
])
def test_distributivity_verdicts_and_witnesses(name, kind, violation):
    L = fresh_lattice(name, kind)
    assert cubic_scan(L) == violation
    assert distributive_analysis(L) is (violation is None)
    if violation is not None:
        assert _first_violation(L) == violation


def reference_antichain(L, k):
    """The minimal meet-irreducibles above node k, from the masks: a node is
    meet-irreducible when the nodes strictly containing it have one minimal
    member."""
    masks = L.nodes

    def minimal(nodes):
        return [p for p in nodes if not any(q != p and masks[q] & masks[p] == masks[q]
                                            for q in nodes)]

    def strictly_above(p):
        return [q for q in range(len(masks)) if q != p and masks[p] & masks[q] == masks[p]]

    irreducible = [p for p in range(len(masks)) if len(minimal(strictly_above(p))) == 1]
    return tuple(minimal([p for p in irreducible if masks[k] & masks[p] == masks[k]]))


@settings(PROPERTY, max_examples=80)
@given(drawn_lattices())
def test_birkhoff_antichain_is_the_minimal_irreducibles_above_the_node(L):
    if not distributive_analysis(L):
        return
    for k in range(len(L)):
        antichain = birkhoff_antichain(L, k)
        assert antichain == reference_antichain(L, k), k
        assert reduce(and_, map(L.nodes.__getitem__, antichain), L.nodes[L.top]) == L.nodes[k]
        assert L.meet_all(antichain) == k


def test_lattice_command_searches_no_witness(tmp_path, capsys, monkeypatch):
    """The lattice command answers distributivity yes or no: the witness
    search runs only when an operation refuses."""
    def searched(L):
        raise AssertionError("the witness of a violation was searched")

    monkeypatch.setattr(lattice_mod, "_first_violation", searched)
    spec = GroupSpec.product([quaternion_group().spec, GroupSpec.cyclic(4)]).to_json()
    (tmp_path / "g.json").write_text(json.dumps(spec))
    assert main(["lattice", "--group", str(tmp_path / "g.json")]) == 0
    assert json.loads(capsys.readouterr().out)["distributive"] is False


def test_witness_scan_without_a_violation_is_an_internal_error():
    with pytest.raises(InternalConsistencyError) as info:
        _first_violation(fresh_lattice("F2^3", "basis"))
    assert info.value.check == "distributivity"


@PROPERTY
@given(drawn_lattices(), st.data())
def test_strict_nodes_missing_a_node_fail_on_the_first_unclosed_pair(L, data):
    inner = [i for i in range(len(L)) if i not in (L.bottom, L.top)]
    if not inner:
        return
    dropped = data.draw(st.sampled_from(inner), label="dropped")
    masks = {s for i, s in enumerate(L.nodes) if i != dropped}
    expected = first_unclosed_pair(L.group, masks)
    nodes = list(masks)
    if expected is None:
        assert set(NormalLattice(L.group, nodes).nodes) == masks
        return
    with pytest.raises(ConstructionError) as info:
        NormalLattice(L.group, nodes)
    assert (info.value.check, info.value.witness) == expected


@pytest.mark.parametrize("group, source, phi, witness", [
    ("F3^2", {"kind": "cyclic", "n": 3}, [0, 1, 2], [1, 2, 3]),
    ("D6", {"kind": "cyclic", "n": 2}, [0, 3], [1, 4, 5]),
    ("F2^2", {"kind": "cyclic", "n": 2}, [0, 1], [1, 2, 3]),
    ("Q8xC4", {"kind": "cyclic", "n": 2}, [0, 2], [1, 2, 3]),
])
def test_restrict_on_a_non_distributive_lattice_exits1_with_the_witness(
        tmp_path, capsys, group, source, phi, witness):
    spec = {"F3^2": lambda: GroupSpec.vector_space(3, 2), "D6": lambda: dihedral_group(6).spec,
            "F2^2": lambda: GroupSpec.vector_space(2, 2),
            "Q8xC4": lambda: GroupSpec.product([quaternion_group().spec, GroupSpec.cyclic(4)]),
            }[group]().to_json()
    files = {"g": spec, "e": {"source": source, "map": phi}, "a": {"node": [0]}}
    for name, payload in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    code = main(["restrict", "--group", str(tmp_path / "g.json"),
                 "--embedding", str(tmp_path / "e.json"), "--anchor", str(tmp_path / "a.json")])
    assert code == 1
    assert capsys.readouterr().out == json.dumps({"error": {
        "category": "UnsupportedStructureError",
        "check": "distributivity",
        "message": "operation requires a distributive lattice",
        "witness": witness,
    }}, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Basis lattices: closed_sublattice of the lines F_q e_i.


@pytest.mark.parametrize("q, dim", [(2, 4), (3, 3), (4, 3), (8, 2), (9, 2)])
def test_basis_spans_match_decoded_coordinates(q, dim):
    L = basis_lattice(q, dim)
    G = L.group

    def decoded_span(subset):
        return mask_of(v for v in range(G.order)
                       if all(c == 0 for i, c in enumerate(coordinates(G, v)) if i not in subset))

    subsets = [{i for i in range(dim) if (bits >> i) & 1} for bits in range(1 << dim)]
    assert set(L.nodes) == {decoded_span(subset) for subset in subsets}
    for subset in subsets:
        assert L.nodes[basis_node(L, subset)] == decoded_span(subset)
