from math import gcd

import pytest

from latsuper import (
    ArgumentError,
    ConstructionError,
    NormalLattice,
    UnsupportedStructureError,
    birkhoff_antichain,
    cover_to_irreducible_map,
    distributive_analysis,
    is_general_position,
    normal_lattice,
)
from latsuper.cli import _lattice_of
from latsuper.groups import mask_of
from latsuper.lattice import (
    _first_violation,
    closed_sublattice,
    lattice_to_dot,
    lattice_to_json,
)

from corpus import (
    basis_lattice,
    basis_node,
    cyclic_group,
    cyclic_lattice,
    d4_lattice,
    divisors,
    lower_covers,
    node_of_size,
    product_to_cover_map,
    q8_lattice,
    reference_moebius_row,
    s3_lattice,
    small_corpus,
    subsp_lattice,
    symmetric_group,
)


def test_cyclic_lattice_is_divisor_lattice():
    L = cyclic_lattice(12)
    assert len(L) == 6
    assert sorted(L.size(i) for i in range(len(L))) == divisors(12)
    # order relation mirrors divisibility
    for i in range(len(L)):
        for j in range(len(L)):
            assert L.leq(i, j) == (L.size(j) % L.size(i) == 0)


def test_trivial_group_lattice():
    L = cyclic_lattice(1)
    assert len(L) == 1
    assert L.bottom == L.top


def test_s3_lattice_is_chain():
    L = s3_lattice()
    assert [L.size(i) for i in range(len(L))] == [1, 3, 6]
    assert L.covers(0) == [1] and L.covers(1) == [2]


def test_sublattice_closure_examples():
    L = cyclic_lattice(12)
    trivial = closed_sublattice(L.group, [])
    assert sorted(trivial.size(i) for i in range(len(trivial))) == [1, 12]
    gens = [node_of_size(L, 2), node_of_size(L, 3)]
    closed = closed_sublattice(L.group, [L.nodes[i] for i in gens])
    assert sorted(closed.size(i) for i in range(len(closed))) == [1, 2, 3, 6, 12]
    again = closed_sublattice(L.group, L.nodes)
    assert len(again) == len(L)


def test_bounds():
    # join and meet of a node set; the empty set gives the bottom and the top
    L = cyclic_lattice(12)
    c4, c6 = node_of_size(L, 4), node_of_size(L, 6)
    over, under = L.join_all([c4, c6]), L.meet_all([c4, c6])
    assert L.size(over) == 12 and L.size(under) == 2
    assert L.join_all([c4]) == L.meet_all([c4]) == c4
    LS = s3_lattice()
    assert (LS.join_all([1, 2]), LS.meet_all([1, 2])) == (2, 1)
    assert (L.join_all([]), L.meet_all([])) == (L.bottom, L.top)


def test_moebius_examples():
    L = cyclic_lattice(12)
    for i in range(len(L)):
        assert reference_moebius_row(L, i)[i] == 1
    assert reference_moebius_row(L, L.bottom)[node_of_size(L, 4)] == 0
    assert reference_moebius_row(L, node_of_size(L, 2))[L.top] == 1
    # mu(N, O) is defined for N <= O only: the row of N holds no other node
    assert set(reference_moebius_row(L, node_of_size(L, 4))) == {node_of_size(L, 4),
                                                                  node_of_size(L, 12)}


def test_moebius_sum_identity():
    # for N < O, the sums of mu(N, P) and of mu(P, O) over N <= P <= O are zero:
    # the recursion on the lower end gives the same mu as on the upper end
    for _, L in small_corpus():
        rows = [reference_moebius_row(L, n) for n in range(len(L))]
        for n in range(len(L)):
            for o in range(len(L)):
                if L.leq(n, o) and n != o:
                    assert sum(rows[n][p] for p in L.interval(n, o)) == 0
                    assert sum(rows[p][o] for p in L.interval(n, o)) == 0


def test_modularity_on_corpus():
    for _, L in small_corpus():
        m = len(L)
        for i in range(m):
            for j in range(m):
                if not L.leq(i, j):
                    continue
                for k in range(m):
                    assert L.meet(L.join(i, k), j) == L.join(i, L.meet(k, j))


def test_meet_join_closure_on_corpus():
    for _, L in small_corpus():
        masks = set(L.nodes)
        for i in range(len(L)):
            for j in range(len(L)):
                assert L.nodes[L.meet(i, j)] == L.nodes[i] & L.nodes[j]
                assert L.nodes[L.join(i, j)] in masks


def test_distributive_analysis_cyclic12():
    L = cyclic_lattice(12)
    assert distributive_analysis(L)
    # meet irreducibles: C_m with 12/m a prime power
    labels = sorted(L.size(i) for i in L.meet_irreducibles)
    assert labels == [m for m in divisors(12) if m != 12 and _is_prime_power(12 // m)]
    for k in range(len(L)):
        ac = birkhoff_antichain(L, k)
        assert L.meet_all(ac) == k


def _is_prime_power(n):
    if n < 2:
        return False
    p = next(d for d in range(2, n + 1) if n % d == 0)
    while n % p == 0:
        n //= p
    return n == 1


def test_subsp_f22_not_distributive():
    L = subsp_lattice(2, 2)
    assert not distributive_analysis(L)
    assert _first_violation(L) is not None


def test_basis_lattice_is_subset_lattice():
    for q, dim in ((2, 2), (2, 3), (3, 2)):
        L = basis_lattice(q, dim)
        assert len(L) == 2**dim
        assert distributive_analysis(L)
        assert len(L.meet_irreducibles) == dim


def test_birkhoff_antichain_count():
    # number of nodes equals the number of antichains of the meet-irreducible poset
    for _, L in small_corpus():
        if not distributive_analysis(L) or len(L.meet_irreducibles) > 12:
            continue
        mi = list(L.meet_irreducibles)
        count = 0
        for subset in range(1 << len(mi)):
            chosen = [mi[i] for i in range(len(mi)) if (subset >> i) & 1]
            if all(
                not L.leq(a, b)
                for a in chosen
                for b in chosen
                if a != b
            ):
                count += 1
        assert count == len(L)


def test_general_position_examples():
    L = cyclic_lattice(12)
    assert is_general_position(L, [L.covers(L.bottom)[0]], L.bottom)
    assert is_general_position(L, L.covers(L.bottom), L.bottom)
    LV = subsp_lattice(2, 2)
    lines = LV.covers(LV.bottom)
    assert len(lines) == 3
    assert not is_general_position(LV, lines, LV.bottom)
    with pytest.raises(ArgumentError):
        is_general_position(L, [L.top], L.bottom)


def test_general_position_on_distributive_covers():
    # distributivity makes every cover set of a node general position
    for _, L in small_corpus():
        if not distributive_analysis(L):
            continue
        for n in range(len(L)):
            if L.covers(n):
                assert is_general_position(L, L.covers(n), n)


def test_product_to_cover_map():
    L = cyclic_lattice(12)
    assert distributive_analysis(L)
    c4, c3 = node_of_size(L, 4), node_of_size(L, 3)
    assert c4 in L.join_irreducibles and c3 in L.join_irreducibles
    mapping = product_to_cover_map(L, [c4, c3])
    join = L.join(c4, c3)
    assert join == L.top
    assert sorted(mapping) == lower_covers(L, join)
    assert sorted(mapping.values()) == sorted([c4, c3])
    # singleton
    single = product_to_cover_map(L, [c4])
    assert single == {lower_covers(L, c4)[0]: c4}


def test_product_to_cover_map_f23_basis():
    L = basis_lattice(2, 3)
    a, b = basis_node(L, [0]), basis_node(L, [1])
    mapping = product_to_cover_map(L, [a, b])
    join = L.join(a, b)
    assert set(mapping) == set(lower_covers(L, join))
    assert set(mapping.values()) == {a, b}


def test_cover_to_irreducible_map():
    L = cyclic_lattice(12)
    c4, c6 = node_of_size(L, 4), node_of_size(L, 6)
    mapping = cover_to_irreducible_map(L, [c4, c6])
    under = L.meet(c4, c6)
    assert L.size(under) == 2
    assert sorted(mapping) == sorted(L.covers(under))
    assert sorted(mapping.values()) == sorted([c4, c6])
    # singleton: unique cover of P maps back to P
    single = cover_to_irreducible_map(L, [c4])
    assert single == {L.covers(c4)[0]: c4}


def test_cover_to_irreducible_map_c60():
    L = cyclic_lattice(60)
    nodes = [node_of_size(L, 12), node_of_size(L, 20), node_of_size(L, 15)]
    mapping = cover_to_irreducible_map(L, nodes)
    under = L.meet_all(nodes)
    assert L.size(under) == gcd(12, gcd(20, 15))
    assert sorted(mapping) == sorted(L.covers(under))
    assert sorted(mapping.values()) == sorted(nodes)


def test_birkhoff_ops_reject_non_distributive():
    LV = subsp_lattice(2, 2)
    with pytest.raises(UnsupportedStructureError):
        product_to_cover_map(LV, [LV.covers(LV.bottom)[0]])
    with pytest.raises(UnsupportedStructureError):
        cover_to_irreducible_map(LV, [LV.covers(LV.bottom)[0]])


def test_cover_meet_lemma_on_corpus():
    # join(C(M)) meet join(C(N)) = join(C(M meet N)), with join over the base node
    for name, L in small_corpus():
        for m in range(len(L)):
            cj_m = L.cover_join(m)
            for n in range(len(L)):
                lhs = L.meet(cj_m, L.cover_join(n))
                assert lhs == L.cover_join(L.meet(m, n)), (name, m, n)


def test_lattice_rejects_non_closed_nodes():
    G = cyclic_group(12)
    nodes = [
        mask_of([0]),
        mask_of([0, 6]),
        mask_of([0, 4, 8]),
        mask_of(range(12)),
    ]
    with pytest.raises(ConstructionError) as info:
        NormalLattice(G, nodes)
    assert info.value.check == "join_closure"


def test_lattice_rejects_missing_bounds():
    G = cyclic_group(12)
    with pytest.raises(ConstructionError) as info:
        NormalLattice(G, [mask_of([0, 6]), mask_of(range(12))])
    assert (info.value.check, info.value.witness) == ("lattice_bounds", [0])
    with pytest.raises(ConstructionError) as info:
        NormalLattice(G, [1, mask_of([0, 6])])
    assert (info.value.check, info.value.witness) == ("lattice_bounds", list(range(12)))


def test_closed_sublattice_rejects_non_normal():
    S3 = symmetric_group(3)
    with pytest.raises(ArgumentError) as info:
        closed_sublattice(S3, [mask_of([0, 1])])
    assert (info.value.check, info.value.witness) == ("normality", [0, 1])


def test_lattice_json_roundtrip():
    L = cyclic_lattice(12)
    data = lattice_to_json(L)
    again = _lattice_of(L.group, {"nodes": data["nodes"]})
    assert again.nodes == L.nodes
    assert data["hasse"] == lattice_to_json(again)["hasse"]


def test_dot_export():
    dot = lattice_to_dot(s3_lattice())
    assert dot.startswith("digraph lattice {")
    assert '"1:N0"' in dot and '"6:N2"' in dot
    assert dot.count("->") == 2


def test_nonabelian_lattices():
    LD = d4_lattice()
    LQ = q8_lattice()
    assert sorted(LD.size(i) for i in range(len(LD))) == [1, 2, 4, 4, 4, 8]
    assert sorted(LQ.size(i) for i in range(len(LQ))) == [1, 2, 4, 4, 4, 8]
    assert not distributive_analysis(LQ)
