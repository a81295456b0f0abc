import tracemalloc
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd
from operator import or_

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latsuper import (
    AmbiguityError,
    ArgumentError,
    FormulaInapplicableError,
    GroupSpec,
    InternalConsistencyError,
    LatsuperError,
    VerificationError,
    build_theory,
    chi_bullet_multiplicative,
    chi_subgroup,
    degree_sum,
    distributive_analysis,
    inner_product,
    make_group,
    normal_lattice,
    verify_sct,
)
from latsuper.groups import _bits
from latsuper.lattice import closed_sublattice, is_general_position

from corpus import (
    DRAWN_GROUPS,
    basis_sublattice,
    cyclic_group,
    cyclic_lattice,
    d4_lattice,
    degree_sum_case,
    dihedral_group,
    drawn_lattices,
    node_of_size,
    prime_factors,
    q8_lattice,
    quaternion_group,
    ramanujan_sum,
    rebuilt_rows,
    reference_inner_product,
    reference_moebius_row,
    s3_lattice,
    small_corpus,
    subsp_lattice,
    symmetric_group,
    vector_space_group,
)


def by_block(L, row):
    """A row over the block nodes as a dict from block node to value."""
    return dict(zip(build_theory(L).nodes, row))


def column(theory, b):
    """The column of block node b in the rows of theory."""
    return theory.nodes.index(b)


def blocks_by_label(L):
    part = build_theory(L).partition
    return {L.node_label(n): sorted(_bits(m)) for n, m in part.blocks.items()}


def test_superclasses_cyclic6():
    L = cyclic_lattice(6)
    assert blocks_by_label(L) == {
        "C1": [0],
        "C2": [3],
        "C3": [2, 4],
        "C6": [1, 5],
    }


def test_superclasses_subsp_counts():
    for q, n in ((2, 2), (3, 2), (2, 3)):
        L = subsp_lattice(q, n)
        part = build_theory(L).partition
        assert len(part.blocks) == 1 + (q**n - 1) // (q - 1)


def test_superclasses_trivial_lattice():
    L = cyclic_lattice(12)
    trivial = closed_sublattice(L.group, [])
    part = build_theory(trivial).partition
    blocks = sorted(m.bit_count() for m in part.blocks.values())
    assert blocks == [1, 11]


def test_superclasses_partition_group():
    for _, L in small_corpus():
        part = build_theory(L).partition
        union = 0
        total = 0
        for m in part.blocks.values():
            assert union & m == 0
            union |= m
            total += m.bit_count()
        assert total == L.group.order
        assert part.blocks[L.bottom] == 1


def test_superclasses_that_miss_an_element_are_refused():
    # a top node that lost the generator 5 of C6: no block holds 5
    L = normal_lattice(cyclic_group(6))
    L.nodes[L.top] &= ~(1 << 5)
    with pytest.raises(InternalConsistencyError) as info:
        build_theory(L)
    assert (info.value.check, str(info.value), info.value.witness) == (
        "superclass_partition", "superclasses do not cover the group", None)


def test_superclasses_are_unions_of_conjugacy_classes():
    from latsuper import conjugacy_classes

    for _, L in small_corpus():
        classes = conjugacy_classes(L.group)
        part = build_theory(L).partition
        for m in part.blocks.values():
            for c in classes:
                assert c & m == 0 or c & m == c


def test_chi_subgroup_examples():
    L = cyclic_lattice(6)
    top = chi_subgroup(L, L.top)
    assert all(v == 1 for v in top)
    bottom = by_block(L, chi_subgroup(L, L.bottom))
    assert bottom[L.bottom] == 6
    assert all(v == 0 for b, v in bottom.items() if b != L.bottom)
    c3 = node_of_size(L, 3)
    chi3 = by_block(L, chi_subgroup(L, c3))
    assert chi3 == {
        L.bottom: Fraction(2),
        node_of_size(L, 2): Fraction(0),
        c3: Fraction(2),
        L.top: Fraction(0),
    }


def test_chi_bullet_top_is_trivial_character():
    for _, L in small_corpus():
        chi = rebuilt_rows(L)[L.top]
        assert all(v == 1 for v in chi)


def test_chi_bullet_s3_values():
    L = s3_lattice()
    chi = rebuilt_rows(L)[L.bottom]
    assert chi == [4, -2, 0]


def test_chi_bullet_cyclic6_is_ramanujan():
    L = cyclic_lattice(6)
    chi = rebuilt_rows(L)[L.bottom]
    values = {L.size(b): v for b, v in by_block(L, chi).items()}
    assert values == {1: 2, 2: -2, 3: -1, 6: 1}
    # matches the number-theoretic oracle: block of C_d holds elements of order d
    for d in (1, 2, 3, 6):
        assert values[d] == ramanujan_sum(6, 6 // d)


def test_chi_bullet_multiplicative_degree_phi():
    L = cyclic_lattice(12)
    chi = chi_bullet_multiplicative(L, L.bottom)
    assert chi[0] == 4  # = phi(12)


def test_chi_bullet_multiplicative_guards():
    L = cyclic_lattice(12)
    with pytest.raises(FormulaInapplicableError):
        chi_bullet_multiplicative(L, L.top)
    LV = subsp_lattice(2, 2)
    with pytest.raises(FormulaInapplicableError):
        chi_bullet_multiplicative(LV, LV.bottom)


def test_hyperplane_character_values():
    for q, n in ((2, 2), (3, 2), (2, 3), (3, 3)):
        L = subsp_lattice(q, n)
        part = build_theory(L).partition
        rows = rebuilt_rows(L)
        hyperplanes = [u for u in range(len(L)) if L.size(u) == q ** (n - 1)]
        for u in hyperplanes:
            chi = by_block(L, rows[u])
            for b in part.blocks:
                expected = q - 1 if L.leq(b, u) else -1
                assert chi[b] == expected


def test_dual_path_equivalence_small_corpus():
    for name, L in small_corpus():
        rows = rebuilt_rows(L)
        for n in range(len(L)):
            try:
                chi = chi_bullet_multiplicative(L, n)
            except FormulaInapplicableError:
                continue
            assert chi == rows[n], (name, n)


def test_partition_of_unity():
    for _, L in small_corpus():
        theory = build_theory(L)
        for n in range(len(L)):
            acc = {b: Fraction(0) for b in theory.partition.blocks}
            for o in range(len(L)):
                if L.leq(n, o):
                    for b, v in zip(theory.nodes, theory.rows[o]):
                        acc[b] += v
            assert acc == by_block(L, chi_subgroup(L, n))


def test_integrality():
    for _, L in small_corpus():
        theory = build_theory(L)
        for n in theory.nonzero:
            assert all(v.denominator == 1 for v in theory.rows[n])


def test_nonzero_chars_have_positive_degree():
    for _, L in small_corpus():
        theory = build_theory(L)
        for n in theory.nonzero:
            assert theory.rows[n][0] > 0
        if distributive_analysis(L):
            assert len(theory.nonzero) == len(L.nodes)
            assert len(theory.partition.blocks) == len(L.nodes)


def test_inner_products():
    """|G| <f, chi> as ints, one list over fs per nonzero chi."""
    L = s3_lattice()
    theory = build_theory(L)
    top, bottom = theory.rows[L.top], theory.rows[L.bottom]
    products = dict(zip(theory.nonzero, inner_product(theory, [top, bottom])))
    assert products[L.top] == [6, 0]
    assert products[L.bottom] == [0, 24]  # 16 + 2*4
    other = build_theory(cyclic_lattice(6))
    with pytest.raises(ArgumentError):
        inner_product(theory, [top, other.rows[other.nonzero[0]]])


def test_orthogonality_small_corpus():
    for _, L in small_corpus():
        theory = build_theory(L)
        chars = [theory.rows[n] for n in theory.nonzero]
        for i, dots in enumerate(inner_product(theory, chars)):
            assert dots[i] > 0
            assert not any(dots[:i]) and not any(dots[i + 1:])


@settings(max_examples=60, deadline=None)
@given(drawn_lattices(), st.data())
def test_the_gram_of_the_rows_is_their_degrees_times_the_order(L, data):
    """R D R^T = |G| diag(R[n][0]) over the nonzero rows, exactly: the identity
    that verify_sct's orthogonality proof derives instead of computing it."""
    theory = build_theory(L)
    order, rows, nonzero = L.group.order, theory.rows, theory.nonzero
    assert all(rows[n][0] > 0 for n in nonzero)
    assert inner_product(theory, [rows[n] for n in nonzero]) == [
        [order * rows[n][0] if o == n else 0 for o in nonzero] for n in nonzero]
    pair = st.tuples(st.sampled_from(nonzero), st.sampled_from(nonzero))
    for n, o in data.draw(st.lists(pair, min_size=1, max_size=3)):
        assert reference_inner_product(theory, rows[n], rows[o]) == (rows[n][0] if n == o else 0)


def test_degree_sum_cases():
    L = cyclic_lattice(12)
    c2, c3, c4, c6 = (node_of_size(L, s) for s in (2, 3, 4, 6))
    # disjoint case: KM meet L != K
    r = degree_sum(L, c4, c3, c2)
    assert r.value == 0 and degree_sum_case(L, c4, c3, c2) == "disjoint"
    # telescoping: L = K = M sums over all N >= M
    r = degree_sum(L, c2, c2, c2)
    assert r.value == 6 and degree_sum_case(L, c2, c2, c2) == "no_covers"
    # L = G, K = M gives the degree of chi^{M.}
    theory = build_theory(L)
    for m in range(len(L)):
        r = degree_sum(L, m, L.top, m)
        if r.closed_form_applicable:
            assert r.value == theory.rows[m][0]
    # spec example: K = C2, L = C6, M = C2 sums degrees over {C2, C4}
    r = degree_sum(L, c2, c6, c2)
    expected = theory.rows[c2][0] + theory.rows[c4][0]
    assert r.closed_form_applicable and r.value == expected


def test_degree_sum_inapplicable_still_returns_brute_force():
    # on ker(Q8) the three atoms over the center are not in general position;
    # the closed form would give 1 while the true sum is chi^{Z.}(1) = 0
    LQ = q8_lattice()
    theory = build_theory(LQ)
    z = node_of_size(LQ, 2)
    r = degree_sum(LQ, z, LQ.top, z)
    assert not r.closed_form_applicable
    assert r.value == theory.rows[z][0] == 0


def test_degree_sum_all_triples_small():
    for L in (cyclic_lattice(12), s3_lattice(), d4_lattice()):
        m = len(L)
        for k in range(m):
            for lnode in range(m):
                for mm in range(m):
                    degree_sum(L, k, lnode, mm)  # internal cross-check must not raise


def test_degree_sum_rejects_a_tampered_theory():
    # one more at the degree of the trivial character: the node scan over
    # N >= 1 with N meet 1 = 1 reads 13, the closed form |G| = 12
    L = FRESH["C12"]()
    build_theory(L).rows[L.top][0] += 1
    with pytest.raises(InternalConsistencyError) as info:
        degree_sum(L, 0, 0, 0)
    assert (info.value.check, str(info.value), info.value.witness) == (
        "degree_sum", "degree-sum closed form disagrees with the node scan",
        {"K": 0, "L": 0, "M": 0, "closed": "12", "brute": "13"})


def test_verify_sct_corpus():
    for name, L in small_corpus():
        report = verify_sct(L)
        assert report["SC1"] == "pass", name
        assert report["SC2"] == "pass", name
        theory = build_theory(L)
        assert len(theory.nonzero) == len(theory.partition.blocks), name


def test_verify_sct_trivial_lattice_c2():
    L = cyclic_lattice(2)
    verify_sct(L)
    theory = build_theory(L)
    assert len(theory.nonzero) == 2
    values = sorted(tuple(int(v) for v in theory.rows[n]) for n in theory.nonzero)
    assert values == [(1, -1), (1, 1)]


def test_verify_sct_c12_sublattice():
    L = cyclic_lattice(12)
    sub = closed_sublattice(L.group, [L.nodes[node_of_size(L, s)] for s in (2, 3)])
    verify_sct(sub)
    theory = build_theory(sub)
    assert len(theory.partition.blocks) == 5
    assert len(theory.nonzero) == 5


def test_build_theory_memory_on_the_f2_8_basis_lattice():
    """256 rows of 256 ints and the partition: one list per row, no dict per
    character and no copy of the table.  The lattice is a new object: a cached
    one would return its theory without allocating."""
    L = basis_sublattice(vector_space_group(2, 8))
    tracemalloc.start()
    try:
        theory = build_theory(L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(theory.rows) == len(theory.nodes) == 256
    assert peak < 2**20


def test_cyclic_closed_form_identity():
    # chi^b(x^(n/a)) = (n/b) prod_{p in O}(-1/p) prod_{p in P_b - O}(1 - 1/p)
    # with O minimal such that a | b * prod(O); zero when no such O exists
    for n in (6, 12, 30, 36, 40):
        L = cyclic_lattice(n)
        theory = build_theory(L)
        for b in (d for d in range(1, n + 1) if n % d == 0):
            chi = by_block(L, theory.rows[node_of_size(L, b)])
            p_b = [p for p in prime_factors(n) if (p * b) and n % (p * b) == 0]
            for a in (d for d in range(1, n + 1) if n % d == 0):
                g = (n // a) % n
                actual = chi[theory.partition.block_of[g]]
                best = None
                for subset in range(1 << len(p_b)):
                    prod = 1
                    for i in range(len(p_b)):
                        if (subset >> i) & 1:
                            prod *= p_b[i]
                    if (b * prod) % a == 0:
                        if best is None or prod < best[1]:
                            best = (subset, prod)
                if best is None:
                    assert actual == 0, (n, b, a)
                    continue
                subset, _ = best
                chosen = {p_b[i] for i in range(len(p_b)) if (subset >> i) & 1}
                value = Fraction(n, b)
                for p in p_b:
                    value *= Fraction(-1, p) if p in chosen else (1 - Fraction(1, p))
                assert actual == value, (n, b, a)


# ---------------------------------------------------------------------------
# The integer character table against a Fraction reference built by naive
# recursive Moebius inversion, on random closed sublattices.

SMALL_GROUPS = {
    "C12": lambda: cyclic_group(12),
    "C30": lambda: cyclic_group(30),
    "F2^3": lambda: vector_space_group(2, 3),
    "F3^2": lambda: vector_space_group(3, 2),
    "S4": lambda: symmetric_group(4),
    "D6": lambda: dihedral_group(6),
    "Q8": quaternion_group,
}


@lru_cache(maxsize=None)
def full_lattice_of(name):
    return normal_lattice(SMALL_GROUPS[name]())


def reference_value(L, n, b):
    """chi^{N.} at the block of node b: sum of mu(N,O) |G|/|O| over the nodes
    O above N and b, with mu by the recursion of reference_moebius_row."""
    order = L.group.order
    return sum((mu * Fraction(order, L.size(o)) for o, mu in reference_moebius_row(L, n).items()
                if L.leq(b, o)), Fraction(0))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(SMALL_GROUPS)), st.data())
def test_integer_rows_match_a_fraction_reference(name, data):
    full = full_lattice_of(name)
    picks = data.draw(st.sets(st.integers(0, len(full.nodes) - 1), max_size=3))
    L = closed_sublattice(full.group, [full.nodes[i] for i in sorted(picks)])
    theory = build_theory(L)
    nodes, sizes, rows = theory.nodes, theory.sizes, theory.rows
    # the blocks N_o, each node less every smaller node, in node order
    blocks = {i: L.nodes[i] & ~reduce(or_, (L.nodes[j] for j in range(i) if L.leq(j, i)), 0)
              for i in range(len(L.nodes))}
    blocks = {b: mask for b, mask in blocks.items() if mask}
    assert list(theory.partition.blocks.items()) == list(blocks.items()) and nodes == list(blocks)
    assert sizes == [mask.bit_count() for mask in blocks.values()]
    assert theory.partition.block_of == [next(b for b, mask in blocks.items() if mask >> g & 1)
                                         for g in range(L.group.order)]
    assert len(rows) == len(L.nodes)
    assert theory.nonzero == [n for n in range(len(L.nodes)) if any(rows[n])]
    for n in range(len(L.nodes)):
        assert rows[n] == [reference_value(L, n, b) for b in nodes], (name, picks, n)
        assert all(type(v) is int for v in rows[n])


NOT_DISTRIBUTIVE = {
    "F2^4": lambda: vector_space_group(2, 4),
    "D8": lambda: dihedral_group(8),
    "C2xC4xC3": lambda: make_group(GroupSpec.product([GroupSpec.cyclic(n) for n in (2, 4, 3)])),
    "Q8xC4": DRAWN_GROUPS["Q8xC4"],
}


def unskipped_recurrence(L):
    """row[x] -= row[x v p] for every join-irreducible p and node x not above
    p, with no skip: the Moebius inversion on distributive lattices only."""
    rows = [chi_subgroup(L, n) for n in range(len(L.nodes))]
    for p in reversed(L.join_irreducibles):
        for x in range(len(rows)):
            if not L.leq(p, x):
                rows[x] = [a - b for a, b in zip(rows[x], rows[L.join(x, p)])]
    return rows


@pytest.mark.parametrize("name", sorted(NOT_DISTRIBUTIVE))
def test_transform_is_exact_where_the_distributive_recurrence_is_not(name):
    L = normal_lattice(NOT_DISTRIBUTIVE[name]())
    assert not distributive_analysis(L)
    theory = build_theory(L)
    reference = [[reference_value(L, n, b) for b in theory.nodes] for n in range(len(L.nodes))]
    assert theory.rows == reference, name
    assert unskipped_recurrence(L) != reference, name


# ---------------------------------------------------------------------------
# Tampered theories fail verify_sct with a fixed check, message and first
# witness.  The lattices are built afresh, because tampering changes the
# cached theory.


def raise_value(theory):
    """Add 1 to the last nonzero character at the last block."""
    theory.rows[theory.nonzero[-1]][-1] += 1


def add_a_half(theory):
    """Add 1/2 to the last nonzero character at the last block."""
    theory.rows[theory.nonzero[-1]][-1] += Fraction(1, 2)


def raise_zero_character(theory):
    """Add 1 to the first zero character at the last block."""
    zero = next(row for row in theory.rows if not any(row))
    zero[-1] += 1


def compensating_pair(theory):
    """Add 1 to the second nonzero character and subtract 1 from the third,
    both at the last block: the sum over the bottom's up-set stays as it was."""
    theory.rows[theory.nonzero[1]][-1] += 1
    theory.rows[theory.nonzero[2]][-1] -= 1


def zero_last_character(theory):
    """Zero the last nonzero character; theory.nonzero still lists it."""
    row = theory.rows[theory.nonzero[-1]]
    row[:] = [0] * len(row)


def zero_first_character(theory):
    """Zero the first nonzero character; theory.nonzero still lists it."""
    row = theory.rows[theory.nonzero[0]]
    row[:] = [0] * len(row)


def negate_character(theory):
    """Negate the last nonzero character, degree included."""
    row = theory.rows[theory.nonzero[-1]]
    row[:] = [-v for v in row]


def merge_into_identity_block(theory):
    """Add element 1 to the identity block."""
    theory.partition.blocks[0] |= 1 << 1


def drop_a_character(theory):
    """Remove the last node from theory.nonzero."""
    theory.nonzero.pop()


FRESH = {
    "C12": lambda: normal_lattice(cyclic_group(12)),
    "F3^2 basis": lambda: basis_sublattice(vector_space_group(3, 2)),
    "F2^2": lambda: normal_lattice(vector_space_group(2, 2)),
    "S4": lambda: normal_lattice(symmetric_group(4)),
    "Q8": lambda: normal_lattice(quaternion_group()),
}
ZETA_AT_0 = ("sum of chi^{O.} over O >= 0 does not give chi^N", {"node": 0})


# A tampered row that keeps its degree positive fails subgroup_decomposition
# at the first node whose up-set sum it changes: the bottom lies under every
# row, so that is node 0 unless the changes cancel there, as a compensating
# pair's do.
@pytest.mark.parametrize("name, tamper, check, message, witness", [
    ("C12", raise_value, "subgroup_decomposition", *ZETA_AT_0),
    ("F3^2 basis", raise_value, "subgroup_decomposition", *ZETA_AT_0),
    ("S4", raise_value, "subgroup_decomposition", *ZETA_AT_0),
    ("Q8", raise_value, "subgroup_decomposition", *ZETA_AT_0),
    ("C12", add_a_half, "integrality", "non-integer supercharacter value 3/2 at node 5",
     {"node": 5, "value": "3/2"}),
    ("S4", add_a_half, "integrality", "non-integer supercharacter value 3/2 at node 3",
     {"node": 3, "value": "3/2"}),
    ("F2^2", add_a_half, "integrality", "non-integer supercharacter value 3/2 at node 4",
     {"node": 4, "value": "3/2"}),
    ("Q8", raise_zero_character, "subgroup_decomposition",
     "sum of chi^{O.} over O >= 0 does not give chi^N", {"node": 0}),
    ("F2^2", raise_zero_character, "subgroup_decomposition",
     "sum of chi^{O.} over O >= 0 does not give chi^N", {"node": 0}),
    ("C12", zero_last_character, "subgroup_decomposition", *ZETA_AT_0),
    ("S4", zero_last_character, "subgroup_decomposition", *ZETA_AT_0),
    ("F2^2", zero_first_character, "subgroup_decomposition", *ZETA_AT_0),
    ("S4", negate_character, "positive_degree", "nonzero supercharacter with degree -1",
     {"node": 3}),
    ("Q8", negate_character, "positive_degree", "nonzero supercharacter with degree -1",
     {"node": 5}),
    ("C12", merge_into_identity_block, "SC1", "identity block is not {1}", [0, 1, 2, 3, 4, 5]),
    ("Q8", merge_into_identity_block, "SC1", "identity block is not {1}", [0, 1, 2, 3, 4]),
    ("C12", drop_a_character, "SC2", "5 nonzero supercharacters vs 6 blocks",
     {"chars": 5, "blocks": 6}),
    ("Q8", drop_a_character, "SC2", "4 nonzero supercharacters vs 5 blocks",
     {"chars": 4, "blocks": 5}),
    ("C12", compensating_pair, "subgroup_decomposition",
     "sum of chi^{O.} over O >= 1 does not give chi^N", {"node": 1}),
])
def test_verify_sct_rejects_a_tampered_theory(name, tamper, check, message, witness):
    L = FRESH[name]()
    tamper(build_theory(L))
    with pytest.raises(VerificationError) as info:
        verify_sct(L)
    assert (info.value.check, str(info.value), info.value.witness) == (check, message, witness)


@settings(max_examples=60, deadline=None)
@given(drawn_lattices(), st.data())
def test_verify_sct_rejects_every_perturbed_table(L, data):
    """1-3 integer perturbations of the rows: one entry moved by d, a
    compensating pair (+d and -d at one block of two nonzero rows) or a
    nonzero row zeroed.  Any change to the rows changes zeta R, so it fails
    one of the exact checks before the orthogonality they imply."""
    theory = build_theory(L)
    rows, nonzero, width = theory.rows, theory.nonzero, len(theory.nodes)
    before = [row[:] for row in rows]
    delta = st.one_of(st.integers(-5, -1), st.integers(1, 5))
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(["entry", "pair", "zero"]))
        b = data.draw(st.integers(0, width - 1))
        if kind == "entry":
            rows[data.draw(st.integers(0, len(rows) - 1))][b] += data.draw(delta)
        elif kind == "pair":
            n, o = data.draw(st.lists(st.sampled_from(nonzero), min_size=2, max_size=2,
                                      unique=True))
            d = data.draw(delta)
            rows[n][b] += d
            rows[o][b] -= d
        else:
            rows[data.draw(st.sampled_from(nonzero))][:] = [0] * width
    assume(rows != before)
    with pytest.raises(VerificationError) as info:
        verify_sct(L)
    assert info.value.check in {"integrality", "positive_degree", "subgroup_decomposition"}


def test_dual_path_compares_with_the_built_theory():
    L = FRESH["C12"]()
    chi_bullet_multiplicative(L, L.bottom)
    theory = build_theory(L)
    theory.rows[L.bottom][column(theory, L.top)] += 1
    with pytest.raises(InternalConsistencyError) as info:
        chi_bullet_multiplicative(L, L.bottom)
    assert (info.value.check, info.value.witness) == ("dual_path", {"node": L.bottom})


# ---------------------------------------------------------------------------
# The Moebius values and the multiplicative form against in-test references
# of the straightforward algorithms: the mu(N,.) sum per block, and the
# multiplicative formula in Fractions with the joins recomputed per block.


def reference_moebius_values(L, n):
    order = L.group.order
    row = reference_moebius_row(L, n)
    return {b: sum(mu * (order // L.size(o)) for o, mu in row.items() if L.leq(b, o))
            for b in build_theory(L).partition.blocks}


def reference_multiplicative(L, m):
    covers = L.covers(m)
    if not covers:
        raise FormulaInapplicableError("multiplicative formula needs a nonempty cover set",
                                       check="cover_set", witness=m)
    if not is_general_position(L, covers, m):
        raise FormulaInapplicableError("covers are not in general position",
                                       check="general_position", witness=m)
    top_join = L.join_all([m, *covers])
    degree = Fraction(L.group.order, L.size(top_join))
    for o in covers:
        degree *= Fraction(L.size(o), L.size(m)) - 1
    values = {}
    for b in build_theory(L).nodes:
        if not L.leq(b, top_join):
            values[b] = Fraction(0)
            continue
        minimal = [o for o in covers
                   if not L.leq(b, L.join_all([m, *(p for p in covers if p != o)]))]
        if not L.leq(b, L.join_all([m, *minimal])):
            raise AmbiguityError("no unique minimal cover subset for a block",
                                 check="ambiguity", witness={"M": m, "block": b})
        values[b] = degree
        for o in minimal:
            values[b] *= Fraction(1, 1 - Fraction(L.size(o), L.size(m)))
    row = list(values.values())
    if row != build_theory(L).rows[m]:
        raise InternalConsistencyError("multiplicative and Moebius character values disagree",
                                       check="dual_path", witness={"node": m})
    return row


def multiplicative_outcome(f, L, m):
    """The row in block order, or the error's class, check, message and witness."""
    try:
        row = f(L, m)
    except LatsuperError as exc:
        return type(exc).__name__, exc.check, str(exc), exc.witness
    return "pass", row


@settings(max_examples=60, deadline=None)
@given(drawn_lattices())
def test_transformed_rows_equal_the_moebius_block_sums(L):
    rows = build_theory(L).rows
    for n in range(len(L.nodes)):
        assert by_block(L, rows[n]) == reference_moebius_values(L, n), n


@settings(max_examples=60, deadline=None)
@given(drawn_lattices())
def test_multiplicative_values_are_the_reference_ints(L):
    rows = build_theory(L).rows
    for m in range(len(L.nodes)):
        got = multiplicative_outcome(chi_bullet_multiplicative, L, m)
        assert got == multiplicative_outcome(reference_multiplicative, L, m), m
        if got[0] == "pass":
            assert all(type(v) is int for v in got[1])
            assert got[1] == rows[m]


@settings(max_examples=60, deadline=None)
@given(drawn_lattices(), st.data())
def test_dual_path_fails_like_the_reference_on_a_tampered_value(L, data):
    theory = build_theory(L)
    node = data.draw(st.sampled_from(range(len(theory.rows))), label="character")
    block = data.draw(st.sampled_from(theory.nodes), label="block")
    theory.rows[node][column(theory, block)] += data.draw(st.sampled_from([-2, -1, 1, 2]))
    for m in range(len(L.nodes)):
        assert (multiplicative_outcome(chi_bullet_multiplicative, L, m)
                == multiplicative_outcome(reference_multiplicative, L, m)), m


def test_an_ambiguous_block_wins_over_an_earlier_mismatch():
    """C12 at the bottom: covers C2 and C3 in general position.  A wrong value
    at block C2 alone is a dual_path mismatch; if the order relation also puts
    the later block C4 under both covers (and their join C6) but not under the
    bottom, C4 has no minimal cover subset, and that ambiguity is raised
    first."""
    L = FRESH["C12"]()
    theory = build_theory(L)
    c2, c3, c4, c6 = (node_of_size(L, size) for size in (2, 3, 4, 6))
    theory.rows[L.bottom][column(theory, c2)] += 1
    for f in (chi_bullet_multiplicative, reference_multiplicative):
        with pytest.raises(InternalConsistencyError) as info:
            f(L, L.bottom)
        assert (info.value.check, info.value.witness) == ("dual_path", {"node": L.bottom})
    L.up_mask[c4] |= 1 << c2 | 1 << c3 | 1 << c6
    expected = ("AmbiguityError", "ambiguity", "no unique minimal cover subset for a block",
                {"M": L.bottom, "block": c4})
    assert multiplicative_outcome(chi_bullet_multiplicative, L, L.bottom) == expected
    assert multiplicative_outcome(reference_multiplicative, L, L.bottom) == expected


def test_each_block_of_a_shared_key_is_tested_for_ambiguity():
    """C30 at the bottom: covers C2, C3 and C5, whose joins of the other two
    are C15, C10 and C6.  Block C5 lies under C15 and C10 only, so S = {C5}
    and C5 <= join(1, S) holds.  If the order relation also puts the later
    block C15 under C10, C15 has the same r_O above it as C5 but does not lie
    under C5: the verdict of C5 must not be reused for it."""
    L = normal_lattice(cyclic_group(30))
    c5, c10, c15 = (node_of_size(L, size) for size in (5, 10, 15))
    assert c5 < c15
    L.up_mask[c15] |= 1 << c10
    expected = ("AmbiguityError", "ambiguity", "no unique minimal cover subset for a block",
                {"M": L.bottom, "block": c15})
    assert multiplicative_outcome(chi_bullet_multiplicative, L, L.bottom) == expected
    assert multiplicative_outcome(reference_multiplicative, L, L.bottom) == expected
