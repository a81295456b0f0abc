import cmath
import json
import random
import sys
import tracemalloc
from functools import lru_cache
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latsuper import (
    ArgumentError,
    CapacityError,
    GroupSpec,
    LatsuperError,
    VerificationError,
    build_theory,
    make_group,
    normal_lattice,
    verify_sct,
)
from latsuper import oracle
from latsuper.groups import _bits, closure_mask, is_normal, mask_of
from latsuper.lattice import NormalLattice, closed_sublattice
from latsuper.oracle import (
    _add_mod,
    _dual_walk,
    _root_keys,
    brute_force_normal_subgroups,
    cross_check_normal_lattice,
    schur_closure_check,
    verify_sc3_abelian,
)

from corpus import (
    basis_lattice,
    basis_node,
    basis_sublattice,
    basis_vector,
    cyclic_group,
    cyclic_lattice,
    cyclotomic_polynomial,
    cyclotomic_residue,
    dihedral_group,
    divisors,
    drawn_lattices,
    euler_phi,
    fresh_lattice,
    moebius_mu,
    quaternion_group,
    ramanujan_sum,
    s3_lattice,
    subsp_lattice,
    symmetric_group,
    vector_space_group,
)


def test_number_theory_basics():
    assert [moebius_mu(n) for n in (1, 2, 3, 4, 6, 12, 30)] == [1, -1, -1, 0, 1, 0, -1]
    assert [euler_phi(n) for n in (1, 2, 6, 12, 60)] == [1, 1, 2, 4, 16]
    assert ramanujan_sum(6, 1) == 1
    assert ramanujan_sum(6, 2) == -1
    assert ramanujan_sum(6, 3) == -2
    assert ramanujan_sum(6, 6) == 2


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def integer_residue(e, c):
    return (c,) + (0,) * (len(cyclotomic_polynomial(e)) - 2)


def test_cyclotomic_element_equalities():
    # 1 + zeta_3 + zeta_3^2 = 0
    assert cyclotomic_residue(3, [0, 1, 2]) == integer_residue(3, 0)
    # zeta_6 + zeta_6^5 = 1
    acc = cyclotomic_residue(6, [1, 5])
    assert acc == integer_residue(6, 1)
    assert acc != integer_residue(6, 0)
    # zeta_4 + zeta_4^3 = 0 and equals zeta_2 + 1
    assert cyclotomic_residue(4, [1, 3]) == cyclotomic_residue(4, [2, 0])


def test_cyclotomic_float_spot_check():
    rng = random.Random(7)
    for _ in range(50):
        e = rng.randrange(1, 30)
        exponents = [rng.randrange(e) for _ in range(rng.randrange(0, 12))]
        acc = cyclotomic_residue(e, exponents)
        approx = sum(cmath.exp(2j * cmath.pi * k / e) for k in exponents)
        # exact integer-equality agrees with floating evaluation
        for c in range(-12, 13):
            if acc == integer_residue(e, c):
                assert abs(approx - c) < 1e-9
            else:
                assert abs(approx - c) > 1e-9 or abs(approx.imag) > 1e-9


def relation_heavy_multisets(e, rng, count):
    """count random multisets of exponents mod e, then count pairs: a few
    random exponents, and the same with whole cosets k + <e/d> added, d > 1 a
    divisor of e, whose roots sum to 0; so the two of a pair have equal sums."""
    cosets = [[(k + j * (e // d)) % e for j in range(d)] for d in divisors(e)[1:]
              for k in rng.sample(range(e), min(e, 3)) if d <= 64]
    out = [[rng.randrange(e) for _ in range(rng.randrange(0, 40))] for _ in range(count)]
    for _ in range(count if cosets else 0):
        extra = [rng.randrange(e) for _ in range(rng.randrange(0, 4))]
        out.append(extra)
        out.append(extra + [k for coset in rng.sample(cosets, min(len(cosets), 2)) for k in coset])
    return out


@pytest.mark.parametrize("exponents", [range(1, 201), (360, 1024, 2520, 3125, 4096)],
                         ids=["e<=200", "large e"])
def test_packed_root_sums_agree_with_the_cyclotomic_residues(exponents):
    """Sums of _root_keys are equal exactly when the residues modulo Phi_e are,
    and equal the integer v exactly when the residue is (v, 0, ..., 0), for
    every |v| <= bound, with bound at least the length of every multiset."""
    rng = random.Random(23)
    for e in exponents:
        count = 12 if e <= 200 else 20
        multisets = relation_heavy_multisets(e, rng, count)
        bound = max(map(len, multisets))
        key = _root_keys(e, bound)
        assert len(key) == e and key[0] == 1
        sums = [sum(map(key.__getitem__, m)) for m in multisets]
        pairs = set(zip(sums, (cyclotomic_residue(e, m) for m in multisets)))
        assert len(pairs) == len(dict(pairs)) == len({r: k for k, r in pairs})
        assert sums[count::2] == sums[count + 1::2]
        for v in range(-bound, bound + 1):
            for k, residue in pairs:
                assert (k == v) == (residue == integer_residue(e, v))


# ---------------------------------------------------------------------------
# The dual group, as _dual_walk enumerates it for verify_sc3_abelian, checked
# against its definition: the homomorphisms psi: G -> Z_e, e the exponent of G,
# psi(g) the exponent k of the character value zeta_e^k.


def decoded(row, e):
    """The exponents of a row of _dual_walk over the walk: one byte each when
    e <= 255, else two in native byte order."""
    width = 1 if e <= 255 else 2
    return [int.from_bytes(row[i:i + width], sys.byteorder) for i in range(0, len(row), width)]


def dual_rows(G):
    """The exponent e and the rows of _dual_walk, each read in element order."""
    e, walk, rows = _dual_walk(G)
    position_of = sorted(range(G.order), key=walk.__getitem__)
    return e, [tuple(map(decoded(row, e).__getitem__, position_of)) for row in rows]


def assert_the_sorted_dual(G, e, psis):
    """e is the exponent of G and psis the whole dual of the abelian group G,
    sorted: |G| rows, strictly increasing, each with psi(0) = 0 and
    psi(a g) = psi(a) + psi(g) mod e for every a and every g in G.generators.
    Every element is a product of generators, so each row is a homomorphism
    G -> Z_e; there are exactly |G| of them, so the rows are all of them."""
    assert e == lcm(*map(G.element_order, range(G.order)))
    assert len(psis) == G.order
    assert all(a < b for a, b in zip(psis, psis[1:]))
    assert all(psi[0] == 0 for psi in psis)
    for g in G.generators:
        times_g = [G.mul[a][g] for a in range(G.order)]
        for psi in psis:
            assert [(k + psi[g]) % e for k in psi] == [psi[x] for x in times_g]


def kernel_of(psi):
    return [g for g, k in enumerate(psi) if k == 0]


def test_dual_characters_cyclic4():
    e, psis = dual_rows(cyclic_group(4))
    assert (e, len(psis)) == (4, 4)
    kernel_sizes = sorted(map(len, map(kernel_of, psis)))
    assert kernel_sizes == [1, 1, 2, 4]


def test_dual_characters_trivial():
    assert dual_rows(cyclic_group(1)) == (1, [(0,)])


def test_dual_characters_f22():
    G = vector_space_group(2, 2)
    e, psis = dual_rows(G)
    assert (e, len(psis)) == (2, 4)
    kernels = sorted(map(len, map(kernel_of, psis)))
    assert kernels == [2, 2, 2, 4]


def test_dual_characters_are_homomorphisms():
    for G in (cyclic_group(12), vector_space_group(3, 2), cyclic_group(8)):
        e, psis = dual_rows(G)
        assert len(psis) == G.order
        for psi in psis:
            for a in range(G.order):
                for b in range(G.order):
                    assert (psi[a] + psi[b]) % e == psi[G.mul[a][b]]
        assert len(set(psis)) == G.order


def test_dual_characters_reject_nonabelian():
    with pytest.raises(ArgumentError):
        _dual_walk(symmetric_group(3))
    with pytest.raises(ArgumentError, match="requires an abelian group"):
        verify_sc3_abelian(s3_lattice(), build_theory(s3_lattice()))


def test_sc3_abelian_examples():
    for L in (cyclic_lattice(6), cyclic_lattice(12), basis_lattice(2, 2), subsp_lattice(3, 2)):
        theory = build_theory(L)
        report = verify_sc3_abelian(L, theory)
        assert report["status"] == "pass"
        assert report["dual_size"] == L.group.order


def test_sc3_basis_lattice_kernel_blocks():
    # X^A = functionals whose kernel meets the basis exactly in A
    L = basis_lattice(2, 2)
    G = L.group
    _, psis = dual_rows(G)
    e0, e1 = basis_vector(G, 0), basis_vector(G, 1)
    for psi in psis:
        basis_in_kernel = {i for i, v in ((0, e0), (1, e1)) if psi[v] == 0}
        kernel = mask_of(kernel_of(psi))
        max_node = max(
            (n for n in range(len(L)) if L.nodes[n] & ~kernel == 0),
            key=lambda n: L.size(n),
        )
        assert max_node == basis_node(L, basis_in_kernel)


def test_schur_closure_cyclic6():
    L = cyclic_lattice(6)
    theory = build_theory(L)
    assert schur_closure_check(L, theory) == {"status": "pass"}
    # (x + x^5)^2 = 2*1 + (x^2 + x^4), by the reference's structure constants
    constants = reference_schur(L, theory)["constants"]
    part = theory.partition
    by_size = {L.size(n): n for n in part.blocks}
    key = f"{by_size[6]},{by_size[6]}->{by_size[1]}"
    assert constants[key] == 2
    key = f"{by_size[6]},{by_size[6]}->{by_size[3]}"
    assert constants[key] == 1
    key_id = f"{by_size[1]},{by_size[3]}->{by_size[3]}"
    assert constants[key_id] == 1


def test_schur_closure_nonabelian():
    for L in (s3_lattice(), normal_lattice(quaternion_group())):
        assert schur_closure_check(L, build_theory(L))["status"] == "pass"


def test_brute_force_normal_subgroups():
    assert len(brute_force_normal_subgroups(cyclic_group(12))) == 6
    assert len(brute_force_normal_subgroups(symmetric_group(3))) == 3
    assert len(brute_force_normal_subgroups(vector_space_group(2, 2))) == 5


def test_brute_force_scan_is_capped_at_order_256():
    assert len(brute_force_normal_subgroups(cyclic_group(256))) == 9
    with pytest.raises(CapacityError, match="capped at order 256"):
        brute_force_normal_subgroups(cyclic_group(257))


def test_cross_check_normal_lattice():
    for G in (cyclic_group(12), symmetric_group(3), quaternion_group()):
        L = normal_lattice(G)
        assert cross_check_normal_lattice(L, True) == {"status": "pass", "count": len(L)}
        # the same nodes as a sublattice are certified one by one
        assert cross_check_normal_lattice(L, False) == {"status": "pass", "nodes": len(L)}


def test_full_lattice_above_order_256_is_certified_not_enumerated():
    assert cross_check_normal_lattice(cyclic_lattice(360), True) == {
        "status": "pass", "nodes": 24, "enumeration": "skipped (order > 256)"}


def _lattice_with(G, elements) -> NormalLattice:
    """The chain 1 < H < G for the element list H, which is not vetted."""
    return NormalLattice(G, [1, mask_of(elements), (1 << G.order) - 1], check_normal=False)


# A node the oracle must refuse: not normal, not a subgroup, and a nonabelian
# subgroup (a Sylow D4 of S4) that conjugation by two of the three generators
# of S4 maps onto itself, but not by the third.
NOT_NORMAL = {
    "transposition of S3": (symmetric_group(3), [0, 1], False),
    "non-subgroup of C12": (cyclic_group(12), [0, 1], False),
    "Sylow D4 of S4": (symmetric_group(4), [0, 1, 6, 7, 16, 17, 22, 23], False),
    "non-subgroup of C300, full": (cyclic_group(300), [0, 1], True),
}


@pytest.mark.parametrize("name", NOT_NORMAL)
def test_oracle_refuses_a_node_that_is_not_a_normal_subgroup(name):
    from latsuper.cli import _verification_checks

    G, elements, full = NOT_NORMAL[name]
    L = _lattice_with(G, elements)
    expected = {"category": "LatsuperError", "check": "normal_subgroups",
                "message": "sublattice node not among the normal subgroups",
                "witness": elements}
    with pytest.raises(LatsuperError) as info:
        cross_check_normal_lattice(L, full)
    assert info.value.payload() == expected
    # verify's check raises the same payload
    check = dict(_verification_checks(L, 0, full))["normal_subgroup_oracle"]
    with pytest.raises(LatsuperError) as info:
        check()
    assert info.value.payload() == expected


def test_sylow_d4_is_normalized_by_some_generators_of_s4_only():
    G = symmetric_group(4)
    H = mask_of(NOT_NORMAL["Sylow D4 of S4"][1])
    images = [mask_of(G.mul[G.mul[g][h]][G.inv[g]] for h in _bits(H)) for g in G.generators]
    assert H in images and any(image != H for image in images)
    assert closure_mask(G, H) == H and not is_normal(G, H)


def test_full_lattice_mismatch_names_missing_and_extra_nodes():
    # S3 with a transposition in place of A3, passed as the full lattice
    G = symmetric_group(3)
    L = _lattice_with(G, [0, 1])
    with pytest.raises(VerificationError) as info:
        cross_check_normal_lattice(L, True)
    assert info.value.payload() == {
        "category": "VerificationError", "check": "normal_subgroups",
        "message": "normal-subgroup enumeration mismatch",
        "witness": {"missing": [list(_bits(closure_mask(G, 1 << 3)))], "extra": [[0, 1]]},
    }


def test_verify_sct_delegates_to_oracle():
    report = verify_sct(cyclic_lattice(6))
    assert report["schur_closure"] == "pass"
    assert report["SC3_abelian"] == "pass"
    report = verify_sct(s3_lattice())
    assert "skipped" in report["SC3_abelian"]


# ---------------------------------------------------------------------------
# Tampered theories fail with a fixed check, message and first witness.  The
# lattices are built afresh, because tampering changes the cached theory.


def tamper_value(theory):
    """Add 1 to the last nonzero character at the last block."""
    theory.rows[theory.nonzero[-1]][-1] += 1


def drop_nonzero(theory):
    """Leave the last nonzero character out of theory.nonzero."""
    theory.nonzero.pop()


def move_element(theory):
    """Move the largest element of the largest block to the second block."""
    blocks = theory.partition.blocks
    nodes = sorted(theory.partition.blocks)
    source = max(nodes, key=lambda n: (blocks[n].bit_count(), n))
    g = blocks[source].bit_length() - 1
    target = nodes[1] if nodes[1] != source else nodes[2]
    blocks[source] &= ~(1 << g)
    blocks[target] |= 1 << g


FRESH = {
    "C12": lambda: normal_lattice(cyclic_group(12)),
    "F3^2 basis": lambda: basis_sublattice(vector_space_group(3, 2)),
    "S4": lambda: normal_lattice(symmetric_group(4)),
    "Q8": lambda: normal_lattice(quaternion_group()),
}


@pytest.mark.parametrize("name, tamper, message, witness", [
    ("C12", tamper_value, "SC3 sum disagrees with the supercharacter value",
     {"node": 5, "block": 5, "expected": "2"}),
    ("C12", move_element, "SC3 sum not constant on a superclass",
     {"node": 0, "elements": [6, 11]}),
    ("F3^2 basis", tamper_value, "SC3 sum disagrees with the supercharacter value",
     {"node": 3, "block": 3, "expected": "2"}),
    ("F3^2 basis", move_element, "SC3 sum not constant on a superclass",
     {"node": 1, "elements": [1, 8]}),
    ("C12", drop_nonzero, "dual partition does not match nonzero supercharacters",
     {"dual_blocks": [0, 1, 2, 3, 4, 5], "chars": [0, 1, 2, 3, 4]}),
])
def test_sc3_rejects_a_tampered_theory(name, tamper, message, witness):
    L = FRESH[name]()
    theory = build_theory(L)
    tamper(theory)
    with pytest.raises(VerificationError) as info:
        verify_sc3_abelian(L, theory)
    assert (info.value.check, str(info.value), info.value.witness) == ("SC3", message, witness)


@pytest.mark.parametrize("name, witness", [
    ("C12", {"blocks": [1, 1, 4], "elements": [2, 10]}),
    ("F3^2 basis", {"blocks": [1, 1, 1], "elements": [1, 8]}),
    ("S4", {"blocks": [1, 1, 1], "elements": [7, 16]}),
    ("Q8", {"blocks": [1, 1, 1], "elements": [1, 7]}),
])
def test_schur_closure_rejects_a_moved_element(name, witness):
    L = FRESH[name]()
    theory = build_theory(L)
    move_element(theory)
    with pytest.raises(VerificationError) as info:
        schur_closure_check(L, theory)
    assert info.value.check == "schur_closure"
    assert str(info.value) == "superclass convolution is not constant on a block"
    assert info.value.witness == witness


# ---------------------------------------------------------------------------
# The Schur and SC3 checks against in-test references of the straightforward
# algorithms: a |G|-long count list per pair of blocks, and a per-element scan
# of every superclass.  Results (the reference's structure constants aside)
# and every error (check, message, witness) must be the same.


def reference_schur(L, theory):
    G = L.group
    part = theory.partition
    nodes = sorted(part.blocks)
    members = {k: list(_bits(part.blocks[k])) for k in nodes}
    reps = [(part.blocks[k] & -part.blocks[k]).bit_length() - 1 for k in nodes]
    constants = {}
    for i in nodes:
        for j in nodes:
            counts = [0] * G.order
            for a in members[i]:
                for b in members[j]:
                    counts[G.mul[a][b]] += 1
            for k, rep in zip(nodes, reps):
                for g in members[k]:
                    if counts[g] != counts[rep]:
                        raise VerificationError(
                            "superclass convolution is not constant on a block",
                            check="schur_closure",
                            witness={"blocks": [i, j, k], "elements": [rep, g]},
                        )
            for k, rep in zip(nodes, reps):
                if counts[rep]:
                    constants[f"{i},{j}->{k}"] = counts[rep]
    return {"status": "pass", "constants": constants}


def reference_sc3(L, theory):
    """SC3 on the rows of _dual_walk, which the tests of assert_the_sorted_dual
    certify, read in element order."""
    G = L.group
    e, psis = dual_rows(G)
    blocks_of_dual = {}
    for psi in psis:
        kernel = mask_of(kernel_of(psi))
        inside = [n for n in range(len(L.nodes)) if L.nodes[n] & ~kernel == 0]
        n_max = max(inside, key=L.size)
        if any(not L.leq(n, n_max) for n in inside):
            raise VerificationError("kernel nodes not closed under join", check="SC3",
                                    witness={"kernel": kernel_of(psi)})
        blocks_of_dual.setdefault(n_max, []).append(psi)
    nonzero_nodes = set(theory.nonzero)
    if set(blocks_of_dual) != nonzero_nodes:
        raise VerificationError(
            "dual partition does not match nonzero supercharacters", check="SC3",
            witness={"dual_blocks": sorted(blocks_of_dual), "chars": sorted(nonzero_nodes)},
        )
    zeros = (0,) * (len(cyclotomic_polynomial(e)) - 2)
    for n, block in blocks_of_dual.items():
        char = dict(zip(theory.nodes, theory.rows[n]))
        sums = [cyclotomic_residue(e, [psi[g] for psi in block])
                for g in range(G.order)]
        for bnode, bmask in theory.partition.blocks.items():
            rep = (bmask & -bmask).bit_length() - 1
            for g in _bits(bmask):
                if sums[g] != sums[rep]:
                    raise VerificationError("SC3 sum not constant on a superclass", check="SC3",
                                            witness={"node": n, "elements": [rep, g]})
            if sums[rep] != (char[bnode],) + zeros:
                raise VerificationError(
                    "SC3 sum disagrees with the supercharacter value", check="SC3",
                    witness={"node": n, "block": bnode, "expected": str(char[bnode])},
                )
    return {"status": "pass", "dual_size": len(psis)}


def outcome(check, L, theory):
    """The result as ordered JSON without the structure constants only
    reference_schur reports, or the error's class, check, message and witness."""
    try:
        result = check(L, theory)
    except LatsuperError as exc:
        return type(exc).__name__, exc.check, str(exc), exc.witness
    return "pass", json.dumps({k: v for k, v in result.items() if k != "constants"})


def pair_kinds(theory):
    """Which sides of the |K_i| |K_j| >= |G| density rule the block pairs fall on."""
    order = len(theory.partition.block_of)
    sizes = [b.bit_count() for b in theory.partition.blocks.values()]
    return {"dense" if a * b >= order else "sparse" for a in sizes for b in sizes}


@settings(max_examples=60, deadline=None)
@given(drawn_lattices())
def test_schur_constants_equal_the_reference(L):
    theory = build_theory(L)
    assert outcome(schur_closure_check, L, theory) == outcome(reference_schur, L, theory)
    assert outcome(schur_closure_check, L, theory)[0] == "pass"


@pytest.mark.parametrize("name, kind, picks", [
    ("C2xC6xC5", "full", ()),
    ("S4", "full", ()),
    ("D5", "full", ()),
    ("Q8xC4", "closed", (6, 21, 23)),
    ("F2^3", "closed", (3, 5, 6)),
    ("C3xC6", "closed", (4, 5, 7)),
])
def test_schur_constants_on_both_sides_of_the_density_rule(name, kind, picks):
    L = fresh_lattice(name, kind, picks)
    theory = build_theory(L)
    assert pair_kinds(theory) == {"dense", "sparse"}
    assert outcome(schur_closure_check, L, theory) == outcome(reference_schur, L, theory)


@settings(max_examples=40, deadline=None)
@given(drawn_lattices(abelian_only=True))
def test_sc3_passes_like_the_reference(L):
    theory = build_theory(L)
    assert outcome(verify_sc3_abelian, L, theory) == outcome(reference_sc3, L, theory)
    assert outcome(verify_sc3_abelian, L, theory)[0] == "pass"


@settings(max_examples=80, deadline=None)
@given(drawn_lattices(), st.data())
def test_tampered_theories_fail_like_the_references(L, data):
    """Move one element to another block (possibly emptying its own), copy it
    there, or change one character value; the result or first witness must
    be the reference's, which exercises each fast path's rescan and the
    blocks that are no partition."""
    theory = build_theory(L)
    blocks = theory.partition.blocks
    nodes = sorted(theory.partition.blocks)
    tamper = data.draw(st.sampled_from(["move", "copy", "value"] if len(nodes) > 1 else ["value"]))
    if tamper != "value":
        source = data.draw(st.sampled_from(nodes), label="source")
        g = data.draw(st.sampled_from(list(_bits(blocks[source]))), label="element")
        target = data.draw(st.sampled_from([k for k in nodes if k != source]), label="target")
        if tamper == "move":
            blocks[source] &= ~(1 << g)
        blocks[target] |= 1 << g
    else:
        node = data.draw(st.sampled_from(range(len(theory.rows))), label="character")
        block = data.draw(st.sampled_from(nodes), label="block")
        theory.rows[node][nodes.index(block)] += data.draw(st.sampled_from([-2, -1, 1, 2]))
    assert outcome(schur_closure_check, L, theory) == outcome(reference_schur, L, theory)
    if L.group.is_abelian:
        assert outcome(verify_sc3_abelian, L, theory) == outcome(reference_sc3, L, theory)


def test_overlapping_blocks_are_scanned_block_by_block():
    """C12 with element 6 (the C2 block) copied into the identity block: the
    blocks overlap, and only a scan of every block sees that the count of
    C2 x C2 differs between the two members 0 and 6 of the identity block."""
    L = FRESH["C12"]()
    theory = build_theory(L)
    theory.partition.blocks[0] |= 1 << 6
    expected = ("VerificationError", "schur_closure",
                "superclass convolution is not constant on a block",
                {"blocks": [1, 1, 0], "elements": [0, 6]})
    assert outcome(schur_closure_check, L, theory) == outcome(reference_schur, L, theory) == expected


MOVE_GROUPS = {
    "C12": lambda: cyclic_group(12),
    "C2xC6": lambda: make_group(GroupSpec.product([GroupSpec.cyclic(2), GroupSpec.cyclic(6)])),
    "D4": lambda: dihedral_group(4),
    "S4": lambda: symmetric_group(4),
    "C30": lambda: cyclic_group(30),
}


@lru_cache(maxsize=None)
def move_lattice(name):
    return normal_lattice(MOVE_GROUPS[name]())


def moved_theory(name, source, g, target):
    """A fresh theory of the full lattice with element g moved from block
    source to block target."""
    full = move_lattice(name)
    L = NormalLattice(full.group, full.nodes, check_normal=False)
    theory = build_theory(L)
    theory.partition.blocks[source] &= ~(1 << g)
    theory.partition.blocks[target] |= 1 << g
    return L, theory


@pytest.mark.parametrize("name", MOVE_GROUPS)
def test_every_single_element_move_fails_like_the_reference(name):
    """Every element of every block moved to every other block: the outcome,
    with the block the packed pass skips as a source, target or neither, is
    reference_schur's."""
    part = build_theory(move_lattice(name)).partition
    nodes = sorted(part.blocks)
    moves = [(source, g, target) for source in nodes for g in _bits(part.blocks[source])
             for target in nodes if target != source]
    mismatches = []
    for move in moves:
        L, theory = moved_theory(name, *move)
        if outcome(schur_closure_check, L, theory) != outcome(reference_schur, L, theory):
            mismatches.append(move)
    assert moves and mismatches == []


def test_the_first_failing_pair_can_start_at_the_skipped_block():
    """C2 x C6 with element 2 moved from block 4 to block 1: block 1 becomes
    the largest, which the packed pass does not count, and the first failing
    pair of the scan starts there."""
    L, theory = moved_theory("C2xC6", 4, 2, 1)
    blocks = theory.partition.blocks
    nodes = sorted(theory.partition.blocks)
    assert max(nodes, key=lambda k: blocks[k].bit_count()) == 1
    expected = ("VerificationError", "schur_closure",
                "superclass convolution is not constant on a block",
                {"blocks": [1, 1, 6], "elements": [1, 5]})
    assert outcome(schur_closure_check, L, theory) == outcome(reference_schur, L, theory) == expected


def _boolean_c2_5_c11():
    """The 64-node sublattice of C2^5 x C11 closed from its direct factors."""
    G = make_group(GroupSpec.product([GroupSpec.cyclic(n) for n in (2, 2, 2, 2, 2, 11)]))
    factors = [closure_mask(G, 1 << (11 << k)) for k in range(5)]
    return closed_sublattice(G, [*factors, closure_mask(G, 1 << 1)])


@pytest.mark.parametrize("name, build", [
    ("C360 full", lambda: cyclic_lattice(360)),
    ("C2^5xC11 boolean", _boolean_c2_5_c11),
    ("F2^6 full", lambda: normal_lattice(vector_space_group(2, 6))),
    ("D24 full", lambda: normal_lattice(dihedral_group(24))),
    ("S4 full", lambda: normal_lattice(symmetric_group(4))),
])
def test_a_passing_schur_check_counts_no_pair(name, build, monkeypatch):
    L = build()
    theory = build_theory(L)

    def no_pair_counts(*args):
        raise AssertionError("the pair scan ran on a passing theory")

    monkeypatch.setattr(oracle, "_pair_counts", no_pair_counts)
    assert schur_closure_check(L, theory) == {"status": "pass"}


def test_sc3_rejects_kernel_nodes_not_closed_under_join():
    """With the relation bottom <= top removed from the order, the nodes inside
    the kernel G of the trivial character are not all below the largest."""
    L = FRESH["C12"]()
    theory = build_theory(L)
    L.up_mask[L.bottom] &= ~(1 << L.top)
    L.down_mask[L.top] &= ~(1 << L.bottom)
    expected = ("VerificationError", "SC3", "kernel nodes not closed under join",
                {"kernel": list(range(12))})
    assert outcome(verify_sc3_abelian, L, theory) == outcome(reference_sc3, L, theory) == expected


# ---------------------------------------------------------------------------
# verify_sc3_abelian stores the dual as bytes rows of one byte per exponent
# when the exponent e is at most 255 and of two bytes above.  Groups on both
# sides of that boundary, beyond the order-256 cap of the drawn lattices: the
# result or first witness must still be the reference's.


def relabelled(G, seed):
    """A raw table of G under a random relabelling that fixes the identity,
    so the walk of the dual differs from the element order."""
    rng = random.Random(seed)
    perm = [0] + rng.sample(range(1, G.order), G.order - 1)
    mul = [[0] * G.order for _ in range(G.order)]
    for a in range(G.order):
        for b in range(G.order):
            mul[perm[a]][perm[b]] = perm[G.mul[a][b]]
    return make_group(GroupSpec.table(mul))


BOUNDARY_GROUPS = {
    "C255": lambda: cyclic_group(255),                 # e = 255, bytes
    "C256": lambda: cyclic_group(256),                 # e = 256, 16-bit
    "C260": lambda: cyclic_group(260),                 # e = 260, 16-bit
    "C260 relabelled": lambda: relabelled(cyclic_group(260), 7),
    "C2xC130": lambda: make_group(GroupSpec.product([GroupSpec.cyclic(2), GroupSpec.cyclic(130)])),
    "C2xC130 relabelled": lambda: relabelled(
        make_group(GroupSpec.product([GroupSpec.cyclic(2), GroupSpec.cyclic(130)])), 5),
}


@lru_cache(maxsize=None)
def boundary_full_lattice(name):
    return normal_lattice(BOUNDARY_GROUPS[name]())


def boundary_lattice(name, kind):
    """A new lattice object: the full lattice, or the one closed from its
    second and third nodes."""
    full = boundary_full_lattice(name)
    if kind == "full":
        return NormalLattice(full.group, full.nodes, check_normal=False)
    return closed_sublattice(full.group, [full.nodes[1], full.nodes[2]])


def tamper_at_random(theory, tamper, rng):
    """The tampers of test_tampered_theories_fail_like_the_references, drawn
    from rng; a value tamper changes a nonzero character, which SC3 sees."""
    blocks = theory.partition.blocks
    nodes = sorted(theory.partition.blocks)
    if tamper != "value":
        source = rng.choice(nodes)
        g = rng.choice(list(_bits(blocks[source])))
        target = rng.choice([k for k in nodes if k != source])
        if tamper == "move":
            blocks[source] &= ~(1 << g)
        blocks[target] |= 1 << g
    else:
        node = rng.choice(theory.nonzero)
        theory.rows[node][nodes.index(rng.choice(nodes))] += rng.choice([-2, -1, 1, 2])


WALKED_GROUPS = {
    **BOUNDARY_GROUPS,
    # element 1 generates the C2, so the C260 generator extends a span of two
    "C260xC2": lambda: make_group(GroupSpec.product([GroupSpec.cyclic(260), GroupSpec.cyclic(2)])),
    "C2xC2xC3": lambda: make_group(GroupSpec.product([GroupSpec.cyclic(n) for n in (2, 2, 3)])),
    "F3^2": lambda: vector_space_group(3, 2),
    "F4^2": lambda: vector_space_group(4, 2),
    "C12 relabelled": lambda: relabelled(cyclic_group(12), 1),
    "C1": lambda: cyclic_group(1),
}


@pytest.mark.parametrize("name", sorted(WALKED_GROUPS))
def test_dual_walk_rows_are_the_sorted_dual(name):
    """The rows of the walk, read in element order, are the whole dual in
    sorted order, so verify_sc3_abelian meets X-blocks and witnesses in that
    order without sorting."""
    G = WALKED_GROUPS[name]()
    e, walk, rows = _dual_walk(G)
    assert sorted(walk) == list(range(G.order))
    assert {type(row) for row in rows} == {bytes}
    assert {len(row) for row in rows} == {G.order if e <= 255 else 2 * G.order}
    assert_the_sorted_dual(G, *dual_rows(G))


def test_add_mod_at_the_least_headroom():
    """Every field e - 1 shifted by e - 1 at e = MAX_ORDER: the largest sum,
    2e - 2, in every field at once."""
    e = 4096
    ones = ((1 << 16 * e) - 1) // 0xFFFF
    assert _add_mod((e - 1) * ones, e - 1, e, ones) == (e - 2) * ones
    rng = random.Random(4096)
    fields = [rng.randrange(e) for _ in range(e)]
    packed = sum(f << 16 * i for i, f in enumerate(fields))
    for c in (0, 1, e // 2, e - 1):
        shifted = _add_mod(packed, c, e, ones)
        assert [shifted >> 16 * i & 0xFFFF for i in range(e)] == [(f + c) % e for f in fields]
        assert shifted >> 16 * e == 0


def test_dual_walk_rows_of_c4096_are_the_closed_form():
    """Row t of the dual of C4096 maps g to t g mod 4096; rows sampled, the
    last one included."""
    G = cyclic_group(4096)
    e, walk, rows = _dual_walk(G)
    assert (e, len(rows), walk) == (4096, 4096, list(range(4096)))
    for t in (0, 1, 2, 3, 255, 256, 2047, 2048, 3001, 4094, 4095):
        assert decoded(rows[t], e) == [t * g % 4096 for g in range(4096)]


@pytest.mark.parametrize("kind", ["full", "closed"])
@pytest.mark.parametrize("name", sorted(BOUNDARY_GROUPS))
def test_sc3_at_the_encoding_boundary(name, kind):
    L = boundary_lattice(name, kind)
    theory = build_theory(L)
    assert outcome(verify_sc3_abelian, L, theory) == outcome(reference_sc3, L, theory)
    assert outcome(verify_sc3_abelian, L, theory)[0] == "pass"
    for tamper in ("move", "copy", "value"):
        L = boundary_lattice(name, kind)
        theory = build_theory(L)
        tamper_at_random(theory, tamper, random.Random(f"{name}/{kind}/{tamper}"))
        failure = outcome(verify_sc3_abelian, L, theory)
        assert failure == outcome(reference_sc3, L, theory)
        assert failure[0] == "VerificationError"
    # the kernel-closure tamper of test_sc3_rejects_kernel_nodes_not_closed_under_join,
    # at the top (the kernel of the first character) and at the least node
    # above the bottom (a proper kernel, read through the walk)
    for node in ("top", 1):
        L = boundary_lattice(name, kind)
        theory = build_theory(L)
        n = L.top if node == "top" else node
        L.up_mask[L.bottom] &= ~(1 << n)
        L.down_mask[n] &= ~(1 << L.bottom)
        failure = outcome(verify_sc3_abelian, L, theory)
        assert failure == outcome(reference_sc3, L, theory)
        assert failure[2] == "kernel nodes not closed under join"
        if node == "top":
            assert failure[3] == {"kernel": list(range(L.group.order))}


def c20xc30_sublattice():
    """C20 x C30 on the 5-node sublattice closed from C2 in each factor, as
    the large-table benchmark verifies it: elements (a, b) at 30a + b.  A new
    lattice each call, as tampering changes its cached theory."""
    G = make_group(GroupSpec.product([GroupSpec.cyclic(20), GroupSpec.cyclic(30)]))
    return closed_sublattice(G, [closure_mask(G, 1 << 300), closure_mask(G, 1 << 15)])


def test_sc3_never_builds_the_sorted_dual():
    L = c20xc30_sublattice()
    theory = build_theory(L)
    assert len(L.nodes) == 5
    assert verify_sc3_abelian(L, theory) == {"status": "pass", "dual_size": 600}
    tamper_value(theory)
    with pytest.raises(VerificationError, match="disagrees with the supercharacter value"):
        verify_sc3_abelian(L, theory)


def sc3_traced_peak(L):
    """The traced peak of verify_sc3_abelian on L, after a first call, untraced."""
    theory = build_theory(L)
    verify_sc3_abelian(L, theory)
    tracemalloc.start()
    try:
        verify_sc3_abelian(L, theory)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sc3_memory_peak_on_a_large_table():
    """The dual of C20 x C30 (e = 60) as 600 rows of 600 bytes is 0.36 MB; as
    sorted int tuples it needs 4.4 MB."""
    assert sc3_traced_peak(c20xc30_sublattice()) < 1.5e6


def test_sc3_memory_peak_above_exponent_255():
    """The dual of C1020 (e = 1020) as 1020 rows of 2040 bytes is 2.1 MB; as
    int tuples it peaked at about 12 MB."""
    assert sc3_traced_peak(normal_lattice(cyclic_group(1020))) < 6e6
