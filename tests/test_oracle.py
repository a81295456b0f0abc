import cmath
import random

import pytest

from latsuper import ArgumentError, VerificationError, build_theory, normal_lattice, verify_sct
from latsuper.catalog import quaternion_group, symmetric_group
from latsuper.lattice import _bits, basis_subspace_lattice
from latsuper.oracle import (
    brute_force_normal_subgroups,
    cross_check_normal_lattice,
    cyclotomic_polynomial,
    cyclotomic_residue,
    dual_characters,
    euler_phi,
    moebius_mu,
    ramanujan_sum,
    schur_closure_check,
    verify_sc3_abelian,
)

from corpus import (
    basis_lattice,
    cyclic_group,
    cyclic_lattice,
    s3_lattice,
    subsp_lattice,
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


def test_dual_characters_cyclic4():
    G = cyclic_group(4)
    psis = dual_characters(G)
    assert len(psis) == 4
    kernel_sizes = sorted(p.kernel.size for p in psis)
    assert kernel_sizes == [1, 1, 2, 4]


def test_dual_characters_trivial():
    psis = dual_characters(cyclic_group(1))
    assert len(psis) == 1
    assert psis[0].exponents == (0,)


def test_dual_characters_f22():
    G = vector_space_group(2, 2)
    psis = dual_characters(G)
    assert len(psis) == 4
    kernels = sorted(p.kernel.size for p in psis)
    assert kernels == [2, 2, 2, 4]


def test_dual_characters_are_homomorphisms():
    for G in (cyclic_group(12), vector_space_group(3, 2), cyclic_group(8)):
        psis = dual_characters(G)
        assert len(psis) == G.order
        e = psis[0].exponent
        seen = set()
        for psi in psis:
            seen.add(psi.exponents)
            for a in range(G.order):
                for b in range(G.order):
                    assert (psi.value(a) + psi.value(b)) % e == psi.value(G.mul[a][b])
        assert len(seen) == G.order


def test_dual_characters_reject_nonabelian():
    with pytest.raises(ArgumentError):
        dual_characters(symmetric_group(3))


def test_sc3_abelian_examples():
    for L in (cyclic_lattice(6), cyclic_lattice(12), basis_lattice(2, 2), subsp_lattice(3, 2)):
        theory = build_theory(L)
        report = verify_sc3_abelian(theory)
        assert report["status"] == "pass"
        assert report["dual_size"] == L.group.order


def test_sc3_basis_lattice_kernel_blocks():
    # X^A = functionals whose kernel meets the basis exactly in A
    L = basis_lattice(2, 2)
    G = L.group
    psis = dual_characters(G)
    vs = G.vs
    e0, e1 = vs.basis_vector(0), vs.basis_vector(1)
    for psi in psis:
        basis_in_kernel = {i for i, v in ((0, e0), (1, e1)) if psi.value(v) == 0}
        max_node = max(
            (n for n in range(len(L)) if L.nodes[n].mask & ~psi.kernel.mask == 0),
            key=lambda n: L.size(n),
        )
        from latsuper.lattice import basis_node

        assert max_node == basis_node(L, basis_in_kernel)


def test_schur_closure_cyclic6():
    L = cyclic_lattice(6)
    theory = build_theory(L)
    report = schur_closure_check(theory)
    assert report["status"] == "pass"
    # (x + x^5)^2 = 2*1 + (x^2 + x^4)
    part = theory.partition
    by_size = {L.size(n): n for n in part.blocks}
    key = f"{by_size[6]},{by_size[6]}->{by_size[1]}"
    assert report["constants"][key] == 2
    key = f"{by_size[6]},{by_size[6]}->{by_size[3]}"
    assert report["constants"][key] == 1
    key_id = f"{by_size[1]},{by_size[3]}->{by_size[3]}"
    assert report["constants"][key_id] == 1


def test_schur_closure_nonabelian():
    for L in (s3_lattice(), normal_lattice(quaternion_group())):
        assert schur_closure_check(build_theory(L))["status"] == "pass"


def test_brute_force_normal_subgroups():
    assert len(brute_force_normal_subgroups(cyclic_group(12))) == 6
    assert len(brute_force_normal_subgroups(symmetric_group(3))) == 3
    assert len(brute_force_normal_subgroups(vector_space_group(2, 2))) == 5


def test_cross_check_normal_lattice():
    for G in (cyclic_group(12), symmetric_group(3), quaternion_group()):
        report = cross_check_normal_lattice(normal_lattice(G))
        assert report["status"] == "pass"


def test_verify_sct_delegates_to_oracle():
    theory = verify_sct(cyclic_lattice(6))
    assert theory.verification_report["schur_closure"] == "pass"
    assert theory.verification_report["SC3_abelian"] == "pass"
    theory = verify_sct(s3_lattice())
    assert "skipped" in theory.verification_report["SC3_abelian"]


# ---------------------------------------------------------------------------
# Tampered theories fail with a fixed check, message and first witness.  The
# lattices are built afresh, because tampering changes the cached theory.


def tamper_value(theory):
    """Add 1 to the last nonzero character at the last block."""
    theory.chars[-1].values[theory.partition.block_nodes()[-1]] += 1


def move_element(theory):
    """Move the largest element of the largest block to the second block."""
    blocks = theory.partition.blocks
    nodes = theory.partition.block_nodes()
    source = max(nodes, key=lambda n: (blocks[n].bit_count(), n))
    g = blocks[source].bit_length() - 1
    target = nodes[1] if nodes[1] != source else nodes[2]
    blocks[source] &= ~(1 << g)
    blocks[target] |= 1 << g


FRESH = {
    "C12": lambda: normal_lattice(cyclic_group(12)),
    "F3^2 basis": lambda: basis_subspace_lattice(vector_space_group(3, 2)),
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
])
def test_sc3_rejects_a_tampered_theory(name, tamper, message, witness):
    theory = build_theory(FRESH[name]())
    tamper(theory)
    with pytest.raises(VerificationError) as info:
        verify_sc3_abelian(theory)
    assert (info.value.check, str(info.value), info.value.witness) == ("SC3", message, witness)


@pytest.mark.parametrize("name, witness", [
    ("C12", {"blocks": [1, 1, 4], "elements": [2, 10]}),
    ("F3^2 basis", {"blocks": [1, 1, 1], "elements": [1, 8]}),
    ("S4", {"blocks": [1, 1, 1], "elements": [7, 16]}),
    ("Q8", {"blocks": [1, 1, 1], "elements": [1, 7]}),
])
def test_schur_closure_rejects_a_moved_element(name, witness):
    theory = build_theory(FRESH[name]())
    move_element(theory)
    with pytest.raises(VerificationError) as info:
        schur_closure_check(theory)
    assert info.value.check == "schur_closure"
    assert str(info.value) == "superclass convolution is not constant on a block"
    assert info.value.witness == witness
