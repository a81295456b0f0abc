from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latsuper import (
    ArgumentError,
    InternalConsistencyError,
    build_theory,
    chi_subgroup,
    inner_product,
    normal_lattice,
    tensor_product,
)
from latsuper.products import decompose_class_function

from corpus import (
    cyclic_group,
    cyclic_lattice,
    drawn_lattices,
    node_of_size,
    prime_factors,
    q8_lattice,
    reference_decomposition,
    reference_inner_product,
    s3_lattice,
    small_corpus,
)


def test_decompose_supercharacter_is_indicator():
    L = cyclic_lattice(12)
    theory = build_theory(L)
    for n in theory.nonzero:
        coeffs = decompose_class_function(theory, theory.rows[n])
        assert coeffs == {n: Fraction(1)}


def test_decompose_subgroup_character():
    # chi^N decomposes with coefficient 1 at every O >= N
    L = cyclic_lattice(12)
    theory = build_theory(L)
    for n in range(len(L)):
        coeffs = decompose_class_function(theory, chi_subgroup(L, n))
        assert coeffs == {o: Fraction(1) for o in range(len(L)) if L.leq(n, o)}


def test_decompose_block_indicator():
    L = cyclic_lattice(6)
    theory = build_theory(L)
    part = theory.partition
    indicator = {b: Fraction(1 if b == L.top else 0) for b in part.blocks}
    coeffs = decompose_class_function(theory, list(indicator.values()))
    recon = {b: Fraction(0) for b in part.blocks}
    for node, c in coeffs.items():
        for b, v in zip(theory.nodes, theory.rows[node]):
            recon[b] += c * v
    assert recon == indicator


def test_decompose_requires_full_support():
    L = cyclic_lattice(6)
    theory = build_theory(L)
    with pytest.raises(ArgumentError):
        decompose_class_function(theory, [Fraction(1)])


def test_decompose_rejects_a_theory_that_does_not_reconstruct():
    # one more at the last block of the trivial character: the projection of
    # the true trivial character no longer reconstructs it
    L = normal_lattice(cyclic_group(12))
    theory = build_theory(L)
    trivial = list(theory.rows[L.top])
    theory.rows[L.top][-1] += 1
    with pytest.raises(InternalConsistencyError) as info:
        decompose_class_function(theory, trivial)
    assert (info.value.check, str(info.value), info.value.witness) == (
        "decompose", "projection coefficients failed to reconstruct the function", None)


VALUES = st.one_of(st.integers(-60, 60), st.integers(-2**70, 2**70))
RATIONALS = st.fractions(min_value=-40, max_value=40, max_denominator=12)


@settings(max_examples=60, deadline=None)
@given(drawn_lattices(), st.data())
def test_packed_projections_equal_the_fraction_pair_loop(L, data):
    theory = build_theory(L)
    width, order = len(theory.nodes), L.group.order
    fs = data.draw(st.lists(st.lists(VALUES, min_size=width, max_size=width), max_size=4))
    products = inner_product(theory, fs)
    assert len(products) == len(theory.nonzero)
    for n, dots in zip(theory.nonzero, products):
        assert all(type(dot) is int for dot in dots)
        assert [Fraction(dot, order) for dot in dots] == [
            reference_inner_product(theory, f, theory.rows[n]) for f in fs]
    for values in (VALUES, RATIONALS):
        f = data.draw(st.lists(values, min_size=width, max_size=width))
        assert decompose_class_function(theory, f) == reference_decomposition(theory, f)


def test_tensor_product_c12_pair():
    L = cyclic_lattice(12)
    c4, c6, c2 = node_of_size(L, 4), node_of_size(L, 6), node_of_size(L, 2)
    report = tensor_product(L, c4, c6)
    assert report.hypothesis_general_position == (True, True)
    assert report.hypothesis_cover_containment
    assert report.identity_holds
    assert report.meet == c2
    assert report.coefficients == {c2: Fraction(1)}
    # value check at a generator: (-1)(-1) = 1 = chi^{C2.}(x)
    theory = build_theory(L)
    x_column = theory.nodes.index(theory.partition.block_of[1])
    assert theory.rows[c4][x_column] == -1
    assert theory.rows[c6][x_column] == -1
    assert theory.rows[c2][x_column] == 1


def _zero_degree(theory, c4):
    theory.rows[c4][0] = 0


def _bump_last_value(theory, c4):
    theory.rows[c4][-1] += 1


@pytest.mark.parametrize("tamper, message, witness", [
    (_zero_degree, "general position should force positive degrees", None),
    (_bump_last_value, "tensor-product identity fails despite its hypotheses",
     {"M": 3, "N": 4, "block": 5}),
])
def test_tensor_product_rejects_a_tampered_theory(tamper, message, witness):
    # C4 and C6 of C12 meet the identity's hypotheses; the lattice is fresh,
    # because tampering changes its cached theory
    L = normal_lattice(cyclic_group(12))
    c4, c6 = node_of_size(L, 4), node_of_size(L, 6)
    tamper(build_theory(L), c4)
    with pytest.raises(InternalConsistencyError) as info:
        tensor_product(L, c4, c6)
    assert (info.value.check, str(info.value), info.value.witness) == (
        "tensor_product", message, witness)


def test_tensor_product_hypothesis_failure_fallback():
    L = cyclic_lattice(12)
    c4 = node_of_size(L, 4)
    report = tensor_product(L, c4, c4)
    assert not report.hypothesis_cover_containment
    assert not report.identity_holds
    # chi^{C4.}^2 = chi^{C4.} + 2 chi^{C12.}
    assert report.coefficients == {c4: Fraction(1), L.top: Fraction(2)}


def test_tensor_product_top_with_itself():
    L = cyclic_lattice(12)
    report = tensor_product(L, L.top, L.top)
    assert report.identity_holds
    assert report.coefficients == {L.top: Fraction(1)}


def test_tensor_product_cyclic_prime_set_criterion():
    # hypotheses hold iff primes(n/gcd) == primes(lcm/gcd), for all a,b | n <= 60
    from math import gcd

    for n in range(2, 61):
        L = cyclic_lattice(n)
        by_size = {L.size(i): i for i in range(len(L))}
        divs = sorted(by_size)
        for a in divs:
            for b in divs:
                g = gcd(a, b)
                lcm = a * b // g
                expected = set(prime_factors(n // g)) == set(prime_factors(lcm // g))
                report = tensor_product(L, by_size[a], by_size[b])
                hypotheses = (
                    report.hypothesis_general_position[0]
                    and report.hypothesis_general_position[1]
                    and report.hypothesis_cover_containment
                )
                assert hypotheses == expected, (n, a, b)
                if hypotheses:
                    assert report.identity_holds


def test_tensor_product_basis_lattice_union_criterion():
    # hypotheses hold iff the two basis subsets cover the whole basis
    from corpus import basis_lattice, basis_node

    for q, dim in ((2, 2), (2, 3), (3, 2), (2, 4), (2, 5)):
        L = basis_lattice(q, dim)
        for sub_a in range(1 << dim):
            for sub_b in range(1 << dim):
                a = basis_node(L, [i for i in range(dim) if (sub_a >> i) & 1])
                b = basis_node(L, [i for i in range(dim) if (sub_b >> i) & 1])
                report = tensor_product(L, a, b)
                hypotheses = all(report.hypothesis_general_position) and (
                    report.hypothesis_cover_containment
                )
                assert hypotheses == (sub_a | sub_b == (1 << dim) - 1), (q, dim, sub_a, sub_b)
                if hypotheses:
                    assert report.identity_holds


def test_tensor_identity_verified_pointwise_corpus():
    from latsuper import is_general_position

    for name, L in small_corpus():
        theory = build_theory(L)
        m = len(L)
        gp = [is_general_position(L, L.covers(n), n) for n in range(m)]
        for a in range(m):
            for b in range(m):
                meet = L.meet(a, b)
                holds = gp[a] and gp[b] and all(
                    L.leq(o, a) or L.leq(o, b) for o in L.covers(meet)
                )
                if not holds:
                    continue
                report = tensor_product(L, a, b)
                assert report.identity_holds, (name, a, b)
                # re-verify the identity from the reported coefficient
                product = list(map(mul, theory.rows[a], theory.rows[b]))
                c = report.coefficients[report.meet]
                for v, w in zip(product, theory.rows[report.meet]):
                    assert v == c * w, (name, a, b)


def test_convolution_support_matches_schur_constants():
    # the convolution of two superclass sums, read as a class function, lives in
    # the supercharacter span and is supported exactly on the blocks carrying
    # nonzero Schur structure constants, as the in-test reference counts them
    from latsuper.groups import _bits
    from latsuper.oracle import schur_closure_check
    from test_oracle import reference_schur

    for L in (cyclic_lattice(6), s3_lattice(), q8_lattice()):
        theory = build_theory(L)
        part = theory.partition
        G = L.group
        assert schur_closure_check(L, theory) == {"status": "pass"}
        constants = reference_schur(L, theory)["constants"]
        for i in part.blocks:
            for j in part.blocks:
                counts = [0] * G.order
                for a in _bits(part.blocks[i]):
                    for b in _bits(part.blocks[j]):
                        counts[G.mul[a][b]] += 1
                as_function = {
                    k: Fraction(counts[next(_bits(part.blocks[k]))]) for k in part.blocks
                }
                # exactness asserted inside
                decompose_class_function(theory, list(as_function.values()))
                support = {k for k, v in as_function.items() if v}
                expected = {k for k in part.blocks if f"{i},{j}->{k}" in constants}
                assert support == expected
