import json
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest

from latsuper import (
    ArgumentError,
    ConstructionError,
    GroupEmbedding,
    LatsuperError,
    UnsupportedStructureError,
    birkhoff_antichain,
    build_restriction_context,
    build_theory,
    compute_A_H,
    normal_lattice,
    restrict_decompose,
)
from latsuper.cli import main
from latsuper.errors import UnfavorableEmbeddingError
from latsuper.groups import _bits
from latsuper.lattice import _first_violation, closed_sublattice

from corpus import (
    basis_lattice,
    basis_node,
    basis_vector,
    coordinates,
    cyclic_group,
    cyclic_lattice,
    node_of_size,
    q8_lattice,
    restricted_row,
    scale,
    symmetric_group,
    vector_space_group,
)


def identity_embedding(G):
    return GroupEmbedding(G, G, tuple(range(G.order)))


def cyclic_embedding(H, G):
    """C_m into C_n (m | n) via x -> x^(n/m)."""
    step = G.order // H.order
    return GroupEmbedding(H, G, tuple(h * step for h in range(H.order)))


def blocksum_embedding(q, blocks, target_dim):
    """F_q^len(blocks) into F_q^target_dim sending basis vector i to the sum of
    the target basis vectors in blocks[i]."""
    H = vector_space_group(q, len(blocks))
    G = vector_space_group(q, target_dim)
    images = []
    for block in blocks:
        v = 0
        for i in block:
            v = G.mul[v][basis_vector(G, i)]
        images.append(v)
    phi = []
    for h in range(H.order):
        g = 0
        for c, img in zip(coordinates(H, h), images):
            g = G.mul[g][scale(G, c, img)]
        phi.append(g)
    return GroupEmbedding(H, G, tuple(phi))


def test_embedding_validation():
    G = cyclic_group(6)
    with pytest.raises(ConstructionError):
        GroupEmbedding(G, G, (0, 1, 2, 3, 4, 4))  # not injective
    with pytest.raises(ConstructionError):
        GroupEmbedding(G, G, (1, 2, 3, 4, 5, 0))  # identity not fixed
    with pytest.raises(ConstructionError):
        GroupEmbedding(G, G, (0, 2, 1, 3, 5, 4))  # not a homomorphism
    emb = cyclic_embedding(cyclic_group(3), G)
    assert emb.map == (0, 2, 4)


def first_non_homomorphic_pair(H, G, phi):
    """The all-pairs scan in row-major order: the first (a, b) with
    phi(a*b) != phi(a)*phi(b), or None."""
    return next(([a, b] for a in range(H.order) for b in range(H.order)
                 if phi[H.mul[a][b]] != G.mul[phi[a]][phi[b]]), None)


def test_a_non_homomorphism_names_the_first_failing_pair():
    with pytest.raises(ConstructionError) as info:
        GroupEmbedding(cyclic_group(4), cyclic_group(8), (0, 2, 4, 7))
    assert info.value.check == "embedding"
    assert str(info.value) == "embedding is not a homomorphism at (1,2)"
    assert info.value.witness == [1, 2]


@pytest.mark.parametrize("H, G", [
    (cyclic_group(4), cyclic_group(8)),
    (symmetric_group(3), symmetric_group(3)),
    (cyclic_group(6), symmetric_group(3)),
], ids=["C4 into C8", "S3 into S3", "C6 into S3"])
def test_generator_columns_decide_the_homomorphism_check(H, G):
    """Every injective map fixing the identity passes exactly when no pair
    fails, and otherwise names the pair of the row-major scan."""
    for rest in permutations(range(1, G.order), H.order - 1):
        phi = (0, *rest)
        pair = first_non_homomorphic_pair(H, G, phi)
        if pair is None:
            assert GroupEmbedding(H, G, phi).map == phi
            continue
        with pytest.raises(ConstructionError) as info:
            GroupEmbedding(H, G, phi)
        assert (str(info.value), info.value.witness) == (
            f"embedding is not a homomorphism at ({pair[0]},{pair[1]})", pair)


def test_identity_context_favorable():
    L = cyclic_lattice(12)
    ctx = build_restriction_context(identity_embedding(L.group), L, L)
    assert ctx.favorable
    assert all(ctx.intersect[i] == i for i in range(len(L)))


def test_lattices_of_other_groups_are_refused():
    G, H = cyclic_group(12), cyclic_group(6)
    LG, LH = cyclic_lattice(12), cyclic_lattice(6)
    embedding = cyclic_embedding(H, G)
    for lattice_g, lattice_h in ((LH, LG), (LG, LG), (LH, LH)):
        with pytest.raises(ArgumentError) as info:
            build_restriction_context(embedding, lattice_g, lattice_h)
        assert (info.value.check, str(info.value), info.value.witness) == (
            "embedding_lattices", "lattices do not match the embedding's groups",
            {"G": lattice_g.group.name, "H": lattice_h.group.name})
    assert build_restriction_context(embedding, LG, LH).favorable


def test_c6_into_c12_favorable():
    G, H = cyclic_group(12), cyclic_group(6)
    LG, LH = cyclic_lattice(12), cyclic_lattice(6)
    ctx = build_restriction_context(cyclic_embedding(H, G), LG, LH)
    assert ctx.favorable
    # intersection sends C_d to C_gcd(d, 6)
    for i in range(len(LG)):
        assert LH.size(ctx.intersect[i]) == gcd(LG.size(i), 6)


def test_blocksum_context_favorable():
    emb = blocksum_embedding(2, [(0, 1), (2,)], 3)
    LG = basis_lattice(2, 3)
    LH = basis_lattice(2, 2)
    ctx = build_restriction_context(emb, LG, LH)
    assert ctx.favorable


def test_non_distributive_rejected():
    # the three C4 of Q8 (nodes 2, 3, 4) violate distributivity
    LQ = q8_lattice()
    with pytest.raises(UnsupportedStructureError) as info:
        build_restriction_context(identity_embedding(LQ.group), LQ, LQ)
    assert info.value.check == "distributivity"
    assert info.value.witness == [2, 3, 4] == list(_first_violation(LQ))


def test_unfavorable_r2_witnesses():
    # coarse lattice {1, C12} on G against the full lattice of C6: the cover
    # 1 < C12 intersects down to 1 < C6, which is not a cover in ker(C6)
    G, H = cyclic_group(12), cyclic_group(6)
    LG = closed_sublattice(cyclic_group(12), [])
    LH = cyclic_lattice(6)
    ctx = build_restriction_context(cyclic_embedding(H, G), LG, LH)
    assert not ctx.favorable
    assert ctx.r2_witnesses == [(LG.bottom, LG.top)]
    with pytest.raises(UnfavorableEmbeddingError):
        restrict_decompose(ctx, LG.bottom)


def test_index_mismatch_witnesses():
    # {1, C4} on C4 vs the full lattice of C2: (R1)/(R2) pass literally, but
    # the cover 1 < C4 is not generated by the intersection (index 4 vs 2)
    G, H = cyclic_group(4), cyclic_group(2)
    LG = closed_sublattice(cyclic_group(4), [])
    LH = cyclic_lattice(2)
    ctx = build_restriction_context(cyclic_embedding(H, G), LG, LH)
    assert not ctx.favorable
    assert not ctx.r2_witnesses
    assert ctx.index_witnesses == [(LG.bottom, LG.top)]


def test_compute_A_H_cyclic():
    G, H = cyclic_group(12), cyclic_group(6)
    LG, LH = cyclic_lattice(12), cyclic_lattice(6)
    ctx = build_restriction_context(cyclic_embedding(H, G), LG, LH)
    for d in (1, 2, 3, 4, 6, 12):
        anchor = node_of_size(LG, d)
        a_h = compute_A_H(ctx, birkhoff_antichain(LG, anchor))
        assert LH.size(LH.meet_all(a_h)) == gcd(d, 6)


def test_compute_A_H_requires_favorable():
    G, H = cyclic_group(12), cyclic_group(6)
    LG = closed_sublattice(cyclic_group(12), [])
    ctx = build_restriction_context(cyclic_embedding(H, G), LG, cyclic_lattice(6))
    with pytest.raises(UnfavorableEmbeddingError):
        compute_A_H(ctx, (LG.bottom,))


def test_both_entry_points_refuse_an_unfavorable_context_alike():
    # one refusal, raised before the anchor is read: an out-of-range anchor
    # gets the same payload as a node of the lattice
    G, H = cyclic_group(12), cyclic_group(6)
    LG = closed_sublattice(cyclic_group(12), [])
    ctx = build_restriction_context(cyclic_embedding(H, G), LG, cyclic_lattice(6))
    payloads = []
    for call, anchor in ((restrict_decompose, LG.bottom), (restrict_decompose, [LG.bottom]),
                         (restrict_decompose, 99), (compute_A_H, (LG.bottom,))):
        with pytest.raises(UnfavorableEmbeddingError) as info:
            call(ctx, anchor)
        payloads.append(info.value.payload())
    assert payloads == [payloads[0]] * 4
    assert payloads[0]["check"] == "favorable"
    assert payloads[0]["witness"] == ctx.witnesses_json()


def test_comparable_antichain_is_refused():
    """An antichain of meet irreducibles with a comparable pair (C3 < C6 in
    C12) names the pair, in-process and through the CLI; a node that is not
    meet irreducible is named by its index."""
    G, H = cyclic_group(12), cyclic_group(6)
    LG, LH = cyclic_lattice(12), cyclic_lattice(6)
    ctx = build_restriction_context(cyclic_embedding(H, G), LG, LH)
    c3, c6, c2 = node_of_size(LG, 3), node_of_size(LG, 6), node_of_size(LG, 2)
    for call in (restrict_decompose, compute_A_H):
        with pytest.raises(ArgumentError) as info:
            call(ctx, [c3, c6])
        assert "comparable" in str(info.value)
        assert (info.value.check, info.value.witness) == ("antichain", [c3, c6])
        with pytest.raises(ArgumentError) as info:
            call(ctx, [c2])
        assert str(info.value) == f"node {c2} is not meet irreducible in the G-lattice"
        assert (info.value.check, info.value.witness) == ("irreducible", c2)


def test_comparable_antichain_exits_1(tmp_path, capsys):
    files = {"g.json": {"kind": "cyclic", "n": 12},
             "e.json": {"source": {"kind": "cyclic", "n": 6}, "map": [0, 2, 4, 6, 8, 10]},
             "a.json": {"antichain": [[0, 4, 8], [0, 2, 4, 6, 8, 10]]}}
    for name, payload in files.items():
        (tmp_path / name).write_text(json.dumps(payload))
    code = main(["restrict", "--group", str(tmp_path / "g.json"),
                 "--embedding", str(tmp_path / "e.json"), "--anchor", str(tmp_path / "a.json")])
    error = json.loads(capsys.readouterr().out)["error"]
    LG = cyclic_lattice(12)
    assert code == 1
    assert error["category"] == "ArgumentError"
    assert error["check"] == "antichain"
    assert error["witness"] == [node_of_size(LG, 3), node_of_size(LG, 6)]


def test_repeated_antichain_node_is_reported_once(tmp_path, capsys):
    # C4 = {0, 3, 6, 9} given twice is the antichain [C4], as meet_all reads it
    files = {"g.json": {"kind": "cyclic", "n": 12},
             "e.json": {"source": {"kind": "cyclic", "n": 6}, "map": [0, 2, 4, 6, 8, 10]},
             "twice.json": {"antichain": [[0, 3, 6, 9], [0, 3, 6, 9]]},
             "once.json": {"antichain": [[0, 3, 6, 9]]}}
    for name, payload in files.items():
        (tmp_path / name).write_text(json.dumps(payload))
    outputs = []
    for anchor in ("twice.json", "once.json"):
        code = main(["restrict", "--group", str(tmp_path / "g.json"),
                     "--embedding", str(tmp_path / "e.json"), "--anchor", str(tmp_path / anchor)])
        assert code == 0
        outputs.append(json.loads(capsys.readouterr().out))
    assert [p["label"] for p in outputs[0]["antichain"]] == ["C4"]
    assert outputs[0] == outputs[1]


def point_element_2_at_block_c3():
    """C6 into C12, anchor 1: element 2 of C12 (the image of 1) joins the
    block of 4, where chi^{1.} reads -2 against 2."""
    G, H = cyclic_group(12), cyclic_group(6)
    ctx = build_restriction_context(cyclic_embedding(H, G), normal_lattice(G), normal_lattice(H))
    block_of = build_theory(ctx.latticeG).partition.block_of
    block_of[2] = block_of[4]
    return ctx, ctx.latticeG.bottom


def raise_c2_at_its_own_block():
    """C12 into itself, anchor C2: chi^{C2.} reads one more on the block C2,
    which lies under cover_join(C2), so the factorization still holds."""
    L = normal_lattice(cyclic_group(12))
    ctx = build_restriction_context(identity_embedding(L.group), L, L)
    c2, theory = node_of_size(L, 2), build_theory(L)
    theory.rows[c2][theory.nodes.index(c2)] += 1
    return ctx, c2


@pytest.mark.parametrize("tampered, error, check, message, witness", [
    (point_element_2_at_block_c3, "CompatibilityError", "restriction_constancy",
     "restricted character is not constant on an H-superclass", {"anchor": 0, "H_block": 3}),
    (raise_c2_at_its_own_block, "InternalConsistencyError", "restriction_coefficient",
     "coefficient closed form disagrees with the degree-sum route",
     {"K": 1, "closed": "1/3", "degree_sum": "1/2"}),
])
def test_restrict_decompose_rejects_a_tampered_theory(tampered, error, check, message, witness):
    ctx, anchor = tampered()
    with pytest.raises(LatsuperError) as info:
        restrict_decompose(ctx, anchor)
    assert (type(info.value).__name__, info.value.check, str(info.value),
            info.value.witness) == (error, check, message, witness)


def test_trivial_restriction_identity():
    L = cyclic_lattice(12)
    ctx = build_restriction_context(identity_embedding(L.group), L, L)
    for n in range(len(L)):
        report = restrict_decompose(ctx, n)
        assert [t.node for t in report.terms] == [n]
        assert report.terms[0].coefficient == 1


def test_cyclic_restriction_gcd_formula():
    # Res(chi^d)/chi^d(1) = chi^gcd(d, m) / chi^gcd(d, m)(1) for all d | n
    for n, m in ((12, 6), (12, 4), (30, 15), (24, 6), (36, 12)):
        G, H = cyclic_group(n), cyclic_group(m)
        LG, LH = cyclic_lattice(n), cyclic_lattice(m)
        ctx = build_restriction_context(cyclic_embedding(H, G), LG, LH)
        assert ctx.favorable
        for d in (x for x in range(1, n + 1) if n % x == 0):
            report = restrict_decompose(ctx, node_of_size(LG, d))
            assert len(report.terms) == 1
            term = report.terms[0]
            assert LH.size(term.node) == gcd(d, m)
            deg_g = build_theory(LG).rows[node_of_size(LG, d)][0]
            deg_h = build_theory(LH).rows[term.node][0]
            assert term.coefficient == deg_g / deg_h
            assert term.normalized_coefficient == 1 / deg_h


def test_blocksum_restriction_collapsed():
    # F_2^3 with the 2-dim block-sum subspace span{e1+e2, e3}: every
    # restriction collapses to a single supercharacter of the subgroup
    emb = blocksum_embedding(2, [(0, 1), (2,)], 3)
    LG, LH = basis_lattice(2, 3), basis_lattice(2, 2)
    ctx = build_restriction_context(emb, LG, LH)
    report = restrict_decompose(ctx, basis_node(LG, [0, 1]))
    assert report.collapsed
    assert len(report.terms) == 1
    # the label set {sum of B : |B cap {e3}| != 1} keeps only the e1+e2 block
    assert report.terms[0].node == basis_node(LH, [0])
    # anchor without e0: the block {e0,e1} is hit once and drops; {e2} survives
    report = restrict_decompose(ctx, basis_node(LG, [1, 2]))
    assert report.terms[0].node == basis_node(LH, [1])


def test_blocksum_full_scan():
    # 2-element blocks at q = 2 plus singleton-block (interval) embeddings
    for q, blocks, dim in (
        (2, [(0, 1), (2,)], 3),
        (2, [(0, 2), (1,)], 3),
        (2, [(0,), (1,), (2,)], 3),
        (3, [(0,), (1,)], 3),
        (3, [(2,)], 3),
    ):
        emb = blocksum_embedding(q, blocks, dim)
        LG, LH = basis_lattice(q, dim), basis_lattice(q, len(blocks))
        ctx = build_restriction_context(emb, LG, LH)
        assert ctx.favorable
        for n in range(len(LG)):
            report = restrict_decompose(ctx, n)
            assert report.collapsed
            assert len(report.terms) == 1
            # paper label rule: keep the blocks meeting the removed set evenly
            removed = [
                i for i in range(dim)
                if not (LG.nodes[n] >> basis_vector(LG.group, i)) & 1
            ]
            expected = [
                j for j, block in enumerate(blocks)
                if len(set(block) & set(removed)) != 1
            ]
            assert report.terms[0].node == basis_node(LH, expected), (q, blocks, n)


def test_blocksum_factorization_counterexamples():
    # block sums beyond 2-element blocks at q = 2 pass (R1)/(R2) and the
    # diamond condition, yet the one-term factorization genuinely fails; the
    # failure surfaces as a verification result with a witness, and the true
    # decomposition (by projection) still exists inside the span
    from latsuper import VerificationError, decompose_class_function

    for q, blocks, dim, true_terms in (
        (3, [(0, 2), (1,)], 3, 2),   # Res(chi^{0.}) = chi^{0.} + 2 chi^{<x0>.}
        (2, [(0, 1, 2)], 3, 1),      # Res(chi^{0.}) = chi^{0.}, not chi^{H.}
    ):
        emb = blocksum_embedding(q, blocks, dim)
        LG, LH = basis_lattice(q, dim), basis_lattice(q, len(blocks))
        ctx = build_restriction_context(emb, LG, LH)
        assert ctx.favorable
        with pytest.raises(VerificationError) as info:
            restrict_decompose(ctx, LG.bottom)
        assert info.value.check == "restriction_factorization"
        theory_h = build_theory(LH)
        restricted = []
        theory_g = build_theory(LG)
        chi = dict(zip(theory_g.nodes, theory_g.rows[LG.bottom]))
        for bnode, bmask in theory_h.partition.blocks.items():
            values = {chi[theory_g.partition.block_of[emb.map[h]]] for h in _bits(bmask)}
            assert len(values) == 1
            restricted.append(values.pop())
        coeffs = decompose_class_function(theory_h, restricted)
        assert len(coeffs) == true_terms


def test_restriction_terms_nonzero_and_match_projection():
    # exercised across favorable cyclic pairs; the projection cross-check and
    # the degree-sum route both run inside restrict_decompose
    for n, m in ((12, 6), (24, 12), (30, 6)):
        G, H = cyclic_group(n), cyclic_group(m)
        LG, LH = cyclic_lattice(n), cyclic_lattice(m)
        ctx = build_restriction_context(cyclic_embedding(H, G), LG, LH)
        for node in range(len(LG)):
            report = restrict_decompose(ctx, node)
            assert all(t.coefficient != 0 for t in report.terms)
            total = [Fraction(0)] * len(build_theory(LH).nodes)
            for t in report.terms:
                for b, v in enumerate(build_theory(LH).rows[t.node]):
                    total[b] += t.coefficient * v
            assert total == restricted_row(ctx, report.anchor)


def test_intersect_monotone_meet_preserving():
    for n, m in ((12, 6), (24, 12)):
        G, H = cyclic_group(n), cyclic_group(m)
        LG, LH = cyclic_lattice(n), cyclic_lattice(m)
        ctx = build_restriction_context(cyclic_embedding(H, G), LG, LH)
        for a in range(len(LG)):
            for b in range(len(LG)):
                ia, ib = ctx.intersect[a], ctx.intersect[b]
                if LG.leq(a, b):
                    assert LH.leq(ia, ib)
                assert ctx.intersect[LG.meet(a, b)] == LH.meet(ia, ib)
