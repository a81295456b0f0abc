import json
from fractions import Fraction
from math import gcd

import pytest

from latsuper import (
    ArgumentError,
    ConstructionError,
    GroupEmbedding,
    UnsupportedStructureError,
    build_restriction_context,
    build_theory,
    compute_A_H,
    distributive_analysis,
    restrict_decompose,
)
from latsuper.cli import main
from latsuper.errors import UnfavorableEmbeddingError
from latsuper.groups import _bits
from latsuper.lattice import closed_sublattice

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


def test_identity_context_favorable():
    L = cyclic_lattice(12)
    ctx = build_restriction_context(identity_embedding(L.group), L, L)
    assert ctx.favorable
    assert all(ctx.intersect[i] == i for i in range(len(L)))


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
    assert info.value.witness == [2, 3, 4] == list(distributive_analysis(LQ).violation)


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
        a_h = compute_A_H(ctx, distributive_analysis(LG).antichain_of[anchor])
        assert LH.size(LH.meet_all(a_h)) == gcd(d, 6)


def test_compute_A_H_requires_favorable():
    G, H = cyclic_group(12), cyclic_group(6)
    LG = closed_sublattice(cyclic_group(12), [])
    ctx = build_restriction_context(cyclic_embedding(H, G), LG, cyclic_lattice(6))
    with pytest.raises(UnfavorableEmbeddingError):
        compute_A_H(ctx, (LG.bottom,))


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
                if not (LG.nodes[n].mask >> basis_vector(LG.group, i)) & 1
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
