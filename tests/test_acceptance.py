"""Acceptance suite: one test per criterion, each printing a pass line.

Everything here is exact (Fraction or integer comparisons, zero tolerance).
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

from fractions import Fraction
from math import gcd
from operator import mul

import pytest

from latsuper import (
    build_theory,
    chi_bullet_multiplicative,
    chi_subgroup,
    degree_sum,
    distributive_analysis,
    is_general_position,
    normal_lattice,
    tensor_product,
    verify_sct,
)
from latsuper.cli import main as cli_main
from latsuper.errors import FormulaInapplicableError
from latsuper.groups import _bits
from latsuper.restriction import (
    GroupEmbedding,
    build_restriction_context,
    restrict_decompose,
)

from corpus import (
    basis_lattice,
    basis_node,
    basis_vector,
    cyclic_group,
    cyclic_lattice,
    d4_lattice,
    degree_sum_case,
    full_corpus,
    node_of_size,
    prime_factors,
    ramanujan_sum,
    rebuilt_rows,
    restricted_row,
    s3_lattice,
    small_corpus,
    subsp_lattice,
)
from test_restriction import blocksum_embedding, cyclic_embedding, identity_embedding


def _divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def test_c01_lattice_fidelity():
    L = cyclic_lattice(12)
    assert len(L) == 6
    # order-isomorphic to the divisor lattice of 12
    for i in range(len(L)):
        for j in range(len(L)):
            assert L.leq(i, j) == (L.size(j) % L.size(i) == 0)
    for n in range(1, 61):
        assert len(cyclic_lattice(n)) == _divisor_count(n), n
    print("PASS criterion 1: ker(C_n) is the divisor lattice, n <= 60")


def test_c02_superclass_counts():
    for q in (2, 3, 4, 5):
        for n in (1, 2, 3):
            part = build_theory(subsp_lattice(q, n)).partition
            assert len(part.blocks) == 1 + (q**n - 1) // (q - 1), (q, n)
    print("PASS criterion 2: subsp(F_q^n) superclass counts, q <= 5, n <= 3")


def test_c03_ramanujan_sums():
    for n in range(1, 61):
        L = cyclic_lattice(n)
        theory = build_theory(L)
        chi = dict(zip(theory.nodes, theory.rows[L.bottom]))
        for k in range(n):
            assert chi[theory.partition.block_of[k]] == ramanujan_sum(n, k), (n, k)
    print("PASS criterion 3: chi^{C_1.}(x^k) = c_n(k) for all n <= 60")


def test_c04_vector_space_character_values():
    # hyperplanes: q-1 on U, -1 off U
    for q in (2, 3, 4, 5):
        for n in (2, 3):
            L = subsp_lattice(q, n)
            part = build_theory(L).partition
            rows = rebuilt_rows(L)
            for u in range(len(L)):
                if L.size(u) != q ** (n - 1):
                    continue
                chi = dict(zip(sorted(part.blocks), rows[u]))
                for b in part.blocks:
                    assert chi[b] == (q - 1 if L.leq(b, u) else -1), (q, n, u)
    # chi^A at sum(D): (q-1)^{|B-(A u D)|} (-1)^{|(B-A) n D|}
    for q in (2, 3):
        for dim in (1, 2, 3, 4):
            L = basis_lattice(q, dim)
            theory = build_theory(L)
            for a_set in range(1 << dim):
                a_nodes = [i for i in range(dim) if (a_set >> i) & 1]
                chi = dict(zip(theory.nodes, theory.rows[basis_node(L, a_nodes)]))
                for d_set in range(1 << dim):
                    g = 0
                    for i in range(dim):
                        if (d_set >> i) & 1:
                            g = L.group.mul[g][basis_vector(L.group, i)]
                    expected = (q - 1) ** (dim - bin(a_set | d_set).count("1")) * (
                        -1
                    ) ** bin(d_set & ~a_set).count("1")
                    assert chi[theory.partition.block_of[g]] == expected, (q, dim, a_set, d_set)
    print("PASS criterion 4: hyperplane and basis-lattice character values")


def test_c05_dual_path_equivalence():
    applicable = 0
    for name, L in full_corpus():
        rows = rebuilt_rows(L)
        for n in range(len(L)):
            try:
                chi = chi_bullet_multiplicative(L, n)
            except FormulaInapplicableError:
                continue
            applicable += 1
            assert chi == rows[n], (name, n)
    assert applicable > 300
    print(f"PASS criterion 5: dual-path equality on {applicable} corpus nodes")


def test_c06_axiom_suite():
    for name, L in full_corpus():
        report = verify_sct(L)
        for key in ("SC1", "SC2", "integrality", "orthogonality", "schur_closure"):
            assert report[key] == "pass", (name, key)
        if L.group.is_abelian:
            assert report["SC3_abelian"] == "pass", name
    print(f"PASS criterion 6: axioms on all {len(full_corpus())} corpus theories")


def test_c07_degree_sum_theorem():
    lattices = [cyclic_lattice(n) for n in range(1, 37)] + [s3_lattice(), d4_lattice()]
    cases = {"disjoint": 0, "no_covers": 0, "product": 0}
    for L in lattices:
        m = len(L)
        for k in range(m):
            for lnode in range(m):
                for mm in range(m):
                    result = degree_sum(L, k, lnode, mm)
                    # equality of closed form and node scan is asserted inside;
                    # count the applicable cases to confirm coverage
                    if result.closed_form_applicable:
                        cases[degree_sum_case(L, k, lnode, mm)] += 1
    assert all(v > 0 for v in cases.values())
    print(f"PASS criterion 7: degree-sum closed form on all triples ({cases})")


def test_c08_tensor_product():
    L = cyclic_lattice(12)
    c4, c6, c2 = node_of_size(L, 4), node_of_size(L, 6), node_of_size(L, 2)
    report = tensor_product(L, c4, c6)
    assert report.identity_holds and report.meet == c2
    held = 0
    for name, L in full_corpus():
        theory = build_theory(L)
        m = len(L)
        gp = [is_general_position(L, L.covers(n), n) for n in range(m)]
        for a in range(m):
            for b in range(m):
                meet = L.meet(a, b)
                if not (
                    gp[a] and gp[b]
                    and all(L.leq(o, a) or L.leq(o, b) for o in L.covers(meet))
                ):
                    continue
                rep = tensor_product(L, a, b)
                assert rep.identity_holds, (name, a, b)
                product = list(map(mul, theory.rows[a], theory.rows[b]))
                c = rep.coefficients[rep.meet]
                for v, w in zip(product, theory.rows[rep.meet]):
                    assert v == c * w, (name, a, b)
                held += 1
    assert held > 500
    print(f"PASS criterion 8: tensor identity at every block on {held} corpus pairs")


def _favorable_pairs():
    pairs = []
    for n, m in ((12, 6), (12, 4), (12, 3), (24, 12), (24, 6), (30, 15), (30, 10), (36, 12)):
        ctx = build_restriction_context(
            cyclic_embedding(cyclic_group(m), cyclic_group(n)),
            cyclic_lattice(n),
            cyclic_lattice(m),
        )
        pairs.append((f"C{n}->C{m}", ctx))
    for L in (cyclic_lattice(12), basis_lattice(2, 3), basis_lattice(3, 2)):
        ctx = build_restriction_context(identity_embedding(L.group), L, L)
        pairs.append((f"id({L.group.name})", ctx))
    for q, blocks, dim in (
        (2, [(0, 1), (2,)], 3),
        (2, [(0, 2), (1,)], 3),
        (2, [(0,), (1,), (2,)], 3),
        (3, [(0,), (1,)], 3),
    ):
        emb = blocksum_embedding(q, blocks, dim)
        ctx = build_restriction_context(
            emb, basis_lattice(q, dim), basis_lattice(q, len(blocks))
        )
        pairs.append((f"blocksum(q={q},{blocks})", ctx))
    return pairs


def test_c09_restriction():
    # the printed cyclic formula: Res(chi^d)/chi^d(1) = chi^gcd(d,6)/chi^gcd(d,6)(1)
    LG, LH = cyclic_lattice(12), cyclic_lattice(6)
    ctx = build_restriction_context(
        cyclic_embedding(cyclic_group(6), cyclic_group(12)), LG, LH
    )
    for d in (1, 2, 3, 4, 6, 12):
        report = restrict_decompose(ctx, node_of_size(LG, d))
        assert len(report.terms) == 1
        term = report.terms[0]
        assert LH.size(term.node) == gcd(d, 6)
        deg_h = build_theory(LH).rows[term.node][0]
        assert term.normalized_coefficient == Fraction(1) / deg_h
    # all favorable corpus pairs, every anchor: part (a), closed form vs
    # degree-sum route vs projection (asserted inside), nonzero coefficients
    total_terms = 0
    for name, ctx in _favorable_pairs():
        assert ctx.favorable, name
        for n in range(len(ctx.latticeG.nodes)):
            report = restrict_decompose(ctx, n)
            # part (a): Res(chi)/chi(1) = chi^{meet(A_H).}/deg * chi^{C cap H}/deg
            theory_h = build_theory(ctx.latticeH)
            degree = build_theory(ctx.latticeG).rows[report.anchor][0]
            chi_mh = theory_h.rows[report.meet_A_H]
            cover_join_cap_h = ctx.intersect[ctx.latticeG.cover_join(report.anchor)]
            chi_c = chi_subgroup(ctx.latticeH, cover_join_cap_h)
            for b, value in enumerate(restricted_row(ctx, report.anchor)):
                assert Fraction(value, degree) == (
                    Fraction(chi_mh[b], chi_mh[0])
                    * Fraction(chi_c[b], chi_c[0])), (name, n, b)
            assert report.terms and all(t.coefficient != 0 for t in report.terms)
            total_terms += len(report.terms)
    print(f"PASS criterion 9: restriction decompositions ({total_terms} terms checked)")


def test_exact_results_hold_no_float():
    # the table is integer, so every division must make a Fraction, not a float
    exact = (int, Fraction)
    for name, ctx in _favorable_pairs():
        for n in range(len(ctx.latticeG.nodes)):
            report = restrict_decompose(ctx, n)
            assert {type(v) for v in restricted_row(ctx, report.anchor)} == {int}, (name, n)
            for t in report.terms:
                assert type(t.coefficient) is Fraction, (name, n)
                assert type(t.normalized_coefficient) is Fraction, (name, n)
    for name, L in small_corpus():
        m = min(len(L.nodes), 8)
        for a in range(m):
            for b in range(m):
                report = tensor_product(L, a, b)
                assert {type(c) for c in report.coefficients.values()} <= {Fraction}, (name, a, b)
                for c in range(m):
                    result = degree_sum(L, a, b, c)
                    assert type(result.value) in exact, (name, a, b, c)
                    assert type(result.closed_form_applicable) is bool, (name, a, b, c)


def _prime_sets_with_product_up_to(bound):
    primes = [p for p in range(2, bound + 1) if all(p % d for d in range(2, p))]
    sets = [((), 1)]
    for p in primes:
        sets += [(s + (p,), prod * p) for s, prod in sets if prod * p <= bound]
    return sets


def test_c10_free_identities():
    # prime-set identity: sum over A with a | b*prod(A) of (-1)^|A|/prod(A)
    for pset, total in _prime_sets_with_product_up_to(210):
        squarefree = []
        for subset in range(1 << len(pset)):
            prod = 1
            for i, p in enumerate(pset):
                if (subset >> i) & 1:
                    prod *= p
            squarefree.append(prod)
        for a in squarefree:
            for b in squarefree:
                lhs = Fraction(0)
                for subset in range(1 << len(pset)):
                    prod = 1
                    for i, p in enumerate(pset):
                        if (subset >> i) & 1:
                            prod *= p
                    if (b * prod) % a == 0:
                        lhs += Fraction((-1) ** bin(subset).count("1"), prod)
                # minimal O by literal search over subsets ordered by product
                best = None
                for subset in range(1 << len(pset)):
                    prod = 1
                    for i, p in enumerate(pset):
                        if (subset >> i) & 1:
                            prod *= p
                    if (b * prod) % a == 0 and (best is None or prod < best[1]):
                        best = (subset, prod)
                assert best is not None
                chosen = {pset[i] for i in range(len(pset)) if (best[0] >> i) & 1}
                rhs = Fraction(1)
                for p in pset:
                    rhs *= Fraction(-1, p) if p in chosen else 1 - Fraction(1, p)
                assert lhs == rhs, (pset, a, b)
    # subset identity over C between A and B containing D
    for q in (2, 3, 4, 5):
        for size in range(0, 6):
            universe = list(range(size))
            for a_set in range(1 << size):
                for d_set in range(1 << size):
                    lhs = 0
                    for c_set in range(1 << size):
                        if c_set & a_set == a_set and c_set & d_set == d_set:
                            lhs += (-1) ** bin(c_set & ~a_set).count("1") * q ** (
                                size - bin(c_set).count("1")
                            )
                    rhs = (q - 1) ** (size - bin(a_set | d_set).count("1")) * (-1) ** bin(
                        d_set & ~a_set
                    ).count("1")
                    assert lhs == rhs, (q, size, a_set, d_set)
    print("PASS criterion 10: prime-set identity (products <= 210) and subset identity")


def test_c11_cover_meet_lemma():
    for name, L in full_corpus():
        for m in range(len(L)):
            cj_m = L.cover_join(m)
            for n in range(len(L)):
                assert L.meet(cj_m, L.cover_join(n)) == L.cover_join(L.meet(m, n)), (
                    name, m, n,
                )
    print("PASS criterion 11: cover-join meet identity on every corpus lattice")


def test_c12_negative_controls(tmp_path, capsys):
    import json

    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    # non-associative table through verify: exit 2, named witness triple
    code = cli_main(["verify", "--group", write("loop.json", {"kind": "table", "mul": loop})])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    failed = [c for c in out["checks"] if not c["passed"]][0]
    assert failed["error"]["check"] == "associativity" and failed["error"]["witness"]
    # non-closed sublattice: exit 1, witness names the offending pair
    group = write("c12.json", {"kind": "cyclic", "n": 12})
    bad_nodes = write("nodes.json", {"nodes": [[0], [0, 6], [0, 4, 8], list(range(12))]})
    code = cli_main(["sct", "--group", group, "--sublattice", bad_nodes])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["error"]["check"] == "join_closure"
    # non-favorable embedding: exit 1 with (R2) witnesses
    emb = write("emb.json", {"source": {"kind": "cyclic", "n": 6}, "map": [0, 2, 4, 6, 8, 10]})
    anchor = write("anchor.json", {"node": [0]})
    coarse = write("coarse.json", {"generators": []})
    code = cli_main(
        ["restrict", "--group", group, "--sublattice", coarse, "--embedding", emb,
         "--anchor", anchor]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["witnesses"]["r2_witnesses"]
    print("PASS criterion 12: negative controls exit 2/1/1 with named witnesses")
