import copy
import json
import time

import pytest

from latsuper import (
    CapacityError,
    ConstructionError,
    GroupSpec,
    conjugacy_classes,
    is_normal,
    make_group,
    normal_lattice,
)
from latsuper import groups
from latsuper.groups import MAX_ORDER, _bits, closure_mask, mask_of

from corpus import (
    cyclic_group,
    dihedral_group,
    quaternion_group,
    symmetric_group,
    vector_space_group,
)


def test_cyclic_trivial():
    G = make_group(GroupSpec.cyclic(1))
    assert G.order == 1
    assert G.mul == ((0,),)


def test_cyclic_six_modular_addition():
    G = cyclic_group(6)
    assert G.mul[2][5] == 1
    assert G.inv[2] == 4


def test_vector_space_f2_self_inverse():
    # brute force: g + g = 0 for every element of F_2^2
    G = vector_space_group(2, 2)
    assert G.order == 4
    for g in range(4):
        assert G.mul[g][g] == 0
        assert G.inv[g] == g


@pytest.mark.parametrize("q, p, k", [(2, 2, 1), (4, 2, 2), (8, 2, 3), (9, 3, 2), (25, 5, 2)])
@pytest.mark.parametrize("dim", [1, 2])
def test_vector_space_is_a_product_of_cyclic_groups(q, p, k, dim):
    # F_q^dim under addition is C_p^(k dim), built without field arithmetic
    G = make_group(GroupSpec.vector_space(q, dim))
    assert G.name == f"F{q}^{dim}"
    assert G.mul == make_group(GroupSpec.product([GroupSpec.cyclic(p)] * (k * dim))).mul


def test_conjugacy_classes_abelian_singletons():
    G = cyclic_group(6)
    assert [m.bit_count() for m in conjugacy_classes(G)] == [1] * 6
    V = vector_space_group(3, 1)
    assert [m.bit_count() for m in conjugacy_classes(V)] == [1, 1, 1]


def test_conjugacy_classes_s3():
    sizes = sorted(m.bit_count() for m in conjugacy_classes(symmetric_group(3)))
    assert sizes == [1, 2, 3]


def test_conjugacy_classes_identity_first():
    for G in (symmetric_group(3), dihedral_group(4), quaternion_group()):
        assert conjugacy_classes(G)[0] == 1


def subgroup_generated(G, gens):
    return closure_mask(G, mask_of(gens))


def test_subgroup_generated_examples():
    G = cyclic_group(12)
    assert list(_bits(subgroup_generated(G, []))) == [0]
    assert list(_bits(subgroup_generated(G, [4]))) == [0, 4, 8]
    assert subgroup_generated(G, [2, 3]).bit_count() == 12


def test_subgroup_generated_idempotent():
    G = dihedral_group(4)
    for gens in ([1], [4], [1, 4], [2, 5]):
        H = subgroup_generated(G, gens)
        again = subgroup_generated(G, list(_bits(H)))
        assert again == H


@pytest.mark.parametrize("elements", [
    [],
    [0],
    [4095],
    [3, 700, 2048, 4095],              # sparse: read bit by bit
    list(range(0, 4096, 2)),           # dense: read from the binary digits
    list(range(4096)),
    [g for g in range(4096) if g % 16 != 5],
])
def test_bits_round_trips_mask_of(elements):
    mask = mask_of(elements)
    assert list(_bits(mask)) == sorted(elements)
    assert mask_of(_bits(mask)) == mask


def test_is_normal():
    G = cyclic_group(12)
    assert is_normal(G, subgroup_generated(G, [3]))
    S3 = symmetric_group(3)
    transposition = subgroup_generated(S3, [1])
    assert transposition.bit_count() == 2
    assert not is_normal(S3, transposition)
    a3 = subgroup_generated(S3, [3])
    assert a3.bit_count() == 3
    assert is_normal(S3, a3)


def test_is_normal_conjugates_by_the_generators_only():
    # A4 in S4 is normal, so every generator is tried: one row of the table
    # per generator and one per product g*h, against |G| * |H| for all of G
    S4 = symmetric_group(4)
    a4 = next(s for s in normal_lattice(S4).nodes if s.bit_count() == 12)
    rows_read = []

    class Rows(tuple):
        def __getitem__(self, i):
            rows_read.append(i)
            return tuple.__getitem__(self, i)

    G = copy.copy(S4)
    G.mul = Rows(S4.mul)
    assert is_normal(G, a4)
    assert len(rows_read) == len(S4.generators) * (1 + a4.bit_count()) < S4.order * a4.bit_count()


def test_product_spec_orders_and_classes():
    spec = GroupSpec.product((GroupSpec.cyclic(2), GroupSpec.table(symmetric_group(3).mul)))
    G = make_group(spec)
    assert G.order == 12
    assert len(conjugacy_classes(G)) == 2 * 3


def test_element_order():
    G = cyclic_group(12)
    assert [G.element_order(g) for g in (0, 1, 2, 6)] == [1, 12, 6, 2]


def test_spec_json_roundtrip():
    specs = [
        GroupSpec.cyclic(12),
        GroupSpec.vector_space(3, 2),
        GroupSpec.table(symmetric_group(3).mul),
        GroupSpec.product((GroupSpec.cyclic(2), GroupSpec.cyclic(3))),
    ]
    for spec in specs:
        G = make_group(spec)
        again = make_group(GroupSpec.from_json(json.loads(json.dumps(G.spec.to_json()))))
        assert again.mul == G.mul


def test_rejects_non_latin_table():
    with pytest.raises(ConstructionError) as info:
        make_group(GroupSpec.table([[0, 1], [1, 1]]))
    assert info.value.check == "latin_square"


def test_rejects_nonassociative_loop():
    # latin square with two-sided identity that is not a group
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(ConstructionError) as info:
        make_group(GroupSpec.table(loop))
    assert info.value.check == "associativity"
    a, g, c = info.value.witness
    assert loop[loop[a][g]][c] != loop[a][loop[g][c]]


def test_rejects_bad_identity():
    bad = [[1, 0], [0, 1]]
    with pytest.raises(ConstructionError) as info:
        make_group(GroupSpec.table(bad))
    assert info.value.check == "identity"


def test_rejects_non_prime_power_q():
    with pytest.raises(ConstructionError):
        make_group(GroupSpec.vector_space(6, 1))


def test_order_cap_is_a_constant(monkeypatch):
    # the cap bounds the work, so no environment variable moves it
    with pytest.raises(CapacityError):
        make_group(GroupSpec.cyclic(5000))
    monkeypatch.setenv("LATSUPER_MAX_ORDER", "8")
    assert make_group(GroupSpec.cyclic(12)).order == 12
    monkeypatch.setenv("LATSUPER_MAX_ORDER", "100000")
    with pytest.raises(CapacityError):
        make_group(GroupSpec.cyclic(5000))


@pytest.mark.parametrize("spec", [
    GroupSpec.cyclic(MAX_ORDER + 1),
    GroupSpec.product([GroupSpec.cyclic(17), GroupSpec.cyclic(241)]),  # 4097
    GroupSpec.vector_space(2, 13),
    GroupSpec.product([GroupSpec.cyclic(4096), GroupSpec.cyclic(4096)]),
    GroupSpec.product([GroupSpec.vector_space(2, 12), GroupSpec.cyclic(2)]),
    GroupSpec.vector_space(1_000_000_007, 1),  # prime: never trial-divided
    GroupSpec.vector_space(3, 3_000_000),  # 3**dim has over a million digits
], ids=["C4097", "C17xC241", "F2^13", "C4096xC4096", "F2^12xC2", "F_q, q=10^9+7",
        "F3^3000000"])
def test_order_cap_refuses_before_building_a_table(monkeypatch, spec):
    """The whole spec is sized first: a refused spec builds no table, not even
    a factor's, and the refusal takes no time."""
    built = []
    for name in ("_cyclic_table", "_pair_table"):
        def record(*args, build=getattr(groups, name)):
            table = build(*args)
            built.append(len(table))
            return table
        monkeypatch.setattr(groups, name, record)
    start = time.perf_counter()
    with pytest.raises(CapacityError) as info:
        make_group(spec)
    assert time.perf_counter() - start < 1
    assert info.value.check == "order_cap"
    assert info.value.witness > MAX_ORDER
    assert built == []


@pytest.mark.parametrize("spec, message", [
    (GroupSpec.product([GroupSpec.cyclic(64)] * 3), "product order 262144 exceeds cap 4096"),
    (GroupSpec.product([GroupSpec.cyclic(4096), GroupSpec.cyclic(2), GroupSpec.cyclic(3)]),
     "product order at least 8192 exceeds cap 4096"),
    (GroupSpec.vector_space(3, 3_000_000), "order at least 6561 exceeds cap 4096"),
    (GroupSpec.vector_space(6000, 1), "order 6000 exceeds cap 4096"),  # not factored
    (GroupSpec.product([GroupSpec.cyclic(5000), GroupSpec.vector_space(6, 1)]),
     "order 5000 exceeds cap 4096"),  # the factor's own refusal comes first
])
def test_order_cap_message_is_exact_or_a_lower_bound(spec, message):
    with pytest.raises(CapacityError) as info:
        make_group(spec)
    assert (info.value.check, str(info.value)) == ("order_cap", message)


@pytest.mark.parametrize("rows, error, check, message, witness", [
    ([], ConstructionError, "order", "empty multiplication table", None),
    ([[0]] * (MAX_ORDER + 1), CapacityError, "order_cap", "order 4097 exceeds cap 4096", 4097),
])
def test_a_table_built_directly_is_sized_first(rows, error, check, message, witness):
    # GroupTable itself refuses the table specs cannot describe, before any scan
    with pytest.raises(error) as info:
        groups.GroupTable(rows, GroupSpec.cyclic(1))
    assert (info.value.check, str(info.value), info.value.witness) == (check, message, witness)


def test_q_up_to_the_cap_is_factored_before_the_order_cap():
    # F6^5 has order 7776 > 4096, but q = 6 is refused first, as before
    with pytest.raises(ConstructionError) as info:
        make_group(GroupSpec.vector_space(6, 5))
    assert info.value.check == "prime_power"


def intercalated_cyclic(n: int, r: int, c: int) -> list[list[int]]:
    """C_n (n even) with the 2x2 subsquare at rows r, r + n/2 and columns
    c, c + n/2 swapped: still a Latin square with identity 0 when r, c > 0."""
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    r2, c2 = r + n // 2, c + n // 2
    mul[r][c], mul[r][c2] = mul[r][c2], mul[r][c]
    mul[r2][c], mul[r2][c2] = mul[r2][c2], mul[r2][c]
    return mul


def test_rejects_nonassociative_table_above_order_512():
    # every order gets the full proof of the groups module (walk rows and
    # generator commutation); a check sampling 10 triples per element accepted
    # this table
    table = intercalated_cyclic(600, 1, 2)
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    for bad in (table, loop):
        with pytest.raises(ConstructionError) as info:
            make_group(GroupSpec.table(bad))
        assert info.value.check == "associativity"
        a, g, c = info.value.witness
        assert bad[bad[a][g]][c] != bad[a][bad[g][c]]
