"""Property tests of the table constructors and the table checks against
entry-by-entry references defined here."""

import json
import random
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings, strategies as st

from latsuper import ConstructionError, GroupSpec, make_group
from latsuper.cli import main
from latsuper.groups import GroupTable, _dimino_step, closure_mask, mask_of

from corpus import dihedral_group, quaternion_group, symmetric_group
from test_groups import intercalated_cyclic

# (q, dim) with q in {2, 3, 4, 5, 8, 9, 25}, dim <= 3 and q^dim under the order cap
VECTOR_SPACES = [(q, d) for q in (2, 3, 4, 5, 8, 9, 25) for d in (1, 2, 3) if q**d <= 4096]
RAW_FACTORS = {"S3": symmetric_group(3), "Q8": quaternion_group(), "D4": dihedral_group(4)}


def digits(x: int, base: int, count: int) -> list[int]:
    """The count base-`base` digits of x, least significant first."""
    out = []
    for _ in range(count):
        x, d = divmod(x, base)
        out.append(d)
    return out


def vector_sum(q: int, dim: int, x: int, y: int) -> int:
    """x + y in F_q^dim: coordinates are base-q digits, the first coordinate
    most significant; an F_q element's base-p digits are its polynomial
    coefficients, added digit by digit mod p."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k = next(k for k in range(1, q) if p**k == q)
    coords = []
    for cx, cy in zip(digits(x, q, dim), digits(y, q, dim)):
        coeffs = [(a + b) % p for a, b in zip(digits(cx, p, k), digits(cy, p, k))]
        coords.append(sum(c * p**i for i, c in enumerate(coeffs)))
    return sum(c * q**i for i, c in enumerate(coords))


@lru_cache(maxsize=None)
def vector_space(q: int, dim: int):
    return make_group(GroupSpec.vector_space(q, dim))


def is_group(mul) -> bool:
    """Latin square, two-sided identity 0 and associativity over all triples."""
    n = len(mul)
    ident = list(range(n))
    return (
        all(sorted(row) == ident for row in mul)
        and all(sorted(row[c] for row in mul) == ident for c in range(n))
        and all(mul[0][g] == g and mul[g][0] == g for g in range(n))
        and all(mul[mul[a][b]][c] == mul[a][mul[b][c]]
                for a in range(n) for b in range(n) for c in range(n))
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 64))
def test_cyclic_table_is_addition_mod_n(n):
    G = make_group(GroupSpec.cyclic(n))
    assert G.mul == tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    assert G.inv == tuple(-i % n for i in range(n))
    assert G.is_abelian


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(VECTOR_SPACES), st.data())
def test_vector_space_rows_are_digitwise_field_sums(qd, data):
    q, dim = qd
    G = vector_space(q, dim)
    n = q**dim
    assert G.order == n
    for x in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2)):
        assert G.mul[x] == tuple(vector_sum(q, dim, x, y) for y in range(n))
        assert vector_sum(q, dim, x, G.inv[x]) == 0


def test_vector_sum_reference_spot_values():
    # F4 = F2[x]/(x^2+x+1) encodes a + b*x as a + 2b; its addition is XOR
    assert [vector_sum(4, 1, 3, y) for y in range(4)] == [3, 2, 1, 0]
    # F3^2: (1, 2) + (2, 2) = (0, 1), the first coordinate most significant
    assert vector_sum(3, 2, 1 * 3 + 2, 2 * 3 + 2) == 0 * 3 + 1


FACTORS = st.one_of(
    st.integers(1, 6).map(lambda n: ("cyclic", n)),
    st.sampled_from(sorted(RAW_FACTORS)).map(lambda name: ("raw", name)),
    st.just(("vector_space", 4)),
)


def factor_spec(kind, value):
    if kind == "cyclic":
        return GroupSpec.cyclic(value)
    if kind == "raw":
        return GroupSpec.table(RAW_FACTORS[value].mul)
    return GroupSpec.vector_space(value, 1)


@settings(max_examples=20, deadline=None)
@given(st.lists(FACTORS, min_size=1, max_size=3))
def test_product_table_is_mixed_radix(factors):
    tables = [make_group(factor_spec(*f)) for f in factors]
    orders = [t.order for t in tables]
    n = 1
    for o in orders:
        n *= o
    assume(n <= 144)

    def decode(x):
        parts = []
        for o in reversed(orders):
            x, r = divmod(x, o)
            parts.append(r)
        return parts[::-1]

    def encode(parts):
        x = 0
        for part, o in zip(parts, orders):
            x = x * o + part
        return x

    G = make_group(GroupSpec.product([factor_spec(*f) for f in factors]))
    expected = tuple(
        tuple(encode([t.mul[a][b] for t, a, b in zip(tables, decode(i), decode(j))])
              for j in range(n))
        for i in range(n)
    )
    assert G.mul == expected
    assert G.inv == tuple(encode([t.inv[a] for t, a in zip(tables, decode(i))])
                          for i in range(n))
    assert G.is_abelian == all(expected[a][b] == expected[b][a]
                               for a in range(n) for b in range(n))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8).map(lambda h: 2 * h), st.data())
def test_intercalate_swaps_are_rejected_unless_a_group(n, data):
    # the swapped table is a group only for C4 at rows 1, 3 and columns 1, 3,
    # where it is the Klein four-group
    r = data.draw(st.integers(0, n // 2 - 1))
    c = data.draw(st.integers(0, n // 2 - 1))
    table = intercalated_cyclic(n, r, c)
    try:
        make_group(GroupSpec.table(table))
    except ConstructionError as exc:
        assert not is_group(table)
        if exc.check == "associativity":
            a, g, x = exc.witness
            assert table[table[a][g]][x] != table[a][table[g][x]]
    else:
        assert is_group(table)


@pytest.mark.parametrize("command, code", [("sct", 1), ("verify", 2)])
def test_cli_rejects_intercalated_c600(tmp_path, capsys, command, code):
    table = intercalated_cyclic(600, 1, 2)
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"kind": "table", "mul": table}))
    assert main([command, "--group", str(path)]) == code
    payload = json.loads(capsys.readouterr().out)
    if command == "sct":
        error = payload["error"]
    else:
        assert payload["checks"][0]["name"] == "group_invariants"
        error = payload["checks"][0]["error"]
    assert error["check"] == "associativity"
    a, g, c = error["witness"]
    assert table[table[a][g]][c] != table[a][table[g][c]]


# ---------------------------------------------------------------------------
# closure_mask against a naive fixed point, on abelian and nonabelian groups
# and on raw tables of the same groups with the elements relabelled.

CLOSURE_GROUPS = {
    "C12": lambda: make_group(GroupSpec.cyclic(12)),
    "C2xC6": lambda: make_group(GroupSpec.product([GroupSpec.cyclic(2), GroupSpec.cyclic(6)])),
    "F3^2": lambda: make_group(GroupSpec.vector_space(3, 2)),
    "S4": lambda: symmetric_group(4),
    "D12": lambda: dihedral_group(12),
    "Q8xC4": lambda: make_group(GroupSpec.product([quaternion_group().spec, GroupSpec.cyclic(4)])),
}


@lru_cache(maxsize=None)
def closure_group(name):
    return CLOSURE_GROUPS[name]()


def relabelled(G, perm):
    """The raw table of G with element x renamed perm[x] (perm[0] == 0)."""
    mul = [[0] * G.order for _ in range(G.order)]
    for a in range(G.order):
        for b in range(G.order):
            mul[perm[a]][perm[b]] = perm[G.mul[a][b]]
    return make_group(GroupSpec.table(mul))


def naive_closure(G, elements):
    """Add all pairwise products until none is new."""
    members = {0, *elements}
    while True:
        products = {G.mul[a][b] for a in members for b in members}
        if products <= members:
            return mask_of(members)
        members |= products


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(CLOSURE_GROUPS)), st.data())
def test_closure_mask_is_the_naive_fixed_point(name, data):
    G = closure_group(name)
    if data.draw(st.booleans(), label="relabel"):
        G = relabelled(G, [0] + data.draw(st.permutations(range(1, G.order))))
    elements = data.draw(st.lists(st.integers(0, G.order - 1), max_size=4))
    expected = naive_closure(G, elements)
    assert closure_mask(G, mask_of(elements)) == expected
    assert closure_mask(G, expected) == expected


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(CLOSURE_GROUPS)), st.data())
def test_dimino_step_extends_a_stored_subgroup_by_one_element(name, data):
    # the state Dimino's algorithm ends with for a drawn H, grown by a drawn
    # g outside H, as the brute-force oracle grows its stored subgroups
    G = closure_group(name)
    elements, flags, gens = [0], bytearray(G.order), []
    flags[0] = 1
    for h in data.draw(st.lists(st.integers(1, G.order - 1), max_size=3), label="H"):
        if not flags[h]:
            _dimino_step(G, elements, flags, gens, h)
    H = mask_of(elements)
    assume(H != (1 << G.order) - 1)
    g = data.draw(st.sampled_from([x for x in range(G.order) if not flags[x]]), label="g")
    grown, grown_flags, grown_gens = list(elements), bytearray(flags), list(gens)
    _dimino_step(G, grown, grown_flags, grown_gens, g)
    expected = closure_mask(G, H | 1 << g)
    assert mask_of(grown) == mask_of(i for i, f in enumerate(grown_flags) if f) == expected
    assert len(grown) == expected.bit_count()
    assert grown[:len(elements)] == elements and grown_gens == gens + [g]


# ---------------------------------------------------------------------------
# make_group on tampered tables against a reference validator in the order
# rows, columns, identity, associativity, and is_abelian against the transpose.


def reference_generators(mul):
    """Ascending greedy generators: g joins when the right-multiplication
    closure of {0} under the generators so far misses it."""
    reached, gens = {0}, []
    for g in range(len(mul)):
        if g in reached:
            continue
        gens.append(g)
        frontier = list(reached)
        while frontier:
            new = {mul[x][s] for x in frontier for s in gens} - reached
            reached |= new
            frontier = list(new)
    return gens


def reference_error(mul):
    """(check, message, witness) of the first failing axiom, or None."""
    n = len(mul)
    ident = list(range(n))
    for g, row in enumerate(mul):
        if len(row) != n:
            return "latin_square", f"row {g} has length {len(row)}, expected {n}", g
        if sorted(row) != ident:
            return "latin_square", f"row {g} is not a permutation of 0..{n - 1}", g
    for c in range(n):
        if sorted(row[c] for row in mul) != ident:
            return "latin_square", f"column {c} is not a permutation of 0..{n - 1}", c
    for g in range(n):
        if mul[0][g] != g or mul[g][0] != g:
            return "identity", f"element 0 is not a two-sided identity at {g}", g
    for g in reference_generators(mul):
        for a in range(n):
            for c in range(n):
                if mul[mul[a][g]][c] != mul[a][mul[g][c]]:
                    return "associativity", f"associativity fails at ({a},{g},{c})", [a, g, c]
    return None


TAMPER_GROUPS = {
    "C6": lambda: make_group(GroupSpec.cyclic(6)),
    "C2xC4": lambda: make_group(GroupSpec.product([GroupSpec.cyclic(2), GroupSpec.cyclic(4)])),
    "S3": lambda: symmetric_group(3),
    "D4": lambda: dihedral_group(4),
    "Q8": quaternion_group,
    "D6": lambda: dihedral_group(6),
}


def swap_entries(mul, data):
    """Swap two entries of one row: the row stays a permutation, two columns
    repeat a value."""
    n = len(mul)
    r = data.draw(st.integers(0, n - 1), label="row")
    c1, c2 = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True),
                       label="columns")
    mul[r][c1], mul[r][c2] = mul[r][c2], mul[r][c1]


def copy_row(mul, data):
    """Overwrite one row with another: every column repeats a value."""
    n = len(mul)
    r1, r2 = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True),
                       label="rows")
    mul[r2] = list(mul[r1])


def move_identity(mul, data):
    """Relabel the group so that a nonzero element is its identity: still a
    Latin square and associative, but 0 is no identity."""
    n = len(mul)
    perm = data.draw(st.permutations(range(n)), label="perm")
    assume(perm[0] != 0)
    old = [row[:] for row in mul]
    for a in range(n):
        for b in range(n):
            mul[perm[a]][perm[b]] = perm[old[a][b]]


def swap_rows(mul, data):
    """Exchange two rows, one of them row 0: a Latin square without identity 0."""
    n = len(mul)
    r = data.draw(st.integers(1, n - 1), label="row")
    mul[0], mul[r] = mul[r], mul[0]


def intercalate(mul, data):
    """Swap a 2x2 subsquare mul[r][c] = mul[r2][c2], mul[r][c2] = mul[r2][c]
    off row and column 0: the Latin property and identity 0 are kept, and the
    table is usually no longer associative."""
    n = len(mul)
    quads = [(r, r2, c, c2) for r in range(1, n) for r2 in range(r + 1, n)
             for c in range(1, n) for c2 in range(c + 1, n)
             if mul[r][c] == mul[r2][c2] and mul[r][c2] == mul[r2][c]]
    assume(quads)
    r, r2, c, c2 = data.draw(st.sampled_from(quads), label="intercalate")
    mul[r][c], mul[r][c2] = mul[r][c2], mul[r][c]
    mul[r2][c], mul[r2][c2] = mul[r2][c2], mul[r2][c]


def cycle_entries(mul, data):
    """Rotate the entries of one row at three columns off column 0: the rows
    stay permutations and identity 0 survives unless row 0 is hit."""
    n = len(mul)
    assume(n >= 4)
    r = data.draw(st.integers(0, n - 1), label="row")
    cs = data.draw(st.lists(st.integers(1, n - 1), min_size=3, max_size=3, unique=True),
                   label="columns")
    values = [mul[r][c] for c in cs]
    for c, v in zip(cs, values[1:] + values[:1]):
        mul[r][c] = v


def plain_row(mul, data):
    """A row that is neither row 0 nor the row of a generator: a defect there
    is first met by the walk or its row check, not by a generator-row check."""
    gens = reference_generators(mul)
    return data.draw(st.sampled_from([r for r in range(1, len(mul)) if r not in gens]),
                     label="row")


def set_entry(mul, data, value):
    """Overwrite one entry off column 0 of a plain row with value."""
    r = plain_row(mul, data)
    mul[r][data.draw(st.integers(1, len(mul) - 1), label="column")] = value


def entry_n(mul, data):
    """An entry one past the last element."""
    set_entry(mul, data, len(mul))


def entry_huge(mul, data):
    """An entry too large to index a table at all."""
    set_entry(mul, data, 10**30)


def entry_negative(mul, data):
    """-1 and -n index a Python table silently, -(n+1) does not."""
    n = len(mul)
    set_entry(mul, data, data.draw(st.sampled_from([-1, -n, -(n + 1)]), label="value"))


def short_row(mul, data):
    """A plain row cut short; column 0 is kept."""
    r = plain_row(mul, data)
    mul[r] = mul[r][:data.draw(st.integers(1, len(mul) - 1), label="length")]


def repeated_value(mul, data):
    """One entry off column 0 of a plain row overwritten with another entry
    of the same row."""
    r = plain_row(mul, data)
    c, copied = data.draw(st.lists(st.integers(1, len(mul) - 1), min_size=2, max_size=2,
                                   unique=True), label="columns")
    mul[r][c] = mul[r][copied]


def right_zero_factor(mul, data):
    """Replace G by G x {e, f} with x*y = y on {e, f}, (g, x) at 2g + x: it is
    associative, its rows are permutations and row 0 is 0..n-1, but it has no
    right identity, so column 0 is not 0..n-1."""
    n = len(mul)
    mul[:] = [[2 * mul[a][b] + y for b in range(n) for y in (0, 1)]
              for a in range(n) for _ in (0, 1)]


DEFECTS = {f.__name__: f for f in (swap_entries, copy_row, move_identity, swap_rows,
                                   intercalate, cycle_entries, entry_n, entry_huge,
                                   entry_negative, short_row, repeated_value,
                                   right_zero_factor)}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(TAMPER_GROUPS)), st.sampled_from(sorted(DEFECTS)), st.data())
def test_tampered_tables_fail_in_the_reference_order(name, defect, data):
    G = TAMPER_GROUPS[name]()
    mul = [list(row) for row in G.mul]
    DEFECTS[defect](mul, data)
    expected = reference_error(mul)
    try:
        make_group(GroupSpec.table(mul))
    except ConstructionError as exc:
        assert (exc.check, str(exc), exc.witness) == expected
    else:
        assert expected is None


def relabelled_c20xc30():
    """The raw table of C20xC30 with its elements shuffled, as latbench's
    large-table workload feeds it."""
    G = make_group(GroupSpec.product([GroupSpec.cyclic(20), GroupSpec.cyclic(30)]))
    perm = [0] + random.Random(3).sample(range(1, G.order), G.order - 1)
    return relabelled(G, perm)


C = GroupSpec.cyclic
# each group of the benchmark kinds, with its order
PROVED_GROUPS = {
    "C1020": (lambda: make_group(C(1020)), 1020),
    "C20xC30": (lambda: make_group(GroupSpec.product([C(20), C(30)])), 600),
    "F25^2": (lambda: make_group(GroupSpec.vector_space(25, 2)), 625),
    "raw C20xC30": (relabelled_c20xc30, 600),
    "C2^5xC11": (lambda: make_group(GroupSpec.product([C(2)] * 5 + [C(11)])), 352),
    "C4096": (lambda: make_group(C(4096)), 4096),
}


@pytest.mark.parametrize("name", PROVED_GROUPS)
def test_a_group_is_proved_without_the_ordered_scan(monkeypatch, name):
    def scan(self, *args):
        raise AssertionError(f"{self.name} was scanned")

    monkeypatch.setattr(GroupTable, "_scan", scan)
    build, order = PROVED_GROUPS[name]
    assert build().order == order


def test_a_tampered_table_runs_the_ordered_scan_once(monkeypatch):
    calls = []
    scan = GroupTable._scan
    monkeypatch.setattr(GroupTable, "_scan",
                        lambda self, *args: calls.append(1) or scan(self, *args))
    mul = [list(row) for row in make_group(GroupSpec.cyclic(6)).mul]
    mul[3][2] = 6
    with pytest.raises(ConstructionError) as exc:
        make_group(GroupSpec.table(mul))
    assert (exc.value.check, exc.value.witness, len(calls)) == ("latin_square", 3, 1)



@pytest.mark.parametrize("name", PROVED_GROUPS)
def test_a_group_is_proved_without_lights_test(monkeypatch, name):
    def light_test(self, *args):
        raise AssertionError(f"{self.name} ran Light's test")

    monkeypatch.setattr(GroupTable, "_light_test", light_test)
    build, order = PROVED_GROUPS[name]
    assert build().order == order


def normalized_latin_squares(n):
    """Every n x n Latin square with row 0 and column 0 equal to 0..n-1, by
    filling the other cells row by row with the values their row and column
    lack."""
    full = (1 << n) - 1
    square = [list(range(n))] + [[r] + [0] * (n - 1) for r in range(1, n)]
    in_row = [full] + [1 << r for r in range(1, n)]
    in_col = [1 << c for c in range(n)]
    cells = [(r, c) for r in range(1, n) for c in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield [row[:] for row in square]
            return
        r, c = cells[k]
        free = full & ~(in_row[r] | in_col[c])
        while free:
            bit = free & -free
            free ^= bit
            square[r][c] = bit.bit_length() - 1
            in_row[r] ^= bit
            in_col[c] ^= bit
            yield from fill(k + 1)
            in_row[r] ^= bit
            in_col[c] ^= bit

    return fill(0)


def proof_checks(mul):
    """(few, walk_rows, commute, proved): whether 2^|S| <= n for the greedy
    generators S; (i) row y equals row x composed with row s on every edge
    y = x*s of the walk of `GroupTable._generators`, and (ii) s*(a*t) ==
    (s*a)*t for all a and s, t in S, both entry by entry; and what
    `GroupTable._proof` says on the same walk."""
    n = len(mul)
    G = object.__new__(GroupTable)  # the table, not yet validated
    G.mul, G.order = tuple(map(tuple, mul)), n
    gens, walk = G._generators()
    members, src, via = walk
    assert gens == reference_generators(mul) and sorted(members) == list(range(n))
    walk_rows = all(mul[y][c] == mul[src[y]][mul[via[y]][c]]
                    for y in members[1:] for c in range(n))
    commute = all(mul[s][mul[a][t]] == mul[mul[s][a]][t]
                  for s in gens for t in gens for a in range(n))
    return 1 << len(gens) <= n, walk_rows, commute, G._proof(gens, walk)


def test_every_latin_square_to_order_6_is_proved_or_refused_as_the_reference():
    groups, only_walk_rows, only_commute = 0, 0, 0
    squares = 0
    for n in range(2, 7):
        for mul in normalized_latin_squares(n):
            squares += 1
            expected = reference_error(mul)
            few, walk_rows, commute, proved = proof_checks(mul)
            assert proved == (walk_rows and commute), mul
            if n == 6 and few:
                only_walk_rows += walk_rows and not commute
                only_commute += commute and not walk_rows
            try:
                G = make_group(GroupSpec.table(mul))
            except ConstructionError as exc:
                assert (exc.check, str(exc), exc.witness) == expected
                assert not (few and proved)
            else:
                assert expected is None and few and proved
                assert G.mul == tuple(map(tuple, mul))
                groups += 1
    assert (squares, groups) == (9470, 92)
    # neither check alone proves a table a group
    assert (only_walk_rows, only_commute) == (88, 366)


ABELIAN_TEST_GROUPS = {
    **{f"D{n}": (lambda n=n: dihedral_group(n)) for n in (3, 4, 5, 8)},
    **{f"S3xC{k}": (lambda k=k: make_group(GroupSpec.product(
        [symmetric_group(3).spec, GroupSpec.cyclic(k)]))) for k in (1, 2, 5)},
    "Q8xC4": lambda: make_group(GroupSpec.product([quaternion_group().spec, GroupSpec.cyclic(4)])),
    "S4": lambda: symmetric_group(4),
    "C2xC2xC3": lambda: make_group(GroupSpec.product([GroupSpec.cyclic(2)] * 2 + [GroupSpec.cyclic(3)])),
    "F4^2": lambda: make_group(GroupSpec.vector_space(4, 2)),
}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.sampled_from(sorted(ABELIAN_TEST_GROUPS)).map(lambda k: ("named", k)),
                 st.lists(FACTORS, min_size=1, max_size=3).map(lambda f: ("product", f))),
       st.data())
def test_is_abelian_is_the_transpose_test(choice, data):
    kind, value = choice
    if kind == "named":
        G = ABELIAN_TEST_GROUPS[value]()
    else:
        G = make_group(GroupSpec.product([factor_spec(*f) for f in value]))
        assume(G.order <= 144)
    if data.draw(st.booleans(), label="relabel"):
        G = relabelled(G, [0] + data.draw(st.permutations(range(1, G.order))))
    mul = G.mul
    assert G.is_abelian == all(mul[a][b] == mul[b][a]
                               for a in range(G.order) for b in range(G.order))


INVERSE_TEST_GROUPS = {
    **ABELIAN_TEST_GROUPS,
    "Q8": quaternion_group,
    "S3": lambda: symmetric_group(3),
    "F3^3": lambda: vector_space(3, 3),
    "F8^1": lambda: vector_space(8, 1),
}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.sampled_from(sorted(INVERSE_TEST_GROUPS)).map(lambda k: ("named", k)),
                 st.lists(FACTORS, min_size=1, max_size=3).map(lambda f: ("product", f))),
       st.data())
def test_inverses_are_the_row_zeros(choice, data):
    kind, value = choice
    if kind == "named":
        G = INVERSE_TEST_GROUPS[value]()
    else:
        G = make_group(GroupSpec.product([factor_spec(*f) for f in value]))
        assume(G.order <= 144)
    if data.draw(st.booleans(), label="relabel"):
        G = relabelled(G, [0] + data.draw(st.permutations(range(1, G.order))))
    assert G.inv == tuple(row.index(0) for row in G.mul)
    assert all(G.mul[G.inv[g]][g] == 0 for g in range(G.order))
