"""Seeded inputs and the operation list of each workload.

``build(workload, seed)`` returns the input files (name -> bytes) and the
operations to run on them.  The same seed gives byte-identical files.  The
seed draws from fixed pools whose members cost about the same, so that runs
with different seeds measure the same amount of work:

* isomorphic relabellings of raw tables (``RELABELS`` per group),
* factor orders of product specs,
* sublattice generators, product pairs and restriction anchors.

Every pool is finite, and ``golden_cases()`` lists each member whose output is
compared with the reference digests in ``golden.json``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Iterator, Optional

from . import tables as T

WORKLOADS = ("cyclic-full", "boolean", "nonabelian", "large-table")
RELABELS = 8


def dump(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def digest(*parts: Optional[bytes]) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(b"-" if p is None else p)
        h.update(b"\0")
    return h.hexdigest()


@dataclass
class Case:
    """One group with an optional sublattice; the unit that outputs refer to."""

    name: str
    group: bytes
    sublattice: Optional[bytes] = None
    cyclic_n: Optional[int] = None          # full lattice of C_n: closed form applies
    expected_nodes: Optional[list[list[int]]] = None

    def key(self) -> str:
        return digest(self.group, self.sublattice)


@dataclass
class Op:
    command: str                 # sct | verify | lattice | product | restrict
    case: str
    fmt: Optional[str] = None    # sct output format
    files: dict[str, bytes] = field(default_factory=dict)   # extra inputs by flag
    subgroups: list[list[int]] = field(default_factory=list)  # product operands

    @property
    def label(self) -> str:
        return ":".join(x for x in (self.command, self.case, self.fmt) if x)


@dataclass
class Plan:
    cases: dict[str, Case] = field(default_factory=dict)
    ops: list[Op] = field(default_factory=list)

    def add(self, case: Case) -> Case:
        self.cases[case.name] = case
        return case

    def sct(self, case: Case) -> None:
        self.ops.append(Op("sct", case.name, "csv"))
        self.ops.append(Op("sct", case.name, "json"))

    def files(self) -> dict[str, bytes]:
        """Every input file of the plan, by file name."""
        out: dict[str, bytes] = {}
        for case in self.cases.values():
            out[f"{case.name}.group.json"] = case.group
            if case.sublattice is not None:
                out[f"{case.name}.sub.json"] = case.sublattice
        for i, op in enumerate(self.ops):
            for flag, data in op.files.items():
                out[f"op{i}.{flag}.json"] = data
            for j, elems in enumerate(op.subgroups):
                out[f"op{i}.subgroup{j}.json"] = dump(elems)
        return out

    def argv(self, i: int, directory: str, out: str) -> list[str]:
        """The CLI argv of operation i, with inputs under directory."""
        op = self.ops[i]
        case = self.cases[op.case]
        argv = [op.command, "--group", f"{directory}/{case.name}.group.json"]
        if case.sublattice is not None:
            argv += ["--sublattice", f"{directory}/{case.name}.sub.json"]
        if op.fmt:
            argv += ["--format", op.fmt]
        for flag in op.files:
            argv += [f"--{flag}", f"{directory}/op{i}.{flag}.json"]
        for j in range(len(op.subgroups)):
            argv += ["--subgroup", f"{directory}/op{i}.subgroup{j}.json"]
        return argv + ["--out", out]


def table_spec(mul: list[list[int]]) -> dict:
    return {"kind": "table", "mul": mul}


def cyclic_spec(n: int) -> dict:
    return {"kind": "cyclic", "n": n}


def product_spec(*factors: dict) -> dict:
    return {"kind": "product", "factors": list(factors)}


def relabelled(name: str, mul: list[list[int]], r: int) -> tuple[list[list[int]], list[int]]:
    perm = T.relabel_permutation(len(mul), random.Random(f"{name}/{r}"))
    return T.relabel(mul, perm), perm


def generators(gens: list[list[int]]) -> bytes:
    return dump({"generators": sorted(sorted(g) for g in gens)})


# ---------------------------------------------------------------------------
# Each workload's operation list takes about 6-8 s on a desk machine, so a
# 24 s run makes two to four rounds and times every operation that often.

# cyclic-full: the full normal lattice of C360, the smallest highly composite
# order the workload is about; the restriction sources C_m are its subgroups.
# Products run in the boolean workload and inside every verify.

CYCLIC_N = 360
# (m, d): restrict from C_m along x -> x^(n/m), anchored at C_d; pairs that
# took within 5% of each other when timed
RESTRICT_POOL = ((60, 6), (60, 12), (60, 30), (60, 60), (90, 3), (90, 12))


def restrict_files(n: int, m: int, d: int) -> dict[str, bytes]:
    step = n // m
    return {
        "embedding": dump({"source": cyclic_spec(m), "map": [h * step for h in range(m)]}),
        "anchor": dump({"node": T.cyclic_subgroup(n, d)}),
    }


def cyclic_case(n: int) -> Case:
    return Case(f"C{n}", dump(cyclic_spec(n)), cyclic_n=n,
                expected_nodes=[T.cyclic_subgroup(n, d) for d in T.divisors(n)])


def cyclic_full(plan: Plan, rng: random.Random) -> None:
    n = CYCLIC_N
    case = plan.add(cyclic_case(n))
    plan.sct(case)
    plan.ops.append(Op("verify", case.name))
    m, d = rng.choice(RESTRICT_POOL)
    plan.ops.append(Op("restrict", case.name, files=restrict_files(n, m, d)))


# ---------------------------------------------------------------------------
# boolean: the 64-node sublattice generated by the direct factors of C2^5 x C11.

BOOLEAN_ORDERS = [2, 2, 2, 2, 2, 11]
BOOLEAN_PRODUCTS = 3        # one product alone is too short to time steadily


def boolean_case() -> Case:
    orders = BOOLEAN_ORDERS
    factors = [
        T.product_subgroup(orders, [o if j == i else 1 for j, o in enumerate(orders)])
        for i in range(len(orders))
    ]
    return Case("C2^5xC11", dump(product_spec(*map(cyclic_spec, orders))),
                generators(factors))


def boolean(plan: Plan, rng: random.Random) -> None:
    case = plan.add(boolean_case())
    plan.sct(case)
    plan.ops.append(Op("verify", case.name))
    # operands: products of three C2 factors each, sharing one.  Every such pair
    # costs the same, and since S | T misses C11 the tensor identity's
    # hypotheses fail, so the pair takes the projection path
    twos = [i for i, o in enumerate(BOOLEAN_ORDERS) if o == 2]
    for _ in range(BOOLEAN_PRODUCTS):
        rng.shuffle(twos)
        pair = [T.product_subgroup(BOOLEAN_ORDERS, [o if i in chosen else 1
                                                    for i, o in enumerate(BOOLEAN_ORDERS)])
                for chosen in (twos[:3], twos[2:5])]
        plan.ops.append(Op("product", case.name, subgroups=pair))


# ---------------------------------------------------------------------------
# nonabelian: small nonabelian groups on their full normal lattices.

def nonabelian_specs(r: int) -> dict[str, dict]:
    def raw(name: str, mul: list[list[int]]) -> dict:
        return table_spec(relabelled(name, mul, r)[0])

    return {
        "D24": raw("D24", T.dihedral_table(24)),
        "Q8xC4": product_spec(raw("Q8", T.quaternion_table()), cyclic_spec(4)),
        "S3xC6": product_spec(raw("S3", T.symmetric_table(3)), cyclic_spec(6)),
        "D17": raw("D17", T.dihedral_table(17)),
    }


NONABELIAN_OPS = {
    "D24": ("verify",),            # brute-force normal-subgroup oracle, order 48
    "Q8xC4": ("lattice",),         # class-subset scan over 20 classes
    "S3xC6": ("sct", "verify"),
    "D17": ("sct", "lattice", "verify"),
}
# relabellings whose operation lists took within 5% of each other in reference
# seconds; with 1, 3 and 7 the Q8 x C4 class-subset scan or the D24 oracle ran
# up to 17% longer
NONABELIAN_RELABELS = (0, 2, 4, 5, 6)


def nonabelian(plan: Plan, rng: random.Random) -> None:
    for name, spec in nonabelian_specs(rng.choice(NONABELIAN_RELABELS)).items():
        case = plan.add(Case(name, dump(spec)))
        for command in NONABELIAN_OPS[name]:
            if command == "sct":
                plan.sct(case)
            else:
                plan.ops.append(Op(command, case.name))


# ---------------------------------------------------------------------------
# large-table: one abelian group of each spec kind, of order 600-1032, with a
# sublattice of at most 5 nodes.

LARGE_CYCLIC = (1020, 1026, 1032)   # multiples of 6: generators C2, C3
LARGE_PRODUCT = ((20, 30), (30, 20))
LARGE_VS = (25, 2)          # F_25^2, additively C5^4
LARGE_VS_POOL = 8
LARGE_RAW = (20, 30)


def smallest_prime(n: int) -> int:
    return T.divisors(n)[1]


def large_cyclic_case(n: int) -> Case:
    # small generators keep closure cheap, so the cost is the n^2 table's
    gens = [T.cyclic_subgroup(n, 2), T.cyclic_subgroup(n, 3)]
    return Case(f"C{n}", dump(cyclic_spec(n)), generators(gens))


def small_factor_gens(orders: list[int]) -> list[list[int]]:
    """C_p in each factor, p its smallest prime: a four-node sublattice."""
    gens = []
    for i, o in enumerate(orders):
        parts = [1] * len(orders)
        parts[i] = smallest_prime(o)
        gens.append(T.product_subgroup(orders, parts))
    return gens


def large_product_case(i: int) -> Case:
    a, b = LARGE_PRODUCT[i]
    return Case(f"C{a}xC{b}", dump(product_spec(cyclic_spec(a), cyclic_spec(b))),
                generators(small_factor_gens([a, b])))


def span(orders: list[int], vectors: list[tuple[int, ...]]) -> list[int]:
    """Elements of the subgroup of prod C_o generated by vectors."""
    coords = T.mixed_radix(orders)
    index = {c: i for i, c in enumerate(coords)}
    found = {coords[0]}
    frontier = [coords[0]]
    while frontier:
        x = frontier.pop()
        for v in vectors:
            y = tuple((a + b) % o for a, b, o in zip(x, v, orders))
            if y not in found:
                found.add(y)
                frontier.append(y)
    return sorted(index[c] for c in found)


def large_vs_case(i: int) -> Case:
    q, dim = LARGE_VS
    # F_25 elements are base-5 digit pairs, so the group is C5^4 in mixed radix
    orders = [5] * (2 * dim)
    rng = random.Random(f"large-vs/{i}")
    gens = []
    while len(gens) < 2:
        vec = tuple(rng.randrange(5) for _ in orders)
        if any(vec):
            gens.append(span(orders, [vec]))
    return Case(f"F{q}^{dim}", dump({"kind": "vector_space", "q": q, "dim": dim}),
                generators(gens))


def large_raw_case(r: int) -> Case:
    a, b = LARGE_RAW
    mul, perm = relabelled(f"raw{a}x{b}", T.abelian_table([a, b]), r)
    gens = [[perm[x] for x in g] for g in small_factor_gens([a, b])]
    return Case(f"T{a}x{b}", dump(table_spec(mul)), generators(gens))


def large_table(plan: Plan, rng: random.Random) -> None:
    plan.sct(plan.add(large_cyclic_case(rng.choice(LARGE_CYCLIC))))
    prod = plan.add(large_product_case(rng.randrange(len(LARGE_PRODUCT))))
    plan.ops.append(Op("lattice", prod.name))
    plan.ops.append(Op("verify", prod.name))
    vs = plan.add(large_vs_case(rng.randrange(LARGE_VS_POOL)))
    plan.ops.append(Op("lattice", vs.name))
    raw = plan.add(large_raw_case(rng.randrange(RELABELS)))
    plan.sct(raw)
    plan.ops.append(Op("verify", raw.name))


BUILDERS = {
    "cyclic-full": cyclic_full,
    "boolean": boolean,
    "nonabelian": nonabelian,
    "large-table": large_table,
}


def build(workload: str, seed: int) -> Plan:
    """The seeded plan of one workload.  The operation order is fixed, so that
    the heap, and with it the peak RSS, evolves the same way for every seed."""
    plan = Plan()
    BUILDERS[workload](plan, random.Random(f"{workload}/{seed}"))
    return plan


def golden_cases() -> Iterator[tuple[str, Case, Optional[dict[str, bytes]]]]:
    """Every pool member whose output golden.json records: ("sct", case, None)
    for a CSV table and ("restrict", case, files) for a restriction."""
    case = cyclic_case(CYCLIC_N)
    yield "sct", case, None
    for m, d in RESTRICT_POOL:
        yield "restrict", case, restrict_files(CYCLIC_N, m, d)
    yield "sct", boolean_case(), None
    for r in range(RELABELS):
        for name, spec in nonabelian_specs(r).items():
            if "sct" in NONABELIAN_OPS[name]:
                yield "sct", Case(name, dump(spec)), None
    for n in LARGE_CYCLIC:
        yield "sct", large_cyclic_case(n), None
    for r in range(RELABELS):
        yield "sct", large_raw_case(r), None
