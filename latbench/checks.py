"""Output checks that do not reuse latsuper's formula paths.

Each check takes parsed CLI output and raises ``CheckError`` with a reason when
the output is wrong.  Arithmetic is exact: integers and ``Fraction``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from fractions import Fraction
from typing import Optional

from . import tables as T


class CheckError(Exception):
    """An operation's output failed a check."""


def require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckError(reason)


def sha(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# sct


def check_table(table: dict, order: Optional[int] = None) -> None:
    """SC1, SC2 (rows equal columns), a partition of the group into blocks,
    and the integer weighted Gram sum_b |b| chi_i(b) chi_j(b) vanishing off the
    diagonal and positive on it."""
    blocks, chars = table["blocks"], table["characters"]
    require(len(blocks) == len(chars), f"{len(chars)} characters vs {len(blocks)} blocks")
    sizes = [b["size"] for b in blocks]
    seen: set[int] = set()
    for b in blocks:
        elems = b["elements"]
        require(len(elems) == b["size"], f"block {b['node']} size mismatch")
        require(b["representative"] == min(elems), f"block {b['node']} representative")
        require(seen.isdisjoint(elems), f"block {b['node']} overlaps another block")
        seen.update(elems)
    n = table["order"] if order is None else order
    require(seen == set(range(n)), "blocks do not partition the group")
    require(blocks[0]["elements"] == [0], "first block is not the identity")
    rows = []
    for chi in chars:
        values = chi["values"]
        require(len(values) == len(blocks), f"character {chi['node']} row length")
        require(all(isinstance(v, int) for v in values), f"character {chi['node']} not integer")
        require(values[0] == chi["degree"] > 0, f"character {chi['node']} degree")
        rows.append([s * v for s, v in zip(sizes, values)])
    for i, wi in enumerate(rows):
        for j in range(i, len(chars)):
            gram = sum(w * v for w, v in zip(wi, chars[j]["values"]))
            if i == j:
                require(gram > 0, f"character {chars[i]['node']} has zero norm")
            else:
                require(gram == 0, f"characters {chars[i]['node']}, {chars[j]['node']} "
                                   f"not orthogonal ({gram})")


def moebius_mu(n: int) -> int:
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


def check_cyclic_closed_form(table: dict, n: int) -> None:
    """The full lattice of C_n: chi^{C_d.} at the block of C_e equals
    sum over d | o | n with e | o of mu(o/d) n/o."""
    divs = T.divisors(n)
    order_of = {node["index"]: node["order"] for node in table["nodes"]}
    require(sorted(order_of.values()) == divs, "nodes are not the subgroups C_d, d | n")
    block_orders = [order_of[b["node"]] for b in table["blocks"]]
    require(sorted(block_orders) == divs, "blocks are not indexed by the divisors of n")
    require(len(table["characters"]) == len(divs), "not one character per divisor")
    for chi in table["characters"]:
        d = order_of[chi["node"]]
        expected = [
            sum(moebius_mu(o // d) * (n // o) for o in divs if o % d == 0 and o % e == 0)
            for e in block_orders
        ]
        require(chi["values"] == expected, f"C{n}: character of C{d} differs from closed form")


def check_csv(text: str, table: dict) -> None:
    """The CSV is the JSON table: header of representatives, one row per character."""
    rows = list(csv.reader(io.StringIO(text)))
    header = ["supercharacter"] + [f"g{b['representative']}" for b in table["blocks"]]
    require(rows[0] == header, "CSV header differs from the JSON blocks")
    body = [[c["label"]] + [str(v) for v in c["values"]] for c in table["characters"]]
    require(rows[1:] == body, "CSV rows differ from the JSON characters")


# ---------------------------------------------------------------------------
# lattice


def check_lattice(payload: dict, expected_nodes: Optional[list[list[int]]] = None) -> None:
    """Nodes sorted by (size, mask), bounded, closed under intersection and
    under joins, Hasse edges equal to covers, and the distributive flag right."""
    nodes = payload["nodes"]
    sets = [frozenset(n) for n in nodes]
    masks = [sum(1 << x for x in n) for n in nodes]
    m = len(nodes)
    require(m == len(payload["labels"]), "one label per node")
    require(list(zip(map(len, sets), masks)) == sorted(zip(map(len, sets), masks)),
            "nodes not sorted by (size, mask)")
    require(nodes[0] == [0], "bottom is not the trivial subgroup")
    require(len(set(masks)) == m, "duplicate nodes")
    if expected_nodes is not None:
        require(set(masks) == {sum(1 << x for x in n) for n in expected_nodes},
                "nodes differ from the expected subgroups")
    index = {mask: i for i, mask in enumerate(masks)}
    up = [[j for j in range(m) if sets[i] <= sets[j]] for i in range(m)]
    meet = [[index.get(masks[i] & masks[j]) for j in range(m)] for i in range(m)]
    require(all(x is not None for row in meet for x in row), "not closed under intersection")
    # in a lattice closed under meets, the join is the meet of all upper bounds
    join = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            common = [k for k in up[i] if sets[j] <= sets[k]]
            require(bool(common), "no common upper bound")
            j_mask = masks[common[0]]
            for k in common[1:]:
                j_mask &= masks[k]
            require(j_mask in index, "join is not a node")
            join[i][j] = index[j_mask]
    require(sets[-1] == frozenset().union(*sets), "top does not contain every node")
    covers = sorted(
        [i, j] for i in range(m) for j in up[i]
        if j != i and not any(k not in (i, j) and sets[k] <= sets[j] for k in up[i])
    )
    require(payload["hasse"] == covers, "Hasse edges are not the cover relation")
    distributive = all(
        meet[a][join[b][c]] == join[meet[a][b]][meet[a][c]]
        for a in range(m) for b in range(m) for c in range(m)
    )
    require(payload["distributive"] is distributive, "wrong distributive flag")


def check_same_nodes(payload: dict, table: dict) -> None:
    require(payload["nodes"] == [n["elements"] for n in table["nodes"]],
            "lattice nodes differ from the sct table's nodes")


# ---------------------------------------------------------------------------
# verify, product, restrict


def check_verify(report: dict) -> None:
    require(report.get("passed") is True, "verify did not pass")
    failed = [c.get("name") for c in report.get("checks", []) if not c.get("passed")]
    require(not failed, f"verify checks failed: {failed}")


def node_values(table: dict) -> dict[int, list[int]]:
    return {c["node"]: c["values"] for c in table["characters"]}


def check_product(report: dict, table: dict, operands: list[list[int]]) -> None:
    """The coefficients rebuild chi_M * chi_N from the table, block by block."""
    elements = {n["index"]: n["elements"] for n in table["nodes"]}
    m, n = report["M"]["node"], report["N"]["node"]
    require([elements[m], elements[n]] == [sorted(x) for x in operands],
            "product operands are not the requested subgroups")
    chars = node_values(table)
    zero = [0] * len(table["blocks"])
    target = [a * b for a, b in zip(chars.get(m, zero), chars.get(n, zero))]
    recon = [Fraction(0)] * len(zero)
    for term in report["coefficients"]:
        c = Fraction(term["coefficient"])
        require(term["node"] in chars, f"coefficient on a zero character {term['node']}")
        for k, v in enumerate(chars[term["node"]]):
            recon[k] += c * v
    require(recon == target, "product coefficients do not rebuild chi_M * chi_N")


RESTRICT_FIELDS = ("anchor", "antichain", "A_H", "meet_A_H", "collapsed", "empty_A_H", "terms")


def restrict_digest(report: dict) -> str:
    """Digest of the mathematical fields of a restriction report."""
    return sha({k: report.get(k) for k in RESTRICT_FIELDS})


def check_golden(kind: str, key: str, value: str, golden: dict) -> None:
    expected = golden.get(kind, {}).get(key)
    require(expected is not None, f"no reference {kind} output for input {key[:12]}")
    require(value == expected, f"{kind} output differs from the reference")
