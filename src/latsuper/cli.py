"""Command-line front end.

Subcommands: sct, verify, product, restrict, lattice, export.  All numeric
output is exact: integers as integers, rationals as "p/q" strings.  Exit codes:
0 success, 1 input/precondition error (usage errors included), 2 verification
failure.  An error is a JSON payload, written to --out, or to stdout when --out
cannot be written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from functools import cache
from pathlib import Path
from typing import Optional, Sequence

from . import oracle
from .errors import ArgumentError, ConstructionError, InputError, LatsuperError
from .groups import GroupSpec, GroupTable, _bits, make_group, mask_of, read_fields
from .lattice import (
    NormalLattice,
    closed_sublattice,
    distributive_analysis,
    lattice_to_dot,
    lattice_to_json,
    normal_lattice,
)
from .products import product_report_to_json, tensor_product
from .restriction import (
    GroupEmbedding,
    build_restriction_context,
    restrict_decompose,
    restriction_report_to_json,
)
from .sct import (
    build_theory,
    chi_bullet_multiplicative,
    degree_sum,
    verify_sct,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"file not found: {path}", check="input", witness={"path": path})
    except OSError as exc:  # a directory, no permission
        raise InputError(f"cannot read {path}: {exc.strerror}", check="input",
                         witness={"path": path})
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, too deep, too many digits
        raise InputError(f"invalid JSON in {path}: {exc}", check="json", witness={"path": path})


def _load_group(path: str) -> GroupTable:
    return make_group(GroupSpec.from_json(_load_json(path)))


def _load_lattice(G: GroupTable, sublattice_path: Optional[str]) -> NormalLattice:
    return _lattice_of(G, None if sublattice_path is None else _load_json(sublattice_path))


def _mask_of_elements(G: GroupTable, field: str, elements) -> int:
    """Bitmask of a JSON list of elements of G, read from the input file field
    `field`; ArgumentError unless every element is a plain int in
    0..order-1."""
    if (not isinstance(elements, list) or not set(map(type, elements)) <= {int}
            or min(elements, default=0) < 0 or max(elements, default=0) >= G.order):
        raise ArgumentError(f"{elements!r} is not a list of elements of {G.name}",
                            check="shape", witness={"field": field, "value": elements})
    return mask_of(elements)


def _lattice_of(G: GroupTable, data) -> NormalLattice:
    """The full lattice (data None), a closed generator list, or strict nodes."""
    if data is None:
        return normal_lattice(G)
    fields = read_fields(data, {"generators": list, "nodes": list}, "sublattice",
                         bare=True, one=True)
    if "nodes" in fields:
        # strict mode: the listed nodes must already be a closed sublattice
        nodes = [_mask_of_elements(G, "nodes", e) for e in fields["nodes"]]
        return NormalLattice(G, nodes, check_normal=True)
    gens = [_mask_of_elements(G, "generators", e) for e in fields["generators"]]
    return closed_sublattice(G, gens)


def _node_from_elements(L: NormalLattice, field: str, elements: Sequence[int]) -> int:
    return L.index_of(_mask_of_elements(L.group, field, elements))


def _write_output(text: str, out: Optional[str]) -> None:
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc.strerror}", check="output",
                             witness={"path": out})
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _json_chunks(value, indent: str):
    """The text of json.dumps(value, indent=2, sort_keys=True) nested at
    `indent`, in pieces.

    Non-empty dicts with str keys and non-empty lists that are not all plain
    ints are walked here (_walked), with a stack of pending texts and
    (value, indent) pairs rather than a Python frame per level, so a product
    spec nested as deep as the reader accepts is written.  Every other value
    is one piece (_json_leaf)."""
    todo = [(value, indent) if _walked(value) else _json_leaf(value, indent)]
    while todo:
        value = todo.pop()
        if type(value) is str:
            yield value
            continue
        value, indent = value
        inner = indent + "  "
        if type(value) is dict:
            keys = sorted(value, reverse=True)
            heads = [f",\n{inner}{json.dumps(key)}: " for key in keys]
            items, opener, close = map(value.__getitem__, keys), "{", "}"
        else:
            heads, items, opener, close = [",\n" + inner] * len(value), reversed(value), "[", "]"
        heads[-1] = opener + heads[-1][1:]
        todo.append("\n" + indent + close)
        for head, item in zip(heads, items):
            todo += ((item, inner), head) if _walked(item) else (head + _json_leaf(item, inner),)


def _walked(value) -> bool:
    kind = type(value)
    return bool(value) and (kind is dict and set(map(type, value)) <= {str}
                            or kind is list and not set(map(type, value)) <= {int})


def _json_leaf(value, indent: str) -> str:
    """A list of plain ints (table rows, element lists) by the C encoder with
    the indented item separator; another container as json.dumps' own text,
    shifted right by `indent`; a scalar by the shared C encoder, as its text
    depends on neither indent nor sort_keys (a pure-Python encoder per leaf
    would leave cyclic garbage)."""
    kind = type(value)
    if kind is list and value:
        inner = indent + "  "
        items = json.dumps(value, separators=(",\n" + inner, ":"))[1:-1]
        return f"[\n{inner}{items}\n{indent}]"
    if kind in (dict, list, tuple):
        return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)
    return json.dumps(value)


def _emit_json(payload: dict, out: Optional[str]) -> None:
    _write_output("".join(_json_chunks(payload, "")), out)


def _emit_failure(payload: dict, out: Optional[str]) -> None:
    """An error or failing report goes to stdout when out cannot be written."""
    try:
        _emit_json(payload, out)
    except InputError:
        _emit_json(payload, None)


# ---------------------------------------------------------------------------
# Table serialization.


def table_payload(L: NormalLattice) -> dict:
    theory = build_theory(L)
    part, rows = theory.partition, theory.rows
    return {
        "group": L.group.spec.to_json(),
        "order": L.group.order,
        "nodes": [
            {
                "index": i,
                "label": L.node_label(i),
                "order": L.size(i),
                "elements": list(_bits(L.nodes[i])),
            }
            for i in range(len(L.nodes))
        ],
        "blocks": [
            {
                "node": n,
                "label": L.node_label(n),
                "size": size,
                "representative": next(_bits(part.blocks[n])),
                "elements": sorted(_bits(part.blocks[n])),
            }
            for n, size in zip(theory.nodes, theory.sizes)
        ],
        "characters": [
            {"node": n, "label": L.node_label(n), "degree": rows[n][0], "values": rows[n]}
            for n in theory.nonzero
        ],
    }


def table_csv(L: NormalLattice) -> str:
    """The rows of table_payload's characters under a header of its block
    representatives, read off the theory."""
    theory = build_theory(L)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["supercharacter"]
                    + [f"g{next(_bits(theory.partition.blocks[n]))}" for n in theory.nodes])
    writer.writerows([L.node_label(n)] + theory.rows[n] for n in theory.nonzero)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Verification suite.


def _verification_checks(L: NormalLattice, seed: int, full: bool) -> list[tuple[str, object]]:
    """Named, independent check callables; each returns a detail dict or raises.
    full says that L is the whole normal lattice of its group: only then does
    the normal-subgroup oracle re-derive the normal subgroups (order <= 256);
    otherwise it certifies the nodes of L, and no second lattice is built."""
    rng = random.Random(seed)

    def axioms():
        return verify_sct(L)

    def dual_path():
        used = 0
        for n in range(len(L.nodes)):
            try:
                chi_bullet_multiplicative(L, n)  # asserts equality internally
                used += 1
            except InputError:
                continue
        return {"nodes_with_closed_form": used}

    def cover_meet():
        # row m compares meet(cj(m), cj(n)) with cj(meet(m, n)) for n >= m:
        # both sides are symmetric, so the first failing pair has n >= m.
        # Runs of nodes with the same cj(m) (often the top) share the left side.
        cj = [L.cover_join(i) for i in range(len(L.nodes))]
        lhs_of = lhs_row = None
        for m in range(len(L.nodes)):
            if cj[m] != lhs_of:
                lhs_of, lhs_row = cj[m], list(map(L.meet_row(cj[m]).__getitem__, cj))
            lhs = lhs_row[m:]
            rhs = list(map(cj.__getitem__, L.meet_row(m, m)))
            if lhs != rhs:
                n = m + next(n for n, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
                raise LatsuperError(
                    "cover-join meet identity fails",
                    check="cover_meet", witness={"M": m, "N": n},
                )
        return {"pairs": len(L.nodes) ** 2}

    def tensor_spots():
        m = len(L.nodes)
        pairs = [(rng.randrange(m), rng.randrange(m)) for _ in range(min(10, m * m))]
        hits = 0
        for a, b in pairs:
            report = tensor_product(L, a, b)
            hits += report.identity_holds
        return {"pairs": len(pairs), "identity_held": hits}

    def degree_spots():
        m = len(L.nodes)
        triples = [
            (rng.randrange(m), rng.randrange(m), rng.randrange(m))
            for _ in range(min(15, m**3))
        ]
        applicable = 0
        for k, l, mm in triples:
            result = degree_sum(L, k, l, mm)
            applicable += result.closed_form_applicable
        return {"triples": len(triples), "closed_form_applicable": applicable}

    return [
        ("axioms", axioms),
        ("dual_path_equivalence", dual_path),
        ("cover_meet_lemma", cover_meet),
        ("tensor_product_spots", tensor_spots),
        ("degree_sum_spots", degree_spots),
        ("normal_subgroup_oracle", lambda: oracle.cross_check_normal_lattice(L, full)),
    ]


def cmd_verify(args) -> int:
    report: dict = {"seed": args.seed, "checks": []}

    def finish() -> int:
        report["passed"] = all(c["passed"] for c in report["checks"])
        (_emit_json if report["passed"] else _emit_failure)(report, args.out)
        return EXIT_OK if report["passed"] else EXIT_VERIFY

    def fail(name: str, exc: LatsuperError) -> int:
        report["checks"].append({"name": name, "passed": False, "error": exc.payload()})
        return finish()

    spec = GroupSpec.from_json(_load_json(args.group))  # input errors: exit 1
    try:
        G = make_group(spec)
    except LatsuperError as exc:
        return fail("group_invariants", exc)
    report["checks"].append({"name": "group_invariants", "passed": True,
                             "detail": {"order": G.order, "name": G.name}})
    try:
        L = _load_lattice(G, args.sublattice)  # other input errors: exit 1
    except ConstructionError as exc:  # not closed under meet or join, or not normal
        return fail("lattice_closure", exc)
    report["checks"].append({"name": "lattice_closure", "passed": True,
                             "detail": {"nodes": len(L.nodes)}})

    for name, fn in _verification_checks(L, args.seed, args.sublattice is None):
        try:
            report["checks"].append({"name": name, "passed": True, "detail": fn()})
        except LatsuperError as exc:
            report["checks"].append({"name": name, "passed": False, "error": exc.payload()})
    return finish()


# ---------------------------------------------------------------------------
# Other commands.


def cmd_sct(args) -> int:
    G = _load_group(args.group)
    L = _load_lattice(G, args.sublattice)
    if args.format == "csv":
        _write_output(table_csv(L), args.out)
    else:
        _emit_json(table_payload(L), args.out)
    return EXIT_OK


def cmd_lattice(args) -> int:
    G = _load_group(args.group)
    L = _load_lattice(G, args.sublattice)
    payload = lattice_to_json(L)
    payload["distributive"] = distributive_analysis(L)
    _emit_json(payload, args.out)
    return EXIT_OK


def cmd_export(args) -> int:
    G = _load_group(args.group)
    L = _load_lattice(G, args.sublattice)
    if args.format == "dot":
        _write_output(lattice_to_dot(L), args.out)
    elif args.format == "json":
        _emit_json(lattice_to_json(L), args.out)
    else:
        _write_output(table_csv(L), args.out)
    return EXIT_OK


def cmd_product(args) -> int:
    if len(args.subgroup or []) != 2:
        raise InputError("product needs exactly two --subgroup files", check="usage")
    G = _load_group(args.group)
    L = _load_lattice(G, args.sublattice)
    nodes = [_node_from_elements(L, "elements", read_fields(_load_json(path), {"elements": list},
                                                            "subgroup", bare=True)["elements"])
             for path in args.subgroup]
    report = tensor_product(L, nodes[0], nodes[1])
    _emit_json(product_report_to_json(L, report), args.out)
    return EXIT_OK


def cmd_restrict(args) -> int:
    G = _load_group(args.group)
    L = _load_lattice(G, args.sublattice)
    emb = read_fields(_load_json(args.embedding),
                      {"map": list[int], "source": GroupSpec, "source_sublattice": object},
                      "embedding")
    H = make_group(emb["source"])
    LH = _lattice_of(H, emb["source_sublattice"])
    embedding = GroupEmbedding(H, G, tuple(emb["map"]))
    ctx = build_restriction_context(embedding, L, LH)
    if not ctx.favorable:
        _emit_json({"favorable": False, "witnesses": ctx.witnesses_json()}, args.out)
        return EXIT_INPUT
    fields = read_fields(_load_json(args.anchor), {"node": list, "antichain": list}, "anchor",
                         bare=True, one=True)
    if "node" in fields:
        anchor: object = _node_from_elements(L, "node", fields["node"])
    else:
        anchor = [_node_from_elements(L, "antichain", e) for e in fields["antichain"]]
    report = restrict_decompose(ctx, anchor)
    _emit_json(restriction_report_to_json(ctx, report), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: exit 1 with a payload, not argparse's 2."""

    def error(self, message: str):
        raise InputError(message, check="usage")


@cache
def build_parser() -> argparse.ArgumentParser:
    """Each subcommand accepts only the flags it reads: --format for sct and
    export, --seed for verify.  Built once: an argparse action points back at
    its parser, so a parser per call would be cyclic garbage."""
    parser = _Parser(
        prog="latsuper",
        description="supercharacter theories of normal subgroup lattices (exact).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--group", required=True, help="group spec JSON file")
        p.add_argument("--sublattice", help="sublattice JSON: {generators: [subgroup, ...]}, "
                       "{nodes: [subgroup, ...]} or [subgroup, ...]; a subgroup lists elements")
        p.add_argument("--out", help="output path (default stdout)")

    p_sct = sub.add_parser("sct", help="emit the supercharacter table")
    common(p_sct)
    p_sct.add_argument("--format", default="csv", choices=("csv", "json"),
                       help="csv (default) or json")
    p_sct.set_defaults(fn=cmd_sct)

    p_verify = sub.add_parser("verify", help="run the full verification suite")
    common(p_verify)
    p_verify.add_argument("--seed", type=int, default=0,
                          help="seed of the tensor-product and degree-sum spot pairs")
    p_verify.set_defaults(fn=cmd_verify)

    p_product = sub.add_parser("product", help="tensor-product report for two nodes")
    common(p_product)
    p_product.add_argument("--subgroup", action="append",
                           help="subgroup JSON, twice: {elements: [...]} or [...]")
    p_product.set_defaults(fn=cmd_product)

    p_restrict = sub.add_parser("restrict", help="restriction decomposition report")
    common(p_restrict)
    p_restrict.add_argument("--embedding", required=True,
                            help="embedding JSON: {source: group spec, map: [image of each "
                            "element], source_sublattice (optional)}")
    p_restrict.add_argument("--anchor", required=True,
                            help="anchor JSON: {node: subgroup}, {antichain: [subgroup, ...]} "
                            "of meet irreducibles, or the node's elements")
    p_restrict.set_defaults(fn=cmd_restrict)

    p_lattice = sub.add_parser("lattice", help="emit the lattice as JSON")
    common(p_lattice)
    p_lattice.set_defaults(fn=cmd_lattice)

    p_export = sub.add_parser("export", help="export the Hasse diagram (DOT)")
    common(p_export)
    p_export.add_argument("--format", default="dot", choices=("dot", "json", "csv"),
                          help="dot (default), json or csv")
    p_export.set_defaults(fn=cmd_export)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = None
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except LatsuperError as exc:
        _emit_failure({"error": exc.payload()}, getattr(args, "out", None))
        return EXIT_INPUT if isinstance(exc, InputError) else EXIT_VERIFY


if __name__ == "__main__":
    raise SystemExit(main())
