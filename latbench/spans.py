"""Span and counter wrappers around latsuper's public functions.

``Tracer.install()`` replaces each traced function in every ``latsuper``
module namespace that refers to it (``from .x import f`` makes copies), and
``uninstall()`` puts every original back.  Spans are kept in memory as
``[name, layer, start, end, parent]``; counted functions only bump a counter
for the layer of the innermost open span, so their time stays in the caller's
self time.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from collections import Counter

# layer -> "module.attribute" paths whose calls open a span
SPANS = {
    "groups": ("groups.make_group", "groups.GroupSpec.from_json"),
    "lattice": (
        "lattice.normal_lattice", "lattice.closed_sublattice", "lattice.NormalLattice.__init__",
        "lattice.distributive_analysis", "lattice.lattice_to_json", "lattice.lattice_to_dot",
    ),
    "sct": ("sct.build_theory", "sct.verify_sct", "sct.chi_bullet_multiplicative",
            "sct.degree_sum"),
    "oracle": ("oracle.verify_sc3_abelian", "oracle.schur_closure_check",
               "oracle.cross_check_normal_lattice"),
    "products": ("products.tensor_product", "products.decompose_class_function"),
    "restriction": ("restriction.GroupEmbedding.__init__",
                    "restriction.build_restriction_context", "restriction.restrict_decompose"),
    "cli": ("cli.main",),
}
COUNTED = ("groups.closure_mask", "groups.conjugacy_classes", "sct.inner_product")
LAYERS = tuple(SPANS)
LATTICE_BUILDERS = ("normal_lattice", "closed_sublattice", "NormalLattice.__init__")


def short(path: str) -> str:
    return path.split(".", 1)[1]


PACKAGE = "latsuper"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object, bool]] = []
        self._theories: dict[int, weakref.ref] = {}   # id -> theory already counted

    # -- install / uninstall -------------------------------------------------

    def modules(self) -> list:
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self) -> None:
        for layer, paths in SPANS.items():
            for path in paths:
                self._patch(path, lambda fn, p=path, l=layer: self._span(fn, short(p), l))
        for path in COUNTED:
            self._patch(path, self._counter)

    def uninstall(self) -> None:
        for owner, attr, original, present in reversed(self._restore):
            if present:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._restore.clear()

    def _patch(self, path: str, make) -> None:
        module_name, *attrs = path.split(".")
        module = sys.modules.get(f"{PACKAGE}.{module_name}")
        owner = module
        for attr in attrs[:-1]:
            owner = getattr(owner, attr, None)
        name = attrs[-1]
        if owner is None or name not in getattr(owner, "__dict__", {}):
            self.missing.append(path)
            return
        raw = owner.__dict__[name]
        if isinstance(owner, type):
            # a method or classmethod: patch the class itself
            wrapped = (classmethod(make(raw.__func__)) if isinstance(raw, classmethod)
                       else make(raw))
            self._set(owner, name, wrapped)
            return
        wrapped = make(raw)
        for mod in self.modules():
            for attr, value in list(vars(mod).items()):
                if value is raw:
                    self._set(mod, attr, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        present = attr in vars(owner)
        self._restore.append((owner, attr, vars(owner).get(attr), present))
        setattr(owner, attr, value)

    # -- wrappers --------------------------------------------------------------

    def _span(self, fn, name: str, layer: str):
        spans, stack, observe = self.spans, self.stack, self._observe
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, layer, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            observe(name, span, args, result)
            return result

        return wrapper

    def _counter(self, fn):
        counts, stack, spans = self.counts, self.stack, self.spans
        key = fn.__name__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            layer = spans[stack[-1]][1] if stack else "none"
            counts[f"{layer}.{key}"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, name: str, span: list, args: tuple, result) -> None:
        """Counts read from the public attributes of arguments and results."""
        c = self.counts
        parent = self.spans[span[4]][0] if span[4] >= 0 else None
        try:
            if name == "make_group" and parent != "make_group":
                c["table_entries"] += result.order ** 2
            elif name == "NormalLattice.__init__":
                c["nodes"] += len(args[0].nodes)
            elif name == "build_theory":
                seen = self._theories.get(id(result))
                if seen is None or seen() is not result:
                    self._theories[id(result)] = weakref.ref(result)
                    c["blocks"] += len(result.partition.blocks)
            elif name == "verify_sc3_abelian":
                c["dual_size"] += result.get("dual_size", 0)
            elif name == "tensor_product":
                c["identity_held"] += bool(result.identity_holds)
        except (AttributeError, TypeError, KeyError):
            c[f"unobserved.{name}"] += 1

    # -- metrics ---------------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] >= 0:
                out[s[4]] -= s[3] - s[2]
        return out

    def metrics(self) -> dict[str, float]:
        spans, own = self.spans, self.self_times()
        c = self.counts

        def total(names, outermost=False) -> float:
            return sum(
                s[3] - s[2] for s in spans
                if s[0] in names and not (outermost and s[4] >= 0 and spans[s[4]][0] in names)
            )

        def count(name) -> int:
            return sum(1 for s in spans if s[0] == name)

        out = {f"{layer}.self_s": sum(t for s, t in zip(spans, own) if s[1] == layer)
               for layer in LAYERS}
        tensor_calls = count("tensor_product")
        out.update({
            "groups.make_group_s": total(("make_group",), outermost=True),
            "groups.table_entries": c["table_entries"],
            "lattice.build_s": total(LATTICE_BUILDERS, outermost=True),
            "lattice.nodes": c["nodes"],
            "lattice.closure_calls": c["lattice.closure_mask"],
            "lattice.classes_calls": c["lattice.conjugacy_classes"],
            "sct.verify_sct_self_s": sum(t for s, t in zip(spans, own) if s[0] == "verify_sct"),
            "sct.blocks": c["blocks"],
            "sct.inner_products": c["sct.inner_product"],
            "oracle.sc3_s": total(("verify_sc3_abelian",)),
            "oracle.dual_size": c["dual_size"],
            "oracle.schur_s": total(("schur_closure_check",)),
            "oracle.normals_s": total(("cross_check_normal_lattice",)),
            "oracle.closure_calls": c["oracle.closure_mask"],
            "products.tensor_calls": tensor_calls,
            "products.identity_share": c["identity_held"] / tensor_calls if tensor_calls else 0.0,
            "restriction.calls": count("restrict_decompose"),
        })
        return out

    def report(self) -> dict:
        return {
            "fields": ["name", "layer", "start", "end", "parent"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "missing": self.missing,
        }
