"""The package surface is what the package itself uses.

Every module-level function and class of src/latsuper, and every public method,
must be referenced (as a name, an attribute or an import) by some module of
the package other than __init__, whose re-exports do not count.  Every field
of a dataclass must be read as an attribute by such a module: a field that is
only written is data no caller uses.  The only exceptions are listed in KEPT,
each with its reason: a name only tests call is deleted and its tests moved to
the surviving path.  Every name a module of the package other than __init__
imports is used by that module.
"""

import ast
import importlib.util
import json
from pathlib import Path

import latsuper
import latsuper.errors

SRC = Path(latsuper.__file__).parent
SPANS_PY = Path(__file__).resolve().parent.parent / "latbench" / "spans.py"

KEPT = (
    # argparse's hook, called by parse_args
    "cli._Parser.error",
)


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def surface():
    """(module.name, referenced) for every function, class and public method,
    and (module.Class.field, read) for every dataclass field."""
    defined, fields, used, loaded = [], [], set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(path.stem, f"{node.name}.{item.name}") for item in node.body
                            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields += [(path.stem, f"{node.name}.{item.target.id}") for item in node.body
                           if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
        if path.stem == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return ([(f"{module}.{name}", name.rsplit(".", 1)[-1] in used) for module, name in defined]
            + [(f"{module}.{name}", name.rsplit(".", 1)[-1] in loaded) for module, name in fields])


def test_every_name_is_used_by_the_package():
    unused = [name for name, referenced in surface() if not referenced]
    assert sorted(unused) == sorted(KEPT)


def benchmark_traced_names():
    """The module.name paths latbench's tracer wraps by name: the strings in
    SPANS and COUNTED of latbench/spans.py, read without importing it."""
    tree = ast.parse(SPANS_PY.read_text(encoding="utf-8"))
    values = [node.value for node in tree.body if isinstance(node, ast.Assign)
              and {t.id for t in node.targets if isinstance(t, ast.Name)} & {"SPANS", "COUNTED"}]
    assert len(values) == 2
    return {node.value for value in values for node in ast.walk(value)
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and "." in node.value}


def test_no_benchmark_counter_keeps_a_name_alive():
    # a name the benchmark traces must be used by the package on its own merits
    traced = benchmark_traced_names()
    assert "sct.inner_product" in traced and "cli.main" in traced
    assert traced.isdisjoint(KEPT)


def _annotation_strings(tree):
    """The names inside string annotations ("GroupSpec") of tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            annotation = node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        else:
            continue
        for text in ast.walk(annotation) if annotation else ():
            if isinstance(text, ast.Constant) and isinstance(text.value, str):
                yield from (n.id for n in ast.walk(ast.parse(text.value, mode="eval"))
                            if isinstance(n, ast.Name))


def unused_imports():
    """module.name for every name that a module other than __init__ imports
    (from __future__ aside) and never uses."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used.update(_annotation_strings(tree))
        imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"]
        unused += [f"{path.stem}.{name}" for node in imports
                   for name in (alias.asname or alias.name.split(".")[0] for alias in node.names)
                   if name not in used]
    return unused


def test_every_import_is_used():
    assert unused_imports() == []


def raises_without_a_check():
    """module:line of every `raise E(...)` in the package, E a class of
    latsuper.errors, that passes no check= keyword."""
    errors = {name for name, value in vars(latsuper.errors).items()
              if isinstance(value, type) and issubclass(value, latsuper.errors.LatsuperError)}
    missing = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                func = node.exc.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in errors and not any(k.arg == "check" for k in node.exc.keywords):
                    missing.append(f"{path.stem}:{node.lineno}")
    return missing


def test_every_raise_names_its_check():
    # every error payload carries a category and a check, and a witness where
    # an object is at hand; a raise without check= drops the check from it
    assert raises_without_a_check() == []


def runtime_package_imports(path):
    """The modules of the package that path imports outside its
    `if TYPE_CHECKING:` blocks, anywhere in the module (also in functions)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    typing_only = {id(inner) for node in ast.walk(tree) if isinstance(node, ast.If)
                   and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"
                   for inner in ast.walk(node)}
    modules = set()
    for node in ast.walk(tree):
        if id(node) in typing_only:
            continue
        if isinstance(node, ast.ImportFrom) and node.level:
            modules.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "latsuper":
            modules.add(node.module.partition(".")[2] or "__init__")
        elif isinstance(node, ast.Import):
            modules.update(a.name.partition(".")[2] or "__init__" for a in node.names
                           if a.name.split(".")[0] == "latsuper")
    return modules


def test_the_oracle_imports_only_errors_and_groups_at_run_time():
    # the oracle reuses no lattice or formula path: lattice and sct are types only
    assert runtime_package_imports(SRC / "oracle.py") == {"errors", "groups"}
    # the import sct makes inside verify_sct is seen
    assert "oracle" in runtime_package_imports(SRC / "sct.py")


def test_the_benchmark_tracer_observes_every_layer(tmp_path):
    # latbench's per-layer counters read names and fields of the package; a
    # refactor that drops one zeroes a counter silently instead of failing
    from latsuper import cli

    spec = importlib.util.spec_from_file_location("latbench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    files = {"group": {"kind": "cyclic", "n": 12}, "c4": [0, 3, 6, 9], "c6": [0, 2, 4, 6, 8, 10],
             "embedding": {"source": {"kind": "cyclic", "n": 6}, "map": [0, 2, 4, 6, 8, 10]},
             "anchor": {"node": [0]}}
    for name, payload in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    tracer = spans.Tracer()
    tracer.install()
    try:
        for command, *extra in (["sct"], ["verify"],
                                ["product", "--subgroup", "c4", "--subgroup", "c6"]):
            extra = [str(tmp_path / f"{x}.json") if x in files else x for x in extra]
            assert cli.main([command, "--group", str(tmp_path / "group.json"),
                             "--out", str(tmp_path / "out"), *extra]) == 0
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert [key for key in tracer.counts if key.startswith("unobserved.")] == []
    metrics = tracer.metrics()
    # each command builds the lattice of C12 and its theory once: one node and
    # one block per divisor of 12
    assert metrics["lattice.nodes"] == metrics["sct.blocks"] == 3 * 6
    # verify computes no Gram, so sct.inner_products reads 0, which also guards
    # against bringing the Gram back; the restrict block below shows that the
    # counter still sees a projection
    assert metrics["oracle.dual_size"] == 12 and metrics["sct.inner_products"] == 0
    assert metrics["products.tensor_calls"] > 0 and metrics["groups.table_entries"] == 3 * 144

    # restrict of C6 into C12 in a tracer of its own, so the totals above stay
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(["restrict", "--group", str(tmp_path / "group.json"),
                         "--embedding", str(tmp_path / "embedding.json"),
                         "--anchor", str(tmp_path / "anchor.json")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert [key for key in tracer.counts if key.startswith("unobserved.")] == []
    # one restrict_decompose, whose projection is one inner product under products
    assert tracer.metrics()["restriction.calls"] == 1
    assert tracer.counts["products.inner_product"] == 1
