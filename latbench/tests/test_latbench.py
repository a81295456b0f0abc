"""Self-tests of the benchmark: seeded inputs, output checks, span wrappers."""

from __future__ import annotations

import copy
import json
import random
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for p in (str(ROOT / "src"), str(ROOT)):
    if p not in sys.path:
        sys.path.insert(0, p)

from latbench import checks as C  # noqa: E402
from latbench import inputs, tables  # noqa: E402
from latbench.spans import Tracer  # noqa: E402
from latsuper import cli  # noqa: E402


def run_cli(tmp_path: Path, command: str, group: dict, *extra: str) -> dict | str:
    (tmp_path / "g.json").write_text(json.dumps(group))
    out = tmp_path / "out"
    assert cli.main([command, "--group", str(tmp_path / "g.json"), "--out", str(out),
                     *extra]) == 0
    text = out.read_text()
    return text if command == "sct" and "csv" in extra else json.loads(text)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_files(workload):
    first = inputs.build(workload, 11)
    again = inputs.build(workload, 11)
    assert first.files() == again.files()
    assert [op.label for op in first.ops] == [op.label for op in again.ops]


def test_seed_changes_inputs():
    assert any(inputs.build(w, 1).files() != inputs.build(w, 2).files()
               for w in inputs.WORKLOADS)


def test_relabel_is_an_isomorphism():
    mul = tables.dihedral_table(5)
    perm = tables.relabel_permutation(10, random.Random(3))
    out = tables.relabel(mul, perm)
    assert all(out[perm[a]][perm[b]] == perm[mul[a][b]] for a in range(10) for b in range(10))


def test_table_check_rejects_every_single_cell_mutation(tmp_path):
    table = run_cli(tmp_path, "sct", {"kind": "cyclic", "n": 12}, "--format", "json")
    C.check_table(table)
    C.check_cyclic_closed_form(table, 12)
    for i, chi in enumerate(table["characters"]):
        for k in range(len(chi["values"])):
            bad = copy.deepcopy(table)
            bad["characters"][i]["values"][k] += 1
            bad["characters"][i]["degree"] = bad["characters"][i]["values"][0]
            with pytest.raises(C.CheckError):
                C.check_table(bad)


def test_closed_form_rejects_a_swapped_row(tmp_path):
    table = run_cli(tmp_path, "sct", {"kind": "cyclic", "n": 12}, "--format", "json")
    chars = table["characters"]
    chars[1]["values"], chars[2]["values"] = chars[2]["values"], chars[1]["values"]
    with pytest.raises(C.CheckError):
        C.check_cyclic_closed_form(table, 12)


def test_product_check_rejects_a_wrong_coefficient(tmp_path):
    group = {"kind": "cyclic", "n": 12}
    table = run_cli(tmp_path, "sct", group, "--format", "json")
    operands = [tables.cyclic_subgroup(12, 4), tables.cyclic_subgroup(12, 6)]
    files = []
    for j, elems in enumerate(operands):
        files += ["--subgroup", str(tmp_path / f"s{j}.json")]
        (tmp_path / f"s{j}.json").write_text(json.dumps(elems))
    report = run_cli(tmp_path, "product", group, *files)
    C.check_product(report, table, operands)
    bad = copy.deepcopy(report)
    term = bad["coefficients"][0]
    term["coefficient"] = str(Fraction(term["coefficient"]) + 1)
    with pytest.raises(C.CheckError):
        C.check_product(bad, table, operands)


def test_lattice_check(tmp_path):
    payload = run_cli(tmp_path, "lattice", {"kind": "cyclic", "n": 12})
    C.check_lattice(payload, [tables.cyclic_subgroup(12, d) for d in tables.divisors(12)])
    bad = copy.deepcopy(payload)
    bad["hasse"].pop()
    with pytest.raises(C.CheckError):
        C.check_lattice(bad)
    bad = copy.deepcopy(payload)
    bad["distributive"] = False
    with pytest.raises(C.CheckError):
        C.check_lattice(bad)


def snapshot() -> dict:
    import latsuper.groups
    import latsuper.lattice
    import latsuper.restriction

    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "latsuper" or name.startswith("latsuper."):
            out.update({(name, k): v for k, v in vars(mod).items()})
    for cls in (latsuper.lattice.NormalLattice, latsuper.restriction.GroupEmbedding,
                latsuper.groups.GroupSpec):
        out.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return out


def test_uninstall_restores_every_attribute(tmp_path):
    before = snapshot()
    tracer = Tracer()
    tracer.install()
    assert not tracer.missing
    assert cli.main is not before[("latsuper.cli", "main")]
    tracer.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_operation_reports_layers(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        run_cli(tmp_path, "sct", {"kind": "cyclic", "n": 12}, "--format", "csv")
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert tracer.spans[0][0] == "main" and tracer.spans[0][4] == -1
    assert m["groups.table_entries"] == 144
    assert m["lattice.nodes"] == 6 and m["sct.blocks"] == 6
    assert m["lattice.closure_calls"] > 0
    root = tracer.spans[0][3] - tracer.spans[0][2]
    assert sum(m[f"{layer}.self_s"] for layer in
               ("groups", "lattice", "sct", "oracle", "products", "restriction", "cli")) \
        == pytest.approx(root)


def test_timer_samples_and_restores_the_alarm_handler():
    from latbench import speed

    before = signal.getsignal(signal.SIGALRM)
    with speed.Timer() as timer:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(timer.samples) >= 5
    assert 0 < timer.seconds <= 0.2 + 0.05
    assert timer.ref_seconds > 0
