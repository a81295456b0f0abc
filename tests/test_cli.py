import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import latsuper
from latsuper import GroupSpec, InputError, LatsuperError, make_group, normal_lattice
from latsuper.cli import _emit_json, _json_chunks, _verification_checks, main, table_payload

from corpus import dihedral_group, quaternion_group, symmetric_group

NONASSOCIATIVE_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return tmp_path, write


def run(args, capsys):
    code = main(args)
    return code, capsys.readouterr().out


def test_sct_csv_c12(files, capsys):
    tmp, write = files
    group = write("c12.json", {"kind": "cyclic", "n": 12})
    out = str(tmp / "table.csv")
    code, _ = run(["sct", "--group", group, "--out", out], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO((tmp / "table.csv").read_text())))
    assert len(rows) == 7  # header + 6 characters
    assert rows[0][0] == "supercharacter"
    assert all(len(r) == 7 for r in rows)
    body = [[int(x) for x in r[1:]] for r in rows[1:]]
    assert [1, 1, 1, 1, 1, 1] in body  # trivial character row


def test_sct_sublattice_five_by_five(files, capsys):
    tmp, write = files
    group = write("c12.json", {"kind": "cyclic", "n": 12})
    sub = write("gens.json", {"generators": [[0, 6], [0, 4, 8]]})
    code, out = run(["sct", "--group", group, "--sublattice", sub, "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["characters"]) == 5
    assert len(payload["blocks"]) == 5


def test_sct_empty_sublattice_trivial_theory(files, capsys):
    tmp, write = files
    group = write("c12.json", {"kind": "cyclic", "n": 12})
    sub = write("empty.json", {"generators": []})
    code, out = run(["sct", "--group", group, "--sublattice", sub, "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["characters"]) == 2
    sizes = sorted(b["size"] for b in payload["blocks"])
    assert sizes == [1, 11]


def test_table_json_roundtrip_stable(files, capsys):
    tmp, write = files
    group = write("v.json", {"kind": "vector_space", "q": 3, "dim": 2})
    code, first = run(["sct", "--group", group, "--format", "json"], capsys)
    assert code == 0
    code, second = run(["sct", "--group", group, "--format", "json"], capsys)
    assert first == second
    payload = json.loads(first)
    # re-verify from the emitted table: orthogonality of integer rows
    sizes = [b["size"] for b in payload["blocks"]]
    chars = [c["values"] for c in payload["characters"]]
    order = payload["order"]
    for i, f in enumerate(chars):
        for h in chars[i + 1:]:
            assert sum(s * a * b for s, a, b in zip(sizes, f, h)) == 0
        assert sum(s * a * a for s, a, f2 in zip(sizes, f, f)) % order == 0


def test_verify_passes_cyclic60(files, capsys):
    tmp, write = files
    group = write("c60.json", {"kind": "cyclic", "n": 60})
    code, out = run(["verify", "--group", group, "--seed", "7"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["passed"]
    names = {c["name"] for c in report["checks"]}
    assert {"group_invariants", "lattice_closure", "axioms", "dual_path_equivalence",
            "cover_meet_lemma", "tensor_product_spots", "degree_sum_spots",
            "normal_subgroup_oracle"} <= names


def test_verify_vector_space_with_basis_sublattice(files, capsys):
    tmp, write = files
    group = write("v32.json", {"kind": "vector_space", "q": 3, "dim": 2})
    # generators: the two axis lines span the basis sublattice
    sub = write("axes.json", {"generators": [[0, 3, 6], [0, 1, 2]]})
    code, out = run(["verify", "--group", group, "--sublattice", sub], capsys)
    assert code == 0
    assert json.loads(out)["passed"]


def test_verify_corrupted_table_exit2_with_latin_witness(files, capsys):
    tmp, write = files
    group = write("bad.json", {"kind": "table", "mul": [[0, 1], [1, 1]]})
    code, out = run(["verify", "--group", group], capsys)
    assert code == 2
    report = json.loads(out)
    assert not report["passed"]
    failed = [c for c in report["checks"] if not c["passed"]]
    assert failed[0]["name"] == "group_invariants"
    assert failed[0]["error"]["check"] == "latin_square"


def test_verify_nonassociative_table_exit2(files, capsys):
    tmp, write = files
    group = write("loop.json", {"kind": "table", "mul": NONASSOCIATIVE_LOOP})
    code, out = run(["verify", "--group", group], capsys)
    assert code == 2
    report = json.loads(out)
    failed = [c for c in report["checks"] if not c["passed"]]
    assert failed[0]["error"]["check"] == "associativity"
    assert "witness" in failed[0]["error"]


def test_sct_corrupted_table_exit1(files, capsys):
    tmp, write = files
    group = write("loop.json", {"kind": "table", "mul": NONASSOCIATIVE_LOOP})
    code, out = run(["sct", "--group", group], capsys)
    assert code == 1
    assert json.loads(out)["error"]["check"] == "associativity"


def test_non_closed_sublattice_exit1(files, capsys):
    tmp, write = files
    group = write("c12.json", {"kind": "cyclic", "n": 12})
    sub = write("nodes.json", {"nodes": [[0], [0, 6], [0, 4, 8], list(range(12))]})
    code, out = run(["sct", "--group", group, "--sublattice", sub], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["error"]["check"] == "join_closure"
    assert payload["error"]["witness"] == [[0, 6], [0, 4, 8]]


def test_non_closed_sublattice_verify_exit2(files, capsys):
    tmp, write = files
    group = write("c12.json", {"kind": "cyclic", "n": 12})
    sub = write("nodes.json", {"nodes": [[0], [0, 6], [0, 4, 8], list(range(12))]})
    code, out = run(["verify", "--group", group, "--sublattice", sub], capsys)
    assert code == 2
    report = json.loads(out)
    failed = [c for c in report["checks"] if not c["passed"]]
    assert failed[0]["name"] == "lattice_closure"


def test_product_command(files, capsys):
    tmp, write = files
    group = write("c12.json", {"kind": "cyclic", "n": 12})
    sub_a = write("c4.json", [0, 3, 6, 9])
    sub_b = write("c6.json", [0, 2, 4, 6, 8, 10])
    code, out = run(
        ["product", "--group", group, "--subgroup", sub_a, "--subgroup", sub_b], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["identity_holds"]
    assert payload["coefficients"] == [
        {"node": 1, "label": "C2", "coefficient": "1"}
    ]


def test_product_rejects_non_node(files, capsys):
    tmp, write = files
    group = write("c12.json", {"kind": "cyclic", "n": 12})
    sub = write("bad.json", [0, 5])
    code, out = run(["product", "--group", group, "--subgroup", sub, "--subgroup", sub], capsys)
    assert code == 1


def test_restrict_command(files, capsys):
    tmp, write = files
    group = write("c12.json", {"kind": "cyclic", "n": 12})
    emb = write("emb.json", {"source": {"kind": "cyclic", "n": 6}, "map": [0, 2, 4, 6, 8, 10]})
    anchor = write("anchor.json", {"node": [0, 3, 6, 9]})
    code, out = run(["restrict", "--group", group, "--embedding", emb, "--anchor", anchor], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["favorable"]
    assert payload["terms"] == [
        {
            "node": 1,
            "label": "C2",
            "coefficient": "1",
            "normalized_coefficient": "1/2",
        }
    ]


def test_restrict_unfavorable_exit1_with_witnesses(files, capsys):
    tmp, write = files
    group = write("c12.json", {"kind": "cyclic", "n": 12})
    sub = write("coarse.json", {"generators": []})
    emb = write("emb.json", {"source": {"kind": "cyclic", "n": 6}, "map": [0, 2, 4, 6, 8, 10]})
    anchor = write("anchor.json", {"node": [0]})
    code, out = run(
        ["restrict", "--group", group, "--sublattice", sub, "--embedding", emb,
         "--anchor", anchor],
        capsys,
    )
    assert code == 1
    payload = json.loads(out)
    assert not payload["favorable"]
    assert payload["witnesses"]["r2_witnesses"] == [{"M": "C1", "N": "C12"}]


def test_restrict_nodes_missing_from_the_source_lattice_exit1(files, capsys):
    # C12 meets the image of C6 under x -> 2x in C2, C3 and C4 of C6, which
    # are not nodes of the coarse source lattice {C1, C6}
    tmp, write = files
    group = write("c12.json", {"kind": "cyclic", "n": 12})
    emb = write("emb.json", {"source": {"kind": "cyclic", "n": 6}, "map": [0, 2, 4, 6, 8, 10],
                             "source_sublattice": {"generators": []}})
    anchor = write("anchor.json", {"node": [0]})
    code, out = run(["restrict", "--group", group, "--embedding", emb, "--anchor", anchor], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["favorable"] is False
    assert payload["witnesses"]["r1_failures"] == [
        {"node": 1, "label": "C2"}, {"node": 2, "label": "C3"}, {"node": 3, "label": "C4"}]


def test_lattice_and_export(files, capsys):
    tmp, write = files
    group = write("c12.json", {"kind": "cyclic", "n": 12})
    code, out = run(["lattice", "--group", group], capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["nodes"]) == 6
    assert payload["distributive"]
    code, out = run(["export", "--group", group], capsys)
    assert code == 0
    assert out.startswith("digraph lattice {")
    assert '"12:C12"' in out


def test_export_csv_is_the_sct_csv(files, capsys):
    tmp, write = files
    group = write("c2xc6.json", {"kind": "product",
                                 "factors": [{"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 6}]})
    code, exported = run(["export", "--group", group, "--format", "csv"], capsys)
    assert code == 0
    code, table = run(["sct", "--group", group], capsys)
    assert code == 0
    assert exported == table and table.startswith("supercharacter,")


def test_verify_rejects_jobs(files, capsys):
    # verify runs its checks one after another; the thread pool is gone, and
    # an unknown flag is a usage error: exit 1, not the 2 of a failed check
    tmp, write = files
    group = write("c12.json", {"kind": "cyclic", "n": 12})
    code, out = run(["verify", "--group", group, "--jobs", "4"], capsys)
    assert code == 1
    error = json.loads(out)["error"]
    assert (error["category"], error["check"]) == ("InputError", "usage")
    assert "--jobs" in error["message"]
    code, out = run(["verify", "--group", group], capsys)
    assert code == 0
    assert json.loads(out)["passed"]


@pytest.mark.parametrize("args", [
    ["lattice", "--seed", "3"],
    ["verify", "--format", "csv"],
    ["sct", "--seed", "1"],
    ["verify", "--jobs", "4"],
    ["product", "--format", "json"],
    ["restrict", "--seed", "0"],
    ["export", "--seed", "2"],
    ["verify", "--seed", "x"],
    ["sct"],
    ["nosuch"],
    ["sct", "--format", "xml"],
    ["export", "--format", "xml"],
    ["restrict"],
    ["restrict", "--embedding", "emb.json"],
    ["restrict", "--anchor", "anchor.json"],
    ["product"],
    ["product", "--subgroup", "a.json"],
])
def test_usage_errors_exit1_with_a_payload(files, capsys, args):
    # --format is read by sct and export only, --seed by verify only
    tmp, write = files
    group = write("c12.json", {"kind": "cyclic", "n": 12})
    argv = args if args in (["sct"], ["nosuch"]) else [args[0], "--group", group, *args[1:]]
    code, out = run(argv, capsys)
    assert code == 1
    error = json.loads(out)["error"]
    assert (error["category"], error["check"]) == ("InputError", "usage")


@pytest.mark.parametrize("args", [["sct", "--format", "xml"], ["restrict"]])
def test_a_rejected_command_line_reports_on_stdout(files, capsys, args):
    # argparse rejects the command line before --out is read
    tmp, write = files
    out = tmp / "out.json"
    argv = [args[0], "--group", write("c12.json", {"kind": "cyclic", "n": 12}),
            "--out", str(out), *args[1:]]
    code, text = run(argv, capsys)
    assert code == 1 and not out.exists()
    assert json.loads(text)["error"]["check"] == "usage"


def test_help_still_exits_0(capsys):
    for argv in (["--help"], ["verify", "--help"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        assert "usage: latsuper" in capsys.readouterr().out


@pytest.mark.parametrize("command", [
    ["sct"], ["sct", "--format", "json"], ["lattice"], ["verify"], ["product"], ["restrict"],
    ["export"], ["export", "--format", "json"],
])
def test_commands_leave_no_latsuper_cycles(files, capsys, command):
    """Every object a command builds is freed by reference counting: with
    DEBUG_SAVEALL, a collection after the command finds no latsuper object
    among the unreachable ones."""
    tmp, write = files
    group = write("c12.json", {"kind": "cyclic", "n": 12})
    extra = {
        "product": ["--subgroup", write("a.json", [0, 6]), "--subgroup", write("b.json", [0, 4, 8])],
        "restrict": ["--embedding", write("emb.json", {"source": {"kind": "cyclic", "n": 6},
                                                       "map": [0, 2, 4, 6, 8, 10]}),
                     "--anchor", write("anchor.json", {"node": [0, 6]})],
    }.get(command[0], [])
    argv = [command[0], "--group", group, *command[1:], *extra]
    flags = gc.get_debug()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        code, _ = run(argv, capsys)
        gc.collect()
        leaked = sorted({type(x).__qualname__ for x in gc.garbage
                         if type(x).__module__.startswith("latsuper")})
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert code == 0
    assert leaked == []


@pytest.mark.parametrize("command", [["sct", "--format", "json"], ["verify"]])
def test_json_output_leaves_no_cyclic_garbage(files, capsys, command):
    """A scalar leaf is written by the shared C encoder, not by a new
    pure-Python encoder whose closures form a cycle: after one warm-up call,
    a collection after the command finds no unreachable object at all."""
    tmp, write = files
    argv = [command[0], "--group", write("c12.json", {"kind": "cyclic", "n": 12}), *command[1:]]
    run(argv, capsys)
    flags = gc.get_debug()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        code, _ = run(argv, capsys)
        gc.collect()
        garbage = len(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert code == 0
    assert garbage == 0


@pytest.mark.parametrize("sublattice, lattices", [(None, 1), ({"generators": [[0, 6]]}, 1)])
def test_verify_builds_the_normal_lattice_once(files, capsys, monkeypatch, sublattice, lattices):
    """Without --sublattice the oracle cross-checks the lattice verify already
    holds; a sublattice has its nodes certified, and the full lattice is never
    built.  Either way verify builds exactly one lattice."""
    from latsuper import cli
    from latsuper.lattice import NormalLattice

    tmp, write = files
    argv = ["verify", "--group", write("c12.json", {"kind": "cyclic", "n": 12})]
    if sublattice is not None:
        argv += ["--sublattice", write("sub.json", sublattice)]
    built = []

    def counted(G):
        built.append(G.order)
        return normal_lattice(G)

    made = []

    def init(self, *args, build=NormalLattice.__init__, **kwargs):
        made.append(self)
        build(self, *args, **kwargs)

    monkeypatch.setattr(cli, "normal_lattice", counted)
    monkeypatch.setattr(NormalLattice, "__init__", init)
    code, out = run(argv, capsys)
    assert code == 0
    oracle_check = next(c for c in json.loads(out)["checks"]
                        if c["name"] == "normal_subgroup_oracle")
    if sublattice is None:
        assert (oracle_check["detail"], built) == ({"status": "pass", "count": 6}, [12])
    else:
        assert (oracle_check["detail"], built) == ({"status": "pass", "nodes": 3}, [])
    assert oracle_check["passed"]
    assert len(made) == lattices


def test_verify_reports_a_failed_check_and_runs_the_rest(files, capsys, monkeypatch):
    """A check that raises is reported with its payload, the checks after it
    still run, and verify exits 2."""
    from latsuper import InternalConsistencyError, cli

    error = InternalConsistencyError(
        "projection coefficients failed to reconstruct the function", check="decompose")

    def failing(L, m, n):
        raise error

    monkeypatch.setattr(cli, "tensor_product", failing)
    tmp, write = files
    code, out = run(["verify", "--group", write("c12.json", {"kind": "cyclic", "n": 12})], capsys)
    report = json.loads(out)
    assert (code, report["passed"]) == (2, False)
    assert [c["name"] for c in report["checks"]] == [
        "group_invariants", "lattice_closure", "axioms", "dual_path_equivalence",
        "cover_meet_lemma", "tensor_product_spots", "degree_sum_spots", "normal_subgroup_oracle"]
    assert [c for c in report["checks"] if not c["passed"]] == [
        {"name": "tensor_product_spots", "passed": False, "error": error.payload()}]
    assert report["checks"][-1]["detail"] == {"status": "pass", "count": 6}


def test_verify_certifies_the_f2_7_basis_sublattice(files, capsys):
    # the full lattice of F2^7 has over 20,000 nodes, and no node cap applies
    tmp, write = files
    group = write("f2_7.json", {"kind": "vector_space", "q": 2, "dim": 7})
    sub = write("basis.json", {"generators": [[0, 1 << i] for i in range(7)]})
    code, out = run(["verify", "--group", group, "--sublattice", sub], capsys)
    assert code == 0
    oracle_check = next(c for c in json.loads(out)["checks"]
                        if c["name"] == "normal_subgroup_oracle")
    assert oracle_check["detail"] == {"status": "pass", "nodes": 128}


def run_fresh(args):
    """The CLI in a fresh Python process, importing this tree's latsuper."""
    src = str(Path(latsuper.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "latsuper.cli", *args], capture_output=True,
                          text=True, env=env, timeout=120)


C12 = json.dumps({"kind": "cyclic", "n": 12}).encode()
# the --group file's bytes, the extra arguments (a repeated flag wins), and
# the check and the path the error names
FILE_FAILURES = {
    "group not found": (C12, ["--group", "{tmp}/absent.json"], "input", "{tmp}/absent.json"),
    "group is a directory": (C12, ["--group", "{tmp}"], "input", "{tmp}"),
    "group not UTF-8": (b"\xff\xfe{}", [], "json", "{group}"),
    "group not JSON": (b"{not json", [], "json", "{group}"),
    "group nested 200,000 deep": (b"[" * 200_000 + b"]" * 200_000, [], "json", "{group}"),
    "group with 5000 digits": (b'{"kind": "cyclic", "n": ' + b"7" * 5000 + b"}", [], "json",
                               "{group}"),
    "out in a missing directory": (C12, ["--out", "{tmp}/missing/t.csv"], "output",
                                   "{tmp}/missing/t.csv"),
    "out onto a directory": (C12, ["--out", "{tmp}"], "output", "{tmp}"),
}


@pytest.mark.parametrize("case", FILE_FAILURES)
def test_file_failures_are_input_errors(tmp_path, case):
    """A file that cannot be read or written ends as an InputError payload on
    stdout with exit 1, and nothing on stderr: no traceback.  The payload
    names the check and, as its witness, the path."""
    content, extra, check, path = FILE_FAILURES[case]
    group = tmp_path / "g.json"
    group.write_bytes(content)
    args = ["sct", "--group", str(group), *(a.format(tmp=tmp_path) for a in extra)]
    done = run_fresh(args)
    assert (done.returncode, done.stderr) == (1, "")
    error = json.loads(done.stdout)["error"]
    assert error["category"] == "InputError"
    assert (error["check"], error["witness"]) == (
        check, {"path": path.format(tmp=tmp_path, group=group)})


@pytest.mark.parametrize("command", [["sct", "--format", "json"], ["lattice"],
                                     ["export", "--format", "json"]],
                         ids=["sct-json", "lattice", "export-json"])
def test_json_output_of_a_product_nested_493_deep(tmp_path, command):
    """A one-factor product of C2 nested 493 deep, the deepest the reader
    accepts in a fresh process, is echoed as json.dumps writes it, and the
    rest of the output is that of the product of C2 alone."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10_000)  # this process writes and reads the nesting
    try:
        runs = []
        for depth in (493, 1):
            spec = {"kind": "cyclic", "n": 2}
            for _ in range(depth):
                spec = {"kind": "product", "factors": [spec]}
            group = tmp_path / f"g{depth}.json"
            group.write_text(json.dumps(spec))
            done = run_fresh([*command, "--group", str(group)])
            assert (done.returncode, done.stderr) == (0, "")
            runs.append((spec, done.stdout))
        (spec, out), (_, shallow) = runs
        payload = json.loads(out)
        assert payload.pop("group") == spec
        assert out == json.dumps({**payload, "group": spec}, indent=2, sort_keys=True) + "\n"
    finally:
        sys.setrecursionlimit(limit)
    assert payload == {k: v for k, v in json.loads(shallow).items() if k != "group"}


@pytest.mark.parametrize("source_map, message, witness", [
    ([0, 2, 4], "length 3", {"field": "map", "index": 3}),
    ([0, 2, 4, 6, 8, 7, 12], "length 7", {"field": "map", "index": 6, "value": 12}),
    ([0, 2, 4, 6, 8, 12], "out of range", {"field": "map", "index": 5, "value": 12}),
    ([0, 2, -4, 6, 8, 10], "out of range", {"field": "map", "index": 2, "value": -4}),
    ([0, 2, 4, 6, 2, 10], "not injective", {"field": "map", "index": 4, "value": 2}),
    ([2, 4, 6, 8, 10, 0], "identity", {"field": "map", "index": 0, "value": 2}),
], ids=["short", "long", "above", "negative", "repeat", "identity"])
def test_embedding_errors_name_the_first_offending_index(files, capsys, source_map, message,
                                                         witness):
    tmp, write = files
    code, out = run(["restrict", "--group", write("c12.json", {"kind": "cyclic", "n": 12}),
                     "--embedding", write("e.json", {"source": {"kind": "cyclic", "n": 6},
                                                     "map": source_map}),
                     "--anchor", write("a.json", {"node": [0, 6]})], capsys)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["category"] == "ConstructionError" and message in error["message"]
    assert (error["check"], error["witness"]) == ("embedding", witness)


def test_an_error_goes_to_stdout_when_out_cannot_be_written(files, capsys):
    """An error payload, or a failing verify report, that cannot be written to
    --out goes to stdout; a passing report keeps the write error, exit 1."""
    tmp, write = files
    group = write("c5000.json", {"kind": "cyclic", "n": 5000})
    code, out = run(["sct", "--group", group, "--out", str(tmp)], capsys)
    assert code == 1
    assert json.loads(out)["error"]["check"] == "order_cap"
    code, out = run(["verify", "--group", group, "--out", str(tmp)], capsys)
    assert code == 2
    report = json.loads(out)
    assert report["passed"] is False
    assert report["checks"][0]["error"]["check"] == "order_cap"
    code, out = run(["verify", "--group", write("c6.json", {"kind": "cyclic", "n": 6}),
                     "--out", str(tmp)], capsys)
    assert code == 1
    assert json.loads(out)["error"]["check"] == "output"


def test_missing_file_exit1(files, capsys):
    code, out = run(["sct", "--group", "/nonexistent/g.json"], capsys)
    assert code == 1
    assert "not found" in json.loads(out)["error"]["message"]


@pytest.mark.parametrize(
    "spec, field",
    [
        ({"kind": "cyclic"}, "n"),
        ({"kind": "cyclic", "n": "x"}, "n"),
        ({"kind": "vector_space", "dim": 2}, "q"),
        ({"kind": "vector_space", "q": 3, "dim": 1.5}, "dim"),
        ({"kind": "table", "mul": 5}, "mul"),
        ({"kind": "table", "mul": [0]}, "mul"),
        ({"kind": "product", "factors": {"kind": "cyclic", "n": 2}}, "factors"),
        # a field the kind does not take, reported after the fields it does take
        ({"kind": "cyclic", "n": 12, "dim": 3, "q": 7}, "dim"),
        ({"kind": "vector_space", "q": 3, "dim": 2, "n": 9}, "n"),
        ({"kind": "table", "mul": [[0]], "order": 1}, "order"),
        ({"kind": "product", "factors": [{"kind": "cyclic", "n": 2, "q": 2}]}, "q"),
        ({"kind": "cyclic", "n": True}, "n"),  # a bool is no int
    ],
)
@pytest.mark.parametrize("command", ["sct", "verify"])
def test_malformed_group_spec_exit1_with_witness(files, capsys, spec, field, command):
    tmp, write = files
    code, out = run([command, "--group", write("g.json", spec)], capsys)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["category"] == "ArgumentError"
    assert error["check"] == "spec"
    assert error["witness"]["field"] == field


@pytest.mark.parametrize("spec, value", [
    ([1, 2], [1, 2]),
    (5, 5),
    ({"n": 12}, None),
    ({"kind": "dihedral", "n": 12}, "dihedral"),
    ({"kind": "product", "factors": [{"kind": "cyclic", "n": 2}, 7]}, 7),
    ({"kind": "product", "factors": [{"kind": "cyclic", "n": 2}, {"n": 3}]}, None),
])
@pytest.mark.parametrize("command", ["sct", "verify", "restrict"])
def test_spec_without_a_known_kind_names_the_kind(files, capsys, spec, value, command):
    # restrict reads the spec as the embedding's source; the target is C12
    tmp, write = files
    if command == "restrict":
        args = ["--group", write("c12.json", {"kind": "cyclic", "n": 12}),
                "--embedding", write("e.json", {"source": spec, "map": [0, 6]}),
                "--anchor", write("a.json", {"node": [0, 6]})]
    else:
        args = ["--group", write("g.json", spec)]
    code, out = run([command] + args, capsys)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["category"] == "ArgumentError"
    assert error["check"] == "spec"
    assert error["witness"] == {"field": "kind", "value": value}


@pytest.mark.parametrize("spec, check, witness", [
    ({"kind": "cyclic", "n": 0}, "spec", {"field": "n", "value": 0}),
    ({"kind": "vector_space", "q": 2, "dim": 0}, "spec", {"field": "dim", "value": 0}),
    ({"kind": "vector_space", "q": 6, "dim": 2}, "prime_power", {"field": "q", "value": 6}),
    ({"kind": "vector_space", "q": 1, "dim": 2}, "prime_power", {"field": "q", "value": 1}),
    ({"kind": "table", "mul": []}, "spec", {"field": "mul", "value": []}),
    ({"kind": "product", "factors": []}, "spec", {"field": "factors", "value": []}),
    ({"kind": "product", "factors": [{"kind": "cyclic", "n": -3}]}, "spec",
     {"field": "n", "value": -3}),
])
def test_spec_value_error_names_its_field(files, capsys, spec, check, witness):
    tmp, write = files
    code, out = run(["sct", "--group", write("g.json", spec)], capsys)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["category"] == "ConstructionError"
    assert (error["check"], error["witness"]) == (check, witness)


@pytest.mark.parametrize("command", ["sct", "verify", "restrict"])
def test_a_product_nested_400_deep_is_its_one_factor(files, capsys, command):
    """One-factor products of C2 nested 400 deep are C2: each command runs
    as on the product of C2 alone (a product's nodes are labelled N0, N1, a
    cyclic group's C1, C2), restrict with the nesting as the embedding's
    source."""
    tmp, write = files
    specs = [{"kind": "cyclic", "n": 2}]
    for _ in range(400):
        specs.append({"kind": "product", "factors": [specs[-1]]})
    outs = []
    for spec in (specs[-1], specs[1]):
        if command == "restrict":
            args = ["--group", write("c12.json", {"kind": "cyclic", "n": 12}),
                    "--embedding", write("e.json", {"source": spec, "map": [0, 6]}),
                    "--anchor", write("a.json", {"node": [0, 6]})]
        else:
            args = ["--group", write("g.json", spec)]
        outs.append(run([command] + args, capsys))
    assert outs[0] == outs[1]
    assert outs[0][0] == 0


def test_verify_missing_or_unparseable_group_exit1(files, capsys):
    tmp, write = files
    code, out = run(["verify", "--group", str(tmp / "absent.json")], capsys)
    assert code == 1
    assert "not found" in json.loads(out)["error"]["message"]
    (tmp / "broken.json").write_text("{not json")
    code, out = run(["verify", "--group", str(tmp / "broken.json")], capsys)
    assert code == 1
    assert json.loads(out)["error"]["category"] == "InputError"


@pytest.mark.parametrize("value", [1.9, 1.0, "1", True, False, None, [1]])
@pytest.mark.parametrize("command", ["sct", "verify"])
def test_table_entries_must_be_plain_integers(files, capsys, command, value):
    tmp, write = files
    group = write("g.json", {"kind": "table", "mul": [[0, 1], [1, value]]})
    code, out = run([command, "--group", group], capsys)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["category"] == "ArgumentError"
    assert error["check"] == "spec"
    assert error["witness"] == {"field": "mul", "row": 1, "column": 1, "value": value}


@pytest.mark.parametrize("element", [-1, 1.5, "6", True, None, 12])
@pytest.mark.parametrize("command, where", [
    ("sct", "generators"), ("verify", "generators"), ("sct", "nodes"), ("verify", "nodes"),
    ("product", "subgroup"), ("restrict", "source_sublattice"), ("restrict", "anchor"),
])
def test_bad_sublattice_element_is_an_argument_error(files, capsys, command, where, element):
    # C12 has elements 0..11; the restriction source C6 has 0..5
    tmp, write = files
    bad = [0, element]
    args = [command, "--group", write("c12.json", {"kind": "cyclic", "n": 12})]
    if where == "generators":
        args += ["--sublattice", write("s.json", {"generators": [bad]})]
    elif where == "nodes":
        args += ["--sublattice", write("s.json", {"nodes": [[0], bad, list(range(12))]})]
    elif where == "subgroup":
        args += ["--subgroup", write("a.json", bad), "--subgroup", write("b.json", [0, 6])]
    else:
        emb = {"source": {"kind": "cyclic", "n": 6}, "map": [0, 2, 4, 6, 8, 10]}
        anchor = {"node": [0, 6]}
        if where == "anchor":
            anchor = {"node": bad}
        else:
            emb["source_sublattice"] = {"generators": [[0, 6 if element == 12 else element]]}
        args += ["--embedding", write("e.json", emb), "--anchor", write("a.json", anchor)]
    code, out = run(args, capsys)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["category"] == "ArgumentError"
    assert error["check"] == "shape"
    field = {"subgroup": "elements", "anchor": "node", "source_sublattice": "generators"}
    value = [0, 6 if element == 12 else element] if where == "source_sublattice" else bad
    assert error["witness"] == {"field": field.get(where, where), "value": value}


def test_non_subgroup_generator_verify_exit1(files, capsys):
    tmp, write = files
    args = ["--group", write("c12.json", {"kind": "cyclic", "n": 12}),
            "--sublattice", write("s.json", {"generators": [[0, 5]]})]
    outputs = []
    for command in ("sct", "verify"):
        code, out = run([command] + args, capsys)
        assert code == 1
        outputs.append(json.loads(out))
    assert outputs[0] == outputs[1]
    assert outputs[1]["error"]["category"] == "ArgumentError"


@pytest.mark.parametrize("command, where", [("product", "subgroup"), ("restrict", "anchor")])
def test_subgroup_that_is_no_node_names_its_elements(files, capsys, command, where):
    tmp, write = files
    elements = write("s.json", [6, 0, 4, 6])
    args = [command, "--group", write("c12.json", {"kind": "cyclic", "n": 12})]
    if where == "subgroup":
        args += ["--subgroup", elements, "--subgroup", write("b.json", [0, 6])]
    else:
        args += ["--embedding", write("e.json", C12_EMBEDDING), "--anchor", elements]
    code, out = run(args, capsys)
    assert code == 1
    error = json.loads(out)["error"]
    assert error == {"category": "ArgumentError", "check": "lattice_node", "witness": [0, 4, 6],
                     "message": "subgroup [0, 4, 6] is not a lattice node"}


C12_EMBEDDING = {"source": {"kind": "cyclic", "n": 6}, "map": [0, 2, 4, 6, 8, 10]}
S3_TABLE = {"kind": "table", "mul": [list(r) for r in symmetric_group(3).mul]}


@pytest.mark.parametrize("command, group, flag, payload, check, message, witness", [
    ("lattice", {"kind": "cyclic", "n": 12}, "--sublattice", {"generators": [[0, 5]]},
     "subgroup", "[0, 5] is not a subgroup", [0, 5]),
    ("lattice", S3_TABLE, "--sublattice", {"generators": [[0, 1]]},
     "normality", "generator [0, 1] is not a normal subgroup", [0, 1]),
    ("restrict", {"kind": "cyclic", "n": 12}, "--anchor", {"antichain": [[0, 6]]},
     "irreducible", "node 1 is not meet irreducible in the G-lattice", 1),
])
def test_well_typed_list_that_is_no_generator_or_irreducible_names_a_check(
        files, capsys, command, group, flag, payload, check, message, witness):
    tmp, write = files
    args = [command, "--group", write("g.json", group), flag, write("bad.json", payload)]
    if command == "restrict":
        args += ["--embedding", write("e.json", C12_EMBEDDING)]
    code, out = run(args, capsys)
    assert code == 1
    assert json.loads(out)["error"] == {"category": "ArgumentError", "check": check,
                                        "message": message, "witness": witness}


@pytest.mark.parametrize("command, where, payload, witness", [
    ("sct", "sublattice", 5, {"field": "generators", "value": 5}),
    ("verify", "sublattice", 5, {"field": "generators", "value": 5}),
    ("sct", "sublattice", "C12", {"field": "generators", "value": "C12"}),
    ("sct", "sublattice", {"nodes": 5}, {"field": "nodes", "value": 5}),
    ("verify", "sublattice", {"nodes": 5}, {"field": "nodes", "value": 5}),
    ("sct", "sublattice", {"generators": {"a": [0, 6]}},
     {"field": "generators", "value": {"a": [0, 6]}}),
    ("product", "subgroup", {"members": [0, 6]}, {"field": "elements", "value": None}),
    ("product", "subgroup", 6, {"field": "elements", "value": 6}),
    ("restrict", "embedding", 5, {"field": "map", "value": 5}),
    ("restrict", "embedding", {"source": {"kind": "cyclic", "n": 6}},
     {"field": "map", "value": None}),
    ("restrict", "embedding", {"map": [0, 2, 4, 6, 8, 10]}, {"field": "source", "value": None}),
    ("restrict", "embedding", {"source": {"kind": "cyclic", "n": 6}, "map": [0, "2", 4, 6, 8, 10]},
     {"field": "map", "value": [0, "2", 4, 6, 8, 10]}),
    ("restrict", "embedding", dict(C12_EMBEDDING, source_sublattice={"nodes": 5}),
     {"field": "nodes", "value": 5}),
    ("restrict", "anchor", 6, {"field": "node", "value": 6}),
    ("restrict", "anchor", {"antichain": 5}, {"field": "antichain", "value": 5}),
    # a misspelt, a second or an unknown field: once read as another lattice or anchor
    ("lattice", "sublattice", {"generatorz": [[0, 6]]}, {"field": "generators", "value": None}),
    ("lattice", "sublattice", {}, {"field": "generators", "value": None}),
    ("lattice", "sublattice", {"nodes": [[0], list(range(12))], "generators": [[0, 6]]},
     {"field": "generators", "value": [[0, 6]]}),
    ("restrict", "anchor", {"node": [0, 6], "antichain": [[0, 3, 6, 9]]},
     {"field": "antichain", "value": [[0, 3, 6, 9]]}),
    ("sct", "sublattice", {"generators": [[0, 6]], "closed": True},
     {"field": "closed", "value": True}),
    ("product", "subgroup", {"elements": [0, 6], "order": 2}, {"field": "order", "value": 2}),
    ("restrict", "embedding", dict(C12_EMBEDDING, target={"kind": "cyclic", "n": 12}),
     {"field": "target", "value": {"kind": "cyclic", "n": 12}}),
    ("restrict", "anchor", {"node": [0, 6], "label": "C2"}, {"field": "label", "value": "C2"}),
    ("restrict", "embedding", dict(C12_EMBEDDING, source_sublattice={"generators": [], "x": 0}),
     {"field": "x", "value": 0}),
    ("restrict", "embedding", [0, 2, 4, 6, 8, 10], {"field": "map", "value": [0, 2, 4, 6, 8, 10]}),
])
def test_misshapen_json_file_is_an_argument_error(files, capsys, command, where, payload,
                                                  witness):
    tmp, write = files
    args = [command, "--group", write("c12.json", {"kind": "cyclic", "n": 12})]
    bad = write("bad.json", payload)
    if where == "sublattice":
        args += ["--sublattice", bad]
    elif where == "subgroup":
        args += ["--subgroup", bad, "--subgroup", write("b.json", [0, 6])]
    elif where == "embedding":
        args += ["--embedding", bad, "--anchor", write("a.json", {"node": [0, 6]})]
    else:
        args += ["--embedding", write("e.json", C12_EMBEDDING), "--anchor", bad]
    code, out = run(args, capsys)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["category"] == "ArgumentError"
    assert error.get("check") == "shape"
    assert error["witness"] == witness


# ---------------------------------------------------------------------------
# Random JSON as each input file: exit 0, or exit 1 with a field-level witness.

# values no field takes as they are: no list and no int (a bool is no int); a
# dict of scalars is read on only as a group spec or a sublattice, and fails there
WRONG = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
    st.dictionaries(st.text(max_size=4), st.one_of(st.none(), st.text(max_size=4)), max_size=2),
)


@st.composite
def _objects(draw, **good):
    """JSON objects holding each field named in good with its good value (or
    one drawn from its strategy), a WRONG one or not at all, and at times a
    field of another name."""
    out = draw(st.one_of(st.just({}), st.dictionaries(st.text(max_size=4), WRONG, max_size=1)))
    for name, value in good.items():
        how = draw(st.sampled_from(["good", "absent", "wrong"]))
        if how == "good":
            out[name] = draw(value) if isinstance(value, st.SearchStrategy) else value
        elif how == "wrong":
            out[name] = draw(WRONG)
    return out


GOOD_SPEC_FIELDS = {"cyclic": {"n": 12}, "vector_space": {"q": 2, "dim": 2},
                    "table": {"mul": [[0, 1], [1, 0]]},
                    "product": {"factors": [{"kind": "cyclic", "n": 2}]}}


def _elements(good: list):
    """An element list as given, with one more entry that is no element of C12
    (nor of the restriction source C6), or a list of elements that is no
    subgroup ([0, 5]) or a node that is neither meet irreducible nor of C6
    (C2) or below the good C6 of an antichain (C3)."""
    return st.one_of(st.just(good), st.sampled_from([-1, 12, 1.5, "6", True, None]).map(
        lambda bad: good + [bad]), st.sampled_from([[0, 5], [0, 6], [0, 4, 8]]))


def _element_lists(*goods: list):
    return st.tuples(*map(_elements, goods)).map(list)


C6_NODES = _element_lists([0, 3], [0, 2, 4])

# file kind: (its contents, the flags that pass it; --group is C12 unless given)
RANDOM_FILES = {
    "group": (st.one_of(
        st.sampled_from(sorted(GOOD_SPEC_FIELDS)).flatmap(
            lambda kind: _objects(**GOOD_SPEC_FIELDS[kind]).map(lambda d: {"kind": kind, **d})),
        _objects(kind="cyclic", n=12), st.lists(WRONG, max_size=2), WRONG), ["lattice", "--group"]),
    "sublattice": (st.one_of(_objects(generators=_element_lists([0, 6]),
                                      nodes=_element_lists([0], list(range(12)))),
                             _element_lists([0, 6]), WRONG), ["lattice", "--sublattice"]),
    "subgroup": (st.one_of(_objects(elements=_elements([0, 6])), _elements([0, 6]), WRONG),
                 ["product", "--subgroup", "{dir}/b.json", "--subgroup"]),
    "embedding": (st.one_of(_objects(**C12_EMBEDDING, source_sublattice=C6_NODES),
                            st.lists(WRONG, max_size=2), WRONG),
                  ["restrict", "--anchor", "{dir}/a.json", "--embedding"]),
    "anchor": (st.one_of(_objects(node=_elements([0, 6]),
                                  antichain=_element_lists([0, 3, 6, 9], [0, 2, 4, 6, 8, 10])),
                         _elements([0, 6]), WRONG),
               ["restrict", "--embedding", "{dir}/e.json", "--anchor"]),
}


@pytest.mark.parametrize("kind", RANDOM_FILES)
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_random_json_file_exits_0_or_names_a_field(kind, data):
    """Random JSON as a file of each kind (objects with its fields good,
    WRONG or absent and with other fields, lists and scalars) either runs
    (exit 0) or ends as an InputError payload (exit 1) with a check and a
    witness, {field, value} when the file's shape is wrong; no other
    exception escapes.  Element lists hold elements of the group or, at
    times, one entry that is none, or are other element lists."""
    contents, flags = RANDOM_FILES[kind]
    with tempfile.TemporaryDirectory() as tmp:
        for name, payload in (("g", {"kind": "cyclic", "n": 12}), ("b", [0, 4, 8]),
                              ("a", {"node": [0, 6]}), ("e", C12_EMBEDDING),
                              ("f", data.draw(contents, label=kind))):
            Path(tmp, f"{name}.json").write_text(json.dumps(payload))
        argv = [flag.format(dir=tmp) for flag in flags] + [f"{tmp}/f.json"]
        if "--group" not in argv:
            argv += ["--group", f"{tmp}/g.json"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    assert code in (0, 1)
    if code == 1:
        error = json.loads(buf.getvalue())["error"]
        assert issubclass(getattr(latsuper, error["category"]), InputError)
        assert error["check"] in ("spec", "shape", "subgroup", "lattice_bounds", "lattice_node",
                                  "irreducible", "antichain")
        assert "witness" in error
        if error["check"] in ("spec", "shape"):
            assert {"field", "value"} <= set(error["witness"])


# ---------------------------------------------------------------------------
# The JSON emitter writes exactly json.dumps(payload, indent=2, sort_keys=True).

JSON_SCALARS = st.one_of(
    st.none(), st.booleans(),
    st.integers(-5, 5), st.integers(-(2**80), 2**80),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(st.integers(-(2**70), 2**70), max_size=8),
        st.lists(st.one_of(st.integers(-3, 3), st.booleans()), max_size=6),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=5),
        st.dictionaries(st.integers(-3, 3), inner, max_size=3),
    ),
    max_leaves=30,
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(st.text(max_size=5), JSON_VALUES, max_size=6))
def test_emit_json_is_json_dumps(payload):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _emit_json(payload, None)
    assert buf.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_emit_json_edge_cases():
    for payload in ({}, {"a": []}, {"a": {}}, {"b": [True, 1]}, {"c": [[], [0], [[1, -2]]]},
                    {"d": (1, 2)}, {"é": ["ü", None, 1.5]}, {"k": {1: [2], 0: {}}}):
        assert "".join(_json_chunks(payload, "")) == json.dumps(payload, indent=2, sort_keys=True)


@pytest.mark.parametrize("name", ["Q8xC4", "C6xC10"])
def test_sct_json_of_a_relabelled_raw_table_is_json_dumps(files, capsys, name):
    tmp, write = files
    factors = ([quaternion_group().spec, GroupSpec.cyclic(4)] if name == "Q8xC4"
               else [GroupSpec.cyclic(6), GroupSpec.cyclic(10)])
    G = make_group(GroupSpec.product(factors))
    perm = [0] + random.Random(name).sample(range(1, G.order), G.order - 1)
    mul = [[0] * G.order for _ in range(G.order)]
    for a in range(G.order):
        for b in range(G.order):
            mul[perm[a]][perm[b]] = perm[G.mul[a][b]]
    group = write("raw.json", {"kind": "table", "mul": mul})
    code, out = run(["sct", "--group", group, "--format", "json"], capsys)
    assert code == 0
    L = normal_lattice(make_group(GroupSpec.table(mul)))
    assert out == json.dumps(table_payload(L), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("n", [12, 30, 36])
def test_cover_meet_reports_the_first_failing_pair(monkeypatch, n):
    L = normal_lattice(make_group(GroupSpec.cyclic(n)))
    check = dict(_verification_checks(L, 0, False))["cover_meet_lemma"]
    m = len(L.nodes)
    assert check() == {"pairs": m * m}
    true_join = L.cover_join
    for k in range(m):
        for wrong in range(m):
            if wrong == true_join(k):
                continue
            monkeypatch.setattr(L, "cover_join", lambda i: wrong if i == k else true_join(i))
            expected = next(({"M": a, "N": b} for a in range(m) for b in range(m)
                             if L.meet(L.cover_join(a), L.cover_join(b))
                             != L.cover_join(L.meet(a, b))), None)
            if expected is None:
                assert check() == {"pairs": m * m}
            else:
                with pytest.raises(LatsuperError) as info:
                    check()
                assert (info.value.check, info.value.witness) == ("cover_meet", expected)
            monkeypatch.undo()


# Byte-for-byte pins of the CLI: the sha256 of the exit code and stdout of
# each command on each group and sublattice, error payloads included, so a
# refactor that changes any output, witness or exit code shows here.  Raw
# tables cover the nonabelian groups, a non-subgroup generator, a non-normal
# generator and a non-normal strict node the error witnesses.
DIGEST_GROUPS = {
    "c12": {"kind": "cyclic", "n": 12},
    "c30": {"kind": "cyclic", "n": 30},
    "c260": {"kind": "cyclic", "n": 260},
    "f2^3": {"kind": "vector_space", "q": 2, "dim": 3},
    "f3^2": {"kind": "vector_space", "q": 3, "dim": 2},
    "c2xc6": {"kind": "product", "factors": [{"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 6}]},
    "s4": {"kind": "table", "mul": [list(row) for row in symmetric_group(4).mul]},
    "d4": {"kind": "table", "mul": [list(row) for row in dihedral_group(4).mul]},
    "q8": {"kind": "table", "mul": [list(row) for row in quaternion_group().mul]},
    "c360": {"kind": "cyclic", "n": 360},
}
DIGEST_GROUPS["q8xc4"] = {"kind": "product", "factors": [DIGEST_GROUPS["q8"], {"kind": "cyclic", "n": 4}]}
DIGEST_SUBLATTICES = {
    "c12/full": None,
    "c12/generators": {"generators": [[0, 6], [0, 4, 8]]},
    "c12/nodes": {"nodes": [[0], [0, 4, 8], [0, 2, 4, 6, 8, 10], list(range(12))]},
    "c12/non-subgroup-generator": {"generators": [[0, 1]]},
    "c30/full": None,
    "c260/full": None,
    "c30/generators": {"generators": [[0, 15], [0, 10, 20]]},
    "c30/nodes": {"nodes": [[0], [0, 15], [0, 10, 20], list(range(0, 30, 5)), list(range(30))]},
    "f2^3/full": None,
    "f2^3/generators": {"generators": [[0, 1], [0, 2], [0, 4]]},
    "f2^3/nodes": {"nodes": [[0], [0, 1], [0, 2], [0, 1, 2, 3], list(range(8))]},
    "f3^2/full": None,
    "f3^2/generators": {"generators": [[0, 3, 6], [0, 1, 2]]},
    "f3^2/nodes": {"nodes": [[0], [0, 4, 8], list(range(9))]},
    "c2xc6/full": None,
    "c2xc6/generators": {"generators": [[0, 6], [0, 2, 4]]},
    "c2xc6/nodes": {"nodes": [[0], [0, 3], list(range(6)), list(range(12))]},
    "s4/full": None,
    "s4/generators": {"generators": [[0, 7, 16, 23]]},
    "s4/nodes": {"nodes": [[0], [0, 7, 16, 23], list(range(24))]},
    "s4/non-normal-node": {"nodes": [[0], [0, 1], list(range(24))]},
    "d4/full": None,
    "d4/generators": {"generators": [[0, 1, 2, 3], [0, 2, 4, 6]]},
    "d4/nodes": {"nodes": [[0], [0, 2], [0, 1, 2, 3], list(range(8))]},
    "d4/non-normal-generator": {"generators": [[0, 4]]},
    "q8/full": None,
    "q8/generators": {"generators": [[0, 1, 2, 3], [0, 1, 4, 5]]},
    "q8/nodes": {"nodes": [[0], [0, 1], [0, 1, 6, 7], list(range(8))]},
}
DIGEST_COMMANDS = {
    "lattice": ["lattice"], "sct-csv": ["sct"], "sct-json": ["sct", "--format", "json"],
    "export-dot": ["export"], "export-json": ["export", "--format", "json"], "verify": ["verify"],
}
# product and restrict read more files than --group and --sublattice: each of
# these cases names its group, its sublattice (None for the full lattice) and
# its command, then each further flag with the payload of its file.
C12_FROM_C6 = ("--embedding", {"source": {"kind": "cyclic", "n": 6}, "map": [0, 2, 4, 6, 8, 10]})
DIGEST_CASES = {
    "product c12/identity": ("c12", None, ["product", ("--subgroup", [0, 3, 6, 9]),
                                            ("--subgroup", [0, 2, 4, 6, 8, 10])]),
    "product c12/projection": ("c12", None, ["product", ("--subgroup", [0]),
                                              ("--subgroup", [0, 6])]),
    "restrict c12/node": ("c12", None, ["restrict", C12_FROM_C6, ("--anchor", {"node": [0, 4, 8]})]),
    "restrict c12/antichain": ("c12", None, ["restrict", C12_FROM_C6, (
        "--anchor", {"antichain": [[0, 3, 6, 9], [0, 2, 4, 6, 8, 10]]})]),
    "restrict c12/repeated-node": ("c12", None, ["restrict", C12_FROM_C6, (
        "--anchor", {"antichain": [[0, 3, 6, 9], [0, 3, 6, 9]]})]),
    "restrict c360/c6": ("c360", None, [
        "restrict", ("--embedding", {"source": {"kind": "cyclic", "n": 60},
                                     "map": list(range(0, 360, 6))}),
        ("--anchor", {"node": list(range(0, 360, 60))})]),
    "restrict c12/unfavorable": ("c12", {"generators": []}, ["restrict", C12_FROM_C6,
                                                             ("--anchor", {"node": [0]})]),
    "restrict q8xc4/non-distributive": ("q8xc4", None, [
        "restrict", ("--embedding", {"source": {"kind": "cyclic", "n": 2}, "map": [0, 2]}),
        ("--anchor", {"node": [0]})]),
}
CLI_DIGESTS = {
    "lattice c12/full": "f46a0e3bf06c2da668a8b7abf3a874692f32236fe09bbb14c62d24e749ca8bea",
    "sct-csv c12/full": "3f1983775f786fb8bb4f241e6a82353f6970ada15489282bf7e91e118ceeecec",
    "sct-json c12/full": "c7c156c53be3631565f7b0cdf91ce12433a11d125805e3dfc440b0b41aaad16e",
    "export-dot c12/full": "614f9bb0055d4b9b464521aad89c78ac5f305f959f37ee8ab59e55f5ee608503",
    "export-json c12/full": "eb5e917bb05158930d0852b49b26391ae50a853fd0ecaa49734ee1b8ab078321",
    "verify c12/full": "5c7f39e02d3b874cee7b763d745988bfdde1c09fcf5c0df279044fa168c553ba",
    "lattice c12/generators": "597b8cedad17e95b4f168b1cf2e2c269fdf9b8e49b086bfc429f1092cac95e8d",
    "sct-csv c12/generators": "0780aa9f2053acad38342f6a54d3520d977929dee4dcddbf3acef0f7670329ad",
    "sct-json c12/generators": "b033d1b99ae3ff3f2542a0753724420dedc9ff15da9bfd695632e07a79c9a4b8",
    "export-dot c12/generators": "d4a846a6664760f9542cc3f0fd5b92040f2011e549fe867b9c2ade592509787b",
    "export-json c12/generators": "1f80d223b7313762e67637f9d56589524e4dc272154e60818ac062d5b1b0ed49",
    "verify c12/generators": "7b4dbeda9ad7ac3e916aaa1fd10e1f0fa6e3b50a1bcc66f523ec537e82e41f01",
    "lattice c12/nodes": "1234b8646388892d923064be6eca1ffb1a260829005670f2bcee101d7e9e0992",
    "sct-csv c12/nodes": "7396068b2bd51f279c067f74806247bfe1809cb714afbfe7dcd2446a169256ab",
    "sct-json c12/nodes": "c05b81565901fa948f553534a84999fcaf986631051aad2cfcca58fc40a7331f",
    "export-dot c12/nodes": "d1f45491a95880bc5563697ea0f8233ddf99b7099b5d53509128d66bc0c974bf",
    "export-json c12/nodes": "f7e386981091d4f2c868f53bd047ae10a953d462342fe9b7e2939df51ecb4bd1",
    "verify c12/nodes": "33d143d2fa67b30f201d1dd69a34dbc4a94ef0e36df4e55b840f794c9219d65a",
    "lattice c12/non-subgroup-generator": "01a0e37887018b565d03889d969a52e2e262edf0542ae0ce129691ca730e31ca",
    "sct-csv c12/non-subgroup-generator": "01a0e37887018b565d03889d969a52e2e262edf0542ae0ce129691ca730e31ca",
    "sct-json c12/non-subgroup-generator": "01a0e37887018b565d03889d969a52e2e262edf0542ae0ce129691ca730e31ca",
    "export-dot c12/non-subgroup-generator": "01a0e37887018b565d03889d969a52e2e262edf0542ae0ce129691ca730e31ca",
    "export-json c12/non-subgroup-generator": "01a0e37887018b565d03889d969a52e2e262edf0542ae0ce129691ca730e31ca",
    "verify c12/non-subgroup-generator": "01a0e37887018b565d03889d969a52e2e262edf0542ae0ce129691ca730e31ca",
    "lattice c30/full": "93438fd5c13140c3cef8334aba49ef3a838e79090d613eb9ec662dd184c11c84",
    "sct-csv c30/full": "1f7b7c2366f2e7b25a46800dffff9c4f463f2b538e9c90464728482c202ddd78",
    "sct-json c30/full": "9eac3a667b879cdb57534a78821b7d81fee7c65ed269270cceb4af59f036e74e",
    "export-dot c30/full": "6d3cf54d1876d29dffc134ecadb333b7b2d6a9a8a56c8581459d9a4760371276",
    "export-json c30/full": "5416b19d6f578eca64d8d32813c33dee610c8a256674d4d974fc1de4a5f0c625",
    "verify c30/full": "c6185af9b3dd3718c9fd0d6447ba96487d7965cc82f68b0cb76e7dfa102cea03",
    "lattice c30/generators": "0c325a02e1db226748c0cc4ac4a522a4b690ac39702a1c78f9e0a493d3f2c884",
    "sct-csv c30/generators": "0cbf0a626cf9b0678109eacc7f957fcf960408217087eb005fd520f384b0ab8f",
    "sct-json c30/generators": "69d1e414f46103192b54dcb9e7f4c13bd0e49d0a7902b1aba4d329d17c211c04",
    "export-dot c30/generators": "b24428c4f14877582356316ba2b39e03595c8634995359b1acc469b513df1866",
    "export-json c30/generators": "8135ff70f57152d1537699550b7c9f8a436cb3cf6ebf801f4565589e9123013a",
    "verify c30/generators": "646dd583a7dca614797d2d7b19df68212ab6c2dae8faf6c725918f18d9f3a86e",
    "lattice c30/nodes": "0c325a02e1db226748c0cc4ac4a522a4b690ac39702a1c78f9e0a493d3f2c884",
    "sct-csv c30/nodes": "0cbf0a626cf9b0678109eacc7f957fcf960408217087eb005fd520f384b0ab8f",
    "sct-json c30/nodes": "69d1e414f46103192b54dcb9e7f4c13bd0e49d0a7902b1aba4d329d17c211c04",
    "export-dot c30/nodes": "b24428c4f14877582356316ba2b39e03595c8634995359b1acc469b513df1866",
    "export-json c30/nodes": "8135ff70f57152d1537699550b7c9f8a436cb3cf6ebf801f4565589e9123013a",
    "verify c30/nodes": "646dd583a7dca614797d2d7b19df68212ab6c2dae8faf6c725918f18d9f3a86e",
    "lattice c260/full": "50c3df34c7e42068ace3215e19ac2e28aec956406804de0f0d7975bac83d88c9",
    "sct-csv c260/full": "e53c621e8b9eb400a4b7cbc6cd6146184ecca531529dc765c917db602a134aab",
    "sct-json c260/full": "5ba667168e3a47771f71c526ef8a60dfa2fba63bb8a8f207c54d3e5f53bbaaab",
    "export-dot c260/full": "093a439c149a03751b5b5b9597a8388a79674ba948592b653e4430d3fd54dc2e",
    "export-json c260/full": "14b5d821c74e24db6871eb267fc9dfa0a962631135a5d70d5ae30e84a4b7fc89",
    "verify c260/full": "9199ccedebcdb64e3b3ec9efbdd7a4bdc758a967a526aa9f866285e6b55fb3b9",
    "lattice f2^3/full": "dcf235f5f3d49ebc0bfa7c7424f07a9fbb746468de9431369ee36315c1ea440f",
    "sct-csv f2^3/full": "ad4cfd9a3669c02966140c3fd47c2829df4a3dfda35ef904a51714da846be603",
    "sct-json f2^3/full": "79a238a7952abd2194f17ad55f519229ca4cf12da7dc3e97de2bd11fb92690e3",
    "export-dot f2^3/full": "a7f0ceb047c2c4dcbd3be4b3c70aac18b60c7ca8c832add814ac9ab9606a1300",
    "export-json f2^3/full": "6335cc75913f1dec0f4f4748b0b7e538c9d024ea86c5a3098133a1b53129820e",
    "verify f2^3/full": "a3e97485e20bd439ecbd5a35c7bf087ef4f9a60f1e25e757e549b73cfa197646",
    "lattice f2^3/generators": "f8d14aa023902c0ae97b7bd28b2568af4701495f31c12efe6e1992b3ad080334",
    "sct-csv f2^3/generators": "ccaa2adfae6827662f38a01287574ba3475bc71fbed8dff2ea3eee275cb3caf7",
    "sct-json f2^3/generators": "ea13bc4bbfc69e41e6c0ecbab9ec0aee3568997125771fc7b4d36a16dd9d9703",
    "export-dot f2^3/generators": "7c5b89e0ae597bed621f6538cd065ac4296fcf80c8be584894c06535191bd923",
    "export-json f2^3/generators": "0a3547cb905892bffc9152f39239ac8b79e2a5dc6a4b06d7f10dcd921fa5a25e",
    "verify f2^3/generators": "871a3fb920294fb8efa3a6fedda6c3ae8987d430bf4d727f187b14272a3b9dd1",
    "lattice f2^3/nodes": "a1d97a21c3b93aa89befd6905970d9dd39e87aad665c40d34cc112c45734f8be",
    "sct-csv f2^3/nodes": "ed473dc22163be595882f024851ec44faa7b982e6983578348053e41e5f92767",
    "sct-json f2^3/nodes": "17b05c5eaa6bf5dd8f11df36a2a107e65e18f6d7246a903d02b3bb0bf106855c",
    "export-dot f2^3/nodes": "8ed5f3271ac5ae7228b18c7c57df035fb78e0c73088694a4bba1388b445ce71f",
    "export-json f2^3/nodes": "a64a23bb93454f1a951f98da38ef8a5dd62b3fd37b7ace0fc289d43ec9f67dda",
    "verify f2^3/nodes": "cd8a292a9bcef8a5a9ae40da4bdb499105bfb96672887be78caf2d44245eb86d",
    "lattice f3^2/full": "3cac3795cb0c8bc03e54cc3f37a36a9290f18867d93ebd69cb7b4bb5d30a8c6d",
    "sct-csv f3^2/full": "4ade6756a878179d0c90ab533332e5ef5f04bbb7e634ac529e04e3c96b7aa645",
    "sct-json f3^2/full": "08904ed0840d3208b962a5ba6aa35cfa22784b4a07bfff3e5e273aa506ab1f4e",
    "export-dot f3^2/full": "210551704268c82dd76ebb5e5e7d7c17213220094ce7fd448f23dc9b253d1fda",
    "export-json f3^2/full": "80ce52be64ba7a42048c5d88aa3a8a74742eee323ea02df52e32295e7e7654c1",
    "verify f3^2/full": "5ff50247a17e498fb6a2bcfc0461cd4b248f1b59db82605a3781426899093aab",
    "lattice f3^2/generators": "2b3bf3ef43d482429dc3cfca0113de4a13877cfcd529c473c7600acf1e995ef5",
    "sct-csv f3^2/generators": "68934226598b3d1ce02171b33b6e790dd2bc4a3d63d2ad94be288be648ace97f",
    "sct-json f3^2/generators": "1dee5b5ac7e03995a245ca8ccddb0654b430f55d725adc10464586d008df9ebe",
    "export-dot f3^2/generators": "c657bb749ddac21a357eb362788a129f34286ac0855199ba163871abdcc7131e",
    "export-json f3^2/generators": "2cc6edc3a11ab138a8be024cd6e02928537f6bad1eccddc18dafe69344d1124c",
    "verify f3^2/generators": "170ad7fc7816c080a702e3b60a9e4ed072f7649e34e83071b27f193fd10f8c76",
    "lattice f3^2/nodes": "6da6a725447e6b183aad373946fdd079eae76fd9e6d0375a56a82d64b4a245ea",
    "sct-csv f3^2/nodes": "f13c0214336d3dc0df3194b816900a078b92b5c610a2ccfed79fff0d8057c890",
    "sct-json f3^2/nodes": "bff37d8a701c64cf83ef7f86d55398d5fe37d6d0c81a436a68a9c3836d7e0f87",
    "export-dot f3^2/nodes": "70ac79607d8b83fb1cf2a777fde5c6043a92c4322abbcc94826577fea3e1dc5c",
    "export-json f3^2/nodes": "81fb16b7d3efa2614674909460d1b43f4e9e006a792a8e5d57d27372e2f02641",
    "verify f3^2/nodes": "9386b2b55360f91e142efc11f3c3b95a70b4ba717c53dd7b8b4a97edd32b33ea",
    "lattice c2xc6/full": "f8f384f8a20f9c9fb8e140cb92103c29ff9de576f4a4562348eda71ad2ccccb2",
    "sct-csv c2xc6/full": "76a80b6429dcda8de622e0d72f76d2122dc21ad7fccf1b1e8e7bfbd997a0e047",
    "sct-json c2xc6/full": "bcfc0fb1ae840e5c4233df71efc5ab0edc9da2f4ca122581a8493a8de0f93e98",
    "export-dot c2xc6/full": "0332e72ed77a9124b88732387853303cd87dde058398c82a74b5fda0d00767fa",
    "export-json c2xc6/full": "bc6e8e569055ead4d1b13dce63672b99763b441b042e3a93521d58b9b43f351e",
    "verify c2xc6/full": "b6908a7a55a22cdffc8656d9ae83a898bdd6b39ddfc5c1f5012d280dfeee51d8",
    "lattice c2xc6/generators": "2cbc78a8c8bd1a9cfcc6975a444f79cff48f1ef8ddf070ac4a7e10cbd24236b5",
    "sct-csv c2xc6/generators": "47ad59f5e4fb5680f9e23bb6a66b71e1a057e62104df37da65812694e7bd25af",
    "sct-json c2xc6/generators": "a4d148f353a65d3fe822a481328ee98cefd385deca06c7cf9553e3240fc0e21c",
    "export-dot c2xc6/generators": "b64bde35e33592b67b7ae021dbe2e9a73443737d51f11511100a3dd2a23b2dc9",
    "export-json c2xc6/generators": "7f7f8bb27d7064ddea88ebe19ddff2ecf1faa955c77579a235892567d0758b88",
    "verify c2xc6/generators": "56d0478ad62f0425cf784f023c767c3c3a9d9d96c90efc2772c98f1743179715",
    "lattice c2xc6/nodes": "718b0bd8e2188cf1f16ca6de474d591f0881a24c3363ef604bb40560f7439687",
    "sct-csv c2xc6/nodes": "8f86d32287cc3d09ed058096fcb449f2d8795fc92c40c36366a251c5c439c09e",
    "sct-json c2xc6/nodes": "4fec6bef16cabdd408d157814394b836a2ae82a791d34f1199471edcbc1af7e7",
    "export-dot c2xc6/nodes": "8af6c6a7082669b59267da2148919f4fa8e55c26d71f2a0e352955b9a0ea995e",
    "export-json c2xc6/nodes": "10e056e5e008c2b4492a2dadf06f1e243af4135d96a609652561191ce3bf3aaa",
    "verify c2xc6/nodes": "265bcf726775e1cb823f609898d7dc3f423e3402b9057f03b9ed3fe4cf593aef",
    "lattice s4/full": "c4a1c2c3d678f2b373ab9c4c5332ef1914fb3ddc9ef372f1c74e3b5d2845d50c",
    "sct-csv s4/full": "5a39b0b80e0c087ca6b158d3f86e64a9f300c9537835e644311ec7ccb90a9549",
    "sct-json s4/full": "f5e6d0a71dfbfed08b78ee7c84e4f530e132b9afbff47245ffe933cc5aa53080",
    "export-dot s4/full": "bc40d79af264eb27777c14ccd41661eecbf8cd6e5a6574b1a07b160103761d16",
    "export-json s4/full": "886a46dacc62dfcc5d430a5d6e6bcefc538086984e5fba1544aea2d3337c33f6",
    "verify s4/full": "48e777459dcbebf807fc041a0df384adbd51a198475d7d1dde4f56552f18e973",
    "lattice s4/generators": "0ca4732d1754c44e5bd11a766d5bbe10c1ee56580ba3ff352718c46d7c800ae8",
    "sct-csv s4/generators": "1be8795c781f2577ae7d2d554314024d3b2a98faf198084a2e650e458a661447",
    "sct-json s4/generators": "2b2e122fd8d8d02edb88452b60b8f0442ec209fd1cc05c9c8d666a33b9ad8652",
    "export-dot s4/generators": "0abfed1a6c4286a0a939fa588a751e0a2582e32636d50be4acbccd5fd9ab2d7f",
    "export-json s4/generators": "2c2b676e9e7fcffa766325ac08b98d0f631bcbc656f423320efebdd0a2679f01",
    "verify s4/generators": "807eec214016eead3ec38e82eaf9338a2796aeafc02a9ab155c9148343a71ebe",
    "lattice s4/nodes": "0ca4732d1754c44e5bd11a766d5bbe10c1ee56580ba3ff352718c46d7c800ae8",
    "sct-csv s4/nodes": "1be8795c781f2577ae7d2d554314024d3b2a98faf198084a2e650e458a661447",
    "sct-json s4/nodes": "2b2e122fd8d8d02edb88452b60b8f0442ec209fd1cc05c9c8d666a33b9ad8652",
    "export-dot s4/nodes": "0abfed1a6c4286a0a939fa588a751e0a2582e32636d50be4acbccd5fd9ab2d7f",
    "export-json s4/nodes": "2c2b676e9e7fcffa766325ac08b98d0f631bcbc656f423320efebdd0a2679f01",
    "verify s4/nodes": "807eec214016eead3ec38e82eaf9338a2796aeafc02a9ab155c9148343a71ebe",
    "lattice s4/non-normal-node": "fbc37fc236ab83c71c088c19d0c4d763c169e99608e70c39a2cb2d771fdeae84",
    "sct-csv s4/non-normal-node": "fbc37fc236ab83c71c088c19d0c4d763c169e99608e70c39a2cb2d771fdeae84",
    "sct-json s4/non-normal-node": "fbc37fc236ab83c71c088c19d0c4d763c169e99608e70c39a2cb2d771fdeae84",
    "export-dot s4/non-normal-node": "fbc37fc236ab83c71c088c19d0c4d763c169e99608e70c39a2cb2d771fdeae84",
    "export-json s4/non-normal-node": "fbc37fc236ab83c71c088c19d0c4d763c169e99608e70c39a2cb2d771fdeae84",
    "verify s4/non-normal-node": "2fedc0d9cd326a163161298ac26ff40d86c2ff872888891ab654d7d74b0f4929",
    "lattice d4/full": "9e3d5b7f3172f351e9084aada163715e3dd3f3e4167fffe49d7251949e5e6392",
    "sct-csv d4/full": "7af3d6bd9ba8985b27fed67ffb940bc0175b5b45ebdf0bc5f43ab9f078136027",
    "sct-json d4/full": "75e0dac8b100831b171e355f9805ce22a6fc81e1570c2c80e9356278d5a2e91c",
    "export-dot d4/full": "8b04c5c091030c90f43be75b7f0d578a0a540ed68174b6bfbed7251103a35d5c",
    "export-json d4/full": "229d20c247a7f1d9dd1ec00291d3901c714a90d6d477662b5a57b9acc0f4f497",
    "verify d4/full": "c869ecba2508b0e8e379b5d4d309aa7e80ff148f9f1fc56d74da8c853c39f5c2",
    "lattice d4/generators": "52afa8edaaf8e17d43fdc33cfeee2222dd2688fa913d1c6cf969ce06e7e53b6e",
    "sct-csv d4/generators": "cfd574d11f18ecebf0aa0e7cacc6b7f41cfa9cd676f1eb3a425b7b0703283505",
    "sct-json d4/generators": "196afb992e0398cb372c8f4eefad08961363d8a39536867f8bf39084706ff659",
    "export-dot d4/generators": "28886820ffaa5a86248034e4b49c165f197a5b30ae866377f2b5cd1cfafe1356",
    "export-json d4/generators": "02d25efb2e775b843eb516d163250036cf2c64bd99a0057599d1f13651da5725",
    "verify d4/generators": "482c7d82df4e2158f5be372dc8e63fbc775f9f09dbbf7a5aad07b441927760fc",
    "lattice d4/nodes": "dffb0667d0212f22a6ca1f9a837a99a58a13b2bec8d55a8eabc7592cae4e33d2",
    "sct-csv d4/nodes": "d3f0f34805f3af5bacf60362b7c5063082e663b571a43edb3971e05061f2a237",
    "sct-json d4/nodes": "c4578449e4d252ad3085a5b071b01cf925bde059f0f1c28063634ce19c51b869",
    "export-dot d4/nodes": "5e413381e62056dc26bab90d1d72f402d177797c69522520c59deac8ab67a8dd",
    "export-json d4/nodes": "0ee4eb51042250b565da1a761c44392c04093b08d1d2b8ff2ce3a3caedb1df53",
    "verify d4/nodes": "08ce1efe674744434c707d24b157f9527642e208b581b87fbf6755dccef712de",
    "lattice d4/non-normal-generator": "a7f554ddf62c975aebb7f6e0e302edb32cfa8c64cb887249d325026f609221a2",
    "sct-csv d4/non-normal-generator": "a7f554ddf62c975aebb7f6e0e302edb32cfa8c64cb887249d325026f609221a2",
    "sct-json d4/non-normal-generator": "a7f554ddf62c975aebb7f6e0e302edb32cfa8c64cb887249d325026f609221a2",
    "export-dot d4/non-normal-generator": "a7f554ddf62c975aebb7f6e0e302edb32cfa8c64cb887249d325026f609221a2",
    "export-json d4/non-normal-generator": "a7f554ddf62c975aebb7f6e0e302edb32cfa8c64cb887249d325026f609221a2",
    "verify d4/non-normal-generator": "a7f554ddf62c975aebb7f6e0e302edb32cfa8c64cb887249d325026f609221a2",
    "lattice q8/full": "920b7027293d7e68aa111b6db27da44ca88cf6f0eeba73728e25160c2864d139",
    "sct-csv q8/full": "58dad230efe9855353788216ebd7270cf1f0e0ef68148fd2c879eabcc324ba33",
    "sct-json q8/full": "22c5c8adfd7b0999636946307a8586d442c7776f491e40e34a06aba544e84922",
    "export-dot q8/full": "8b04c5c091030c90f43be75b7f0d578a0a540ed68174b6bfbed7251103a35d5c",
    "export-json q8/full": "53e82a757d6d593e19d96f495a05867f1746b774861d539976e1f850c0c8a12e",
    "verify q8/full": "c869ecba2508b0e8e379b5d4d309aa7e80ff148f9f1fc56d74da8c853c39f5c2",
    "lattice q8/generators": "71c94483af4385d3f4af19f431ebf2eae5205436d4d2fb149ae97f13d39e9928",
    "sct-csv q8/generators": "c6015c81e4382ad321d5e6a968513cad03d86c1bbe2d7ac44d0d664e33a2577a",
    "sct-json q8/generators": "f03005ea9a3b004d526adbf4cf4d0c0941cb37597a9757f6751a26f848e93a61",
    "export-dot q8/generators": "28886820ffaa5a86248034e4b49c165f197a5b30ae866377f2b5cd1cfafe1356",
    "export-json q8/generators": "b7c7d6cf2948be6713eb2976fd8a065843c9607e7643e825454b44af02c37a91",
    "verify q8/generators": "482c7d82df4e2158f5be372dc8e63fbc775f9f09dbbf7a5aad07b441927760fc",
    "lattice q8/nodes": "7f21c5171168e75171e08cc19cdc71b1072a17dec6a5f0ccfaa11d674d99e94e",
    "sct-csv q8/nodes": "39a89ad21ee09ae03c520ed30a8da8ca1064946077030261b5bca1d24233a3ff",
    "sct-json q8/nodes": "6314cbb53017ef96b7074efef998a8a59da1d41a8c11d17cf501635efbc27ebd",
    "export-dot q8/nodes": "5e413381e62056dc26bab90d1d72f402d177797c69522520c59deac8ab67a8dd",
    "export-json q8/nodes": "36025ddecac52aa180781e4acd75c99cf9efded30c3cc759e8955d931ab9f22d",
    "verify q8/nodes": "08ce1efe674744434c707d24b157f9527642e208b581b87fbf6755dccef712de",
    "product c12/identity": "39310d0b3d39bdb925ec1a6863acaba942620b06d1743d1ea13cbc99598234d6",
    "product c12/projection": "7fa5d2ceb57d357e5b41e3ba42510fb5c10fbc20a885cb3800a3d438b0ae9828",
    "restrict c12/node": "f3d739c6d86a6da12b6c6497b20c605f57aae76cb35804c3b03de49a30c50737",
    "restrict c12/antichain": "84d58c38ffd71431e2a0e6a65e7b4ea0a51802446d1632fa2b58f03fcb3fc1ea",
    "restrict c12/repeated-node": "a99f692e72d0c8c14decc527fa4e14493ad5e72e847d5e4cf2ab864af0976a69",
    "restrict c360/c6": "d87ccc25029b26cadfa57c4994aa2962d390a1ae370d63511699b7d610781e45",
    "restrict c12/unfavorable": "877d0af2ca98f87824607fa9f2bb77d7946c2589ec33073d4c5ac641823c8a4a",
    "restrict q8xc4/non-distributive": "e0f8d1721b5735c4fcab6b7b0b430e43c406df53ec5822928e565a18a5fbd395",
}


def cli_digest(files, capsys, case: str) -> str:
    """The sha256 of the exit code and stdout of one case, named
    "command group/sublattice" or a key of DIGEST_CASES."""
    tmp, write = files
    if case in DIGEST_CASES:
        group, sublattice, (command, *flags) = DIGEST_CASES[case]
    else:
        command, sublattice = case.split(" ")
        group, sublattice = sublattice.split("/")[0], DIGEST_SUBLATTICES[sublattice]
        command, *flags = DIGEST_COMMANDS[command]
    argv = [command, "--group", write("group.json", DIGEST_GROUPS[group])]
    for i, flag in enumerate(flags):
        argv += [flag[0], write(f"flag{i}.json", flag[1])] if isinstance(flag, tuple) else [flag]
    if sublattice is not None:
        argv += ["--sublattice", write("sub.json", sublattice)]
    code, out = run(argv, capsys)
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


@pytest.mark.parametrize("case", [f"{c} {s}" for s in DIGEST_SUBLATTICES for c in DIGEST_COMMANDS]
                         + list(DIGEST_CASES))
def test_cli_output_is_pinned_byte_for_byte(files, capsys, case):
    assert cli_digest(files, capsys, case) == CLI_DIGESTS[case]
