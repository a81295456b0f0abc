import contextlib
import csv
import gc
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
from latsuper.catalog import quaternion_group, symmetric_group
from latsuper.cli import _emit_json, _json_chunks, _verification_checks, main, table_payload

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
