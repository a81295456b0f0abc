"""Gap probe: inputs the timed workloads leave out because they are too slow
or fail today.  Each case runs in a child process that the parent kills at
a per-case limit; the outcome is ``ok``, the error category, or
``over_limit``.  Probe outcomes are reported, never counted as failures.

Run one case directly with ``python3 latbench/probe.py CASE DIR`` from the
repository root; it writes its inputs under DIR and prints the outcome.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CASES = ("d60_sct", "c2520_sct", "s5_verify", "f2_8_basis_verify", "c2048_verify")
LIMIT_S = 6.0


def case_inputs(case: str) -> tuple[str, dict, dict | None]:
    from latbench import tables as T

    if case == "d60_sct":          # 33 conjugacy classes
        return "sct", {"kind": "table", "mul": T.dihedral_table(60)}, None
    if case == "c2520_sct":
        return "sct", {"kind": "cyclic", "n": 2520}, None
    if case == "s5_verify":
        return "verify", {"kind": "table", "mul": T.symmetric_table(5)}, None
    if case == "f2_8_basis_verify":   # spans of subsets of the standard basis
        lines = [[0, 1 << i] for i in range(8)]
        return "verify", {"kind": "vector_space", "q": 2, "dim": 8}, {"generators": lines}
    if case == "c2048_verify":        # the chain 1 < C4 < C64 < C2048
        gens = [T.cyclic_subgroup(2048, 4), T.cyclic_subgroup(2048, 64)]
        return "verify", {"kind": "cyclic", "n": 2048}, {"generators": gens}
    raise SystemExit(f"unknown probe case {case!r}")


def outcome(command: str, rc: int, out: Path) -> str:
    try:
        payload = json.loads(out.read_text())
    except (OSError, ValueError):
        return f"exit_{rc}_no_output"
    if "error" in payload:
        return payload["error"].get("category", f"exit_{rc}")
    if command == "verify":
        if payload.get("passed") and rc == 0:
            return "ok"
        failed = [c for c in payload.get("checks", []) if not c.get("passed")]
        return failed[0]["error"].get("category", "failed") if failed else f"exit_{rc}"
    return "ok" if rc == 0 else f"exit_{rc}"


def child(case: str, directory: str) -> None:
    from latsuper import cli

    command, group, sub = case_inputs(case)
    d = Path(directory)
    (d / "group.json").write_text(json.dumps(group))
    argv = [command, "--group", str(d / "group.json"), "--out", str(d / "out.json")]
    if sub is not None:
        (d / "sub.json").write_text(json.dumps(sub))
        argv += ["--sublattice", str(d / "sub.json")]
    if command == "sct":
        argv += ["--format", "json"]
    rc = cli.main(argv)
    print(json.dumps({"case": case, "outcome": outcome(command, rc, d / "out.json")}))


def run_probe(root: Path, work: Path, limit: float = LIMIT_S) -> dict[str, dict]:
    """Run every case in its own child process, one at a time."""
    results = {}
    for case in CASES:
        directory = tempfile.mkdtemp(prefix="probe-", dir=work)
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), case, directory],
                cwd=root, capture_output=True, text=True, timeout=limit,
            )
            lines = proc.stdout.strip().splitlines()
            result = (json.loads(lines[-1])["outcome"] if proc.returncode == 0 and lines
                      else f"crash_{proc.returncode}")
        except subprocess.TimeoutExpired:
            result = "over_limit"
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        results[case] = {"outcome": result, "elapsed_s": time.perf_counter() - start,
                         "limit_s": limit}
    return results


if __name__ == "__main__":
    root = Path(__file__).resolve().parents[1]
    sys.path[0:1] = [str(root / "src"), str(root)]
    child(sys.argv[1], sys.argv[2])
