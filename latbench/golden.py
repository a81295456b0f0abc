"""Write golden.json: reference digests of the outputs the checks compare.

    python3 latbench/golden.py

For every pool member listed by ``inputs.golden_cases()`` it runs the CLI of
this tree and records the SHA-256 of the ``sct`` CSV and of the mathematical
fields of each ``restrict`` report, keyed by the digest of the input files.
It was run once on the code the benchmark was defined on; later code must
reproduce those outputs, so do not regenerate it to make a check pass.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from latbench import checks as C
    from latbench.inputs import golden_cases, digest
    from latsuper import cli

    golden: dict[str, dict[str, str]] = {"sct": {}, "restrict": {}}
    (ROOT / ".latbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".latbench") as tmp:
        d = Path(tmp)
        for kind, case, files in golden_cases():
            (d / "group.json").write_bytes(case.group)
            argv = ["--group", str(d / "group.json"), "--out", str(d / "out")]
            if case.sublattice is not None:
                (d / "sub.json").write_bytes(case.sublattice)
                argv += ["--sublattice", str(d / "sub.json")]
            if kind == "sct":
                rc = cli.main(["sct", "--format", "csv"] + argv)
                key, value = case.key(), C.sha((d / "out").read_text())
            else:
                for flag, data in files.items():
                    (d / f"{flag}.json").write_bytes(data)
                    argv += [f"--{flag}", str(d / f"{flag}.json")]
                rc = cli.main(["restrict"] + argv)
                key = digest(case.group, case.sublattice, files["embedding"], files["anchor"])
                value = C.restrict_digest(json.loads((d / "out").read_text()))
            if rc != 0:
                print(f"{kind} {case.name}: exit code {rc}", file=sys.stderr)
                return 1
            golden[kind][key] = value
            print(kind, case.name, value[:12], flush=True)
    out = ROOT / "latbench" / "golden.json"
    out.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
