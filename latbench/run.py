"""The latsuper benchmark.

Run from the repository root:

    python3 latbench/run.py --workload cyclic-full --seed 1 --seconds 24 --trace 0

It imports ``latsuper`` from ``src/`` of the tree it sits in and drives the
public entry point ``latsuper.cli.main`` in-process: one client, one operation
at a time (a closed loop), no threads.  A round runs the seeded operation list
once and checks every output; rounds repeat while another one fits in
``--seconds``.  Each time metric is the median over rounds of the round's
time in reference seconds, wall time corrected for the machine's speed
(see speed.py).  ``--trace 1`` runs a traced round between two untraced
ones, reports per-layer metrics instead, runs the gap probe and writes the
spans to ``.latbench/``.  The last line of standard output is the result as JSON.
See README.md for metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUPS = 5
SRC_MODULES = ("__init__", "catalog", "cli", "errors", "groups", "lattice", "oracle",
               "products", "restriction", "sct")
TIME_BUCKETS = {"sct": "sct_s", "verify": "verify_s", "lattice": "query_s",
                "product": "query_s", "restrict": "query_s"}


def import_latsuper():
    """Import latsuper afresh from this tree's src/ (the timed part of set-up)."""
    for name in [m for m in sys.modules if m == "latsuper" or m.startswith("latsuper.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("latsuper.cli")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"latsuper was imported from {cli.__file__}, not from this tree")
    return cli


def setup(workload: str, seed: int, work: Path):
    """Import latsuper, build the plan and write its files, SETUPS times; the
    median of those times in reference seconds is setup_s.  Returns (plan,
    input dir, times)."""
    from latbench import inputs, speed

    times, directory = [], None
    for _ in range(SETUPS):
        if directory is not None:
            shutil.rmtree(directory)
        with speed.Timer() as timer:
            import_latsuper()
            plan = inputs.build(workload, seed)
            directory = Path(tempfile.mkdtemp(prefix="run-", dir=work))
            for name, data in plan.files().items():
                (directory / name).write_bytes(data)
        times.append(timer.ref_seconds)
    return plan, directory, times


def run_round(plan, directory: Path) -> list[dict]:
    """Run every operation once through latsuper.cli.main, timing each in
    measured (elapsed_s) and reference seconds (ref_s)."""
    from latbench import speed

    results = []
    for i, op in enumerate(plan.ops):
        out = directory / f"out{i}"
        argv = plan.argv(i, str(directory), str(out))
        error = None
        gc.collect()  # start each operation from the same heap state
        try:
            with speed.Timer() as timer, contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = sys.modules["latsuper.cli"].main(argv)
        except SystemExit as exc:
            rc, error = exc.code, f"exit {exc.code}"
        except Exception as exc:  # a traceback is a failed operation, not a crash
            rc, error = None, f"{type(exc).__name__}: {exc}"
        if error is None and rc != 0:
            error = f"exit code {rc}"
        results.append({"op": op, "out": out, "elapsed_s": timer.seconds,
                        "ref_s": timer.ref_seconds, "error": error})
    return results


def check_round(plan, results: list[dict], golden: dict) -> None:
    """Fill in 'error' for every operation whose output fails its check."""
    from latbench import checks as C
    from latbench.inputs import digest

    tables = {}
    order = sorted(results, key=lambda r: r["op"].fmt != "json")  # tables first
    for r in order:
        if r["error"] is not None:
            continue
        op = r["op"]
        case = plan.cases[op.case]
        try:
            text = r["out"].read_text()
            if op.command == "sct" and op.fmt == "json":
                table = json.loads(text)
                C.check_table(table)
                if case.cyclic_n is not None:
                    C.check_cyclic_closed_form(table, case.cyclic_n)
                tables[op.case] = table
            elif op.command == "sct":
                C.require(op.case in tables, "no valid JSON table to compare the CSV with")
                C.check_csv(text, tables[op.case])
                C.check_golden("sct", case.key(), C.sha(text), golden)
            elif op.command == "lattice":
                payload = json.loads(text)
                C.check_lattice(payload, case.expected_nodes)
                if op.case in tables:
                    C.check_same_nodes(payload, tables[op.case])
            elif op.command == "verify":
                C.check_verify(json.loads(text))
            elif op.command == "product":
                C.require(op.case in tables, "no valid table to rebuild the product from")
                C.check_product(json.loads(text), tables[op.case], op.subgroups)
            elif op.command == "restrict":
                key = digest(case.group, case.sublattice, op.files["embedding"],
                             op.files["anchor"])
                C.check_golden("restrict", key, C.restrict_digest(json.loads(text)), golden)
        except (C.CheckError, OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            r["error"] = f"check: {type(exc).__name__}: {exc}"


def round_times(results: list[dict]) -> dict[str, float]:
    """One round's operation times in reference seconds, summed per metric."""
    out = {"wall_s": 0.0, "sct_s": 0.0, "verify_s": 0.0, "query_s": 0.0}
    for r in results:
        out["wall_s"] += r["ref_s"]
        out[TIME_BUCKETS[r["op"].command]] += r["ref_s"]
    return out


def time_metrics(rounds: list[list[dict]]) -> dict[str, float]:
    """Each metric's median over the rounds, in reference seconds."""
    per_round = [round_times(results) for results in rounds]
    return {name: statistics.median(t[name] for t in per_round) for name in per_round[0]}


def src_lines() -> dict[str, int]:
    src = ROOT / "src" / "latsuper"

    def lines(path: Path) -> int:
        return len(path.read_text().splitlines()) if path.is_file() else 0

    out = {f"src_lines.{m.strip('_')}": lines(src / f"{m}.py") for m in SRC_MODULES}
    out["src_lines.total"] = sum(lines(p) for p in src.rglob("*.py"))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "latsuper" / "__init__.py").is_file():
        print(f"no latsuper sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # import the benchmark as a package, and latsuper from this tree's src/
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from latbench import inputs

    if args.workload not in inputs.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(inputs.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads((ROOT / "latbench" / "golden.json").read_text())
    work = ROOT / ".latbench"
    work.mkdir(exist_ok=True)

    plan, directory, setup_times = setup(args.workload, args.seed, work)
    rounds: list[list[dict]] = []
    values: dict[str, float] = {}
    try:
        if args.trace:
            values = traced(plan, directory, golden, rounds, work, args)
        else:
            start = time.perf_counter()
            while True:
                round_start = time.perf_counter()
                results = run_round(plan, directory)
                check_round(plan, results, golden)
                rounds.append(results)
                now = time.perf_counter()
                if now - start + (now - round_start) > args.seconds:
                    break
            values = time_metrics(rounds)
            values["setup_s"] = statistics.median(setup_times)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    failures = [r for results in rounds for r in results if r["error"]]
    for r in failures:
        print(f"FAILED {r['op'].label}: {r['error']}")
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    attempted = sum(len(r) for r in rounds)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def traced(plan, directory: Path, golden: dict, rounds: list, work: Path, args) -> dict:
    """A traced round between two untraced ones, then the gap probe."""
    from latbench.probe import run_probe
    from latbench.spans import Tracer

    def checked_round() -> list[dict]:
        results = run_round(plan, directory)
        check_round(plan, results, golden)
        rounds.append(results)
        return results

    before = checked_round()
    tracer = Tracer()
    tracer.install()
    try:
        results = run_round(plan, directory)
    finally:
        tracer.uninstall()
    check_round(plan, results, golden)
    rounds.append(results)
    after = checked_round()

    values = tracer.metrics()
    untraced = (round_times(before)["wall_s"] + round_times(after)["wall_s"]) / 2
    values["trace_overhead_s"] = round_times(results)["wall_s"] - untraced
    values.update(src_lines())
    gaps = run_probe(ROOT, work)
    for case, result in gaps.items():
        values[f"gap.{case}_s"] = result["elapsed_s"]
        print(f"gap {case}: {result['outcome']} after {result['elapsed_s']:.1f} s")
    report = tracer.report()
    report.update({
        "workload": args.workload, "seed": args.seed, "gaps": gaps, "metrics": values,
        "operations": [{"op": r["op"].label, "elapsed_s": r["elapsed_s"], "ref_s": r["ref_s"],
                        "error": r["error"]} for r in results],
    })
    path = work / f"trace-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps(report))
    print(f"trace written to {path.relative_to(ROOT)}")
    return values


if __name__ == "__main__":
    raise SystemExit(main())
