"""hydromom benchmark: one command, one workload, every metric by name and unit.

    python3 bench/run.py --workload grid|ray|shadow --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it record the environment, the set-up import split and the edge-probe
outcomes.  ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` its per-layer metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("grid", "ray", "shadow")
SETUP_REPEATS = 7
TRACE_ROUNDS = 3  # traced runs cover a fixed op list, so their counts repeat exactly per seed
BUDGET_S = 170.0  # the whole run must end within 180 s
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    pass


def import_split(stderr: str) -> dict[str, float]:
    """Cumulative import seconds of the numpy, scipy and hydromom subtrees.

    Parses ``python -X importtime`` output, which lists each module after
    the modules it imports, indented two spaces per nesting level.  A
    package's time is the sum over its outermost entries, so hydromom's
    figure includes the numpy and scipy imports it triggers.
    """
    nodes_at_depth: dict[int, list] = {}
    for line in stderr.splitlines():
        match = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if match is None:
            continue
        depth = len(match.group(3)) // 2
        node = (match.group(4), int(match.group(2)) * 1e-6, nodes_at_depth.pop(depth + 1, []))
        nodes_at_depth.setdefault(depth, []).append(node)
    roots = [node for depth in sorted(nodes_at_depth) for node in nodes_at_depth[depth]]

    def outermost(nodes, package):
        total = 0.0
        for name, seconds, children in nodes:
            if name == package or name.startswith(package + "."):
                total += seconds
            else:
                total += outermost(children, package)
        return total

    return {f"import.{p}_s": outermost(roots, p) for p in ("scipy", "numpy", "hydromom")}


def _child(args: list[str], deadline: float, importtime: bool = False):
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [str(WORKER)] + args
    remaining = deadline - monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted")
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env={**os.environ, **CHILD_ENV},
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(args)} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1]), proc.stderr


def setup(workload: str, deadline: float) -> tuple[float, float, dict[str, float]]:
    """Set-up of fresh interpreters that import the CLI and warm up.

    Returns the median wall time at the reference speed, the raw median and
    the median import split.
    """
    walls, raw, splits = [], [], []
    before = speed.kernel_time()
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        _, stderr = _child(["--workload", workload, "--warmup"], deadline, importtime=True)
        raw.append(perf_counter() - start)
        after = speed.kernel_time()
        walls.append(raw[-1] * speed.factor(before, after))
        splits.append(import_split(stderr))
        before = after
    imports = {k: statistics.median(s[k] for s in splits) for k in splits[0]}
    return statistics.median(walls), statistics.median(raw), imports


def _verdict(*reports) -> dict:
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed}


def _fail_ratio(report) -> float:
    probes = report["probes"]
    failed = report["failed"] + sum(not p["ok"] for p in probes)
    return failed / (report["attempted"] + len(probes))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    for needed in (ROOT / "BENCHMARK.json", ROOT / "src" / "hydromom" / "cli.py", ROOT / "tests" / "data" / "table_n6.csv"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from a hydromom source checkout", file=sys.stderr)
            return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    deadline = monotonic() + BUDGET_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    try:
        setup_s, raw_setup_s, imports = setup(args.workload, deadline)
        if args.trace == 0:
            report, _ = _child(base + ["--seconds", str(args.seconds)], deadline)
            reports = [report]
            values = {key: report[key] for key in ("wall_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb")}
            values["setup_s"] = setup_s
            wanted = declared["end_to_end"]
        else:
            rounds = ["--rounds", str(TRACE_ROUNDS)]
            plain, _ = _child(base + rounds, deadline)
            report, _ = _child(base + rounds + ["--trace"], deadline)
            reports = [plain, report]
            traced_wall = sum(report["raw_round_wall_s"])
            values = {
                **report["layers"],
                **imports,
                "quadrature.max_rel_err": report["quad_max_rel_err"],
                "cli.bytes_out": report["cli_bytes_out"],
                "trace.wall_s": traced_wall,
                "trace.overhead_s": traced_wall - sum(plain["raw_round_wall_s"]),
                "fail_ratio": _fail_ratio(report),
            }
            wanted = declared["per_layer"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if set(values) != {m["name"] for m in wanted}:
        print(f"error: computed metrics differ from BENCHMARK.json: {sorted(set(values) ^ {m['name'] for m in wanted})}", file=sys.stderr)
        return 1
    record = {
        "workload": args.workload,
        "seed": args.seed,
        **report["env"],
        **imports,
        "rounds": len(report["round_wall_s"]),
        "timed_ops": report["attempted"],
        "percentile_samples": report["samples"],
        "probes": len(report["probes"]),
        "probes_failed": sum(not p["ok"] for p in report["probes"]),
        "fail_ratio": _fail_ratio(report),
        "raw": {**report["raw"], "setup_s": raw_setup_s},
    }
    print("# run " + json.dumps(record))
    for probe in report["probes"]:
        print("# probe " + json.dumps(probe))
    for failure in (f for r in reports for f in r["failures"]):
        print("# FAILED " + failure)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({**_verdict(*reports), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
