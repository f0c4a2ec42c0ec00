"""One workload process: warm up, time rounds of ops, check them, run the probes.

``run.py`` starts this file in fresh interpreters; it prints one JSON object
as its last line of standard output.  With ``--warmup`` it only imports the
CLI and makes one warm-up call of each op kind (the set-up that ``setup_s``
times).  Otherwise it times rounds until ``--seconds`` of op time have been
measured (at least ``MIN_ROUNDS`` rounds), or exactly ``--rounds`` rounds.
With ``--trace`` it records layer spans, reports per-layer figures and
writes the spans to ``bench/out/spans-<workload>.tsv``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import warnings
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import hydromom.cli  # noqa: E402,F401  -- first, so set-up times the CLI's own import
import numpy  # noqa: E402
import scipy  # noqa: E402

import speed  # noqa: E402

from tracing import LAYERS, Tracer, layer_times  # noqa: E402
from workloads import MIN_ROUNDS, WORKLOADS, CliRun, Raised, check_round, execute  # noqa: E402

PROBE_OP_BASE = 1_000_000  # op ids of the edge probes start here
CALIBRATE_EVERY_S = 0.1  # op time between two kernel timings


def _run_ops(ops, first_id, timed, tracer):
    """Execute ``ops`` in order.

    Returns the results, each op's seconds, and each op's scale to the
    reference speed, from kernel timings taken between ops, off the clock.
    """
    results, latencies, scales = [], [], []
    before, since, pending = speed.kernel_time(), 0.0, 0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin(first_id + i, op.kind, timed)
        start = perf_counter()
        try:
            result = execute(op)
        except Exception as exc:  # recorded as a failed op, never fatal
            result = Raised(exc)
        latency = perf_counter() - start
        if tracer is not None:
            tracer.end()
        results.append(result)
        latencies.append(latency)
        since, pending = since + latency, pending + 1
        if since >= CALIBRATE_EVERY_S or i == len(ops) - 1:
            after = speed.kernel_time()
            scales += [speed.factor(before, after)] * pending
            before, since, pending = after, 0.0, 0
    return results, latencies, scales


def _warm_up(workload) -> None:
    for op in workload.warmup:
        try:
            execute(op)
        except Exception:  # the timed ops record what fails
            pass


def measure(workload, seed: int, seconds: float | None, rounds: int | None, tracer=None) -> dict:
    _warm_up(workload)
    report = {"round_wall_s": [], "raw_round_wall_s": [], "attempted": 0, "failed": 0, "failures": []}
    latencies, raw_latencies = [], []
    quad_err, bytes_out, timed_ids = 0.0, 0, set()
    r = 0
    while True:
        ops = workload.round(seed, r)
        first_id = report["attempted"]
        results, raw, scales = _run_ops(ops, first_id, True, tracer)
        timed_ids.update(range(first_id, first_id + len(ops)))
        scaled = [t * f for t, f in zip(raw, scales)]
        report["round_wall_s"].append(sum(scaled))
        report["raw_round_wall_s"].append(sum(raw))
        latencies += scaled
        raw_latencies += raw
        report["attempted"] += len(ops)
        for op, result, verdict in zip(ops, results, check_round(ops, results)):
            if not verdict.ok:
                report["failed"] += 1
                if len(report["failures"]) < 5:
                    report["failures"].append(f"{op}: {verdict.detail}")
            if verdict.quad_rel_err is not None:
                quad_err = max(quad_err, verdict.quad_rel_err)
            if isinstance(result, CliRun):
                bytes_out += len(result.out.encode("utf-8"))
        r += 1
        if rounds is not None:
            if r >= rounds:
                break
        elif r >= MIN_ROUNDS and sum(raw_latencies) >= seconds:
            break

    probes = list(workload.probes)
    results, _, _ = _run_ops(probes, PROBE_OP_BASE, False, tracer)
    report["probes"] = [
        {"op": str(op), "ok": v.ok, "detail": v.detail} for op, v in zip(probes, check_round(probes, results))
    ]
    report["quad_max_rel_err"] = quad_err
    report["cli_bytes_out"] = bytes_out
    report.update(_timings(latencies, report["round_wall_s"]))
    report["raw"] = _timings(raw_latencies, report["raw_round_wall_s"])
    if tracer is not None:
        report["layers"] = traced_layers(tracer, timed_ids)
    return report


def _timings(latencies, round_walls) -> dict:
    return {
        "wall_s": statistics.median(round_walls),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[8],
        "samples": len(latencies),
    }


def traced_layers(tracer, timed_ids: set[int]) -> dict:
    times = layer_times(tracer.spans, timed_ids)
    layers = {}
    for layer in LAYERS:
        entry = times.get(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        layers.update({f"{layer}.{key}": value for key, value in entry.items()})
        layers[f"{layer}.fail"] = tracer.fails[layer]
    for layer in ("invp", "sumrules"):
        calls = layers[f"{layer}.calls"]
        layers[f"{layer}.distinct_ratio"] = len(tracer.calls_seen[layer]) / calls if calls else 1.0
    for key in ("invp.terms", "invp.result_bits", "wavefun.nonfinite"):
        layers[key] = tracer.counts[key]
    return layers


def write_spans(tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        fh.write("layer\tname\tstart\tend\tparent\top\n")
        for s in tracer.spans:
            fh.write(f"{s.layer}\t{s.name}\t{s.start!r}\t{s.end!r}\t{s.parent}\t{s.op}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--warmup", action="store_true")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--rounds", type=int)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    warnings.simplefilter("ignore", RuntimeWarning)  # the probes overflow on purpose
    workload = WORKLOADS[args.workload]
    if args.warmup:
        _warm_up(workload)
        print(json.dumps({"warmup_ops": len(workload.warmup)}))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    report = measure(workload, args.seed, args.seconds, args.rounds, tracer)
    if tracer is not None:
        write_spans(tracer, BENCH / "out" / f"spans-{args.workload}.tsv")
    report.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env={
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
        },
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
