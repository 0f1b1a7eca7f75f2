"""Benchmark entry point: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload warm-mix --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with the layer wrappers of
``tracing.py`` installed and reports the per-layer metrics instead.
A human-readable report precedes the result; the last stdout line is
``{"correct", "attempted", "failed", "metrics"}``.  Exit status is 0
when every correctness check passed, 1 when one failed and 2 when the
benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("warm-mix", "cold-fit", "registry-revive", "live-catalog")

#: fixed before numpy loads: single-threaded BLAS (the server gets one
#: core) and a fixed hash seed, so the server, the offline references
#: and every run see the same float summation order
_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric_specs(kind: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def per_layer_metrics(run, out) -> dict[str, float]:
    import tracing

    metrics, lines, breakdown = tracing.layer_report(
        out.spans, out.client_ms, out.elapsed_s)
    stats = out.extra.get("stats", {})
    metrics.update({
        "router.coalesced": float(stats.get("coalesced") or 0),
        "router.rejections": float(stats.get("rejections") or 0),
        "quality.rank_pearson": out.extra["rank_pearson"],
        "live.freshness_p50_ms": out.extra.get("freshness_p50_ms", 0.0),
        "trace.latency_p50_ms": out.metrics["latency_p50_ms"],
        "trace.throughput_rps": out.metrics["throughput_rps"],
    })
    print(f"traced run, per layer ({run.workload}):")
    for line in lines:
        print("  " + line)
    if tracing.missing:
        print(f"  not wrapped (absent in this tree): {tracing.missing}")
    if run.workload == "warm-mix" and metrics["trace.coverage_pct"] < 90:
        print("  DISAGREES with ROADMAP item 1: named layers cover under 90% "
              "of the server-side time under SelectionGateway.*")
    if run.workload == "cold-fit" and breakdown.get("largest_self") != "sgns":
        print(f"  DISAGREES with ROADMAP's re-anchor: the largest self time "
              f"is {breakdown.get('largest_self')}, not graph.skipgram")
    untraced = results_dir() / f"{run.workload}-trace0-latest.json"
    if untraced.exists():
        base = json.loads(untraced.read_text())["metrics"]
        print(f"  tracing overhead vs the last untraced run: latency p50 "
              f"{metrics['trace.latency_p50_ms'] - base['latency_p50_ms']:+.3f}"
              f" ms, throughput "
              f"{metrics['trace.throughput_rps'] - base['throughput_rps']:+.2f}"
              f" req/s")
    else:
        print("  tracing overhead: no untraced run of this workload yet")
    out.extra["layers"] = breakdown
    return metrics


def results_dir() -> Path:
    import harness

    path = harness.WORK / "results"
    path.mkdir(parents=True, exist_ok=True)
    return path


def run_all(args) -> int:
    """Every workload in its own process; one summary line each."""
    summary, status = [], 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        status = max(status, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if lines and lines[-1].startswith("{"):
            result = json.loads(lines[-1])
            values = ", ".join(f"{name} {m['value']:.4g} {m['unit']}"
                               for name, m in result["metrics"].items())
            summary.append(f"{workload}: attempted {result['attempted']}, "
                           f"failed {result['failed']}; {values}")
        else:
            summary.append(f"{workload}: did not run (exit "
                           f"{proc.returncode})")
    print("\n".join(summary))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; run "
              f"from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if any(os.environ.get(k) != v for k, v in _ENV.items()):
        os.environ.update(_ENV)
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    import harness
    import workloads

    os.environ["REPRO_CACHE_DIR"] = str(harness.WORK / "cache")
    # untimed prep: build the zoo if missing, fit the offline references
    harness.load_zoo()
    refs = harness.references()
    provenance = harness.provenance(args.seed)
    # the generator and the server get one core each; the in-process
    # live-catalog gateway is the server
    harness.pin(os.getpid(), 1 if args.workload == "live-catalog" else 0)
    run = workloads.Run(args.workload, args.seed, args.seconds,
                        bool(args.trace), refs)
    try:
        out = workloads.WORKLOADS[args.workload](run)
    finally:
        harness.clean_tmp()

    kind = "per_layer" if run.trace else "end_to_end"
    values = per_layer_metrics(run, out) if run.trace else out.metrics
    metrics = {spec["name"]: {"value": float(values[spec["name"]]),
                              "unit": spec["unit"]}
               for spec in metric_specs(kind)}
    correct = out.failed == 0
    print(f"provenance: {json.dumps(provenance, sort_keys=True)}")
    print(f"workload {args.workload}: attempted {out.attempted}, failed "
          f"{out.failed}, tail percentile p{out.extra['tail']['percentile']} "
          f"({out.extra['tail']['samples']} samples)")
    if not run.trace:
        # the two end-to-end figures that exist on one workload only
        # (per-layer metrics in BENCHMARK.json) print beside the rest
        shown = {**metrics, **{
            name: {"value": out.extra[name], "unit": unit}
            for name, unit in (("rank_pearson", "r"),
                               ("freshness_p50_ms", "ms"))
            if name in out.extra}}
        for name, metric in shown.items():
            print(f"  {name:<18} {metric['value']:>12.4f} {metric['unit']}")
    for key in ("revive_share", "fits_per_s", "writes", "stats", "note"):
        if key in out.extra:
            print(f"  {key}: {out.extra[key]}")
    for problem in out.problems:
        print(f"  FAILED: {problem}")
    result = {"correct": correct, "attempted": out.attempted,
              "failed": out.failed, "metrics": metrics}
    record = {**result, "workload": args.workload, "trace": args.trace,
              "provenance": provenance, "extra": out.extra}
    name = f"{args.workload}-trace{args.trace}"
    for path in (results_dir() / f"{name}-seed{args.seed}.json",
                 results_dir() / f"{name}-latest.json"):
        path.write_text(json.dumps(
            {**record, "metrics": {k: v["value"] for k, v in metrics.items()}},
            indent=1, default=str))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
