"""CI benchmark gate over ``BENCH_compare.json`` reports.

Compares the report a fresh ``repro evaluate --served`` run wrote against
the committed baseline (``benchmarks/baselines/compare_baseline.json``)
and fails the build when serving quality or warm-path latency regresses:

- **selection quality** — each strategy's mean top-k overlap vs the
  reference strategy must not drop below its baseline by more than
  ``--max-overlap-drop`` (rankings are deterministic given the zoo seed,
  so the tolerance only absorbs float jitter across platforms: the
  default allows one top-3 slot flip on one of the tiny zoo's three
  targets, i.e. 1/9);
- **warm-path latency** — each strategy's warm-rank p95 must not exceed
  ``max(baseline * (1 + --max-p95-regression), baseline +
  --p95-grace-ms)``.  The absolute grace keeps millisecond-scale timer
  noise and runner-speed variance from failing CI while still catching
  the real regression class: a warm rank accidentally becoming a cold
  fit costs hundreds of milliseconds;
- **coverage** — every baseline strategy must still be reported, nothing
  may have been shed (the bench warms the namespace first, so any shed
  means the warmup or the queue bound broke), and the reference strategy
  and overlap depth must match the baseline's.

Exit status: 0 all gates pass, 1 a gate failed, 2 the reports are
unreadable or structurally incompatible.

Usage::

    python benchmarks/compare_gate.py BENCH_compare.json \\
        benchmarks/baselines/compare_baseline.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPORT_BENCHMARK = "compare_served"


def _usage_error(message: str) -> SystemExit:
    """Exit status 2: the reports themselves are unusable, not a
    benchmark regression (CI wrappers branch on the distinction)."""
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(2)


def load_report(path: Path) -> dict:
    try:
        report = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise _usage_error(f"cannot read report {path}: {exc}")
    if report.get("benchmark") != REPORT_BENCHMARK:
        raise _usage_error(
            f"{path} is not a {REPORT_BENCHMARK!r} report "
            f"(benchmark={report.get('benchmark')!r})"
        )
    if not isinstance(report.get("strategies"), dict):
        raise _usage_error(f"{path} has no strategies section")
    return report


def check_compatible(current: dict, baseline: dict) -> list[str]:
    """Structural mismatches that make a comparison meaningless.

    ``targets`` is part of the contract: overlap means are averaged per
    target, so a changed roster would silently compare different
    quantities (a strategy regressing on a dropped target would pass).
    """
    failures = []
    for key in ("reference", "top_k", "namespace", "targets"):
        if current.get(key) != baseline.get(key):
            failures.append(
                f"{key} changed: baseline {baseline.get(key)!r}, "
                f"current {current.get(key)!r} (regenerate the baseline "
                f"if this is intentional)"
            )
    return failures


def check_strategy(
    spec: str,
    current: dict,
    baseline: dict,
    *,
    max_overlap_drop: float,
    max_p95_regression: float,
    p95_grace_ms: float,
) -> list[str]:
    """Gate failures for one strategy's row (empty list = pass)."""
    failures = []
    if current.get("targets_shed", 0) > 0:
        failures.append(
            f"{spec}: {current['targets_shed']} target(s) shed in a warmed "
            f"bench run — the warmup or the queue bound is broken"
        )
    base_overlap = baseline.get("mean_top_k_overlap")
    new_overlap = current.get("mean_top_k_overlap")
    if base_overlap is not None:
        if new_overlap is None:
            failures.append(f"{spec}: mean_top_k_overlap missing from report")
        elif base_overlap - new_overlap > max_overlap_drop:
            failures.append(
                f"{spec}: top-k overlap vs reference dropped "
                f"{base_overlap:.3f} -> {new_overlap:.3f} "
                f"(allowed drop {max_overlap_drop:.3f})"
            )
    base_p95 = baseline.get("warm_rank_p95_ms")
    new_p95 = current.get("warm_rank_p95_ms")
    if base_p95 is not None:
        budget = max(base_p95 * (1.0 + max_p95_regression), base_p95 + p95_grace_ms)
        if new_p95 is None:
            failures.append(f"{spec}: warm_rank_p95_ms missing from report")
        elif new_p95 > budget:
            failures.append(
                f"{spec}: warm-rank p95 regressed {base_p95:.2f} ms -> "
                f"{new_p95:.2f} ms (budget {budget:.2f} ms)"
            )
    return failures


def run_gate(current: dict, baseline: dict, args) -> list[str]:
    incompatible = check_compatible(current, baseline)
    if incompatible:
        raise _usage_error("reports are not comparable:\n  " +
                           "\n  ".join(incompatible))
    failures = []
    for spec, base_row in sorted(baseline["strategies"].items()):
        row = current["strategies"].get(spec)
        if row is None:
            failures.append(f"{spec}: missing from the current report")
            continue
        failures.extend(
            check_strategy(
                spec,
                row,
                base_row,
                max_overlap_drop=args.max_overlap_drop,
                max_p95_regression=args.max_p95_regression,
                p95_grace_ms=args.p95_grace_ms,
            )
        )
    return failures


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("current", type=Path, help="freshly generated report")
    parser.add_argument("baseline", type=Path, help="committed baseline report")
    parser.add_argument(
        "--max-overlap-drop",
        type=float,
        default=0.12,
        help="largest tolerated drop in mean top-k overlap (default: one "
        "top-3 slot flip on one of three targets, 1/9)",
    )
    parser.add_argument(
        "--max-p95-regression",
        type=float,
        default=0.30,
        help="largest tolerated relative warm-rank p95 regression",
    )
    parser.add_argument(
        "--p95-grace-ms",
        type=float,
        default=50.0,
        help="absolute p95 grace so ms-scale timer noise cannot fail CI",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    current = load_report(args.current)
    baseline = load_report(args.baseline)
    failures = run_gate(current, baseline, args)

    print(f"compare gate: {args.current} vs baseline {args.baseline}")
    for spec, row in sorted(current["strategies"].items()):
        overlap = row.get("mean_top_k_overlap")
        shown = f"{overlap:.3f}" if overlap is not None else "--"
        print(
            f"  {spec:<22} overlap {shown}  "
            f"warm p95 {row.get('warm_rank_p95_ms', float('nan')):8.2f} ms  "
            f"shed {row.get('targets_shed', 0)}"
        )
    if failures:
        print(f"FAIL: {len(failures)} gate violation(s)")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("PASS: selection quality and warm-path latency within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
