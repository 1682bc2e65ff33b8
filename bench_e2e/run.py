"""End-to-end benchmark of the 3DC engine: ``fit``, ``churn`` and ``serve``.

Run from the repository root::

    python3 bench_e2e/run.py --workload churn --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
fixed op sequence untraced and then traced, and prints the per-layer
ledger.  Human-readable detail goes to the lines before the last; the
last line of standard output is one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from harness import calibrate_ms, describe, peak_rss_mb, summarize  # noqa: E402

OP_TYPES = ("fit", "insert", "delete", "write", "read")


def _import_program() -> None:
    """Put the checkout's ``src`` on the path; fail loudly without it."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(
            f"bench_e2e: no program sources at {src}; run from the repository root"
        )
    sys.path.insert(0, src)
    import repro  # noqa: F401


def run_workload(name: str, seed: int, seconds: float, scale: str, ledger=None):
    import workloads

    if name == "fit":
        return workloads.run_fit(seed, seconds, scale, ledger)
    if name == "churn":
        return workloads.run_churn(seed, seconds, scale, ledger)
    parent = os.path.join(os.getcwd(), ".bench_work")
    try:
        return workloads.run_serve(
            seed, seconds, scale, ledger, os.path.join(parent, f"serve-{os.getpid()}")
        )
    finally:
        try:
            os.rmdir(parent)
        except OSError:  # another run is still using it
            pass


def ops_per_s(outcome) -> float:
    return outcome.n_ops / outcome.wall_s


def end_to_end_metrics(outcome) -> dict:
    return {
        "setup_s": (outcome.setup_s, "s"),
        "ops_per_s": (ops_per_s(outcome), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "op_p50_ms": (
            statistics.median(outcome.latencies[outcome.primary]),
            "ms",
        ),
    }


def per_layer_metrics(untraced, traced, ledger, calib_ms: float) -> dict:
    from ledger import ledger_metrics

    self_s, calls, side_s = ledger.totals()
    values = ledger_metrics(self_s, traced.op_s)
    counts = traced.counts
    values.update(
        {
            "enumeration.search_nodes": counts.get("enumeration.search_nodes", 0),
            "enumeration.hitting_sets": counts.get("enumeration.hitting_sets", 0),
            "verification.calls": calls.get("verification", 0),
            "evidence.size": counts.get("evidence.size", 0),
            "sigma.size": counts.get("sigma.size", 0),
            "durability.wal_bytes": counts.get("durability.wal_bytes", 0),
            "service.cycles": counts.get("service.cycles", 0),
            "service.batch_mean": traced.batch_mean,
            "service.http_ms": (
                1000.0 * (traced.op_s - side_s.get("http.handler", 0.0)) / traced.n_ops
                if "http.handler" in side_s
                else 0.0
            ),
            "host.calib_ms": calib_ms,
            "observability.trace_overhead_pct": 100.0
            * (ops_per_s(untraced) / ops_per_s(traced) - 1.0),
        }
    )
    # Per-op-type latencies come from the untraced pass; a tail that
    # does not qualify (fewer than 10 samples beyond it) reads 0.
    for op in OP_TYPES:
        samples = untraced.latencies.get(op)
        summary = summarize(op, samples) if samples else {}
        values[f"op.{op}_p50_ms"] = summary.get("p50_ms", 0.0)
        values[f"op.{op}_tail_ms"] = summary.get("tail_ms", 0.0)
    units = {}
    for name in values:
        if name.endswith("_ms") or name.endswith(".ms"):
            units[name] = "ms"
        elif name.endswith("_pct"):
            units[name] = "%"
        elif name.endswith("_bytes"):
            units[name] = "bytes"
        elif name == "service.batch_mean":
            units[name] = "requests"
        else:
            units[name] = "count"
    return {name: (value, units[name]) for name, value in values.items()}


def report(outcome, label: str) -> None:
    print(f"[{label}] setup {outcome.setup_s:.4f} s; {outcome.n_ops} ops in "
          f"{outcome.wall_s:.3f} s")
    for op, samples in outcome.latencies.items():
        if samples:
            print(f"[{label}] {describe(summarize(op, samples))}")
    print(f"[{label}] work counters: {json.dumps(outcome.counts, sort_keys=True)}")
    for error in outcome.errors:
        print(f"[{label}] CHECK FAILED: {error}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fit", "churn", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the benchmark's own tests")
    args = parser.parse_args(argv)
    _import_program()

    calib_before = calibrate_ms()
    untraced = run_workload(args.workload, args.seed, args.seconds, args.scale)
    report(untraced, "untraced")
    outcomes = [untraced]
    if args.trace:
        from ledger import Ledger

        with Ledger() as ledger:
            traced = run_workload(
                args.workload, args.seed, args.seconds, args.scale, ledger
            )
        report(traced, "traced")
        outcomes.append(traced)
    calib_after = calibrate_ms()
    calib_ms = statistics.median([calib_before, calib_after])
    print(f"host.calib_ms before {calib_before:.3f}, after {calib_after:.3f}")

    if args.trace:
        metrics = per_layer_metrics(untraced, traced, ledger, calib_ms)
    else:
        metrics = end_to_end_metrics(untraced)
    failed = sum(outcome.failed for outcome in outcomes)
    correct = not any(outcome.errors for outcome in outcomes)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(outcome.attempted for outcome in outcomes),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
