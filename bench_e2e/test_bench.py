"""The benchmark's own tests, at tiny input sizes.

Run from the repository root::

    python3 -m pytest bench_e2e -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from harness import percentile, tail_percentile
from ledger import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
WORKLOADS = ("fit", "churn", "serve")


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(workload, trace, hash_seed="0", cwd=ROOT, seed=7):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.01", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def _result(completed):
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def _work_counters(completed, label="untraced"):
    prefix = f"[{label}] work counters: "
    for line in completed.stdout.splitlines():
        if line.startswith(prefix):
            return json.loads(line[len(prefix):])
    raise AssertionError(f"no {label} work counters in output")


@pytest.fixture(scope="module")
def traced_runs():
    return {workload: _run(workload, trace=1) for workload in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result = _result(_run(workload, trace=0))
    declared = {entry["name"]: entry["unit"] for entry in _declared()["end_to_end"]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert NAME.match(name)
        assert metric["unit"] == declared[name]
        assert metric["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_the_ledger(traced_runs, workload):
    result = _result(traced_runs[workload])
    declared = {entry["name"]: entry["unit"] for entry in _declared()["per_layer"]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert NAME.match(name)
        assert metric["unit"] == declared[name]
    assert "observability.trace_overhead_pct" in result["metrics"]
    assert result["metrics"]["host.calib_ms"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_ledger_accounts_for_the_op_time(traced_runs, workload):
    metrics = {
        name: entry["value"]
        for name, entry in _result(traced_runs[workload])["metrics"].items()
    }
    layers = sum(metrics[name] for name in LAYER_METRICS.values())
    assert metrics["core.op_ms"] > 0
    # Spans never count one interval twice, so they fit inside the ops.
    # On serve this is loose: the op time sums both clients' latencies,
    # while each server-side span is counted once.
    assert metrics["core.unattributed_ms"] >= 0
    if workload in ("fit", "churn"):
        # Single-threaded: the wrapped entry points are nearly all of an
        # op, so a wrapper that stops matching its entry point shows.
        assert layers >= 0.9 * metrics["core.op_ms"]


def test_layers_show_up_where_predicted(traced_runs):
    def metrics(workload):
        return {
            name: entry["value"]
            for name, entry in _result(traced_runs[workload])["metrics"].items()
        }

    fit, churn, serve = metrics("fit"), metrics("churn"), metrics("serve")
    assert fit["enumeration.ms"] > 0 and fit["enumeration.search_nodes"] > 0
    assert fit["verification.ms"] == 0 and fit["service.snapshot_ms"] == 0
    assert churn["verification.calls"] > 0 and churn["durability.wal_ms"] == 0
    assert serve["dcs.canonical_ms"] > 0 and serve["durability.wal_bytes"] > 0
    assert serve["service.cycles"] > 0 and serve["service.batch_mean"] >= 1


@pytest.mark.parametrize("workload", ("fit", "churn"))
def test_work_counters_ignore_the_hash_seed(workload):
    first = _work_counters(_run(workload, trace=0, hash_seed="1"))
    second = _work_counters(_run(workload, trace=0, hash_seed="2"))
    assert first == second
    assert first["sigma.size"] > 0


def test_serve_state_ignores_the_hash_seed():
    # Coalescing depends on thread timing, so cycle counts may differ;
    # the state the acknowledged writes produce may not.
    first = _work_counters(_run("serve", trace=0, hash_seed="1"))
    second = _work_counters(_run("serve", trace=0, hash_seed="2"))
    for name in ("sigma.size", "evidence.size"):
        assert first[name] == second[name]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench_e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("fit", trace=0, cwd=tmp_path)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


def test_declared_metric_names_and_units():
    declared = _declared()
    names = [entry["name"] for entry in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
    for entry in declared["end_to_end"] + declared["per_layer"]:
        assert NAME.match(entry["name"])
        assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", entry["unit"])
    assert {w["name"] for w in declared["workloads"]} <= set(WORKLOADS)


def test_percentiles():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 0.5) == pytest.approx(50.5)
    assert tail_percentile(values[:20]) is None
    q, value = tail_percentile(values)
    assert q == pytest.approx(0.9)
    assert sum(v > value for v in values) >= 10
