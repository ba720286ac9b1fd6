"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

The smoke run drives all four workloads at tiny sizes with every output
check on, in about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from harness import END_TO_END, PER_LAYER, Context, Tracer, tail  # noqa: E402
from run import WORKLOADS  # noqa: E402


def run_bench(*args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def results(stdout: str) -> dict[str, dict]:
    """``{workload: result}`` from the all-workload run's ``name: {json}`` lines."""
    found = {}
    for line in stdout.splitlines():
        name, _, rest = line.partition(": ")
        if name in WORKLOADS and rest.startswith("{"):
            found[name] = json.loads(rest)
    return found


def test_smoke_runs_every_workload_with_checks():
    done = run_bench("--smoke", "--seed", "1")
    assert done.returncode == 0, done.stderr[-3000:]
    found = results(done.stdout)
    assert set(found) == set(WORKLOADS)
    for name, result in found.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0, name
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == set(END_TO_END), name
        for metric, entry in result["metrics"].items():
            assert entry["unit"] == END_TO_END[metric]
            assert entry["value"] > 0, (name, metric)


def last_result(stdout: str) -> dict:
    """The single-workload contract: the last stdout line is the result."""
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", ["exchange-medlit", "service-mixed"])
def test_traced_smoke_reports_every_layer(workload):
    done = run_bench("--smoke", "--workload", workload, "--trace", "1")
    assert done.returncode == 0, done.stderr[-3000:]
    metrics = last_result(done.stdout)["metrics"]
    assert set(metrics) == set(PER_LAYER)
    assert metrics["trace.spans"]["value"] > 0
    if workload == "exchange-medlit":
        assert metrics["trace.layer_share"]["value"] >= 0.9
        assert metrics["chase.st_applications"]["value"] > 0
        assert metrics["solver.clauses"]["value"] == 0  # bypassed layer
    else:
        assert 0 < metrics["service.cache_hit_ratio"]["value"] < 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "exchange-medlit", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_tail_needs_ten_samples_beyond():
    assert tail(range(39)) is None
    assert tail(range(40)) == (0.75, 29)
    assert tail(range(1000)) == (0.99, 989)


def test_self_time_subtracts_children():
    tracer = Tracer(True)
    with tracer.span("op.exchange"):
        with tracer.span("chase.relational"):
            pass
        with tracer.span("engine.query.q0"):
            pass
    selfs = tracer.self_times()
    total = tracer.root_time()
    assert abs(sum(selfs.values()) - total) < 1e-9
    assert selfs["chase"] >= 0 and selfs["engine.query"] >= 0


def test_op_p50_ref_divides_by_the_middle_half_of_the_reference(tmp_path):
    ctx = Context("w", 0, 1.0, False, False, tmp_path)
    for seconds in (0.3, 0.1, 0.2):
        ctx.record_op(seconds)
    # The slowest and fastest quarter of the reference samples are cut.
    ctx.refs = [0.001, 0.010, 0.010, 0.500]
    ctx.window_s = 1.0
    ctx.finish_e2e()
    assert ctx.e2e["op_p50_ref"] == 0.2 / 0.010
    assert ctx.throughput == 3.0
