"""Committed benchmark records: a speed claim carries a number that can be read back.

Every ``BENCH_*.json`` at the repository root is one record of a measured
change. It must parse, and it must say what was measured, the command that
measured it, the machine it ran on and which metrics it holds. A record that
claims a gain names it in ``claim.metric`` as "<workload> <metric>", and both
must be ones that ``BENCHMARK.json`` declares: a workload, and an end-to-end
metric.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
REQUIRED = ("what", "command", "machine", "metrics")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def claim_problem(claim, benchmark=BENCHMARK) -> str | None:
    """Why ``claim`` does not name a declared workload and end-to-end metric, or None."""
    if not isinstance(claim, dict) or not isinstance(claim.get("metric"), str):
        return f"a claim needs a 'metric' string, got {claim!r}"
    workloads = {workload["name"] for workload in benchmark["workloads"]}
    metrics = {metric["name"] for metric in benchmark["end_to_end"]}
    parts = claim["metric"].split()
    if len(parts) != 2:
        return f"claim.metric {claim['metric']!r} is not '<workload> <metric>'"
    workload, metric = parts
    if workload not in workloads:
        return f"claim names workload {workload!r}, not one of {sorted(workloads)}"
    if metric not in metrics:
        return f"claim names metric {metric!r}, not an end-to-end metric {sorted(metrics)}"
    return None


def test_the_repository_holds_benchmark_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_a_record_parses_and_names_what_it_measured(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(record, dict)
    missing = [key for key in REQUIRED if not record.get(key)]
    assert not missing, f"{path.name} lacks {missing}"


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_a_claim_names_a_declared_workload_and_end_to_end_metric(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    if "claim" in record:
        problem = claim_problem(record["claim"])
        assert problem is None, f"{path.name}: {problem}"


@pytest.mark.parametrize("claim, message", [
    ({"metric": "train op_ref_ms_p50"}, None),
    ({"metric": "compare_grid peak_rss_mb"}, None),
    ({"metric": "fit op_ref_ms_p50"}, "workload 'fit'"),
    ({"metric": "train epochs_per_s"}, "metric 'epochs_per_s'"),
    ({"metric": "train qlayer.q_forward_batch.calls"}, "metric 'qlayer.q_forward_batch.calls'"),
    ({"metric": "op_ref_ms_p50"}, "is not '<workload> <metric>'"),
    ({"met": True}, "needs a 'metric' string"),
    ("train op_ref_ms_p50", "needs a 'metric' string"),
])
def test_the_claim_check_reads_benchmark_json(claim, message):
    problem = claim_problem(claim)
    if message is None:
        assert problem is None
    else:
        assert message in problem
