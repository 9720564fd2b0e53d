"""Committed benchmark records: a speed claim carries a number that can be read back.

Every ``BENCH_*.json`` at the repository root is one record of a measured
change. It must parse, and it must say what was measured, the command that
measured it, the machine it ran on and which metrics it holds.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
REQUIRED = ("what", "command", "machine", "metrics")


def test_the_repository_holds_benchmark_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_a_record_parses_and_names_what_it_measured(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(record, dict)
    missing = [key for key in REQUIRED if not record.get(key)]
    assert not missing, f"{path.name} lacks {missing}"
