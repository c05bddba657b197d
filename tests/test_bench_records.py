"""The checked-in benchmark trajectory: one BENCH_<workload>.json per workload."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
KEYS = {"label", "revision", "seed", "seconds", "environment", "record"}


def test_every_workload_has_a_record_file():
    names = {path.stem.removeprefix("BENCH_") for path in RECORDS}
    assert {"strong_small", "weak_small", "strong_scaled"} <= names


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_record_entries_carry_their_run(path):
    entries = json.loads(path.read_text())
    assert isinstance(entries, list) and entries
    for entry in entries:
        assert KEYS <= set(entry), f"{path.name}: missing {KEYS - set(entry)}"
        assert entry["environment"].startswith("# environment {")
        assert entry["record"]["metrics"]["ops_ok_share"]["value"] == 1.0
