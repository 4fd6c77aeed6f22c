"""Every committed ``BENCH_*.json`` keeps the shape a reader relies on.

Each file records parent/change benchmark runs; its ``runs`` are keyed by
the workload names that ``BENCHMARK.json`` declares. Runs made some other
way (an equal op count, one layer alone) go under ``other_runs``, each
with a note that says how they were made.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
REQUIRED = ("command", "host", "parent_commit", "change", "runs")


def _workloads():
    with open(ROOT / "BENCHMARK.json") as fh:
        return {w["name"] for w in json.load(fh)["workloads"]}


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_shape(path):
    with open(path) as fh:
        data = json.load(fh)
    assert isinstance(data, dict)
    missing = [key for key in REQUIRED if key not in data]
    assert not missing, f"{path.name} lacks {missing}"
    runs = data["runs"]
    assert isinstance(runs, dict) and runs
    assert set(runs) <= _workloads(), f"{path.name} runs unknown workloads"
    other = data.get("other_runs", [])
    assert isinstance(other, list)
    for extra in other:
        note, extra_runs = extra.get("note"), extra.get("runs")
        assert isinstance(note, str) and note, f"{path.name}: other_runs without a note"
        assert isinstance(extra_runs, list) and extra_runs, f"{path.name}: other_runs without runs"
