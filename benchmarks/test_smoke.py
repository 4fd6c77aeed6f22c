"""Smoke tests of the benchmark itself, at a tiny size.

Run from the repository root with ``python -m pytest benchmarks``.
"""

import inspect
import json
import sys
from pathlib import Path

import pytest

import oracle
import run

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUPS", 1)


def tiny(workload, trace):
    result = run.measure(workload, seed=3, seconds=0, trace=trace, items=2)
    json.dumps(result)
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_names_every_end_to_end_metric(workload):
    result = tiny(workload, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_names_every_per_layer_metric(workload):
    result = tiny(workload, trace=True)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    calls = {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}
    if workload != "verify":
        assert calls["polytope.enumerate_vertices.calls"] == 0
    if workload == "lp":
        assert calls["lattice.enumerate_stable.calls"] == 0


def test_traced_run_restores_the_library():
    tiny("lattice", trace=True)
    for name, module in list(sys.modules.items()):
        if not name.startswith("stablepoly"):
            continue
        holders = [module] + [c for c in vars(module).values() if inspect.isclass(c)]
        for holder in holders:
            for value in vars(holder).values():
                if inspect.isfunction(value):
                    assert Path(value.__code__.co_filename).name != "tracing.py", value


PLANTS = {
    "verify": ("stable_sets", lambda real: lambda *a: real(*a)[1:]),
    "lp": ("best_weight", lambda real: lambda *a: real(*a) + 1),
    "lattice": ("adjacent_pairs", lambda real: lambda *a: {k: not v for k, v in real(*a).items()}),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_planted_wrong_answer_is_a_failed_op(workload, monkeypatch):
    name, plant = PLANTS[workload]
    monkeypatch.setattr(oracle, name, plant(getattr(oracle, name)))
    result = tiny(workload, trace=False)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert result["metrics"]["ok_ratio"]["value"] < 1


def test_missing_library_exits_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "lp", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
