"""The benchmark's own tests: tiny runs of every workload, and the gate.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _run(capsys, workload, trace=0):
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.2",
                     "--trace", str(trace)], tiny=True)
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(capsys, workload, trace):
    code, result = _run(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_tampered_expected_value_fails_the_gate(capsys, monkeypatch):
    aztec = run.reference.CLOSED_FORMS["a"]
    monkeypatch.setitem(run.reference.CLOSED_FORMS, "a", lambda n: aztec(n) + 1)
    code, result = _run(capsys, "count_wide")
    assert code == 1
    assert not result["correct"]
    assert result["failed"] >= 1


def test_missing_sources_exit_without_a_result(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "verify", "--seed", "1", "--seconds", "1",
                     "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""
