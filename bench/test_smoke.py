"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest bench/test_smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit, that
a seed fixes the inputs, and that the correctness check catches a perturbed
reference value and a fault in the program's propagation.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args: str) -> str:
    out = subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=170, check=True
    )
    return out.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_reported_with_its_unit(workload, trace):
    stdout = _run(
        "bench/run.py", "--workload", workload, "--seed", "5", "--seconds", "0.2",
        "--trace", str(trace), "--tiny",
    )
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = result["metrics"]
    for metric in expected:
        assert got[metric["name"]]["unit"] == metric["unit"], metric["name"]
        assert isinstance(got[metric["name"]]["value"], (int, float))
    if not trace:
        assert all(got[m["name"]]["value"] > 0 for m in expected)


def _workloads():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import workloads
    finally:
        del sys.path[:2]
    return workloads


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_the_inputs(workload):
    w = _workloads().make(workload)
    first = [w.inputs(11, i) for i in range(2)]
    assert first == [w.inputs(11, i) for i in range(2)]
    assert first != [w.inputs(12, i) for i in range(2)]
    assert first[0] != first[1]  # each pass draws fresh inputs


@pytest.mark.parametrize("workload", WORKLOADS)
def test_check_fails_on_a_perturbed_reference(workload):
    workloads = _workloads()
    w = workloads.make(workload, tiny=True)
    spec = w.inputs(0, 0)[0]
    got = w.rows(spec, w.call(spec))
    ref = w.reference(spec)
    assert workloads.check(got, ref)[0] == 0
    ref[-1] += 2 * workloads.TOL
    assert workloads.check(got, ref)[0] == 1


def test_check_catches_a_fault_in_the_program_dynamics(monkeypatch):
    # the reference shares no code with lambda_holo.dynamics, so a wrong product shows
    workloads = _workloads()
    from lambda_holo import dynamics

    product = dynamics.time_ordered_product
    monkeypatch.setattr(dynamics, "time_ordered_product", lambda u: product(u[::-1]))
    w = workloads.make("fig1-scan", tiny=True)
    tau = w.inputs(0, 0)[0]
    assert workloads.check(w.rows(tau, w.call(tau)), w.reference(tau))[0] > 0
