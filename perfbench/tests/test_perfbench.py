"""Tests of the benchmark itself, on tiny workloads:

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys

import pytest

import checks
import run
import spans
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "simulate": lambda seed: workloads.simulate(seed, k_per_length=8, lengths={"start": 1, "stop": 61, "step": 20}),
    "sweep": lambda seed: workloads.sweep(seed, points=2, repeats=2, k_per_length=8),
    "analysis": lambda seed: workloads.analysis(seed, alpha_points=41, restarts=1, theory_models=("depolarizing",)),
}
SEED = 3  # not the default seed, so the invariant checks run without golden files


@pytest.fixture
def tiny(monkeypatch):
    for name, make in TINY.items():
        monkeypatch.setitem(run.WORKLOADS, name, make)
    monkeypatch.setattr(run, "SETUP_RUNS", 1)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_smoke_prints_every_metric_with_its_unit(tiny, capsys, workload, trace):
    argv = ["--workload", workload, "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(re.fullmatch(rf"{re.escape(metric['name'])} \S+ {re.escape(metric['unit'])}", line) for line in lines)


@pytest.fixture(scope="module")
def traced_twice():
    """Two traced runs of each tiny workload at one seed."""
    return {
        name: [run.benchmark(make(SEED), 0, True, None)[0] for _ in range(2)]
        for name, make in TINY.items()
    }


EXACT = [f"{name}.calls" for name in spans.SPANS] + list(spans.COUNTS)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_exact_counts_repeat(traced_twice, workload):
    first, second = traced_twice[workload]
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
    assert first["protocol.run_rb.gate_apps"] == sum(workloads.gate_apps(c) for c in TINY[workload](SEED))


@pytest.mark.parametrize("workload", sorted(TINY))
def test_self_times_fit_in_traced_wall(traced_twice, workload):
    for metrics in traced_twice[workload]:
        total = sum(metrics[f"{name}.self_s"] for name in spans.SPANS)
        assert 0.0 < total <= metrics["traced_wall_s"]


def test_workloads_isolate_their_layers(traced_twice):
    analysis = traced_twice["analysis"][0]
    assert all(analysis[f"{name}.calls"] == 0 for name in spans.SPANS if name.startswith("protocol."))
    assert analysis["theory.exact_decay.fallbacks"] == 1
    for name in ("simulate", "sweep"):
        assert traced_twice[name][0]["superop.diamond_distance.calls"] == 0
        assert traced_twice[name][0]["protocol.run_rb.calls"] > 0


_FLOAT = re.compile(r"-?\d+\.\d+(?:[eE][-+]?\d+)?")


def _perturb_last_float(text: str) -> str:
    match = list(_FLOAT.finditer(text))[-1]
    return text[:match.start()] + repr(float(match.group()) + 1e-9) + text[match.end():]


GOLDEN_DIRS = sorted(p for p in run.GOLDEN.glob("*/*") if p.is_dir())


@pytest.mark.parametrize("golden", GOLDEN_DIRS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_golden_copy_perturbed_by_1e_9_fails(tmp_path, golden):
    copy = tmp_path / golden.name
    shutil.copytree(golden, copy)
    assert checks.compare_dirs(copy, golden) == []
    for path in sorted(copy.iterdir()):
        original = path.read_text()
        path.write_text(_perturb_last_float(original))
        assert checks.compare_dirs(copy, golden), f"a 1e-9 change in {path.name} went unnoticed"
        path.write_text(original)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, *BENCHMARK["command"][1:], "--workload", "simulate", "--seed", "0", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
