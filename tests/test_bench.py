"""The bench harness, tools/bench.py, on stub shapes: its exit code, its
label store, and what its pinned pass leaves behind when a shape raises."""

import importlib.util
import json
import os
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

_SPEC = importlib.util.spec_from_file_location("bench", Path(__file__).resolve().parent.parent / "tools" / "bench.py")
bench = sys.modules["bench"] = importlib.util.module_from_spec(_SPEC)  # dataclasses look their module up there
_SPEC.loader.exec_module(bench)


def _work(x):
    time.sleep(0.001)  # a stage's seconds divide its work
    return x


def _stub(call):
    """A shape of one case that passes `call(seed)` through its one stage,
    `owner.work`; returns (shape, owner)."""
    owner = SimpleNamespace(work=_work)
    stages = {"work": bench.Stage(owner, "work", "items", lambda result, *args: 1)}
    case = bench.Case(lambda seed: owner.work(call(seed)), repr, stages, {})
    return (lambda: {"only": case}), owner


@pytest.fixture
def shapes(monkeypatch, tmp_path):
    """Install stub shapes in place of the real ones, with BENCH_*.json kept
    in tmp_path; the test fails if it leaves this process on other CPUs."""
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    usable = os.sched_getaffinity(0)
    yield lambda **stubs: monkeypatch.setattr(bench, "SHAPES", stubs)
    left = os.sched_getaffinity(0)
    os.sched_setaffinity(0, usable)
    assert left == usable


def test_exits_nonzero_when_the_passes_differ(shapes, capsys):
    calls = iter(range(10))
    shapes(stub=_stub(lambda seed: next(calls))[0])
    assert bench.main(["stub", "--repeats", "2"]) == 1
    assert "stub/only" in capsys.readouterr().err
    shapes(stub=_stub(lambda seed: seed)[0])
    assert bench.main(["stub", "--repeats", "2"]) == 0


def test_label_keeps_the_labels_already_stored(shapes, tmp_path):
    shapes(stub=_stub(lambda seed: seed)[0])
    path = tmp_path / "BENCH_stub.json"
    parent = {"cases": {"only": {"sha1": "stored"}}}
    path.write_text(json.dumps({"parent": parent}))
    assert bench.main(["stub", "--repeats", "3", "--label", "change"]) == 0
    stored = json.loads(path.read_text())
    assert stored["parent"] == parent
    case = stored["change"]["cases"]["only"]
    assert case["sha1"] == case["one_cpu_sha1"] == repr([0, 1, 2])
    assert case["one_cpu_items"] == 3


def test_a_raising_pinned_pass_restores_the_cpus_and_the_stages(shapes):
    usable = os.sched_getaffinity(0)
    seen = []

    def call(seed):
        seen.append((os.sched_getaffinity(0), owner.work))
        if len(seen) == 2:  # the pinned pass's first call
            raise RuntimeError("stub shape failed")
        return seed

    shape, owner = _stub(call)
    shapes(stub=shape)
    with pytest.raises(RuntimeError, match="stub shape failed"):
        bench.main(["stub", "--repeats", "1"])
    assert seen[1][0] == {min(usable)} and seen[1][1] is not _work
    assert os.sched_getaffinity(0) == usable
    assert owner.work is _work
