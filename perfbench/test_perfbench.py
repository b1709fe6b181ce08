"""The benchmark's own tests: tiny-size runs of every workload.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
Each run is a subprocess of ``run.py`` exactly as the benchmark is
invoked, only with ``--size tiny`` and a short ``--seconds``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from tracer import LayerTracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args: str, cwd: Path = ROOT, env: dict | None = None):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=150,
    )


_RUNS: dict[tuple[str, int], tuple[str, dict]] = {}

#: A relay tops its buffer up to n coded *blocks*, not n rank: when the
#: n blocks it holds are linearly dependent (about 1 in 255 segments
#: per relay), it never asks for more and its leaves exhaust their
#: retries.  The benchmark counts those fetches as failed.
RELAY_RANK_DEFECT = pytest.mark.xfail(
    reason="RelayUplink stops at n buffered blocks even below full rank",
    strict=False,
)


def tiny_run(workload: str, trace: int) -> tuple[str, dict]:
    """One tiny-size run per (workload, trace), shared by the tests."""
    if (workload, trace) not in _RUNS:
        _RUNS[workload, trace] = _tiny_run(workload, trace)
    return _RUNS[workload, trace]


def _tiny_run(workload: str, trace: int) -> tuple[str, dict]:
    proc = bench(
        "--workload", workload,
        "--seed", "5",
        "--seconds", "2",
        "--trace", str(trace),
        "--size", "tiny",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(stdout: str, result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert "byte mismatches 0" in stdout
    units = {metric["name"]: metric["unit"] for metric in declared}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], float)
        assert f"  {name} " in stdout, f"{name} missing from the report"


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    stdout, result = tiny_run(workload, 0)
    assert_metrics(stdout, result, SPEC["end_to_end"])
    assert result["attempted"] >= 100
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "fingerprint: " in stdout


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_covers_the_wall_and_reproduces_the_bytes(workload):
    stdout, result = tiny_run(workload, 1)
    assert_metrics(stdout, result, SPEC["per_layer"])
    assert result["metrics"]["trace.coverage"]["value"] >= 0.9
    digest_line = next(
        line for line in stdout.splitlines() if line.startswith("digest:")
    )
    words = digest_line.split()
    assert words[2] == words[4], digest_line


@pytest.mark.parametrize(
    "workload",
    [
        pytest.param(w, marks=RELAY_RANK_DEFECT) if w == "lossy_relay" else w
        for w in WORKLOADS
    ],
)
def test_no_fetch_fails(workload):
    _, result = tiny_run(workload, 0)
    assert result["failed"] == 0


def test_refuses_a_pinned_backend():
    env = dict(os.environ, REPRO_GF_BACKEND="table")
    proc = bench(
        "--workload", "bulk_fanout", "--seed", "1", "--seconds", "1",
        "--trace", "0", "--size", "tiny", env=env,
    )
    assert proc.returncode != 0
    assert "REPRO_GF_BACKEND" in proc.stderr
    assert '"metrics"' not in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = bench(
        "--workload", "bulk_fanout", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_excludes_nested_spans(monkeypatch):
    import tracer as tracer_module

    ticks = iter(range(0, 1000, 10))  # every clock read advances 10 ns
    monkeypatch.setattr(tracer_module, "perf_counter_ns", lambda: next(ticks))
    tracer = LayerTracer()
    inner = tracer.timed("inner", lambda: None)

    def outer():
        inner()
        inner()

    def top():
        tracer.timed("outer", outer)()  # reads 10 and 60

    tracer.timed("top", top)()  # reads 0 and 70
    assert dict(tracer.self_ns) == {"inner": 20, "outer": 30, "top": 20}
    assert sum(tracer.self_ns.values()) == 70


def test_uninstall_restores_every_original():
    import types

    class Owner:
        def method(self):
            return "original"

    class Child(Owner):
        pass

    module = types.SimpleNamespace(function=lambda: "original")
    tracer = LayerTracer()
    tracer.patch(Child, "method", lambda fn: tracer.timed("m", fn))
    tracer.patch(module, "function", lambda fn: tracer.timed("f", fn))
    assert Child().method() == "original"
    assert module.function() == "original"
    assert "method" in vars(Child)
    tracer.uninstall()
    assert "method" not in vars(Child)
    assert Child.method is Owner.method
    assert module.function() == "original"
    assert set(tracer.self_ns) == {"m", "f"}
