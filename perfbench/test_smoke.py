"""Smoke tests of the benchmark itself, on tiny inputs.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402


def _run(workload, trace, seed=3, cwd=ROOT, tiny=True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)] + (["--tiny"] if tiny else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, facts_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert json.loads(facts_line)["facts"]["workload"] == workload


def test_same_seed_gives_the_same_eer():
    a, b = (json.loads(_run("matrix-N4", 1, seed=5).stdout.splitlines()[-1]) for _ in range(2))
    assert a["metrics"]["eer_pct"]["value"] == b["metrics"]["eer_pct"]["value"]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(SPEC["workloads"][0]["name"], 0, cwd=tmp_path, tiny=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_excludes_children_and_missing_names_are_absent():
    module = types.ModuleType("fake")
    module.inner = lambda: time.sleep(0.02)
    tracer = tracing.Tracer()
    tracer.wrap(module, "inner", "inner")
    tracer.wrap(module, "gone", "gone")
    tracer.begin_rep()
    tracer.span("outer", lambda: (module.inner(), module.inner()))
    tracer.unwrap()
    summary = tracer.summary(0)
    assert summary["inner"]["calls"] == 2
    outer = summary["outer"]
    assert outer["self_s"] == pytest.approx(outer["total_s"] - summary["inner"]["total_s"])
    assert outer["self_s"] < 0.01
    assert tracer.absent == ["fake.gone"]
