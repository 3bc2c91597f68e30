"""Self-test of the benchmark harness on the tiny `smoke` workload.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench  # noqa: E402


def _bench(cwd: str, *args):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", "smoke", "--seed", "5", "--seconds", "0.1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout.strip().splitlines()


def test_smoke_emits_every_metric_with_its_unit():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        code, lines = _bench(ROOT, "--trace", trace)
        result = json.loads(lines[-1])
        assert code == 0, lines
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} \
            == {m["name"]: m["unit"] for m in spec[key]}
        assert all(isinstance(m["value"], (int, float))
                   for m in result["metrics"].values())


def test_nan_in_final_map_is_a_failed_repetition_not_a_timing():
    rep = bench.run_child("smoke", 5, inject_nan=True)
    assert not rep["ok"]
    assert not rep["checks"]["check.finite"]
    assert not rep["checks"]["check.constraint"]
    assert all(value is None for value, _ in bench.end_to_end([rep]).values())
    good = bench.run_child("smoke", 5)
    assert good["ok"]
    assert bench.end_to_end([rep, good])["run_s"][0] == good["run_s"]


def test_timeout_is_a_failed_repetition():
    rep = bench.run_child("smoke", 5, timeout=0.01)
    assert not rep["ok"] and "timed out" in rep["error"]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    code, lines = _bench(str(tmp_path), "--trace", "0")
    assert code != 0 and lines == []
