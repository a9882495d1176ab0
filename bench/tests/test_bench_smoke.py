"""Smoke test of `bench/run.py` on the smallest scene.

It checks that every metric named in BENCHMARK.json is emitted with its
unit and that the outputs pass their checks.  No timing bounds: timings on a
shared machine are too noisy for a test.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def run_bench(root: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", "tiny",
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


def test_every_metric_is_emitted_with_its_unit():
    proc = run_bench(ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == PER_LAYER
    for v in result["metrics"].values():
        assert math.isfinite(v["value"])

    record = json.loads((ROOT / ".bench_work" / "tiny" / "record.json").read_text())
    for name, unit in {**END_TO_END, **PER_LAYER}.items():
        assert record["metrics"][name]["unit"] == unit
        assert f"# {name} " in proc.stdout
    assert record["metrics"]["scene.scatterers"]["value"] == 129
    assert record["metrics"]["wall_s"]["value"] > 0
    assert record["facts"]["nproc"] >= 1
    assert {s["name"] for s in record["spans"]} >= {"import", "cli", "simulator.synth"}


def test_layer_map_names_every_per_layer_metric():
    layer_map = json.loads((ROOT / "bench" / "layer_map.json").read_text())["metrics"]
    assert set(layer_map) == set(PER_LAYER)
    workloads = {w["name"] for w in SPEC["workloads"]}
    for entry in layer_map.values():
        for move in entry["moves"]:
            metric, workload = move.split("@")
            assert metric in END_TO_END and workload in workloads
        assert set(entry["unchanged_on"]) <= workloads


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
