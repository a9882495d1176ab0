"""Smoke test of `tools/ab.py`: one pair of the smallest bench workload.

The runner archives revisions with git, so the test commits this checkout's
package, bench and BENCHMARK.json to a throwaway repository and compares its
HEAD with itself.  No timing bounds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import sarcsi

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_one_pair_of_tiny_head_against_head(tmp_path):
    repo = tmp_path / "repo"
    skip = shutil.ignore_patterns("__pycache__", ".bench_work")
    for part in ("src", "bench"):
        shutil.copytree(ROOT / part, repo / part, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", repo)
    for git in (["init", "-q"], ["add", "-A"],
                ["-c", "user.name=ab", "-c", "user.email=ab@example.invalid",
                 "commit", "-qm", "tree"]):
        subprocess.run(["git", *git], cwd=repo, check=True, capture_output=True)

    out = tmp_path / "ab.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), "HEAD", "HEAD", "--pairs", "1",
         "--seconds", "1", "--workloads", "tiny", "--out", str(out)],
        cwd=repo, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr

    record = json.loads(out.read_text())
    assert set(record) == {"facts", "host", "notes", "size", "workloads"}
    assert record["facts"]["nproc"] >= 1 and "method" in record["notes"]
    assert record["notes"]["revisions"]["parent"] == record["notes"]["revisions"]["change"]
    # ROADMAP aim 2's measures, against `wc -l` and the imported package
    lines = int(subprocess.run(["sh", "-c", "cat src/sarcsi/*.py | wc -l"], cwd=ROOT,
                               check=True, capture_output=True, text=True).stdout)
    for side in ("parent", "change"):
        assert record["size"][side] == {"src_lines": lines, "all_names": len(sarcsi.__all__)}
    assert list(record["workloads"]) == ["tiny"]
    tiny = record["workloads"]["tiny"]
    assert [(p["seed"], p["first"]) for p in tiny["pairs"]] == [(1, "parent")]
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    assert set(tiny["metrics"]) == end_to_end | {"proc.cpu_s"}
    assert tiny["metrics"]["proc.cpu_s"]["better"] == "lower"
    for name, m in tiny["metrics"].items():
        assert m["pairs"] == 1 and m["parent_wins"] + m["change_wins"] <= 1
        for side in ("parent", "change"):
            assert m[side]["median"] == tiny["pairs"][0][side][name]
    # each end-to-end metric's move against its bound; proc.cpu_s has no bound
    for spec in SPEC["end_to_end"]:
        m = tiny["metrics"][spec["name"]]
        rel = m["change"]["median"] / m["parent"]["median"] - 1
        assert m["change_vs_parent"] == rel
        assert m["within_bound"] == (rel <= spec["bound"])
    assert "within_bound" not in tiny["metrics"]["proc.cpu_s"]
    for side in ("parent", "change"):
        assert tiny["attempted"][side] >= 1 and tiny["failed"][side] == 0
    assert not list(tmp_path.glob("repo/.bench_work"))
