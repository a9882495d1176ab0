"""Tests of `tools/same_bytes.py` on the bench's `tiny` workload.

The tool archives revisions with git, so each test commits this checkout's
package, bench and BENCHMARK.json to a throwaway repository.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
GIT_USER = ["-c", "user.name=sb", "-c", "user.email=sb@example.invalid"]


def commit(repo: Path) -> None:
    for git in (["add", "-A"], [*GIT_USER, "commit", "-qm", "tree"]):
        subprocess.run(["git", *git], cwd=repo, check=True, capture_output=True)


def tiny_repo(tmp_path: Path) -> Path:
    repo = tmp_path / "repo"
    skip = shutil.ignore_patterns("__pycache__", ".bench_work")
    for part in ("src", "bench"):
        shutil.copytree(ROOT / part, repo / part, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", repo)
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    commit(repo)
    return repo


def same_bytes(repo: Path, parent: str, change: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "same_bytes.py"), parent, change,
         "--workloads", "tiny"],
        cwd=repo, capture_output=True, text=True, timeout=300)


def test_tiny_head_against_head_is_the_same(tmp_path):
    # seeds 1-3 under both norms are 18 files; the one-CPU runs of seed 1
    # match them too
    proc = same_bytes(tiny_repo(tmp_path), "HEAD", "HEAD")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "same_bytes: 0 of 18 files differ\n"


def test_one_flipped_byte_is_reported(tmp_path):
    # the change writes a PPM whose maximum value reads 254, one byte of
    # every PPM: each of the six is printed, and nothing else
    repo = tiny_repo(tmp_path)
    csi = repo / "src" / "sarcsi" / "csi.py"
    text = csi.read_text()
    assert text.count("\\n255\\n") == 1
    csi.write_text(text.replace("\\n255\\n", "\\n254\\n"))
    commit(repo)
    proc = same_bytes(repo, "HEAD~", "HEAD")
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == [f"differs: tiny-{seed}-{norm}_rgb.ppm"
                                        for seed in (1, 2, 3) for norm in ("clip_p999", "linear")]
    assert proc.stderr == "same_bytes: 6 of 18 files differ\n"
