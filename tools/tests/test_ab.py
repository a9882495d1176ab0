"""Smoke test of `tools/ab.py`: one pair of the smallest bench workload.

The runner archives revisions with git, so the test commits this checkout's
package, bench and BENCHMARK.json to a throwaway repository and compares its
HEAD with itself.  No timing bounds.
"""

import importlib.util
import io
import json
import shutil
import statistics
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import sarcsi

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def code_lines_by_tokens(source: str) -> int:
    """Lines holding a token other than a comment, by tokenize alone: a
    string that stands alone between statement boundaries is a docstring."""
    skip = {tokenize.COMMENT, tokenize.NL}
    toks = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
            if t.type not in skip]
    layout = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}
    code = set()
    for i, t in enumerate(toks):
        alone = (t.type == tokenize.STRING and (i == 0 or toks[i - 1].type in layout)
                 and toks[i + 1].type == tokenize.NEWLINE)
        if not alone and t.type not in layout | {tokenize.ENDMARKER}:
            code.update(range(t.start[0], t.end[0] + 1))
    return len(code)


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
    assert set(record) == {"facts", "host", "import_s", "notes", "size", "workloads"}
    assert record["facts"]["nproc"] >= 1 and "method" in record["notes"]
    assert record["notes"]["revisions"]["parent"] == record["notes"]["revisions"]["change"]
    # ROADMAP aim 2's measures, against `wc -l`, a tokenize-only count and the
    # imported package
    lines = int(subprocess.run(["sh", "-c", "cat src/sarcsi/*.py | wc -l"], cwd=ROOT,
                               check=True, capture_output=True, text=True).stdout)
    code = sum(code_lines_by_tokens(p.read_text()) for p in (ROOT / "src" / "sarcsi").glob("*.py"))
    assert code < lines
    for side in ("parent", "change"):
        assert record["size"][side] == {"src_lines": lines, "code_lines": code,
                                        "all_names": len(sarcsi.__all__)}
    # the alternating pairs of fresh `import sarcsi.cli` interpreters
    imports = record["import_s"]
    runs = imports["runs"]
    assert imports["pairs"] == len(runs) == ab.IMPORT_RUNS and imports["better"] == "lower"
    assert [r["first"] for r in runs] == ["parent", "change"] * (ab.IMPORT_RUNS // 2)
    assert all(set(r) == {"first", "load_1m", "parent", "change"} for r in runs)
    assert all(r["load_1m"] >= 0 and r["parent"] > 0 and r["change"] > 0 for r in runs)
    for side in ("parent", "change"):
        times = [r[side] for r in runs]
        assert imports[side]["median"] == pytest.approx(statistics.median(times))
        assert min(times) <= imports[side]["q1"] <= imports[side]["q3"] <= max(times)
    assert imports["parent_wins"] + imports["change_wins"] <= ab.IMPORT_RUNS
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
        assert m["resolved"]    # one pair: no spread
    assert not {"within_bound", "resolved"} & set(tiny["metrics"]["proc.cpu_s"])
    for side in ("parent", "change"):
        assert tiny["attempted"][side] >= 1 and tiny["failed"][side] == 0
    assert not list(tmp_path.glob("repo/.bench_work"))


@pytest.mark.parametrize("better, parent, change, resolved", [
    # both sides' quartiles about 2.5% of the parent's median apart, within 5%
    ("lower", [1.00, 1.01, 0.99, 1.00, 1.02, 0.98], [1.01, 1.00, 1.03, 0.99, 1.02, 1.01], True),
    # the parent's quartiles are a third of its median apart: a 5% bound
    # cannot be told
    ("lower", [0.80, 1.20, 0.90, 1.10, 1.00, 1.30], [1.00, 1.01, 0.99, 1.00, 1.02, 0.98], False),
    # as wide, but every change run beats every parent run
    ("lower", [1.40, 1.20, 1.30, 1.10, 1.50, 1.25], [1.00, 0.70, 0.90, 0.80, 1.05, 0.75], True),
    ("higher", [1.00, 0.70, 0.90, 0.80, 1.05, 0.75], [1.40, 1.20, 1.30, 1.10, 1.50, 1.25], True),
    ("higher", [1.40, 1.20, 1.30, 1.10, 1.50, 1.25], [1.00, 0.70, 0.90, 0.80, 1.05, 0.75], False),
], ids=["tight", "wide", "all_better", "all_better_higher", "all_worse_higher"])
def test_summarize_resolves_a_bound_by_spread_or_by_every_run(better, parent, change, resolved):
    pairs = [{"parent": {"m": a, "cpu": 1.0}, "change": {"m": b, "cpu": 1.0}}
             for a, b in zip(parent, change)]
    metrics = ab.summarize(pairs, {"m": better}, {"m": 0.05})
    assert metrics["m"]["resolved"] is resolved
    assert "resolved" not in metrics["cpu"]
