"""A/B benchmark of two revisions, in interleaved pairs of `bench/run.py`.

Usage (from inside the git checkout):

    python3 tools/ab.py PARENT CHANGE --pairs K --seconds S [--workloads W ...] --out FILE

Standard library only.  Each revision is unpacked with `git archive REV |
tar -x` into a temporary directory, so the checkout and its `.git` are left
as they are, and the directories are deleted at the end.  For every workload
(by default those of the change's BENCHMARK.json), pair i (0 .. K-1) runs
both trees' own, unmodified

    python3 bench/run.py --workload W --seed i+1 --seconds S --trace 0

one after the other: the parent first on even i, the change first on odd i.
The last stdout line of each run is its result, with the end-to-end metrics;
the run's `.bench_work/W/record.json` in that tree adds `proc.cpu_s`, the
median CPU seconds of its invocations.  FILE gets one JSON record:
the machine facts the bench printed and the host, a method note, every pair
per workload, and per metric each side's median and quartiles over the
pairs with how many pairs each side won and, for an end-to-end metric, the
change's median relative to the parent's (`change_vs_parent`), whether that
is within the metric's relative `bound` in BENCHMARK.json (`within_bound`)
and whether the runs resolve that bound (`resolved`: neither side's quartile
distance exceeds it, relative to the parent's median, or every change run
beats every parent run), the invocations attempted and failed on each side,
and each side's size: the lines of its src/sarcsi/*.py (as `cat
src/sarcsi/*.py | wc -l` counts them), those of them that are code (neither
blank, nor a docstring's, nor a comment alone) and the names in its
package's `__all__`, read with `ast` and `tokenize` without importing the
package.  Before the workloads, IMPORT_RUNS pairs of fresh interpreters run
`python3 -c "import sarcsi.cli"` with each tree's `src` on PYTHONPATH, the
parent first on even pairs, each timed from spawn to exit as the bench
times `setup_s`: FILE's `import_s` holds every pair with the host's 1-minute
load average when it started, and each side's median, quartiles and wins,
so a `setup_s` that moves can be told apart from an import that did.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path
from time import perf_counter

SIDES = ("parent", "change")
CPU = "proc.cpu_s"    # from each run's record: its result line has end-to-end metrics only
IMPORT_RUNS = 20    # pairs of fresh `import sarcsi.cli` interpreters


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def unpack(rev: str, top: str, dest: Path) -> None:
    """The tree of rev, as `git archive rev | tar -x` writes it into dest."""
    dest.mkdir()
    archive = subprocess.Popen(["git", "-C", top, "archive", rev], stdout=subprocess.PIPE)
    tar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() or tar.returncode:
        raise SystemExit(f"ab: could not unpack {rev}")


def bench(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One run of tree's bench/run.py: its result line, with CPU's value from
    the run's record added to its metrics, and its machine facts."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"ab: bench of {tree.name} on {workload} seed {seed} failed:\n"
                         f"{proc.stderr[-2000:]}")
    facts = next((json.loads(line[len("# facts "):]) for line in lines
                  if line.startswith("# facts ")), {})
    result = json.loads(lines[-1])
    record = json.loads((tree / ".bench_work" / workload / "record.json").read_text())
    result["metrics"][CPU] = record["metrics"][CPU]
    return result, facts


def import_time(tree: Path) -> float:
    """Seconds from spawn to exit of a fresh interpreter that imports
    sarcsi.cli from tree's src."""
    old = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(tree / "src") + (os.pathsep + old if old else ""))
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import sarcsi.cli"], cwd=tree, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    wall = perf_counter() - t0
    if proc.returncode:
        raise SystemExit(f"ab: import sarcsi.cli from {tree.name} failed:\n{proc.stderr[-2000:]}")
    return wall


def imports(trees: dict[str, Path]) -> dict:
    """import_s of IMPORT_RUNS alternating pairs: each pair's times and load
    average, and each side's spread and wins."""
    pairs = []
    for i in range(IMPORT_RUNS):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"first": order[0], "load_1m": os.getloadavg()[0]}
        for side in order:
            pair[side] = import_time(trees[side])
        pairs.append(pair)
    times = [{side: {"import_s": p[side]} for side in SIDES} for p in pairs]
    return {**summarize(times, {"import_s": "lower"}, {})["import_s"], "runs": pairs}


def code_lines(source: str) -> int:
    """Lines of source that hold a token other than a comment, not counting
    the lines of a module's, class's or function's docstring."""
    prose = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = node.body[0] if node.body else None
            if isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant) \
                    and isinstance(doc.value.value, str):
                prose.update(range(doc.lineno, doc.end_lineno + 1))
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
              tokenize.DEDENT, tokenize.ENDMARKER}
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in layout:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - prose)


def size(tree: Path) -> dict:
    """src_lines, code_lines and all_names of tree's package."""
    pkg = tree / "src" / "sarcsi"
    init = ast.parse((pkg / "__init__.py").read_text())
    names = next(ast.literal_eval(node.value) for node in init.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "__all__" for t in node.targets))
    files = sorted(pkg.glob("*.py"))
    return {"src_lines": sum(p.read_bytes().count(b"\n") for p in files),
            "code_lines": sum(code_lines(p.read_text()) for p in files),
            "all_names": len(names)}


def spread(xs: list[float]) -> dict:
    """Median and quartiles, as statistics.quantiles(n=4) gives them."""
    q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return {"median": med, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str], bounds: dict[str, float]) -> dict:
    """Per metric of the pairs: each side's spread and the pairs it won (a
    tie counts for neither side) and, where the metric has a bound, the
    change's relative move of the median, whether it is no worse than the
    bound and whether the runs resolve the bound: not when either side's
    quartile distance, relative to the parent's median, exceeds it, unless
    every run of the change is better than every run of the parent."""
    metrics = {}
    for name in sorted(pairs[0]["parent"]):
        kind = better.get(name, "lower")
        sign = -1 if kind == "lower" else 1
        wins = dict.fromkeys(SIDES, 0)
        for p in pairs:
            diff = sign * (p["change"][name] - p["parent"][name])
            if diff:
                wins["change" if diff > 0 else "parent"] += 1
        metrics[name] = {
            "better": kind,
            "pairs": len(pairs),
            **{side: spread([p[side][name] for p in pairs]) for side in SIDES},
            **{f"{side}_wins": wins[side] for side in SIDES},
        }
        if name in bounds:
            m = metrics[name]
            rel = m["change"]["median"] / m["parent"]["median"] - 1
            m["change_vs_parent"] = rel
            m["within_bound"] = -sign * rel <= bounds[name]
            runs = {side: [sign * p[side][name] for p in pairs] for side in SIDES}
            m["resolved"] = (min(runs["change"]) > max(runs["parent"])
                             or all(m[side]["q3"] - m[side]["q1"]
                                    <= bounds[name] * abs(m["parent"]["median"])
                                    for side in SIDES))
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workloads", nargs="+")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    top = git("rev-parse", "--show-toplevel")
    revs = {side: git("-C", top, "rev-parse", "--verify", rev + "^{commit}")
            for side, rev in zip(SIDES, (args.parent, args.change))}

    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            unpack(revs[side], top, trees[side])
        sizes = {side: size(trees[side]) for side in SIDES}
        import_s = imports(trees)
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        workloads = args.workloads or [w["name"] for w in spec["workloads"]]
        facts: dict = {}
        record: dict = {}
        for workload in workloads:
            pairs = []
            counts = {key: dict.fromkeys(SIDES, 0) for key in ("attempted", "failed")}
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair: dict = {"seed": i + 1, "first": order[0]}
                for side in order:
                    result, seen = bench(trees[side], workload, i + 1, args.seconds)
                    facts = facts or seen
                    pair[side] = {k: m["value"] for k, m in result["metrics"].items()}
                    for key in counts:
                        counts[key][side] += result[key]
                print(f"ab: {workload} pair {i + 1}/{args.pairs} wall_s "
                      + " ".join(f"{s} {pair[s].get('wall_s')}" for s in SIDES), file=sys.stderr)
                pairs.append(pair)
            record[workload] = {"pairs": pairs, "metrics": summarize(pairs, better, bounds), **counts}

    out = {
        "facts": facts,
        "host": {"machine": platform.machine(), "python": platform.python_version()},
        "size": sizes,
        "import_s": import_s,
        "notes": {
            "method": (
                f"tools/ab.py: for pair i (0-{args.pairs - 1}) both trees ran `python3 "
                f"bench/run.py --workload W --seed i+1 --seconds {args.seconds:g} --trace 0` "
                "from their own `git archive` of the revision; the parent ran first on even "
                f"i. {CPU} is read from each run's .bench_work/W/record.json. Medians, "
                "quartiles (statistics.quantiles, n=4) and wins are over the pairs; a tie "
                "counts for neither side. import_s: "
                f"{IMPORT_RUNS} alternating pairs of fresh `import sarcsi.cli` "
                "interpreters, timed from spawn to exit, with the 1-minute load average "
                "at each pair."),
            "revisions": revs,
        },
        "workloads": record,
    }
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
