"""Byte comparison of two revisions' products on the benchmark's scenes.

Usage (from inside the git checkout):

    python3 tools/same_bytes.py PARENT CHANGE [--workloads W ...]

Standard library only.  Both revisions are unpacked as tools/ab.py unpacks
them (`git archive REV | tar -x` into a temporary directory, deleted at the
end).  Each tree's own `python -m sarcsi` then writes, by default, the
39-file set:

- seeds 1-3 of simulate-mixed and simulate-sparse-wide, each under
  `--norm linear` and `--norm clip_p999`: the PPM, `_azspec.csv` and report
  of every run (36 files);
- seeds 1-3 of analyze-collinear: the analysis JSON (3 files).

The scenes and the analyze arguments come from the change's
bench/workloads.py, which is only read.  The change also runs seed 1 of each
simulate workload, under both norms, pinned to one CPU (os.sched_setaffinity
in the child), and those files are compared with its unpinned ones.  Each
differing file is printed; the exit status is 1 on any difference, else 0.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import ab

WORKLOADS = ("simulate-mixed", "simulate-sparse-wide", "analyze-collinear")
SEEDS = (1, 2, 3)
NORMS = ("linear", "clip_p999")
PIN = ("import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
       "from sarcsi.cli import main; sys.exit(main(sys.argv[1:]))")


def load_workloads(tree: Path):
    """tree's bench/workloads.py, as a module."""
    spec = importlib.util.spec_from_file_location("workloads", tree / "bench" / "workloads.py")
    module = sys.modules["workloads"] = importlib.util.module_from_spec(spec)    # its dataclasses
    spec.loader.exec_module(module)
    return module


def runs(workloads, names: list[str], seeds, scenes: Path) -> dict[str, tuple]:
    """(workload, scene, norm) of every run, keyed by the prefix of its
    outputs, norm None for analyze; each scene is written into scenes."""
    plan = {}
    for name in names:
        w = workloads.WORKLOADS[name]
        for seed in seeds:
            scene = scenes / f"{name}-{seed}.json"
            workloads.write_scene(w, seed, scene)
            for norm in NORMS if w.command == "simulate" else (None,):
                plan[f"{name}-{seed}" + (f"-{norm}" if norm else "")] = w, scene, norm
    return plan


def produce(tree: Path, workloads, plan: dict, dest: Path, launch: list[str]) -> None:
    """Run tree's CLI (launch: `-m sarcsi` or the one-CPU pin) on the bench's
    arguments, with --norm set last, once per entry of plan, into dest."""
    dest.mkdir()
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for prefix, (w, scene, norm) in plan.items():
        argv = workloads.cli_args(w, str(scene), str(dest / prefix))
        if norm:
            argv += ["--norm", norm]    # argparse keeps the last --norm
        proc = subprocess.run([sys.executable, *launch, *argv], cwd=tree, env=env,
                              capture_output=True, text=True)
        if proc.returncode:
            raise SystemExit(f"same_bytes: {tree.name} failed on {prefix}:\n"
                             f"{proc.stderr[-2000:]}")


def differing(a: Path, b: Path, names=None) -> list[str]:
    """The files, of names or else of those in either directory, whose bytes
    differ between a and b or that one of them lacks."""
    if names is None:
        names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    return [n for n in names if not ((a / n).is_file() and (b / n).is_file()
                                     and (a / n).read_bytes() == (b / n).read_bytes())]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    args = ap.parse_args(argv)
    top = ab.git("rev-parse", "--show-toplevel")
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        tmp = Path(tmp)
        trees = {side: tmp / side for side in ab.SIDES}
        for side, rev in zip(ab.SIDES, (args.parent, args.change)):
            ab.unpack(rev, top, trees[side])
        (tmp / "scenes").mkdir()
        workloads = load_workloads(trees["change"])
        plan = runs(workloads, args.workloads, SEEDS, tmp / "scenes")
        for side in ab.SIDES:
            produce(trees[side], workloads, plan, tmp / f"{side}-out", ["-m", "sarcsi"])
        diff = differing(tmp / "parent-out", tmp / "change-out")
        simulate = [n for n in args.workloads if workloads.WORKLOADS[n].command == "simulate"]
        pinned = runs(workloads, simulate, SEEDS[:1], tmp / "scenes")
        if pinned:
            produce(trees["change"], workloads, pinned, tmp / "one-cpu", ["-c", PIN])
            names = sorted(p.name for p in (tmp / "one-cpu").iterdir())
            diff += [f"{n} (change on one CPU)"
                     for n in differing(tmp / "change-out", tmp / "one-cpu", names)]
        files = sum(1 for _ in (tmp / "change-out").iterdir())
    for name in diff:
        print(f"differs: {name}")
    print(f"same_bytes: {len(diff)} of {files} files differ", file=sys.stderr)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
