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
in the child), and those files are compared with its unpinned ones.

Each tree also runs FAILURES, a fixed table of failing invocations, one per
exit path, with the same scene files and output paths.  Their exit statuses,
stderr (with each tree's own path written as <tree>, for a traceback) and
the names each run leaves in the output directory, which a failing run
should leave empty, are compared; the directory is emptied after each run.

Each differing file is printed as `differs: NAME`, each differing failure as
`differs: failure NAME`; the exit status is 1 on any difference, else 0.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
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

RADAR = {"fc_hz": 9.6e9, "v_mps": 7600.0, "rho_a_m": 0.1, "rho_r_m": 1.0}
LINE = {"kind": "line", "theta_az_deg": 2.0, "length_m": 1.0}
NAME_MAX = os.pathconf(tempfile.gettempdir(), "PC_NAME_MAX")


def scene(targets: list[dict], **radar) -> dict:
    """A 64 x 16 scene config of targets, with radar's fields replaced."""
    return {"radar": dict(RADAR, **radar), "grid": {"na": 64, "nr": 16}, "targets": targets}


# name -> (argv, scene config or None): "{scene}" is the case's scene file and
# "{out}" an empty output directory.  The status each exits with is noted.
SIMULATE = ["simulate", "--scene", "{scene}", "--out-prefix", "{out}/x"]
FAILURES = {
    "usage": (["predict"], None),    # 2, with the usage
    "nan-flag": (["predict", "--theta-az", "nan"], None),    # 2
    "unknown-kind": (SIMULATE, scene([{"kind": "spiral"}])),    # 2
    "tiny-rho-a": (["predict", "--theta-az", "0", "--rho-a", "1e-300"], None),    # 2
    "evanescent": (["predict", "--theta-az", "0", "--dx", "0.001", "--orders=1:1"], None),  # 3
    "analyze-arc": (["analyze", "--scene", "{scene}"],    # 2
                    scene([{"kind": "arc", "radius_m": 1.0, "tan_lo_deg": -4.0,
                            "tan_hi_deg": 4.0}])),
    "doppler": (SIMULATE, scene([LINE], fdc_hz=1e300)),    # 3
    "aliasing": (SIMULATE, scene([dict(LINE, length_m=100.0)])),    # 4
    "out-of-memory": ([*SIMULATE, "--na", "1099511627776"], scene([LINE])),    # 2
    "long-out": (["predict", "--theta-az", "2", "--out", "{out}/" + "n" * 300], None),    # 2
    # _rgb.ppm and _azspec.csv fit the OS's name limit, _report.json does not
    "long-prefix": ([*SIMULATE[:-1], "{out}/x" + "l" * (NAME_MAX - 12)], scene([LINE])),  # 2
}


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


def fail(tree: Path, scenes: Path, out: Path) -> dict[str, tuple[int, str, list[str]]]:
    """Exit status, stderr and the names left in out of tree's CLI on each of
    FAILURES, whose scenes are written into scenes, with tree's path in
    stderr written as <tree>; out is emptied after each."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    result = {}
    for name, (argv, cfg) in FAILURES.items():
        path = scenes / f"failure-{name}.json"
        if cfg:
            path.write_text(json.dumps(cfg))
        proc = subprocess.run(
            [sys.executable, "-m", "sarcsi", *(a.format(scene=path, out=out) for a in argv)],
            cwd=tree, env=env, capture_output=True, text=True)
        left = sorted(p.name for p in out.iterdir())
        result[name] = proc.returncode, proc.stderr.replace(str(tree), "<tree>"), left
        shutil.rmtree(out)
        out.mkdir()
    return result


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
        (tmp / "failure-out").mkdir()
        parent, change = (fail(trees[side], tmp / "scenes", tmp / "failure-out")
                          for side in ab.SIDES)
    failures = [name for name in FAILURES if parent[name] != change[name]]
    for name in diff:
        print(f"differs: {name}")
    for name in failures:
        print(f"differs: failure {name}")
    print(f"same_bytes: {len(diff)} of {files} files differ", file=sys.stderr)
    print(f"same_bytes: {len(failures)} of {len(FAILURES)} failures differ", file=sys.stderr)
    return 1 if diff or failures else 0


if __name__ == "__main__":
    sys.exit(main())
