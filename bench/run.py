"""Benchmark of the `sarcsi` command line, end to end and per layer.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Standard library only.  It runs the real CLI (`python -m sarcsi` with
`src/` on PYTHONPATH) as a closed loop: one client, one child process at a
time, the next started only after the last has exited.  Each child keeps the
default BLAS thread count.  Per run:

1. The workload's scene is generated from the seed (`workloads.py`).
2. `oracle.py` computes the reference outputs and the machine facts, once,
   outside the timed section.  It also warms up byte-code and disk caches.
3. `setup_s`: a fresh interpreter runs `import sarcsi.cli`, SETUP_RUNS
   times; the median is reported.
4. With `--trace 1`, TRACE_RUNS traced runs (`trace_cli.py`) give the
   per-layer metrics, medians over the runs.
5. Untraced invocations repeat until `--seconds` is used up (at least
   MIN_INVOCATIONS).  Each is timed from spawn to exit; max RSS and CPU time
   come from `os.wait4` for that child only.

Every invocation's outputs are checked (see `check_simulate` and
`check_analyze`); a nonzero exit, a traceback on stderr, a missing or
malformed output or a failed check makes it a failure.  The last line of
stdout is the JSON result; the lines before it print every metric with its
quartiles and sample count, and the machine facts.  The full record, with
the spans of the traced runs, is written to `.bench_work/<workload>/`.
`layer_map.json` says which end-to-end metric each per-layer metric should
move, on which workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, cli_args, write_scene

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 3
TRACE_RUNS = 3
MIN_INVOCATIONS = 3
RUN_LIMIT_S = 170.0
# ROADMAP error budget for any synthesis path: max|dG| / max|G| <= 1e-10.
# Then |d|G|^2| <= (2 eps + eps^2) max|G|^2 per sample, summed over the
# samples that make up each checked quantity.
EPS_G = 1e-10
PARSEVAL_RTOL = 1e-9
LAYERS = ("import", "cli", "scene", "dispersion", "simulator", "csi", "analysis")
MIB = 2**20


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


class Runner:
    """Starts one child at a time and reaps it with its own resource usage."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        src = str(ROOT / "src")
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))

    def run(self, argv: list[str], tag: str) -> dict:
        timeout = self.deadline - perf_counter()
        if timeout <= 0:
            raise BenchError(f"run limit of {RUN_LIMIT_S:.0f} s reached before {tag}")
        out_path, err_path = self.work / f"{tag}.out", self.work / f"{tag}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = err_path.read_text(errors="replace")
        return {
            "rc": proc.returncode,
            "wall_s": wall,
            "rss_mib": ru.ru_maxrss / 1024,
            "cpu_s": ru.ru_utime + ru.ru_stime,
            "stderr": stderr,
            "timed_out": perf_counter() >= self.deadline,
        }


def _float(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"non-finite value {text!r}")
    return v


def check_simulate(prefix: Path, ref: dict, grid: tuple[int, int]) -> list[str]:
    """Compare one `simulate` product with the direct-sum reference.

    Power marginal and total energy must sit within the error budget; band
    energies must add up to the total (Parseval); the PPM header must give
    the grid.  PPM pixels and per-band energies are not compared with fixed
    values: a band-edge change moves them legitimately.
    """
    na, nr = grid
    errors = []
    g2 = ref["g_max"] ** 2 * (2 * EPS_G + EPS_G**2)

    ppm = prefix.with_name(prefix.name + "_rgb.ppm").read_bytes()
    head = ppm.split(b"\n", 3)
    if len(head) != 4 or head[0] != b"P6" or head[2] != b"255":
        errors.append("PPM header malformed")
    elif head[1] != f"{na} {nr}".encode():
        errors.append(f"PPM size {head[1]!r}, expected {na} {nr}")
    elif len(head[3]) != na * nr * 3:
        errors.append(f"PPM body has {len(head[3])} bytes, expected {na * nr * 3}")

    rows = prefix.with_name(prefix.name + "_azspec.csv").read_text().splitlines()
    if rows[:1] != ["f_a_hz,power"] or len(rows) != na + 1:
        errors.append(f"azspec CSV has {len(rows)} lines, expected header + {na}")
    else:
        bin_hz = ref["f_a_hz"][1] - ref["f_a_hz"][0]
        worst_f = worst_p = 0.0
        for row, f_ref, p_ref in zip(rows[1:], ref["f_a_hz"], ref["power"]):
            f, p = (_float(v) for v in row.split(","))
            worst_f = max(worst_f, abs(f - f_ref))
            worst_p = max(worst_p, abs(p - p_ref))
        if worst_f > 1e-6 * bin_hz:
            errors.append(f"azspec frequency off by {worst_f:.3g} Hz")
        if worst_p > nr * g2:
            errors.append(f"azspec power off by {worst_p:.3g}, budget {nr * g2:.3g}")

    report = json.loads(prefix.with_name(prefix.name + "_report.json").read_text())
    total = _float(str(report["total_energy"]))
    if abs(total - ref["total_energy"]) > na * nr * g2:
        errors.append(f"total_energy {total!r} vs reference {ref['total_energy']!r}")
    bands = [_float(str(report["band_energy"][b])) for b in ("red", "green", "blue")]
    if min(bands) < 0 or abs(sum(bands) - total) > PARSEVAL_RTOL * total:
        errors.append(f"band energies {bands} do not sum to total {total!r}")
    if report["grid"] != {"na": na, "nr": nr}:
        errors.append(f"report grid {report['grid']}")
    return errors


def check_analyze(path: Path, ref: dict) -> list[str]:
    """`analyze` must pass and match exactly the orders the model predicts."""
    report = json.loads(path.read_text())
    errors = []
    if report.get("passed") is not True:
        errors.append("analyze report did not pass")
    if len(report["targets"]) != len(ref["targets"]):
        return errors + [f"{len(report['targets'])} targets, expected {len(ref['targets'])}"]
    for got, want in zip(report["targets"], ref["targets"]):
        ms = sorted(m["m"] for m in got["matches"])
        if ms != sorted(want["orders"]):
            errors.append(f"{want['label']}: matched orders {ms}, predicted {want['orders']}")
            continue
        f_want = dict(zip(want["orders"], want["f_d_hz"]))
        for m in got["matches"]:
            if abs(m["f_pred"] - f_want[m["m"]]) > 1e-6 * ref["bin_hz"]:
                errors.append(f"{want['label']}: m={m['m']} predicted at {m['f_pred']!r}")
    return errors


class Outputs:
    """Checks each invocation's products and that they repeat byte for byte."""

    def __init__(self, workload, prefix: Path, ref: dict):
        self.w = workload
        self.prefix = prefix
        self.ref = ref
        self.digest = None

    def files(self) -> list[Path]:
        suffixes = (["_rgb.ppm", "_azspec.csv", "_report.json"]
                    if self.w.command == "simulate" else ["_analysis.json"])
        return [self.prefix.with_name(self.prefix.name + s) for s in suffixes]

    def check(self, res: dict) -> list[str]:
        if res["timed_out"]:
            return ["timed out"]
        if res["rc"] != 0:
            return [f"exit code {res['rc']}"]
        if "Traceback (most recent call last)" in res["stderr"]:
            return ["traceback on stderr"]
        try:
            if self.w.command == "simulate":
                errors = check_simulate(self.prefix, self.ref["simulate"], self.w.grid)
            else:
                errors = check_analyze(self.files()[0], self.ref["analyze"])
            h = hashlib.sha256()
            for f in self.files():
                h.update(f.read_bytes())
        except (OSError, ValueError, KeyError, TypeError, IndexError) as e:
            return [f"missing or malformed output: {type(e).__name__}: {e}"]
        if self.digest is None:
            self.digest = h.hexdigest()
        elif h.hexdigest() != self.digest:
            errors.append("outputs differ from the first run of this seed")
        return errors

    def clear(self) -> None:
        for f in self.files():
            f.unlink(missing_ok=True)


def layer_metrics(trace: dict, report: dict | None) -> dict[str, float]:
    """Per-layer numbers of one traced run."""
    spans = trace["spans"]
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    self_t = {s["id"]: dur[s["id"]] - child_time.get(s["id"], 0.0) for s in spans}

    def total(name: str) -> float:
        return sum(dur[s["id"]] for s in spans if s["name"] == name)

    def peak(name: str) -> float:
        return max((s["peak_mib"] or 0.0 for s in spans if s["name"] == name), default=0.0)

    traced_total = sum(dur[s["id"]] for s in spans if s["parent"] is None)
    c = trace["counts"]
    synth_s = total("simulator.synth")
    m = {
        "scene.parse_s": total("scene.parse"),
        "scene.build_s": total("scene.build"),
        "scene.scatterers": c["scatterers"],
        "scene.scatterers.collinear": c["scatterers_collinear"],
        "scene.scatterers.curve": c["scatterers_curve"],
        "dispersion.predict_s": total("dispersion.predict"),
        "simulator.synth_s": synth_s,
        "simulator.synth_peak_mb": peak("simulator.synth"),
        "simulator.terms": c["terms"],
        "simulator.terms_per_s": c["terms"] / synth_s if synth_s else 0.0,
        "simulator.exp_count": c["exp_count"],
        "simulator.temp_mb": c["temp_bytes"] / MIB,
        "simulator.azpower_s": total("simulator.azpower"),
        "simulator.azcsv_s": total("simulator.azcsv"),
        "csi.split_s": total("csi.split"),
        "csi.split_peak_mb": peak("csi.split"),
        "csi.fft_points": c["fft_points"],
        "csi.compose_s": total("csi.compose"),
        "csi.compose_peak_mb": peak("csi.compose"),
        "csi.encode_s": total("csi.encode"),
        "analysis.verify_s": total("analysis.verify"),
        "analysis.self_s": sum(self_t[s["id"]] for s in spans
                               if s["name"] == "analysis.verify"),
        "cli.write_s": total("cli.write"),
        "cli.write_bytes": c["write_bytes"],
        "trace.cli_s": total("cli"),
    }
    for layer in LAYERS:
        own = sum(self_t[s["id"]] for s in spans if s["name"].split(".")[0] == layer)
        m[f"{layer}.share"] = own / traced_total
    detections = matches = predictions = 0
    for t in (report or {}).get("targets", []):
        detections += len(t["detected"])
        matches += len(t["matches"])
        predictions += len(t["matches"]) + t["unmatched_predictions"]
    m["analysis.detections"] = detections
    m["analysis.matches"] = matches
    m["analysis.match_ratio"] = matches / predictions if predictions else 0.0
    return m


def run(args: argparse.Namespace) -> dict:
    w = WORKLOADS[args.workload]
    deadline = perf_counter() + RUN_LIMIT_S
    for needed in (ROOT / "src" / "sarcsi" / "cli.py", ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            raise BenchError(f"{needed.relative_to(ROOT)} not found: run from a source checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    work = ROOT / ".bench_work" / w.name
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    scene_path = work / "scene.json"
    scene_cfg = write_scene(w, args.seed, scene_path)
    prefix = work / "out" / "run"
    cli_argv = ["-m", "sarcsi"] + cli_args(w, str(scene_path), str(prefix))
    runner = Runner(work, deadline)

    ref_path = work / "reference.json"
    res = runner.run([str(BENCH / "oracle.py"), str(scene_path), w.command, str(ref_path)],
                     "oracle")
    if res["rc"] != 0:
        raise BenchError(f"reference computation failed:\n{res['stderr'][-2000:]}")
    ref = json.loads(ref_path.read_text())

    setup = []
    for i in range(SETUP_RUNS):
        res = runner.run(["-c", "import sarcsi.cli"], "setup")
        if res["rc"] != 0:
            raise BenchError(f"import sarcsi.cli failed:\n{res['stderr'][-2000:]}")
        setup.append(res["wall_s"])

    outputs = Outputs(w, prefix, ref)
    attempted = failed = 0
    failures: list[str] = []

    def note(kind: str, res: dict) -> bool:
        nonlocal attempted, failed
        attempted += 1
        errors = outputs.check(res)
        outputs.clear()
        if errors:
            failed += 1
            failures.append(f"{kind} {attempted}: " + "; ".join(errors))
        return not errors

    traces = []
    t_start = perf_counter()
    if args.trace:
        report_path = outputs.files()[0]
        for i in range(TRACE_RUNS):
            spans_path = work / f"spans_{i}.json"
            res = runner.run([str(BENCH / "trace_cli.py"), str(i), str(spans_path), "--"]
                             + cli_argv[2:], "traced")
            report = (json.loads(report_path.read_text())
                      if w.command == "analyze" and report_path.is_file() else None)
            if note("traced", res):
                traces.append((json.loads(spans_path.read_text()), report))

    done, samples = [], []
    while perf_counter() < deadline:
        res = runner.run(cli_argv, "cli")
        done.append(res)
        if note("invocation", res):
            samples.append(res)
        # Failed invocations are timed only when none succeeded; the result
        # then says correct: false.
        timed = samples or done
        elapsed = perf_counter() - t_start
        if res["timed_out"] or (
            len(timed) >= MIN_INVOCATIONS
            and elapsed + statistics.median(r["wall_s"] for r in timed) > args.seconds
        ):
            break
    samples = samples or done
    if not samples:
        raise BenchError(f"run limit of {RUN_LIMIT_S:.0f} s reached before any invocation")

    metrics: dict[str, dict] = {}

    def put(name: str, values: list[float]) -> None:
        q1, med, q3 = quartiles(values)
        metrics[name] = {"value": med, "q1": q1, "q3": q3, "n": len(values)}

    put("wall_s", [s["wall_s"] for s in samples])
    put("peak_rss_mb", [s["rss_mib"] for s in samples])
    put("setup_s", setup)
    metrics["fail_frac"] = {"value": failed / attempted, "q1": None, "q3": None,
                            "n": attempted, "unit": "ratio"}
    put("proc.cpu_s", [s["cpu_s"] for s in samples])
    put("proc.cpu_util", [s["cpu_s"] / s["wall_s"] for s in samples])
    if traces:
        per_run = [layer_metrics(t, r) for t, r in traces]
        for name in per_run[0]:
            put(name, [m[name] for m in per_run])
        cli_s = metrics.pop("trace.cli_s")["value"]
        metrics["trace.overhead_s"] = {
            "value": cli_s + metrics["setup_s"]["value"] - metrics["wall_s"]["value"],
            "q1": None, "q3": None, "n": len(traces)}

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    listed = spec["end_to_end"] + (spec["per_layer"] if args.trace else [])
    for m in listed:
        if m["name"] not in metrics:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]]["unit"] = m["unit"]
    return {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scene": scene_cfg,
        "facts": ref["facts"],
        "failures": failures,
        "metrics": metrics,
        "invocations": [{k: r[k] for k in ("wall_s", "rss_mib", "cpu_s")} for r in samples],
        "spans": [s for t, _ in traces for s in t["spans"]],
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
                        for m in wanted},
        },
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        record = run(args)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    with open(ROOT / ".bench_work" / args.workload / "record.json", "w") as f:
        json.dump(record, f, indent=1)

    print(f"# workload {record['workload']} seed {record['seed']} "
          f"seconds {record['seconds']} trace {record['trace']}")
    print("# facts " + json.dumps(record["facts"], sort_keys=True))
    for line in record["failures"]:
        print("# FAILED " + line)
    for name, m in record["metrics"].items():
        spread = "" if m["q1"] is None else f"  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}"
        print(f"# {name:28s} {m['value']:.6g} {m.get('unit', '')}{spread}  n={m['n']}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
