"""Run one `sarcsi` command in-process with a span around each call into a layer.

Usage: python3 trace_cli.py RUN_ID SPANS_OUT -- <arguments of `python -m sarcsi`>

Spans are recorded from here, not from inside the package: the public
functions that `sarcsi.cli` (and `sarcsi.analysis`, for its synthesis call)
looks up by name are replaced with timing wrappers, the writes of the output
files are timed through `pathlib.Path`, and then the real `cli.main` runs.
A span is (name, start, end, parent, run id), plus the tracemalloc peak
above the span's starting memory and the work counts computed from the
array sizes the wrapped call saw.  Spans stay in memory and are written to
SPANS_OUT once the command has returned.
"""

from __future__ import annotations

import functools
import json
import pathlib
import sys
import tracemalloc
from time import perf_counter

MIB = 2**20
COLLINEAR = ("line", "array", "segment3d")
CURVE = ("arc", "catenary")

# (module, function) -> span name.  The span name's first part is the layer.
TRACED = {
    ("sarcsi.cli", "parse_scene_config"): "scene.parse",
    ("sarcsi.cli", "build_scenes"): "scene.build",
    ("sarcsi.cli", "generate_scene"): "scene.build",
    ("sarcsi.cli", "merge_scenes"): "scene.build",
    ("sarcsi.cli", "orders_in_window"): "dispersion.predict",
    ("sarcsi.cli", "effective_squint_3d"): "dispersion.predict",
    ("sarcsi.cli", "classify_hue"): "dispersion.predict",
    ("sarcsi.cli", "synth_spectrum"): "simulator.synth",
    ("sarcsi.cli", "azimuth_power_spectrum"): "simulator.azpower",
    ("sarcsi.cli", "azimuth_spectrum_csv"): "simulator.azcsv",
    ("sarcsi.cli", "split_subbands"): "csi.split",
    ("sarcsi.cli", "compose_rgb"): "csi.compose",
    ("sarcsi.cli", "encode_ppm"): "csi.encode",
    ("sarcsi.cli", "verify_scene_against_model"): "analysis.verify",
    ("sarcsi.cli", "merge_reports"): "analysis.report",
    ("sarcsi.cli", "report_to_json"): "analysis.report",
    ("sarcsi.analysis", "synth_spectrum"): "simulator.synth",
}


class Tracer:
    """In-memory span recorder with nested tracemalloc peaks."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.counts = {"terms": 0, "exp_count": 0, "temp_bytes": 0, "fft_points": 0,
                       "scatterers": 0, "scatterers_collinear": 0,
                       "scatterers_curve": 0, "write_bytes": 0}

    def begin(self, name: str) -> dict:
        tracing = tracemalloc.is_tracing()
        if tracing:
            # A child resets the peak counter, so fold the parent's peak so far first.
            if self.stack:
                top = self.stack[-1]
                top["_peak"] = max(top["_peak"], tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
        span = {"id": len(self.spans), "name": name, "start": perf_counter(),
                "end": None, "parent": self.stack[-1]["id"] if self.stack else None,
                "run": self.run_id, "peak_mib": None,
                "_base": tracemalloc.get_traced_memory()[0] if tracing else 0, "_peak": 0}
        self.spans.append(span)
        self.stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = perf_counter()
        self.stack.pop()
        if tracemalloc.is_tracing():
            peak = max(tracemalloc.get_traced_memory()[1], span["_peak"])
            span["peak_mib"] = (peak - span["_base"]) / MIB
            if self.stack:
                self.stack[-1]["_peak"] = max(self.stack[-1]["_peak"], peak)

    def wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result
        return traced

    # Work counts, from the sizes of what the wrapped calls took and returned.
    def count_synth(self, args, kwargs, g) -> None:
        n = (args[0] if args else kwargs["scene"]).n
        na, nr = g.data.shape
        c = self.counts
        c["terms"] += na * nr * n
        c["exp_count"] += na * n + n * nr
        c["temp_bytes"] = max(c["temp_bytes"], 3 * 16 * na * n)

    def count_split(self, args, kwargs, bands) -> None:
        na, nr = bands[0].data.shape
        self.counts["fft_points"] += 3 * na * nr

    def count_scenes(self, args, kwargs, result) -> None:
        for s in result if isinstance(result, list) else [result]:
            kind = s.config.get("kind")
            self.counts["scatterers"] += s.n
            if kind in COLLINEAR:
                self.counts["scatterers_collinear"] += s.n
            elif kind in CURVE:
                self.counts["scatterers_curve"] += s.n


HOOKS = {
    "synth_spectrum": Tracer.count_synth,
    "split_subbands": Tracer.count_split,
    "build_scenes": Tracer.count_scenes,
    "generate_scene": Tracer.count_scenes,
}


def install(tracer: Tracer) -> list:
    """Wrap every traced function that exists; return what to restore."""
    undo = []
    for (mod_name, fn_name), span_name in TRACED.items():
        mod = sys.modules[mod_name]
        fn = getattr(mod, fn_name, None)
        if fn is None:
            print(f"trace: {mod_name}.{fn_name} not found, not traced", file=sys.stderr)
            continue
        hook = HOOKS.get(fn_name)
        on_result = functools.partial(hook, tracer) if hook else None
        setattr(mod, fn_name, tracer.wrap(span_name, fn, on_result))
        undo.append((mod, fn_name, fn))

    for meth in ("write_bytes", "write_text"):
        orig = getattr(pathlib.Path, meth)

        def timed_write(self, *args, _orig=orig, **kwargs):
            span = tracer.begin("cli.write")
            try:
                return _orig(self, *args, **kwargs)
            finally:
                tracer.end(span)
                tracer.counts["write_bytes"] += self.stat().st_size

        setattr(pathlib.Path, meth, timed_write)
        undo.append((pathlib.Path, meth, orig))
    return undo


def main(argv: list[str]) -> int:
    run_id, spans_out, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: trace_cli.py RUN_ID SPANS_OUT -- ARGS...")
    tracer = Tracer(int(run_id))
    span = tracer.begin("import")
    import sarcsi.analysis  # noqa: F401
    import sarcsi.cli
    tracer.end(span)

    tracemalloc.start()
    undo = install(tracer)
    root = tracer.begin("cli")
    try:
        rc = sarcsi.cli.main(cli_argv)
    finally:
        tracer.end(root)
        tracemalloc.stop()
        for owner, name, orig in undo:
            setattr(owner, name, orig)
    spans = [{k: v for k, v in s.items() if not k.startswith("_")} for s in tracer.spans]
    with open(spans_out, "w") as f:
        json.dump({"spans": spans, "counts": tracer.counts, "rc": rc}, f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
