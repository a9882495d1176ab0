"""Reference values and machine facts for one benchmark scene.

Usage: python3 oracle.py SCENE_JSON COMMAND OUT_JSON

Runs once per seed, before anything is timed.  It imports `sarcsi.cli`
first, so byte-compilation and the first load of numpy and scipy from disk
are done before the timed invocations start.  It writes JSON with:

- `facts`: interpreter, numpy/scipy and BLAS versions and configuration,
  the BLAS thread count this process sees, CPU count and total memory;
- for `simulate`: the azimuth power marginal, total energy and max |G| of a
  direct-sum spectrum of the scatterers from `scene.build_scenes`, chunked
  over scatterers to bound memory;
- for `analyze`: the observable orders each target should match, from
  `dispersion.orders_in_window` and `effective_squint_3d`.

The direct sum is written out here from the model, not taken from the
simulator, so it stays the reference whatever path the simulator takes.
"""

from __future__ import annotations

import ctypes
import glob
import json
import math
import os
import platform
import sys

import numpy as np
import scipy

import sarcsi.cli  # noqa: F401  (warm-up: compile and load what the CLI loads)
from sarcsi.dispersion import GratingTarget, Orientation3D, effective_squint_3d, orders_in_window
from sarcsi.params import C, RadarParams, doppler_from_squint, observable
from sarcsi.scene import Scene, build_scenes, merge_scenes, parse_scene_config
from workloads import ORDERS

CHUNK_ELEMS = 1 << 21    # complex samples per (na x chunk) phase block: 32 MiB


def _blas_threads() -> int | None:
    # numpy's wheel bundles a prefixed OpenBLAS; ask the copy already loaded.
    libdir = os.path.dirname(np.__file__) + ".libs"
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "mem_total_mib": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
    }


def direct_sum(p: RadarParams, na: int, nr: int, scene: Scene) -> tuple[np.ndarray, np.ndarray]:
    """G[k, l] = sum_n a_n exp(-j2pi (f_a[k] u_n + (f_c cos th_k + f_r[l]) v_n))."""
    f_a = p.f_dc - p.B_a / 2 + np.arange(na) * (p.B_a / na)
    f_r = -p.B_r / 2 + np.arange(nr) * (p.B_r / nr)
    carrier = p.f_c * np.cos(np.arcsin(p.lam * f_a / (2 * p.V)))
    u, v = scene.x / p.V, 2 * scene.y / C
    g = np.zeros((na, nr), dtype=complex)
    step = max(1, CHUNK_ELEMS // na)
    for lo in range(0, scene.n, step):
        sl = slice(lo, lo + step)
        az = np.exp(-2j * np.pi * (np.outer(f_a, u[sl]) + np.outer(carrier, v[sl])))
        rg = np.exp(-2j * np.pi * np.outer(v[sl], f_r))
        g += (az * scene.amp[sl]) @ rg
    return f_a, g


def simulate_reference(scene_path: str) -> dict:
    cfg = parse_scene_config(scene_path)
    f_a, g = direct_sum(cfg.radar, cfg.na, cfg.nr, merge_scenes(build_scenes(cfg)))
    p2 = np.abs(g) ** 2
    return {
        "f_a_hz": f_a.tolist(),
        "power": p2.sum(axis=1).tolist(),
        "total_energy": float(p2.sum()),
        "g_max": float(np.sqrt(p2.max())),
    }


def analyze_reference(scene_path: str, orders: tuple[int, int]) -> dict:
    cfg = parse_scene_config(scene_path)
    p = cfg.radar
    rad = math.radians
    targets = []
    for t in cfg.targets:
        if t["kind"] == "segment3d":
            theta = effective_squint_3d(Orientation3D(
                rad(t["theta_h_deg"]), rad(t["theta_v_deg"]), rad(t["theta_inc_deg"])))
            f_d = doppler_from_squint(p, theta)
            sols = [(0, f_d)] if observable(p, f_d) else []
        else:
            gt = GratingTarget(rad(t["theta_az_deg"]), t.get("dx_m"))
            sols = [(s.m, s.f_d) for s in orders_in_window(gt, p, orders) if s.observable]
        targets.append({"label": t["label"], "orders": [m for m, _ in sols],
                        "f_d_hz": [f for _, f in sols]})
    return {"targets": targets, "bin_hz": p.B_a / cfg.na}


def main(argv: list[str]) -> int:
    scene_path, command, out_path = argv
    out = {"facts": machine_facts()}
    if command == "simulate":
        out["simulate"] = simulate_reference(scene_path)
    else:
        out["analyze"] = analyze_reference(scene_path, ORDERS)
    with open(out_path, "w") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
