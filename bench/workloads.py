"""Benchmark workloads: seeded scene configs and the CLI command run on each.

A seed only jitters target orientations.  Lengths, counts and grids are
fixed, so the scatterer count N and the grid size are the same for every
seed.  Each jitter picks one value from an inclusive grid of offsets (in
degrees, added to the base value).  Every grid point was checked to keep its
target inside the unambiguous grid extent and, for `analyze`, to pass with
its expected order matched; each jitter's reason says why its range stops
where it does.  Why each workload was chosen is in BENCHMARK.json.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# Order range passed to `analyze`; the oracle predicts over the same range.
ORDERS = (-2, 2)
RADAR_X = {"fc_hz": 9.6e9, "v_mps": 7600.0, "rho_a_m": 0.1, "rho_r_m": 0.1, "fdc_hz": 0.0}


@dataclass(frozen=True)
class Jitter:
    """One seeded orientation offset, added to `fields` of target `target`."""

    target: int
    fields: tuple[str, ...]
    lo: float      # [deg]
    hi: float      # [deg]
    step: float    # [deg]
    reason: str

    def offsets(self) -> list[float]:
        n = int(round((self.hi - self.lo) / self.step))
        return [round(self.lo + k * self.step, 6) for k in range(n + 1)]


@dataclass(frozen=True)
class Workload:
    """A scene (radar, grid, base targets, jitters) and the command run on it."""

    name: str
    command: str               # "simulate" or "analyze"
    radar: dict
    grid: tuple[int, int]
    targets: tuple[dict, ...]
    jitter: tuple[Jitter, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="simulate-mixed",
            command="simulate",
            radar=RADAR_X,
            grid=(2048, 256),
            targets=(
                {"kind": "line", "theta_az_deg": 2.0, "length_m": 1.0},
                {"kind": "array", "theta_az_deg": 20.0, "dx_m": 0.05, "n": 64},
                {"kind": "arc", "radius_m": 80.0, "tan_lo_deg": -4.0, "tan_hi_deg": 4.0},
                {"kind": "catenary", "a_m": 120.0, "half_span_m": 30.0,
                 "theta_inc_deg": 40.0},
                {"kind": "segment3d", "theta_h_deg": 10.0, "theta_v_deg": 5.0,
                 "theta_inc_deg": 40.0, "length_m": 1.0},
            ),
            jitter=(
                Jitter(0, ("theta_az_deg",), -1.0, 1.0, 0.1,
                       "1 m line; any angle fits, kept near the README value"),
                Jitter(1, ("theta_az_deg",), -2.0, 1.0, 0.1,
                       "keeps the m=1 order of the 5 cm array inside the window"),
                Jitter(2, ("tan_lo_deg", "tan_hi_deg"), -1.0, 1.0, 0.1,
                       "shifts the 8 deg sweep; same arc length, so same N"),
                Jitter(3, ("theta_inc_deg",), -5.0, 5.0, 0.5,
                       "60 m span stays well inside the 12.8 m range half-extent"),
                Jitter(4, ("theta_h_deg",), -2.0, 2.0, 0.1,
                       "1 m segment; any angle fits, kept near the README value"),
            ),
        ),
        Workload(
            name="analyze-collinear",
            command="analyze",
            radar={**RADAR_X, "rho_r_m": 1.0},
            grid=(2048, 64),
            targets=(
                {"kind": "line", "theta_az_deg": 1.0, "length_m": 60.0},
                {"kind": "array", "theta_az_deg": 20.0, "dx_m": 0.05, "n": 64},
                {"kind": "line", "theta_az_deg": -3.0, "length_m": 30.0},
                {"kind": "segment3d", "theta_h_deg": 2.0, "theta_v_deg": -1.0,
                 "theta_inc_deg": 40.0, "length_m": 20.0},
            ),
            jitter=(
                Jitter(0, ("theta_az_deg",), -0.5, 0.5, 0.1,
                       "60 m line passes from 0 to 1.7 deg; at 1.8 deg its peak "
                       "falls below the detection threshold"),
                Jitter(1, ("theta_az_deg",), -2.0, 0.5, 0.1,
                       "m=1 is matched from 16 to 21 deg; above 21.5 deg it leaves "
                       "the window and the target passes with no match"),
                Jitter(2, ("theta_az_deg",), -0.2, 1.0, 0.1,
                       "30 m line is matched from -3.4 to -1 deg; it finds no peak "
                       "from -4.4 to -3.5 deg"),
                Jitter(3, ("theta_h_deg",), -1.0, 1.0, 0.1,
                       "20 m segment is matched for theta_h from 0 to 4 deg"),
            ),
        ),
        Workload(
            name="simulate-sparse-wide",
            command="simulate",
            radar=RADAR_X,
            grid=(4096, 512),
            targets=(
                {"kind": "array", "theta_az_deg": 20.0, "dx_m": 0.05, "n": 64},
                {"kind": "line", "theta_az_deg": 2.0, "length_m": 1.0},
            ),
            jitter=(
                Jitter(0, ("theta_az_deg",), -2.0, 1.0, 0.1,
                       "keeps the m=1 order of the 5 cm array inside the window"),
                Jitter(1, ("theta_az_deg",), -1.0, 1.0, 0.1,
                       "1 m line; any angle fits"),
            ),
        ),
        # Not a timed workload: one 1 m line on 256x64, for the smoke test.
        Workload(
            name="tiny",
            command="simulate",
            radar=RADAR_X,
            grid=(256, 64),
            targets=({"kind": "line", "theta_az_deg": 2.0, "length_m": 1.0},),
            jitter=(Jitter(0, ("theta_az_deg",), -1.0, 1.0, 0.1, "any angle fits"),),
        ),
    )
}


def scene_config(w: Workload, seed: int) -> dict:
    """The scene config for one seed: the base targets with jittered angles."""
    rng = random.Random(f"{w.name}:{seed}")
    targets = [dict(t) for t in w.targets]
    for j in w.jitter:
        off = rng.choice(j.offsets())
        for f in j.fields:
            targets[j.target][f] = round(targets[j.target][f] + off, 6)
    return {
        "radar": dict(w.radar),
        "grid": {"na": w.grid[0], "nr": w.grid[1]},
        "targets": targets,
    }


def cli_args(w: Workload, scene_path: str, out_prefix: str) -> list[str]:
    """Arguments after `python -m sarcsi` for one invocation of workload w."""
    if w.command == "simulate":
        return ["simulate", "--scene", scene_path, "--out-prefix", out_prefix,
                "--norm", "clip_p999"]
    return ["analyze", "--scene", scene_path, "--orders", "%d:%d" % ORDERS,
            "--out", out_prefix + "_analysis.json"]


def write_scene(w: Workload, seed: int, path) -> dict:
    cfg = scene_config(w, seed)
    with open(path, "w") as f:
        json.dump(cfg, f, indent=1)
    return cfg
