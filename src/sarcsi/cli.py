"""Command-line front end: predict, predict3d, chart, simulate, analyze.

Exit codes: 0 success, 2 bad flags or config, or out of memory, 3 no
propagating solution (evanescent order or unrealizable Doppler), 4 scene
exceeds the unambiguous grid extent; `_EXIT_STATUS` is the one place these
are set.  Every file a command writes, simulate's three products included,
is checked before any work, and one the OS refuses (too long, for example)
exits 2.  Errors go to stderr, one line each; data goes to stdout unless an
output path is given.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from .analysis import merge_reports, report_to_json, verify_scene_against_model
from ._threads import check_memory
from .csi import NORM_MODES, colour_bytes, compose_rgb, encode_ppm, split_subbands
from .dispersion import (
    BAND_HUES,
    ROW_BYTES,
    GratingTarget,
    Orientation3D,
    chart_data,
    chart_to_csv,
    classify_hue,
    effective_squint_3d,
    orders_in_window,
)
from .errors import (
    AliasingError,
    ConfigError,
    DopplerRangeError,
    EvanescentOrderError,
    SarcsiError,
)
from .params import RadarParams, doppler_from_squint, observable
from .scene import (
    KINDS,
    SceneConfig,
    build_scenes,
    check_grid_size,
    check_scatterers,
    generate_scene,
    merge_scenes,
    parse_scene_config,
)
from .simulator import (
    azimuth_power_spectrum,
    azimuth_spectrum_csv,
    check_synthesis,
    synth_spectrum,
)

# Calculation defaults: X-band spaceborne case, 0.1 m resolution both axes.
DEFAULT_RADAR = RadarParams(f_c=9.6e9, V=7600.0, rho_a=0.1, rho_r=0.1)
DEFAULT_DX = 0.05        # [m]

_ORDERS_RE = re.compile(r"(-?\d+):(-?\d+)")
# Exit status of each error type main() reports; every other error exits 2.
_EXIT_STATUS = {EvanescentOrderError: 3, DopplerRangeError: 3, AliasingError: 4}


def _parse_orders(text: str) -> tuple[int, int]:
    m = _ORDERS_RE.fullmatch(text.strip())
    if not m:
        raise ConfigError(f"--orders expects 'a:b' with integers, got {text!r}")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise ConfigError(f"--orders range {text!r} is empty (need a <= b)")
    return lo, hi


def _finite(text: str) -> float:
    """argparse type of every float flag: NaN and infinities are usage errors."""
    try:
        v = float(text)
    except ValueError:
        v = math.nan
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return v


class _Parser(argparse.ArgumentParser):
    # Usage errors start with "error:" like every other error of the CLI.
    def error(self, message: str):
        self.exit(2, f"error: {message}\n{self.format_usage()}")


def _glue_orders(argv: list[str]) -> list[str]:
    # argparse would read the value "-2:2" as an unknown option; fold it into
    # the flag so both "--orders -2:2" and "--orders=-2:2" work.
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--orders" and i + 1 < len(argv):
            out.append(f"--orders={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def _add_radar_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--fc", type=_finite, help="carrier frequency [Hz]")
    sp.add_argument("--v", type=_finite, help="platform speed [m/s]")
    sp.add_argument("--rho-a", type=_finite, help="azimuth resolution [m]")
    sp.add_argument("--rho-r", type=_finite, help="range resolution [m]")
    sp.add_argument("--fdc", type=_finite, help="Doppler centroid [Hz]")


def _radar(args: argparse.Namespace, base: RadarParams = DEFAULT_RADAR) -> RadarParams:
    # Flags beat config (or default) values; the result is checked again.
    flags = {"f_c": args.fc, "V": args.v, "rho_a": args.rho_a, "rho_r": args.rho_r,
             "f_dc": args.fdc}
    return dataclasses.replace(base, **{k: v for k, v in flags.items() if v is not None})


def _scene_config(args: argparse.Namespace) -> SceneConfig:
    # The run's one config: flags beat the file's values.  The file was
    # checked when it was parsed, the flags are checked here, before any work.
    cfg = parse_scene_config(args.scene)
    radar = _radar(args, cfg.radar)
    na = args.na if args.na is not None else cfg.na
    nr = args.nr if args.nr is not None else cfg.nr
    check_grid_size(na, "na")
    check_grid_size(nr, "nr")
    return dataclasses.replace(cfg, radar=radar, na=na, nr=nr)


def _outputs(args: argparse.Namespace) -> list[Path | None]:
    """Where each product of args's command goes, in the order the command
    returns them; None is stdout.  simulate writes <prefix>_rgb.ppm,
    <prefix>_azspec.csv and <prefix>_report.json, then prints the line
    naming them; every other command writes its one product to --out, or to
    stdout when --out is not given."""
    if args.command != "simulate":
        return [Path(args.out) if args.out else None]
    prefix = Path(args.out_prefix)
    suffixes = ("_rgb.ppm", "_azspec.csv", "_report.json")
    return [*(prefix.with_name(prefix.name + s) for s in suffixes), None]


def _cmd_predict(args: argparse.Namespace) -> list[str | bytes]:
    p = _radar(args)
    target = GratingTarget(theta_az=math.radians(args.theta_az), d_x=args.dx)
    sols = orders_in_window(target, p, _parse_orders(args.orders))
    if not sols:
        raise EvanescentOrderError(
            f"no propagating order in {args.orders} for theta_az = {args.theta_az} deg"
        )
    lines = ["m,theta_sq_deg,f_d_hz,observable,hue"]
    for s in sols:
        lines.append(
            f"{s.m},{math.degrees(s.theta_sq)!r},{s.f_d!r},"
            f"{str(s.observable).lower()},{s.hue.value}"
        )
    return ["\n".join(lines) + "\n"]


def _cmd_predict3d(args: argparse.Namespace) -> list[str | bytes]:
    p = _radar(args)
    o = Orientation3D(
        theta_h=math.radians(args.theta_h),
        theta_v=math.radians(args.theta_v),
        theta_inc=math.radians(args.theta_inc),
    )
    theta_sq = effective_squint_3d(o)
    f_d = doppler_from_squint(p, theta_sq)
    row = (
        f"{math.degrees(theta_sq)!r},{math.degrees(-theta_sq)!r},{f_d!r},"
        f"{str(observable(p, f_d)).lower()},{classify_hue(p, f_d).value}"
    )
    return ["theta_sq_deg,theta_az_deg,f_d_hz,observable,hue\n" + row + "\n"]


def _cmd_chart(args: argparse.Namespace) -> list[str | bytes]:
    p = _radar(args)
    lo, hi = _parse_orders(args.orders)
    if args.sq_step <= 0:
        raise ConfigError(f"--sq-step must be positive, got {args.sq_step}")
    if not args.sq_min < args.sq_max:
        raise ConfigError("need --sq-min < --sq-max")
    if not (abs(args.sq_min) < 90 and abs(args.sq_max) < 90):
        raise ConfigError("squint grid must stay inside (-90, 90) deg")
    span = (args.sq_max - args.sq_min) / args.sq_step
    if not math.isfinite(span):
        raise ConfigError(f"--sq-step {args.sq_step} gives no finite number of squint points")
    steps = round(span)
    # a row per squint point for the zero order and for each non-zero order
    nonzero = hi - lo + 1 - (lo <= 0 <= hi)
    rows = (steps + 1) * (1 + nonzero)
    check_memory(ROW_BYTES * rows, f"a chart of {rows} rows")
    grid_deg = np.linspace(args.sq_min, args.sq_min + steps * args.sq_step, steps + 1)
    if grid_deg[-1] > args.sq_max + 1e-12:
        grid_deg = grid_deg[:-1]
    chart = chart_data(
        p, args.dx, list(range(lo, hi + 1)), [math.radians(v) for v in grid_deg]
    )
    return [chart_to_csv(chart)]


def _cmd_simulate(args: argparse.Namespace) -> list[str | bytes]:
    cfg = _scene_config(args)
    scene = merge_scenes(build_scenes(cfg))
    check_memory(colour_bytes(cfg.na, cfg.nr),
                 f"splitting and composing a {cfg.na}x{cfg.nr} spectrum")
    g = synth_spectrum(scene, cfg.radar, cfg.na, cfg.nr)
    del scene    # colour_bytes does not count it
    f_a, power = azimuth_power_spectrum(g)
    red, green, blue = split_subbands(g)
    del g    # consumed by the split, and not needed while the raster is composed
    rgb = compose_rgb(red, green, blue, norm=args.norm)
    del red, green, blue    # the magnitudes are not needed while the products are written

    ppm_path, csv_path, json_path, _ = _outputs(args)
    # Parseval: a band image's energy is the power of the rows in that band.
    band = cfg.radar.band_index(f_a)
    energies = {hue.value: float(power[band == b].sum()) for b, hue in enumerate(BAND_HUES)}
    report = {
        "band_energy": energies,
        "files": {
            "azspec": csv_path.name,
            "report": json_path.name,
            "rgb": ppm_path.name,
        },
        "grid": {"na": cfg.na, "nr": cfg.nr},
        "norm": args.norm,
        "radar": {
            "ba_hz": cfg.radar.B_a,
            "br_hz": cfg.radar.B_r,
            "fc_hz": cfg.radar.f_c,
            "fdc_hz": cfg.radar.f_dc,
            "v_mps": cfg.radar.V,
        },
        "targets": [t["label"] for t in cfg.targets],
        "total_energy": float(power.sum()),
    }
    return [encode_ppm(rgb), azimuth_spectrum_csv(f_a, power),
            json.dumps(report, sort_keys=True, indent=2) + "\n",
            f"wrote {ppm_path} {csv_path} {json_path}\n"]


def _cmd_analyze(args: argparse.Namespace) -> list[str | bytes]:
    cfg = _scene_config(args)
    m_range = _parse_orders(args.orders)
    if args.tol_bins <= 0:
        raise ConfigError(f"--tol-bins must be positive, got {args.tol_bins}")
    predictions = []    # every target is checked before any is synthesized
    for target in cfg.targets:
        grating = KINDS[target["kind"]].grating
        if grating is None:
            supported = ", ".join(k for k, kind in KINDS.items() if kind.grating)
            raise ConfigError(
                f"analyze supports {supported} targets, not {target['kind']!r}"
            )
        sols = orders_in_window(grating(target), cfg.radar, m_range)
        if not sols:
            raise EvanescentOrderError(
                f"target {target['label']!r} has no propagating order in {args.orders}"
            )
        predictions.append(sols)
    # every target's arrays are held until the last is verified
    check_scatterers(cfg.targets, cfg.radar.lam, 24)
    scenes = [generate_scene(target, cfg.radar.lam) for target in cfg.targets]
    for scene in scenes:
        check_synthesis(scene, cfg.radar, cfg.na, cfg.nr)
    reports = [verify_scene_against_model(scene, cfg.radar, sols, tol_bins=args.tol_bins,
                                          na=cfg.na, nr=cfg.nr)
               for scene, sols in zip(scenes, predictions)]
    return [report_to_json(merge_reports(reports, args.tol_bins))]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sarcsi",
        description="Geometric-dispersion SAR toolkit: predict diffraction "
        "orders, simulate spectra, compose colorized sub-aperture images.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("predict", help="diffraction-order table for an in-plane target")
    sp.add_argument("--theta-az", type=_finite, required=True, help="orientation [deg]")
    sp.add_argument("--dx", type=_finite, default=None,
                    help="azimuth period [m]; omit for a continuous target")
    sp.add_argument("--orders", default="-2:2", help="inclusive order range a:b")
    sp.add_argument("--out", default=None, help="output CSV path (default stdout)")
    _add_radar_flags(sp)
    sp.set_defaults(func=_cmd_predict)

    sp = sub.add_parser("predict3d", help="projected response of a 3D linear target")
    sp.add_argument("--theta-h", type=_finite, required=True, help="horizontal angle [deg]")
    sp.add_argument("--theta-v", type=_finite, required=True, help="vertical angle [deg]")
    sp.add_argument("--theta-inc", type=_finite, required=True, help="incidence angle [deg]")
    sp.add_argument("--out", default=None, help="output CSV path (default stdout)")
    _add_radar_flags(sp)
    sp.set_defaults(func=_cmd_predict3d)

    sp = sub.add_parser("chart", help="orientation-vs-squint interpretation chart")
    sp.add_argument("--dx", type=_finite, default=DEFAULT_DX, help="azimuth period [m]")
    sp.add_argument("--orders", default="-1:1", help="inclusive order range a:b")
    sp.add_argument("--sq-min", type=_finite, default=-6.0, help="squint grid start [deg]")
    sp.add_argument("--sq-max", type=_finite, default=6.0, help="squint grid end [deg]")
    sp.add_argument("--sq-step", type=_finite, default=0.25, help="squint grid step [deg]")
    sp.add_argument("--out", default=None, help="output CSV path (default stdout)")
    _add_radar_flags(sp)
    sp.set_defaults(func=_cmd_chart)

    sp = sub.add_parser("simulate", help="synthesize a scene and write its CSI product")
    sp.add_argument("--scene", required=True, help="scene config JSON path")
    sp.add_argument("--out-prefix", required=True, help="output file prefix")
    sp.add_argument("--na", type=int, default=None, help="azimuth grid size")
    sp.add_argument("--nr", type=int, default=None, help="range grid size")
    sp.add_argument("--norm", choices=NORM_MODES, default="linear",
                    help="RGB normalization rule")
    _add_radar_flags(sp)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("analyze", help="verify simulated peaks against the model")
    sp.add_argument("--scene", required=True, help="scene config JSON path")
    sp.add_argument("--orders", default="-2:2", help="inclusive order range a:b")
    sp.add_argument("--tol-bins", type=_finite, default=2.0, help="match tolerance [bins]")
    sp.add_argument("--na", type=int, default=None, help="azimuth grid size")
    sp.add_argument("--nr", type=int, default=None, help="range grid size")
    sp.add_argument("--out", default=None, help="output JSON path (default stdout)")
    _add_radar_flags(sp)
    sp.set_defaults(func=_cmd_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(_glue_orders(argv))
    try:
        outputs = _outputs(args)
        for path in filter(None, outputs):    # every file is checked before any work
            if not path.parent.is_dir():
                raise ConfigError(f"output directory {path.parent} is not an existing directory")
            if path.is_dir():
                raise ConfigError(f"output path {path} is a directory")
        for path, product in zip(outputs, args.func(args)):
            if path is None:
                sys.stdout.write(product)
                continue
            try:    # a full disk or an unwritable path exits 2, without a traceback
                path.write_bytes(product if isinstance(product, bytes) else product.encode())
            except OSError as e:
                raise ConfigError(f"cannot write {path}: {e.strerror or e}") from e
        return 0
    except (SarcsiError, ValueError, OSError, MemoryError) as e:
        # From the command line, a library's ValueError (a bad argument) and
        # an OSError (a path the OS refuses) are usage errors.
        text = str(e)
        if isinstance(e, MemoryError):
            text = f"out of memory: {text or 'allocation failed'}"
        print(f"error: {text}", file=sys.stderr)
        return _EXIT_STATUS.get(type(e), 2)
