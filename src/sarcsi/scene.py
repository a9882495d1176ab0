"""Point-scatterer scene builders and the JSON scene-config parser.

Scenes live in the slant plane: x is azimuth [m], y is slant range [m],
both relative to the scene centre.  Every builder returns a flat cloud of
(x, y, amp) samples; curved shapes are discretized densely enough
(quarter-wavelength steps by default) that they behave as continuous
reflectors in the simulated spectrum.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .dispersion import Orientation3D
from .errors import ConfigError
from .params import RadarParams, make_params


@dataclass(frozen=True)
class Scene:
    """A cloud of point scatterers in the slant plane.

    x: azimuth positions [m]
    y: slant-range positions [m]
    amp: per-scatterer reflectivity, same length as x and y
    """

    x: np.ndarray
    y: np.ndarray
    amp: np.ndarray
    label: str = "scene"
    config: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (self.x.shape == self.y.shape == self.amp.shape and self.x.ndim == 1):
            raise ValueError("x, y, amp must be 1-D arrays of equal length")

    @property
    def n(self) -> int:
        return self.x.size


def merge_scenes(scenes: Sequence[Scene]) -> Scene:
    """Concatenate several scenes into one scatterer cloud."""
    if not scenes:
        raise ValueError("nothing to merge")
    return Scene(
        x=np.concatenate([s.x for s in scenes]),
        y=np.concatenate([s.y for s in scenes]),
        amp=np.concatenate([s.amp for s in scenes]),
        label="+".join(s.label for s in scenes),
        config={"kind": "merge", "parts": [s.config for s in scenes]},
    )


def _sample_count(extent: float, spacing: float) -> int:
    # At least two samples so every shape has nonzero support.
    return max(2, int(round(extent / spacing)) + 1)


def line_scene(
    theta_az: float,
    length: float,
    spacing: float,
    amp: float = 1.0,
    label: str = "line",
) -> Scene:
    """Straight continuous reflector at in-plane orientation theta_az [rad].

    Sampled every `spacing` metres along its length, centred on the origin.
    """
    if length <= 0 or spacing <= 0:
        raise ValueError("length and spacing must be positive")
    t = np.linspace(-length / 2, length / 2, _sample_count(length, spacing))
    return Scene(
        x=t * math.cos(theta_az),
        y=t * math.sin(theta_az),
        amp=np.full(t.size, amp),
        label=label,
        config={
            "kind": "line",
            "theta_az_deg": math.degrees(theta_az),
            "length_m": length,
            "spacing_m": spacing,
            "amp": amp,
        },
    )


def array_scene(
    theta_az: float,
    d_x: float,
    n: int,
    amp: float = 1.0,
    label: str = "array",
) -> Scene:
    """Periodic row of n point scatterers along orientation theta_az [rad].

    d_x is the period measured along azimuth [m], so consecutive elements sit
    d_x apart in x and d_x * tan(theta_az) apart in y.  That azimuth period is
    what fixes the grating-order angles.
    """
    if d_x <= 0:
        raise ValueError(f"azimuth period must be positive, got {d_x}")
    if n < 2:
        raise ValueError("a grating needs at least 2 elements")
    x = (np.arange(n) - (n - 1) / 2) * d_x
    return Scene(
        x=x,
        y=x * math.tan(theta_az),
        amp=np.full(n, amp),
        label=label,
        config={
            "kind": "array",
            "theta_az_deg": math.degrees(theta_az),
            "dx_m": d_x,
            "n": n,
            "amp": amp,
        },
    )


def arc_scene(
    radius: float,
    tan_lo: float,
    tan_hi: float,
    spacing: float,
    amp: float = 1.0,
    label: str = "arc",
) -> Scene:
    """Circular arc whose tangent orientation sweeps [tan_lo, tan_hi] rad.

    Since a curve's local response follows its tangent, this produces a
    continuous spread of orientations, one point of the arc per orientation.
    The arc is positioned so its midpoint sits at the origin.
    """
    if radius <= 0 or spacing <= 0:
        raise ValueError("radius and spacing must be positive")
    if not tan_lo < tan_hi:
        raise ValueError("need tan_lo < tan_hi")
    arc_len = radius * (tan_hi - tan_lo)
    theta = np.linspace(tan_lo, tan_hi, _sample_count(arc_len, spacing))
    theta_c = (tan_lo + tan_hi) / 2
    return Scene(
        x=radius * (np.sin(theta) - math.sin(theta_c)),
        y=-radius * (np.cos(theta) - math.cos(theta_c)),
        amp=np.full(theta.size, amp),
        label=label,
        config={
            "kind": "arc",
            "radius_m": radius,
            "tan_lo_deg": math.degrees(tan_lo),
            "tan_hi_deg": math.degrees(tan_hi),
            "spacing_m": spacing,
            "amp": amp,
        },
    )


def catenary_scene(
    a: float,
    half_span: float,
    theta_inc: float,
    theta_h: float,
    spacing: float,
    amp: float = 1.0,
    label: str = "catenary",
) -> Scene:
    """Hanging-cable profile z(u) = a cosh(u/a) - a projected into the slant plane.

    The cable hangs in a vertical plane whose horizontal trace makes theta_h
    with the azimuth axis; theta_inc is the incidence angle.  Height folds
    into slant range with weight cos(theta_inc), ground range with
    sin(theta_inc).  The projected curve is recentred on its bounding box.
    """
    if a <= 0 or half_span <= 0 or spacing <= 0:
        raise ValueError("a, half_span, spacing must be positive")
    u = np.linspace(-half_span, half_span, _sample_count(2 * half_span, spacing))
    z = a * np.cosh(u / a) - a
    x = u * math.cos(theta_h)
    y = u * math.sin(theta_h) * math.sin(theta_inc) + z * math.cos(theta_inc)
    y = y - (y.min() + y.max()) / 2
    return Scene(
        x=x,
        y=y,
        amp=np.full(u.size, amp),
        label=label,
        config={
            "kind": "catenary",
            "a_m": a,
            "half_span_m": half_span,
            "theta_inc_deg": math.degrees(theta_inc),
            "theta_h_deg": math.degrees(theta_h),
            "spacing_m": spacing,
            "amp": amp,
        },
    )


def project_segment_3d(o: Orientation3D, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project a straight 3D segment into the slant plane.

    t parametrizes the segment by its azimuth coordinate [m]; the segment
    climbs tan(theta_h) in ground range and tan(theta_v) in height per metre
    of azimuth.  Ground range folds into slant range with sin(theta_inc),
    height with cos(theta_inc), so

        y = t * (tan(theta_h) sin(theta_inc) + tan(theta_v) cos(theta_inc))

    and the projected in-plane orientation satisfies tan(theta_az) = y / x.
    """
    t = np.asarray(t, dtype=float)
    slope = math.tan(o.theta_h) * math.sin(o.theta_inc) + math.tan(o.theta_v) * math.cos(
        o.theta_inc
    )
    return t.copy(), t * slope


def segment3d_scene(
    o: Orientation3D,
    length: float,
    spacing: float,
    amp: float = 1.0,
    label: str = "segment3d",
) -> Scene:
    """Straight 3D segment, sampled over an azimuth extent of `length` metres."""
    if length <= 0 or spacing <= 0:
        raise ValueError("length and spacing must be positive")
    t = np.linspace(-length / 2, length / 2, _sample_count(length, spacing))
    x, y = project_segment_3d(o, t)
    return Scene(
        x=x,
        y=y,
        amp=np.full(t.size, amp),
        label=label,
        config={
            "kind": "segment3d",
            "theta_h_deg": math.degrees(o.theta_h),
            "theta_v_deg": math.degrees(o.theta_v),
            "theta_inc_deg": math.degrees(o.theta_inc),
            "length_m": length,
            "spacing_m": spacing,
            "amp": amp,
        },
    )


# Field tables for the JSON target schema.  Everything not listed here is an
# error: silent extra keys usually mean a typo in a hand-written config.
_REQUIRED = {
    "line": ("theta_az_deg", "length_m"),
    "array": ("theta_az_deg", "dx_m", "n"),
    "arc": ("radius_m", "tan_lo_deg", "tan_hi_deg"),
    "catenary": ("a_m", "half_span_m", "theta_inc_deg"),
    "segment3d": ("theta_h_deg", "theta_v_deg", "theta_inc_deg", "length_m"),
}
_OPTIONAL = {
    "line": ("spacing_m",),
    "array": (),
    "arc": ("spacing_m",),
    "catenary": ("spacing_m", "theta_h_deg"),
    "segment3d": ("spacing_m",),
}
_COMMON_OPTIONAL = ("amp", "label")


@dataclass(frozen=True)
class SceneConfig:
    """Parsed and validated scene description: radar constants, grid, targets."""

    radar: RadarParams
    na: int
    nr: int
    targets: list[dict]


def _number(obj: dict, key: str, where: str, positive: bool = False) -> float:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}: field {key!r} must be a number, got {v!r}")
    # float() of an int beyond the double range raises; NaN and infinities
    # pass every comparison below, so both are rejected here.
    try:
        v = float(v)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise ConfigError(f"{where}: field {key!r} must be finite, got {obj[key]!r}")
    if positive and v <= 0:
        raise ConfigError(f"{where}: field {key!r} must be positive, got {v!r}")
    return v


def _check_keys(obj: dict, allowed: Sequence[str], where: str) -> None:
    for k in obj:
        if k not in allowed:
            raise ConfigError(f"{where}: unknown field {k!r}")


def _validate_target(t: object, i: int) -> dict:
    where = f"targets[{i}]"
    if not isinstance(t, dict):
        raise ConfigError(f"{where}: expected an object")
    kind = t.get("kind")
    if kind not in _REQUIRED:
        raise ConfigError(
            f"{where}: field 'kind' must be one of {sorted(_REQUIRED)}, got {kind!r}"
        )
    required = _REQUIRED[kind]
    allowed = ("kind",) + required + _OPTIONAL[kind] + _COMMON_OPTIONAL
    _check_keys(t, allowed, where)
    for k in required:
        if k not in t:
            raise ConfigError(f"{where}: {kind} target is missing field {k!r}")

    out = dict(t)
    # Numeric checks, per field semantics.
    half_open = {"theta_az_deg": 90.0, "theta_h_deg": 90.0, "theta_v_deg": 90.0}
    for k, lim in half_open.items():
        if k in out:
            v = _number(out, k, where)
            if not abs(v) < lim:
                raise ConfigError(f"{where}: field {k!r} must satisfy |value| < {lim}")
            out[k] = v
    for k in ("length_m", "dx_m", "radius_m", "a_m", "half_span_m", "spacing_m", "amp"):
        if k in out:
            out[k] = _number(out, k, where, positive=True)
    if "n" in out:
        v = out["n"]
        if isinstance(v, bool) or not isinstance(v, int) or v < 2:
            raise ConfigError(f"{where}: field 'n' must be an integer >= 2, got {v!r}")
    if "theta_inc_deg" in out:
        v = _number(out, "theta_inc_deg", where)
        if not 0 < v < 90:
            raise ConfigError(f"{where}: field 'theta_inc_deg' must lie in (0, 90)")
        out["theta_inc_deg"] = v
    if kind == "arc":
        lo = _number(out, "tan_lo_deg", where)
        hi = _number(out, "tan_hi_deg", where)
        if not (abs(lo) < 90 and abs(hi) < 90):
            raise ConfigError(f"{where}: tangent angles must satisfy |value| < 90")
        if not lo < hi:
            raise ConfigError(f"{where}: need tan_lo_deg < tan_hi_deg")
        out["tan_lo_deg"], out["tan_hi_deg"] = lo, hi
    if "label" in out and not isinstance(out["label"], str):
        raise ConfigError(f"{where}: field 'label' must be a string")
    out.setdefault("label", f"{kind}_{i}")
    out.setdefault("amp", 1.0)
    return out


def scene_config_from_dict(obj: object) -> SceneConfig:
    """Validate a decoded JSON object against the scene-config schema."""
    if not isinstance(obj, dict):
        raise ConfigError("config root must be an object")
    _check_keys(obj, ("radar", "grid", "targets"), "config")
    if "radar" not in obj or not isinstance(obj["radar"], dict):
        raise ConfigError("config: field 'radar' must be an object")
    radar = obj["radar"]
    _check_keys(radar, ("fc_hz", "v_mps", "rho_a_m", "rho_r_m", "fdc_hz"), "radar")
    for k in ("fc_hz", "v_mps", "rho_a_m", "rho_r_m"):
        if k not in radar:
            raise ConfigError(f"radar: missing field {k!r}")
    params = make_params(
        f_c=_number(radar, "fc_hz", "radar", positive=True),
        V=_number(radar, "v_mps", "radar", positive=True),
        rho_a=_number(radar, "rho_a_m", "radar", positive=True),
        rho_r=_number(radar, "rho_r_m", "radar", positive=True),
        f_dc=_number(radar, "fdc_hz", "radar") if "fdc_hz" in radar else 0.0,
    )

    na, nr = 2048, 256
    if "grid" in obj:
        grid = obj["grid"]
        if not isinstance(grid, dict):
            raise ConfigError("config: field 'grid' must be an object")
        _check_keys(grid, ("na", "nr"), "grid")
        for k in ("na", "nr"):
            if k not in grid:
                raise ConfigError(f"grid: missing field {k!r}")
            v = grid[k]
            if isinstance(v, bool) or not isinstance(v, int):
                raise ConfigError(f"grid: field {k!r} must be an integer, got {v!r}")
        na, nr = grid["na"], grid["nr"]

    if "targets" not in obj or not isinstance(obj["targets"], list) or not obj["targets"]:
        raise ConfigError("config: field 'targets' must be a non-empty array")
    targets = [_validate_target(t, i) for i, t in enumerate(obj["targets"])]
    return SceneConfig(radar=params, na=na, nr=nr, targets=targets)


def parse_scene_config(path: str | Path) -> SceneConfig:
    """Read and validate a JSON scene config; all failures raise ConfigError."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from e
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}"
        ) from e
    return scene_config_from_dict(obj)


def generate_scene(target: dict, lam: float) -> Scene:
    """Build the scatterer cloud for one validated target description.

    Degree-valued config fields become radians here; the default sample
    spacing is a quarter wavelength so curved shapes stay effectively
    continuous for the radar.
    """
    rad = math.radians
    kind = target["kind"]
    spacing = target.get("spacing_m", lam / 4)
    amp = target.get("amp", 1.0)
    label = target.get("label", kind)
    if kind == "line":
        return line_scene(
            rad(target["theta_az_deg"]), target["length_m"], spacing, amp, label
        )
    if kind == "array":
        return array_scene(
            rad(target["theta_az_deg"]), target["dx_m"], target["n"], amp, label
        )
    if kind == "arc":
        return arc_scene(
            target["radius_m"],
            rad(target["tan_lo_deg"]),
            rad(target["tan_hi_deg"]),
            spacing,
            amp,
            label,
        )
    if kind == "catenary":
        return catenary_scene(
            target["a_m"],
            target["half_span_m"],
            rad(target["theta_inc_deg"]),
            rad(target.get("theta_h_deg", 0.0)),
            spacing,
            amp,
            label,
        )
    if kind == "segment3d":
        o = Orientation3D(
            theta_h=rad(target["theta_h_deg"]),
            theta_v=rad(target["theta_v_deg"]),
            theta_inc=rad(target["theta_inc_deg"]),
        )
        return segment3d_scene(o, target["length_m"], spacing, amp, label)
    raise ConfigError(f"unknown target kind {kind!r}")


def build_scenes(cfg: SceneConfig) -> list[Scene]:
    """One scatterer cloud per configured target, in config order."""
    return [generate_scene(t, cfg.radar.lam) for t in cfg.targets]
