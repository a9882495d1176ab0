"""Point-scatterer scene builders and the JSON scene-config parser.

Scenes live in the slant plane: x is azimuth [m], y is slant range [m],
both relative to the scene centre.  Every builder returns a flat cloud of
(x, y, amp) samples; curved shapes are discretized densely enough
(quarter-wavelength steps by default) that they behave as continuous
reflectors in the simulated spectrum.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .dispersion import GratingTarget, Orientation3D, _projected_slope, effective_squint_3d
from .errors import ConfigError
from .params import RadarParams, make_params

_rad = math.radians


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
    )


def project_segment_3d(o: Orientation3D, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project a straight 3D segment into the slant plane.

    t parametrizes the segment by its azimuth coordinate [m]; the segment
    climbs tan(theta_h) in ground range and tan(theta_v) in height per metre
    of azimuth.  Ground range folds into slant range with sin(theta_inc),
    height with cos(theta_inc), so

        y = t * cos(theta_inc) * (tan(theta_inc) tan(theta_h) + tan(theta_v))

    with the very slope whose arctangent effective_squint_3d returns, so the
    segment is built at exactly the orientation the model predicts for it.
    """
    t = np.asarray(t, dtype=float)
    return t.copy(), t * _projected_slope(o)


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
    return Scene(*project_segment_3d(o, t), np.full(t.size, amp), label)


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
    # Silent extra keys usually mean a typo in a hand-written config.
    for k in obj:
        if k not in allowed:
            raise ConfigError(f"{where}: unknown field {k!r}")


# Field checks of the config schema: check(obj, key, where) returns the
# validated value of obj[key] or raises ConfigError.
Check = Callable[[dict, str, str], object]


def _fields(obj: object, required: dict[str, Check], optional: dict[str, Check],
            where: str) -> dict:
    """A copy of the object obj with every field checked, in table order."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    checks = {**required, **optional}
    _check_keys(obj, tuple(checks), where)
    for k in required:
        if k not in obj:
            raise ConfigError(f"{where}: missing field {k!r}")
    out = dict(obj)
    for k, check in checks.items():
        if k in out:
            out[k] = check(out, k, where)
    return out


_positive = functools.partial(_number, positive=True)


def _inside(lo: float, hi: float) -> Check:
    """Check for a number strictly inside (lo, hi)."""

    def check(t: dict, key: str, where: str) -> float:
        v = _number(t, key, where)
        if not lo < v < hi:
            raise ConfigError(f"{where}: field {key!r} must lie in ({lo}, {hi})")
        return v

    return check


_angle = _inside(-90, 90)
_incidence = _inside(0, 90)


def _angle_above(lower: str) -> Check:
    """Check for an angle that must also exceed the already checked `lower`."""

    def check(t: dict, key: str, where: str) -> float:
        v = _angle(t, key, where)
        if not t[lower] < v:
            raise ConfigError(f"{where}: need {lower} < {key}")
        return v

    return check


def _integer(t: dict, key: str, where: str) -> int:
    v = t[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where}: field {key!r} must be an integer, got {v!r}")
    return v


def check_grid_size(n: int, name: str, error: type[Exception] = ValueError) -> None:
    """Raise error unless the grid size n is a power of two and at least 8."""
    if n < 8 or n & (n - 1):
        raise error(f"{name} must be a power of two >= 8, got {n}")


def _grid_size(t: dict, key: str, where: str) -> int:
    v = _integer(t, key, where)
    check_grid_size(v, f"{where}: field {key!r}", ConfigError)
    return v


def _count(t: dict, key: str, where: str) -> int:
    v = _integer(t, key, where)
    if v < 2:
        raise ConfigError(f"{where}: field {key!r} must be at least 2, got {v!r}")
    return v


def _label(t: dict, key: str, where: str) -> str:
    if not isinstance(t[key], str):
        raise ConfigError(f"{where}: field {key!r} must be a string")
    return t[key]


@dataclass(frozen=True)
class TargetKind:
    """One target kind: its config fields, its builder and its analytic model.

    required, optional: field name -> check, applied in this order.
    build(target, spacing, amp, label) -> Scene, degrees turned to radians.
    grating(target) -> GratingTarget, the model `analyze` checks the kind
    against; None for kinds with no single closed-form prediction per order.
    """

    required: dict[str, Check]
    optional: dict[str, Check]
    build: Callable[[dict, float, float, str], Scene]
    grating: Callable[[dict], GratingTarget] | None = None


def _orientation_3d(t: dict) -> Orientation3D:
    return Orientation3D(*(_rad(t[k]) for k in ("theta_h_deg", "theta_v_deg", "theta_inc_deg")))


# The kind table, the one place that knows each kind's fields.  In build,
# *common is (spacing, amp, label).
KINDS: dict[str, TargetKind] = {
    "line": TargetKind(
        required={"theta_az_deg": _angle, "length_m": _positive},
        optional={"spacing_m": _positive},
        build=lambda t, *common: line_scene(_rad(t["theta_az_deg"]), t["length_m"], *common),
        grating=lambda t: GratingTarget(_rad(t["theta_az_deg"])),
    ),
    "array": TargetKind(
        required={"theta_az_deg": _angle, "dx_m": _positive, "n": _count},
        optional={},
        build=lambda t, _spacing, *common: array_scene(
            _rad(t["theta_az_deg"]), t["dx_m"], t["n"], *common
        ),
        grating=lambda t: GratingTarget(_rad(t["theta_az_deg"]), t["dx_m"]),
    ),
    "arc": TargetKind(
        required={"radius_m": _positive, "tan_lo_deg": _angle,
                  "tan_hi_deg": _angle_above("tan_lo_deg")},
        optional={"spacing_m": _positive},
        build=lambda t, *common: arc_scene(
            t["radius_m"], _rad(t["tan_lo_deg"]), _rad(t["tan_hi_deg"]), *common
        ),
    ),
    "catenary": TargetKind(
        required={"a_m": _positive, "half_span_m": _positive, "theta_inc_deg": _incidence},
        optional={"spacing_m": _positive, "theta_h_deg": _angle},
        build=lambda t, *common: catenary_scene(
            t["a_m"], t["half_span_m"], _rad(t["theta_inc_deg"]),
            _rad(t.get("theta_h_deg", 0.0)), *common,
        ),
    ),
    # A straight 3-D segment responds like a line at the projected
    # orientation theta_az = -theta_sq of its effective squint.
    "segment3d": TargetKind(
        required={"theta_h_deg": _angle, "theta_v_deg": _angle,
                  "theta_inc_deg": _incidence, "length_m": _positive},
        optional={"spacing_m": _positive},
        build=lambda t, *common: segment3d_scene(_orientation_3d(t), t["length_m"], *common),
        grating=lambda t: GratingTarget(-effective_squint_3d(_orientation_3d(t))),
    ),
}
# Fields every target may carry; "kind" is checked against KINDS first.
_COMMON = {"kind": lambda t, key, where: t[key], "amp": _positive, "label": _label}
_RADAR = {"fc_hz": _positive, "v_mps": _positive, "rho_a_m": _positive, "rho_r_m": _positive}
_GRID = {"na": _grid_size, "nr": _grid_size}


def _validate_target(t: object, i: int | None = None) -> dict:
    where = "target" if i is None else f"targets[{i}]"
    if not isinstance(t, dict):
        raise ConfigError(f"{where}: expected an object")
    name = t.get("kind")
    if not isinstance(name, str) or name not in KINDS:
        raise ConfigError(
            f"{where}: field 'kind' must be one of {sorted(KINDS)}, got {name!r}"
        )
    kind = KINDS[name]
    out = _fields(t, kind.required, {**kind.optional, **_COMMON}, where)
    out.setdefault("label", name if i is None else f"{name}_{i}")
    out.setdefault("amp", 1.0)
    return out


def scene_config_from_dict(obj: object) -> SceneConfig:
    """Validate a decoded JSON object against the scene-config schema."""
    if not isinstance(obj, dict):
        raise ConfigError("config root must be an object")
    _check_keys(obj, ("radar", "grid", "targets"), "config")
    radar = _fields(obj.get("radar"), _RADAR, {"fdc_hz": _number}, "radar")
    params = make_params(radar["fc_hz"], radar["v_mps"], radar["rho_a_m"],
                         radar["rho_r_m"], radar.get("fdc_hz", 0.0))
    grid = _fields(obj.get("grid", {"na": 2048, "nr": 256}), _GRID, {}, "grid")
    targets = obj.get("targets")
    if not isinstance(targets, list) or not targets:
        raise ConfigError("config: field 'targets' must be a non-empty array")
    targets = [_validate_target(t, i) for i, t in enumerate(targets)]
    return SceneConfig(radar=params, na=grid["na"], nr=grid["nr"], targets=targets)


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
    """Build the scatterer cloud for one target description.

    The target is first checked against its kind's schema (ConfigError names
    the field); amp defaults to 1 and label to the kind.  Degree-valued fields
    become radians in the kind table; the default sample spacing is a quarter
    wavelength so curved shapes stay effectively continuous for the radar.
    The checked target becomes the scene's config.
    """
    target = _validate_target(target)
    scene = KINDS[target["kind"]].build(
        target, target.get("spacing_m", lam / 4), target["amp"], target["label"]
    )
    return replace(scene, config=target)


def build_scenes(cfg: SceneConfig) -> list[Scene]:
    """One scatterer cloud per configured target, in config order."""
    return [generate_scene(t, cfg.radar.lam) for t in cfg.targets]
