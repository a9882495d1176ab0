"""Target kinds, the JSON scene-config parser and scene generation.

Scenes live in the slant plane: x is azimuth [m], y is slant range [m],
both relative to the scene centre.  The kind table KINDS gives each target
kind its fields, their checks and its geometry; generate_scene checks a
target and turns it into a flat cloud of (x, y, amp) samples.  Curved
shapes are discretized densely enough (quarter-wavelength steps by default)
that they behave as continuous reflectors in the simulated spectrum.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ._threads import check_memory
from .dispersion import GratingTarget, Orientation3D, effective_squint_3d
from .errors import ConfigError
from .params import RadarParams

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
    )


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


def _incidence(t: dict, key: str, where: str) -> float:
    # checked in radians, as the geometry takes it: 5e-324 deg is 0 rad
    v = _number(t, key, where)
    if not 0 < _rad(v) < math.pi / 2:
        raise ConfigError(f"{where}: field {key!r} must lie in (0, 90)")
    return v


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
    """One target kind: its config fields, its geometry and its analytic model.

    required, optional: field name -> check, applied in this order.
    count(target, spacing) -> the scatterer count of a checked target, an
    int, or infinity where its extent over the spacing overflows.
    build(target, n) -> (x, y), the positions [m] of its n scatterers; it
    reads the degree fields and turns them into radians.
    grating(target) -> GratingTarget, the model `analyze` checks the kind
    against; None for kinds with no single closed-form prediction per order.
    """

    required: dict[str, Check]
    optional: dict[str, Check]
    count: Callable[[dict, float], float]
    build: Callable[[dict, int], tuple[np.ndarray, np.ndarray]]
    grating: Callable[[dict], GratingTarget] | None = None


def _orientation_3d(t: dict) -> Orientation3D:
    return Orientation3D(*(_rad(t[k]) for k in ("theta_h_deg", "theta_v_deg", "theta_inc_deg")))


def _sample_count(extent: float, spacing: float) -> float:
    # At least two samples so every shape has nonzero support.
    ratio = extent / spacing
    return max(2, round(ratio) + 1) if math.isfinite(ratio) else math.inf


def _line(t: dict, n: int) -> tuple[np.ndarray, np.ndarray]:
    theta_az, length = _rad(t["theta_az_deg"]), t["length_m"]
    u = np.linspace(-length / 2, length / 2, n)
    return u * math.cos(theta_az), u * math.sin(theta_az)


def _array(t: dict, n: int) -> tuple[np.ndarray, np.ndarray]:
    # dx_m is the period along azimuth, not along the row: that azimuth
    # period is what fixes the grating-order angles.
    x = (np.arange(n) - (n - 1) / 2) * t["dx_m"]
    return x, x * math.tan(_rad(t["theta_az_deg"]))


def _arc_length(t: dict) -> float:
    return t["radius_m"] * (_rad(t["tan_hi_deg"]) - _rad(t["tan_lo_deg"]))


def _arc(t: dict, n: int) -> tuple[np.ndarray, np.ndarray]:
    # The tangent sweeps [tan_lo, tan_hi], one orientation per point; the
    # arc's midpoint sits at the origin.
    radius, lo, hi = t["radius_m"], _rad(t["tan_lo_deg"]), _rad(t["tan_hi_deg"])
    theta = np.linspace(lo, hi, n)
    theta_c = (lo + hi) / 2
    return (radius * (np.sin(theta) - math.sin(theta_c)),
            -radius * (np.cos(theta) - math.cos(theta_c)))


def _catenary(t: dict, n: int) -> tuple[np.ndarray, np.ndarray]:
    # z(u) = a cosh(u/a) - a hangs in a vertical plane at theta_h from
    # azimuth.  Height folds into slant range with cos(theta_inc), ground
    # range with sin(theta_inc); the curve is recentred on its bounding box.
    a, half_span = t["a_m"], t["half_span_m"]
    theta_inc, theta_h = _rad(t["theta_inc_deg"]), _rad(t.get("theta_h_deg", 0.0))
    u = np.linspace(-half_span, half_span, n)
    z = a * np.cosh(u / a) - a
    y = u * math.sin(theta_h) * math.sin(theta_inc) + z * math.cos(theta_inc)
    return u * math.cos(theta_h), y - (y.min() + y.max()) / 2


def _segment3d(t: dict, n: int) -> tuple[np.ndarray, np.ndarray]:
    # Sampled along azimuth; the slope is the one whose arctangent
    # effective_squint_3d returns, so the segment sits at exactly the
    # orientation the model predicts for it.
    length = t["length_m"]
    x = np.linspace(-length / 2, length / 2, n)
    return x, x * _orientation_3d(t).slope


# The kind table, the one place that knows each kind's fields and geometry.
KINDS: dict[str, TargetKind] = {
    "line": TargetKind(
        required={"theta_az_deg": _angle, "length_m": _positive},
        optional={"spacing_m": _positive},
        count=lambda t, spacing: _sample_count(t["length_m"], spacing),
        build=_line,
        grating=lambda t: GratingTarget(_rad(t["theta_az_deg"])),
    ),
    "array": TargetKind(
        required={"theta_az_deg": _angle, "dx_m": _positive, "n": _count},
        optional={},
        count=lambda t, _spacing: t["n"],
        build=_array,
        grating=lambda t: GratingTarget(_rad(t["theta_az_deg"]), t["dx_m"]),
    ),
    "arc": TargetKind(
        required={"radius_m": _positive, "tan_lo_deg": _angle,
                  "tan_hi_deg": _angle_above("tan_lo_deg")},
        optional={"spacing_m": _positive},
        count=lambda t, spacing: _sample_count(_arc_length(t), spacing),
        build=_arc,
    ),
    "catenary": TargetKind(
        required={"a_m": _positive, "half_span_m": _positive, "theta_inc_deg": _incidence},
        optional={"spacing_m": _positive, "theta_h_deg": _angle},
        count=lambda t, spacing: _sample_count(2 * t["half_span_m"], spacing),
        build=_catenary,
    ),
    # A straight 3-D segment responds like a line at the projected
    # orientation theta_az = -theta_sq of its effective squint.
    "segment3d": TargetKind(
        required={"theta_h_deg": _angle, "theta_v_deg": _angle,
                  "theta_inc_deg": _incidence, "length_m": _positive},
        optional={"spacing_m": _positive},
        count=lambda t, spacing: _sample_count(t["length_m"], spacing),
        build=_segment3d,
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
    params = RadarParams(radar["fc_hz"], radar["v_mps"], radar["rho_a_m"],
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


def _counted(target: dict, lam: float) -> tuple[dict, int]:
    """The checked target and its scatterer count, checked to be finite and
    for its x, y and amp arrays (24 bytes per scatterer) to fit in physical
    memory."""
    target = _validate_target(target)
    label = target["label"]
    n = KINDS[target["kind"]].count(target, target.get("spacing_m", lam / 4))
    if not math.isfinite(n):
        raise ConfigError(f"target {label!r}: its extent over its sample spacing "
                          "gives no finite scatterer count")
    check_memory(24 * n, f"target {label!r} of {n} scatterers")
    return target, n


def _build(target: dict, n: int) -> Scene:
    label = target["label"]
    with np.errstate(over="ignore", invalid="ignore"):
        x, y = KINDS[target["kind"]].build(target, n)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ConfigError(f"target {label!r}: its scatterer positions are not finite "
                          "(the geometry overflows)")
    return Scene(x, y, np.full(x.size, target["amp"]), label, config=target)


def generate_scene(target: dict, lam: float) -> Scene:
    """Build the scatterer cloud for one target description.

    The target is first checked against its kind's schema (ConfigError names
    the field); amp defaults to 1 and label to the kind.  The default sample
    spacing is a quarter wavelength so curved shapes stay effectively
    continuous for the radar.  The scatterer count is checked before any
    array is built: a count that is not finite is a ConfigError, one whose
    positions and amplitudes need more than physical memory a ValueError.
    Then the kind's build places the scatterers, and positions that are not
    finite (the geometry overflowed) are a ConfigError.  Each error names the
    target.  The checked target becomes the scene's config.
    """
    return _build(*_counted(target, lam))


def build_scenes(cfg: SceneConfig) -> list[Scene]:
    """One scatterer cloud per configured target, in config order.

    Every target's count is checked as generate_scene checks it, and then
    their total, before any is built: a simulation holds every target's
    arrays and their merged copy, 48 bytes per scatterer.  A total beyond
    physical memory raises ValueError.
    """
    counted = [_counted(t, cfg.radar.lam) for t in cfg.targets]
    total = sum(n for _, n in counted)
    check_memory(48 * total, f"a scene of {total} scatterers")
    return [_build(t, n) for t, n in counted]
