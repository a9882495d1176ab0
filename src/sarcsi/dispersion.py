"""Closed-form dispersion model: diffraction orders, 3D projection, hue classes.

A linear target oriented at theta_az in the imaging plane concentrates its
response at squint theta_sq = -theta_az (the zero order).  A periodic target
with azimuth spacing d_x adds grating orders at

    theta_sq_m = arcsin(m * lambda * cos(theta_az) / (2 d_x)) - theta_az

and each order lands at a Doppler frequency, hence a display colour, through
doppler_from_squint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from ._threads import check_memory
from .errors import EvanescentOrderError
from .params import (
    C,
    RadarParams,
    doppler_from_squint,
    observable,
    squint_from_doppler,
)


class Hue(str, Enum):
    """Colour class of a Doppler frequency in the three-band composite."""

    RED = "red"
    GREEN = "green"
    BLUE = "blue"
    OUT_OF_WINDOW = "out_of_window"


# The hue of each band RadarParams.band_index gives, in band order.
BAND_HUES = (Hue.RED, Hue.GREEN, Hue.BLUE)
# Bytes a row of an order table or a chart holds until its CSV is written,
# rounded up: about 460 and 380 were measured.
ROW_BYTES = 512


@dataclass(frozen=True)
class DiffractionSolution:
    """One diffraction order: its squint angle, Doppler, and visibility."""

    m: int
    theta_sq: float      # [rad]
    f_d: float           # [Hz]
    observable: bool
    hue: Hue


@dataclass(frozen=True)
class GratingTarget:
    """In-plane orientation plus an optional azimuth period.

    d_x is the spacing between neighbouring scatterers measured along
    azimuth [m]; None models a continuous target, which only has the
    zero-order response.
    """

    theta_az: float      # [rad]
    d_x: float | None = None

    def __post_init__(self) -> None:
        if not abs(self.theta_az) < math.pi / 2:
            raise ValueError("orientation must satisfy |theta_az| < 90 deg")
        if self.d_x is not None and not 0 < self.d_x < math.inf:
            raise ValueError(f"grating period must be positive and finite, got {self.d_x}")


@dataclass(frozen=True)
class Orientation3D:
    """3D linear-target orientation seen under a broadside incidence angle.

    theta_h: horizontal angle from the azimuth axis [rad]
    theta_v: vertical (slope) angle [rad]
    theta_inc: incidence angle, strictly inside (0, 90) deg
    """

    theta_h: float
    theta_v: float
    theta_inc: float

    def __post_init__(self) -> None:
        if not 0 < self.theta_inc < math.pi / 2:
            raise ValueError("incidence angle must lie strictly inside (0, 90) deg")
        if not (abs(self.theta_h) < math.pi / 2 and abs(self.theta_v) < math.pi / 2):
            raise ValueError("orientation angles must satisfy |theta| < 90 deg")

    @property
    def slope(self) -> float:
        """Slant-range metres per azimuth metre of the segment in the imaging plane."""
        return math.cos(self.theta_inc) * (
            math.tan(self.theta_inc) * math.tan(self.theta_h) + math.tan(self.theta_v)
        )


def zero_order_squint(theta_az: float) -> float:
    """Peak squint [rad] of a continuous linear target: theta_sq = -theta_az."""
    if not abs(theta_az) < math.pi / 2:
        raise ValueError("orientation must satisfy |theta_az| < 90 deg")
    return -theta_az


def high_order_squint(t: GratingTarget, m: int, lam: float) -> float:
    """Squint angle [rad] of the m-th grating order of a periodic target.

    Solves arcsin(m lam cos(theta_az) / (2 d_x)) - theta_az.  Raises
    EvanescentOrderError when the arcsine argument leaves [-1, 1], i.e. the
    order does not propagate.
    """
    if t.d_x is None:
        raise ValueError("high_order_squint needs a periodic target (d_x set)")
    arg = m * lam * math.cos(t.theta_az) / (2 * t.d_x)
    if abs(arg) > 1:
        raise EvanescentOrderError(
            f"order m={m} is evanescent: |m lam cos(theta_az)/(2 d_x)| = {abs(arg):.6g} > 1"
        )
    return math.asin(arg) - t.theta_az


def classify_hue(p: RadarParams, f_d: float) -> Hue:
    """Colour class of f_d: the band RadarParams.band_index gives it inside
    the observable window, OUT_OF_WINDOW outside it."""
    if not observable(p, f_d):
        return Hue.OUT_OF_WINDOW
    return BAND_HUES[p.band_index(f_d)]


def orders_in_window(
    t: GratingTarget,
    p: RadarParams,
    m_range: tuple[int, int],
) -> list[DiffractionSolution]:
    """All propagating diffraction orders of t with m in the inclusive range.

    Evanescent orders and backward solutions (|theta_sq| >= 90 deg) are
    omitted, not errors; continuous targets contribute only m = 0.  Entries
    are sorted by m and carry Doppler, observability, and hue.  A range whose
    rows would not fit in physical memory raises ValueError before any is
    solved.
    """
    m_lo, m_hi = m_range
    if m_lo > m_hi:
        raise ValueError(f"empty order range {m_lo}:{m_hi}")
    # Only |m| <= 2 d_x / (lam cos(theta_az)) can propagate, so the loop stops
    # one order past that; the checks below still decide the edge orders.
    bound = 0.0 if t.d_x is None else 2 * t.d_x / (p.lam * math.cos(t.theta_az))
    if math.isfinite(bound):
        m_max = math.floor(bound) + 1
        m_lo, m_hi = max(m_lo, -m_max), min(m_hi, m_max)
    rows = m_hi - m_lo + 1
    check_memory(ROW_BYTES * rows, f"a table of {rows} diffraction orders")
    out: list[DiffractionSolution] = []
    for m in range(m_lo, m_hi + 1):
        if t.d_x is None:
            if m != 0:
                continue
            theta = zero_order_squint(t.theta_az)
        else:
            try:
                theta = high_order_squint(t, m, p.lam)
            except EvanescentOrderError:
                continue
            if not abs(theta) < math.pi / 2:
                continue
        f_d = doppler_from_squint(p, theta)
        obs = observable(p, f_d)
        out.append(
            DiffractionSolution(
                m=m, theta_sq=theta, f_d=f_d, observable=obs, hue=classify_hue(p, f_d)
            )
        )
    return out


def effective_squint_3d(o: Orientation3D) -> float:
    """Peak squint [rad] of a 3D linear target projected into the imaging plane.

    tan(theta_sq) = -cos(theta_inc) * (tan(theta_inc) tan(theta_h) + tan(theta_v))
    The implied in-plane orientation is theta_az = -theta_sq.
    """
    return math.atan(-o.slope)


def invert_orientation_from_doppler(p: RadarParams, f_d):
    """In-plane orientation [rad] whose zero order peaks at Doppler f_d, elementwise."""
    return -squint_from_doppler(p, f_d)


@dataclass(frozen=True)
class ChartData:
    """Data behind the orientation-vs-squint interpretation chart.

    zero_order_curve: (theta_sq, theta_az) pairs of the main response [rad]
    order_regions: per order m != 0, (theta_sq, theta_az_low, theta_az_high)
        triples bounding the band-broadened grating response [rad]
    window: observable Doppler interval [Hz]
    band_edges: the four red/green/blue band boundaries [Hz], ascending
    """

    zero_order_curve: list[tuple[float, float]]
    order_regions: dict[int, list[tuple[float, float, float]]]
    window: tuple[float, float]
    band_edges: tuple[float, float, float, float]


def chart_data(
    p: RadarParams,
    d_x: float,
    m_set: list[int],
    theta_sq_grid: list[float],
) -> ChartData:
    """Chart of required orientation versus observed squint.

    The zero-order curve is theta_az = -theta_sq on the grid.  For each
    m != 0 the grating response occupies a region of orientations; its
    bounds come from re-solving the interference condition at the two
    carrier extremes f_c -/+ B_r/2 (wavelengths c / (f_c -/+ B_r/2)),
    which is how the range bandwidth broadens the response:

        tan(theta_az) = -tan(theta_sq) + m lam / (2 d_x cos(theta_sq))
    """
    if d_x <= 0:
        raise ValueError(f"grating period must be positive, got {d_x}")
    for theta in theta_sq_grid:
        if not abs(theta) < math.pi / 2:
            raise ValueError("grid angles must satisfy |theta_sq| < 90 deg")

    curve = [(theta, -theta) for theta in theta_sq_grid]

    lam_edges = (C / (p.f_c - p.B_r / 2), C / (p.f_c + p.B_r / 2))
    regions: dict[int, list[tuple[float, float, float]]] = {}
    for m in sorted(m_set):
        if m == 0:
            continue
        rows = []
        for theta in theta_sq_grid:
            az = [
                math.atan(-math.tan(theta) + m * lam / (2 * d_x * math.cos(theta)))
                for lam in lam_edges
            ]
            rows.append((theta, min(az), max(az)))
        regions[m] = rows

    return ChartData(
        zero_order_curve=curve,
        order_regions=regions,
        window=p.doppler_window,
        band_edges=p.band_edges,
    )


def chart_to_csv(chart: ChartData) -> str:
    """Serialize chart data to CSV with degree-valued angle columns.

    Two comment lines carry the Doppler window and band edges; zero-order
    rows have equal low and high orientation bounds.
    """
    deg = math.degrees
    lines = [
        "# doppler_window_hz," + ",".join(repr(v) for v in chart.window),
        "# band_edges_hz," + ",".join(repr(v) for v in chart.band_edges),
        "curve_id,m,theta_sq_deg,theta_az_deg_low,theta_az_deg_high",
    ]
    for theta, az in chart.zero_order_curve:
        lines.append(f"zero_order,0,{deg(theta)!r},{deg(az)!r},{deg(az)!r}")
    for m in sorted(chart.order_regions):
        for theta, lo, hi in chart.order_regions[m]:
            lines.append(f"region,{m},{deg(theta)!r},{deg(lo)!r},{deg(hi)!r}")
    return "\n".join(lines) + "\n"
