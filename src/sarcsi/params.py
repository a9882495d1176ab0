"""Acquisition parameters and the squint/Doppler conversions.

Angles are radians everywhere inside the package; degrees appear only at CLI
and file boundaries.  A squint angle theta_sq maps to Doppler frequency via

    f_d = (2V / lambda) * sin(theta_sq)

which every other module builds on; its inverse applies to arrays as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DopplerRangeError, ParameterError

# Vacuum speed of light [m/s].  Fixed, not configurable, so that derived
# golden values are reproducible bit for bit.
C = 299_792_458.0


@dataclass(frozen=True)
class RadarParams:
    """Immutable acquisition constants, checked when built.

    f_c: carrier frequency [Hz]
    V: platform speed [m/s]
    rho_a: azimuth resolution [m]
    rho_r: slant-range resolution [m]
    f_dc: Doppler centroid [Hz], 0 for broadside acquisitions

    Bandwidths follow the usual SAR resolution relations B_a = V / rho_a and
    B_r = c / (2 rho_r).  Values that are not finite or not positive, a
    bandwidth or Doppler span 2V/lambda that is not (it overflows, or
    underflows to 0), or an azimuth band beyond the realizable Doppler span,
    raise ParameterError.
    """

    f_c: float
    V: float
    rho_a: float
    rho_r: float
    f_dc: float = 0.0

    def __post_init__(self) -> None:
        bad = [f"{k}={v}" for k, v in vars(self).items() if not math.isfinite(v)]
        if bad:
            raise ParameterError(f"parameters must be finite, got {', '.join(bad)}")
        if self.f_c <= 0 or self.V <= 0 or self.rho_a <= 0 or self.rho_r <= 0:
            raise ParameterError(
                "f_c, V, rho_a, rho_r must all be positive, got "
                f"f_c={self.f_c}, V={self.V}, rho_a={self.rho_a}, rho_r={self.rho_r}"
            )
        # finite inputs can still overflow (2 rho_r, 2V/lambda) or underflow
        # (V / rho_a) in what derives from them
        rates = {"B_a": self.B_a, "B_r": self.B_r, "2V/lambda": 2 * self.V / self.lam}
        bad = [f"{k}={v}" for k, v in rates.items() if not 0 < v < math.inf]
        if bad:
            raise ParameterError(f"derived rates must be positive and finite, got "
                                 f"{', '.join(bad)} Hz")
        # The window edges must stay inside the realizable Doppler span, else
        # squint_from_doppler is undefined there.
        if self.B_a >= 2 * self.V / self.lam:
            raise ParameterError(
                f"azimuth bandwidth {self.B_a} Hz reaches beyond the realizable "
                f"Doppler span 2V/lambda = {2 * self.V / self.lam} Hz (rho_a <= lambda/2)"
            )

    @property
    def B_a(self) -> float:
        """Azimuth (Doppler) bandwidth [Hz]."""
        return self.V / self.rho_a

    @property
    def B_r(self) -> float:
        """Range bandwidth [Hz]."""
        return C / (2 * self.rho_r)

    @property
    def lam(self) -> float:
        """Wavelength [m], always derived as c / f_c."""
        return C / self.f_c

    @property
    def doppler_window(self) -> tuple[float, float]:
        """Observable Doppler interval [f_dc - B_a/2, f_dc + B_a/2] in Hz."""
        return (self.f_dc - self.B_a / 2, self.f_dc + self.B_a / 2)

    @property
    def band_edges(self) -> tuple[float, float, float, float]:
        """The window cut into equal red, green, blue thirds: four edges [Hz], ascending."""
        lo, hi = self.doppler_window
        return (lo, self.f_dc - self.B_a / 6, self.f_dc + self.B_a / 6, hi)

    def band_index(self, f_d):
        """Band of a Doppler in the window, elementwise: 0 red, 1 green, 2 blue.

        Red is [lo, e1), green [e1, e2] closed, blue (e2, hi]: the one band
        rule, which hue classification and sub-band splitting both apply.
        """
        _, e1, e2, _ = self.band_edges
        # "* 1" so numpy adds the two boolean arrays instead of OR-ing them
        return (f_d >= e1) * 1 + (f_d > e2)


def doppler_from_squint(p: RadarParams, theta_sq: float) -> float:
    """Doppler frequency [Hz] of the squint angle theta_sq [rad]."""
    if not abs(theta_sq) < math.pi / 2:
        raise ValueError(f"squint angle must satisfy |theta_sq| < 90 deg, got {theta_sq} rad")
    return 2 * p.V / p.lam * math.sin(theta_sq)


def squint_from_doppler(p: RadarParams, f_d):
    """Squint angle [rad] observing Doppler f_d, elementwise; inverse of
    doppler_from_squint.  Any |f_d| beyond 2V/lambda raises DopplerRangeError."""
    arg = p.lam * f_d / (2 * p.V)
    if np.any(np.abs(arg) > 1):
        raise DopplerRangeError(
            f"Doppler reaches |f_d| = {np.max(np.abs(f_d)):.6g} Hz, beyond the "
            f"realizable 2V/lambda = {2 * p.V / p.lam:.6g} Hz"
        )
    return np.arcsin(arg)


def observable(p: RadarParams, f_d: float) -> bool:
    """True when f_d falls inside the captured Doppler window (edges inclusive)."""
    lo, hi = p.doppler_window
    return lo <= f_d <= hi
