"""Independent references for the simulator: peak oracles and the ideal PSF.

These compute the same physics as the simulator by other routes (the array
factor sampled on a frequency grid, a time-domain integral over the line's
focused envelope, the closed-form point response), so tests and acceptance
criteria C3 and C8 can check the simulator against them.  The plain
shift-and-transform focusing and CSI composition the library once used are
kept here too, as references for its faster forms, and so is the complex
band focusing the library used before it focused bands straight into
magnitudes.  They are test code, not part of the sarcsi library.
"""

import math
from dataclasses import dataclass

import numpy as np

from sarcsi.analysis import peak_indices
from sarcsi.csi import _centred_ifft
from sarcsi.params import C, RadarParams, doppler_from_squint
from sarcsi.simulator import SpectrumGrid


@dataclass(frozen=True)
class ComplexImage:
    """Focused complex image on the (slow-time, fast-time) grid dual to a spectrum.

    data is (na, nr), possibly the transposed view of an (nr, na) array.
    t_a spans na/B_a seconds of slow time (V * na/B_a metres of azimuth), t_r
    spans nr/B_r seconds of fast time ((c/2) * nr/B_r metres of slant range).
    """

    data: np.ndarray
    t_a: np.ndarray
    t_r: np.ndarray
    params: RadarParams


def _focus(g: SpectrumGrid, lo: int, hi: int) -> ComplexImage:
    """Image of spectrum rows lo:hi alone, the others zero, built range-major
    as split_subbands builds its bands before their magnitudes: the rows are
    columns lo:hi of an (nr, na) array and take the range IFFT there alone,
    then the azimuth IFFT runs along the contiguous axis.  Even sizes only."""
    na, nr = g.data.shape
    data = np.zeros((nr, na), g.data.dtype)
    data[:, lo:hi] = g.data[lo:hi].T
    _centred_ifft(data[:, lo:hi], 0)
    _centred_ifft(data, 1)
    t_a = (np.arange(na) - na // 2) / g.params.B_a
    t_r = (np.arange(nr) - nr // 2) / g.params.B_r
    return ComplexImage(data.T, t_a, t_r, g.params)


def focus_image(g: SpectrumGrid) -> ComplexImage:
    """Inverse 2D unitary DFT of the spectrum; energy is preserved exactly."""
    return _focus(g, 0, g.data.shape[0])


def _cos_squint(p: RadarParams, f: np.ndarray) -> np.ndarray:
    """cos(theta_sq) at Doppler f, written out here rather than taken from
    the library so that the oracles stay independent of the code they check."""
    return np.cos(np.arcsin(p.lam * f / (2 * p.V)))


def render_psf(p: RadarParams, theta_sq: float, na: int, nr: int) -> ComplexImage:
    """Focused response of an ideal point seen at squint theta_sq.

    Both sinc envelopes shrink their effective bandwidth by cos(theta_sq),
    and the carrier rides at (f_c cos(theta_sq), f_d).  Peak magnitude is 1
    at the grid origin.
    """
    if not abs(theta_sq) < math.pi / 2:
        raise ValueError("squint must satisfy |theta_sq| < 90 deg")
    co = math.cos(theta_sq)
    f_d = doppler_from_squint(p, theta_sq)
    t_a = (np.arange(na) - na // 2) / p.B_a
    t_r = (np.arange(nr) - nr // 2) / p.B_r
    env = np.outer(np.sinc(t_a * p.B_a * co), np.sinc(t_r * p.B_r * co))
    carrier = np.exp(
        2j * np.pi * (f_d * t_a[:, None] + p.f_c * co * t_r[None, :])
    )
    return ComplexImage(data=env * carrier, t_a=t_a, t_r=t_r, params=p)


def dirichlet_peaks_oracle(
    n_elem: int,
    d_u: float,
    K: float,
    p: RadarParams,
    f_grid: np.ndarray,
) -> np.ndarray:
    """Brute-force array-factor oracle for the diffraction-order frequencies.

    Evaluates |sum_n exp(j2pi (f_d + f_c K cos(theta_sq(f_d))) n d_u)| on
    f_grid and keeps local maxima at or above half the coherent maximum
    n_elem, which deterministically rejects sidelobes (largest is about
    0.217 n_elem).  Every returned frequency makes the interference argument
    (f_d + f_c K cos theta_sq) d_u lie within 1/n_elem of an integer.
    """
    if n_elem < 2:
        raise ValueError("array factor needs at least 2 elements")
    if d_u <= 0:
        raise ValueError(f"element step must be positive, got {d_u}")
    f = np.asarray(f_grid, dtype=float)
    phi = (f + p.f_c * K * _cos_squint(p, f)) * d_u    # cycles per element
    amp = np.abs(np.exp(2j * np.pi * np.outer(phi, np.arange(n_elem))).sum(axis=1))
    return f[peak_indices(amp, n_elem / 2)]


def zero_order_peak_oracle(
    theta_az: float,
    p: RadarParams,
    f_grid: np.ndarray,
    support_cells: int = 32,
) -> float:
    """Time-domain oracle for the zero-order peak of a line at theta_az.

    For each candidate Doppler the line's focused azimuth envelope (the
    magnitude of the two sinc factors, bandwidths scaled by cos theta) is
    integrated against the residual carrier f' = f_d + f_c K cos(theta);
    the integral magnitude is maximal where f' crosses zero.  The u support
    spans support_cells azimuth resolution cells (at least 20, else the
    envelope truncation biases the argmax).
    """
    if not abs(theta_az) < math.pi / 2:
        raise ValueError("orientation must satisfy |theta_az| < 90 deg")
    if support_cells < 20:
        raise ValueError("need integration support of at least 20 azimuth cells")
    f = np.asarray(f_grid, dtype=float)
    K = math.tan(theta_az) * 2 * p.V / C
    cos_th = _cos_squint(p, f)
    f_prime = f + p.f_c * K * cos_th

    half = support_cells / 2 / p.B_a
    u = np.linspace(-half, half, support_cells * 128 + 1)
    vals = np.empty(f.size)
    # Chunk the candidate axis: the (chunk, u) intermediates stay ~10 MB.
    for lo in range(0, f.size, 128):
        sl = slice(lo, min(lo + 128, f.size))
        co = cos_th[sl, None]
        env = np.abs(
            np.sinc(u[None, :] * p.B_a * co) * np.sinc(u[None, :] * K * p.B_r * co)
        )
        phase = np.exp(2j * np.pi * f_prime[sl, None] * u[None, :])
        vals[sl] = np.abs(np.trapezoid(env * phase, u, axis=1))
    return float(f[np.argmax(vals)])


def focus_reference(data: np.ndarray) -> np.ndarray:
    """Centred unitary inverse 2D DFT, written with the explicit shifts."""
    return np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(data), norm="ortho"))


def split_subbands_reference(g: SpectrumGrid) -> list[np.ndarray]:
    """(red, green, blue) complex band images: mask each band's rows, focus
    in 2D.  Each is (nr, na), one row per range bin, as split_subbands'."""
    band = g.params.band_index(g.f_a)
    out = []
    for b in range(3):
        masked = np.zeros_like(g.data)
        np.copyto(masked, g.data, where=(band == b)[:, None])
        out.append(focus_reference(masked).T)
    return out


def compose_rgb_reference(
    r: np.ndarray, g: np.ndarray, b: np.ndarray, norm: str = "linear"
) -> np.ndarray:
    """Joint-normalized (height, width, 3) uint8 pixels of three (height,
    width) magnitude rasters, in plain steps."""
    stack = np.stack([np.abs(r), np.abs(g), np.abs(b)], axis=-1)
    if norm == "linear":
        ref = stack.max()
    else:
        ref = float(np.percentile(stack, 99.9))
    if ref > 0:
        stack = np.minimum(stack / ref, 1.0)
    return np.floor(stack * 255 + 0.5).astype(np.uint8)
