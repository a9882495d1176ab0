"""Focusing and colorized sub-aperture composition: three Doppler bands become R, G, B.

A spectrum is focused by a unitary inverse 2D DFT, so energy checks need no
tolerance.  The azimuth spectrum is cut into the three equal thirds of the
Doppler window that classify_hue names, low to high Doppler mapping to red,
green, blue.  Each band is focused from its own rows and the three magnitudes
are composed into one 8-bit image, so a target's colour encodes where its
energy sits in Doppler, hence its orientation.  By Parseval a band image's
energy is the summed power of its spectrum rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import RadarParams
from .simulator import SpectrumGrid, _threaded_map

NORM_MODES = ("linear", "clip_p999")


@dataclass(frozen=True)
class RGBImage:
    """8-bit RGB raster, row-major, one row per slant-range line."""

    width: int
    height: int
    pixels: np.ndarray   # (height, width, 3) uint8

    def __post_init__(self) -> None:
        if self.pixels.shape != (self.height, self.width, 3):
            raise ValueError("pixels must be (height, width, 3)")
        if self.pixels.dtype != np.uint8:
            raise ValueError("pixels must be uint8")


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


def _centred_ifft(x: np.ndarray, axis: int) -> None:
    """Unitary fftshift(ifft(ifftshift(x))) along axis, in place.  For even n
    both shifts are exact sign flips: (-1)^(m - n/2) ifft((-1)^k x)[m]."""
    n = x.shape[axis]
    if n % 2:
        shifted = np.fft.ifft(np.fft.ifftshift(x, axis), axis=axis, norm="ortho")
        x[...] = np.fft.fftshift(shifted, axis)
        return
    lines = np.moveaxis(x, axis, 0)
    np.negative(lines[1::2], out=lines[1::2])
    np.fft.ifft(x, axis=axis, norm="ortho", out=x)
    odd = lines[(n // 2 + 1) % 2 :: 2]          # m - n/2 odd
    np.negative(odd, out=odd)


def _focus(g: SpectrumGrid, lo: int, hi: int) -> ComplexImage:
    """Image of spectrum rows lo:hi alone, the others zero, built range-major:
    the rows are columns lo:hi of an (nr, na) array and take the range IFFT
    there alone, then the azimuth IFFT runs along the contiguous axis."""
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


def split_subbands(
    g: SpectrumGrid,
) -> tuple[ComplexImage, ComplexImage, ComplexImage]:
    """Focus each colour band of the spectrum separately.

    Every azimuth bin goes to the band RadarParams.band_index gives its
    Doppler f_a, the rule classify_hue applies, so the colour a frequency is
    predicted in is the colour it is rendered in.  Each bin lands in exactly
    one band and the DFT is unitary, so each band image carries exactly the
    power of its rows.  The band index rises with f_a, so on an ascending f_a
    each band is one run of rows, focused from those rows on a worker thread.
    Returns (red, green, blue) complex images, range-major (see _focus).
    """
    if g.data.shape[0] < 3:
        raise ValueError("need at least 3 azimuth bins to split into bands")
    if np.any(np.diff(g.f_a) <= 0):
        raise ValueError("the Doppler axis f_a must be strictly ascending")
    cuts = np.searchsorted(g.params.band_index(g.f_a), range(4)).tolist()
    return tuple(_threaded_map(lambda b: _focus(g, cuts[b], cuts[b + 1]), range(3)))


def _normalizer(x: np.ndarray, norm: str) -> float:
    """The shared normalizer of a flat magnitude stack x, without a copy of x:
    its maximum ("linear"), or exactly numpy's linear-rule percentile of x at
    99.9 ("clip_p999"), interpolated between two of the need largest values;
    those are all >= t, the need-th largest group maximum.  NaN or inf: ValueError."""
    n = x.size
    m = n - n % 64    # maxima of 64-member interleaved groups, the tail as groups of one
    top = np.concatenate((x[:m].reshape(64, -1).max(axis=0), x[m:]))
    if not np.isfinite(top).all():    # NaN and inf survive the maxima
        raise ValueError("channel grids must be finite")
    if norm == "linear":
        return float(top.max())
    vi = (n - 1) * (99.9 / 100)    # numpy's q is 99.9 / 100, not the literal 0.999
    j = int(vi)    # floor, as vi >= 0
    gamma = vi - j
    need = n - j
    t = np.partition(top, -need)[-need] if need <= top.size else -np.inf
    cand = x[x >= t]
    k = j - (n - cand.size)
    ks = [k, min(k + 1, cand.size - 1)]
    a, b = np.partition(cand, ks)[ks]
    d = b - a
    return float(b - d * (1 - gamma) if gamma >= 0.5 else a + d * gamma)   # numpy's _lerp


def compose_rgb(
    r: np.ndarray, g: np.ndarray, b: np.ndarray, norm: str = "linear"
) -> RGBImage:
    """Fuse three per-band grids into one 8-bit RGB raster of their magnitudes.

    The channels share a single normalizer so their relative strengths, and
    therefore the perceived hue, survive quantization: the joint maximum
    (norm="linear") or numpy's linear-rule joint 99.9th percentile with
    clipping (norm="clip_p999"), selected without a copy.  Grids arrive
    azimuth-major and come out as an image with azimuth across and range
    down.  |.| of each grid's transpose (contiguous for split_subbands' images)
    goes into one (height, width, 3) array, quantized in place into the pixels,
    rounding half up, in 64-row tiles on worker threads.  NaN or inf: ValueError.
    """
    if norm not in NORM_MODES:
        raise ValueError(f"norm must be one of {NORM_MODES}, got {norm!r}")
    if not (r.shape == g.shape == b.shape and r.ndim == 2 and r.size):
        raise ValueError("channel grids must be three equal-shape non-empty 2-D arrays")
    stack = np.empty(r.shape[::-1] + (3,))
    tiles = range(0, stack.shape[0], 64)

    def magnitudes(lo: int) -> None:
        for c, grid in enumerate((r, g, b)):
            np.abs(grid.T[lo : lo + 64], out=stack[lo : lo + 64, :, c])

    list(_threaded_map(magnitudes, tiles))
    ref = _normalizer(stack.reshape(-1), norm)
    pixels = np.empty(stack.shape, np.uint8)

    def quantize(lo: int) -> None:
        tile = stack[lo : lo + 64]
        if ref > 0:
            tile /= ref
            np.minimum(tile, 1.0, out=tile)
        # round-half-up, so 0.5 steps are platform-independent (unlike np.round)
        tile *= 255
        tile += 0.5
        pixels[lo : lo + 64] = np.floor(tile, out=tile)

    list(_threaded_map(quantize, tiles))
    return RGBImage(width=pixels.shape[1], height=pixels.shape[0], pixels=pixels)


def encode_ppm(img: RGBImage) -> bytes:
    """Binary PPM (P6) bytes: tiny header, then raw RGB triplets."""
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()
