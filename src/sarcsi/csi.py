"""Focusing and colorized sub-aperture composition: three Doppler bands become R, G, B.

A spectrum is focused by a unitary inverse 2D DFT, so energy checks need no
tolerance.  The azimuth spectrum is cut into the three equal thirds of the
Doppler window that classify_hue names, low to high Doppler mapping to red,
green, blue.  Each band is focused from its own rows and the three magnitudes
are composed into one 8-bit image, so a target's colour encodes where its
energy sits in Doppler, hence its orientation.  The composition builds no
magnitude stack and selects its 99.9th percentile exactly from a few values.
By Parseval a band image's energy is the summed power of its spectrum rows.
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


def _p999(n: int, top: np.ndarray, above) -> float:
    """Exactly numpy's linear-rule percentile at 99.9 of n values, without a
    copy of them: top holds the maxima of any grouping of the values, above(t)
    returns those > t.  The percentile lies between two of the need largest
    values; those are all >= t, the need-th largest group maximum, and at most
    need - 1 groups hold a value > t, so few are selected.  The need largest
    that are not > t equal t."""
    vi = (n - 1) * (99.9 / 100)    # numpy's q is 99.9 / 100, not the literal 0.999
    j = int(vi)    # floor, as vi >= 0
    gamma = vi - j
    need = n - j
    t = np.partition(top, -need)[-need] if need <= top.size else -np.inf
    cand = above(t)
    cand = np.concatenate((np.full(max(need - cand.size, 0), t), cand))
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
    clipping (norm="clip_p999").  Grids arrive azimuth-major and come out as
    an image with azimuth across and range down.  No magnitude stack is
    built: the passes run over 64-row tiles of the transposes (contiguous for
    split_subbands' images) on worker threads, each taking |.| of one channel
    at a time into scratch the size of a tile.  The first keeps the column
    maxima of every tile; for clip_p999 a second selects the values above a
    bound set by those maxima, from the columns that exceed it, and the
    percentile exactly from them; the last quantizes straight into the pixels,
    rounding half up.  NaN or inf: ValueError.
    """
    if norm not in NORM_MODES:
        raise ValueError(f"norm must be one of {NORM_MODES}, got {norm!r}")
    if not (r.shape == g.shape == b.shape and r.ndim == 2 and r.size):
        raise ValueError("channel grids must be three equal-shape non-empty 2-D arrays")
    height, width = r.shape[::-1]
    tiles = range(0, height, 64)

    def magnitudes(lo: int):    # |.| of each channel's tile at lo in turn, in one scratch
        scratch = np.empty((min(64, height - lo), width))
        for grid in (r, g, b):
            yield np.abs(grid.T[lo : lo + 64], out=scratch)

    def maxima(lo: int) -> np.ndarray:
        return np.stack([m.max(axis=0) for m in magnitudes(lo)])

    top = np.stack(list(_threaded_map(maxima, tiles)))    # (tile, channel, column)
    if not np.isfinite(top).all():    # NaN and inf survive the maxima
        raise ValueError("channel grids must be finite")
    if norm == "linear":
        ref = float(top.max())
    else:
        def above(t: float) -> np.ndarray:
            def select(lo: int) -> np.ndarray:    # from the columns whose maximum is > t
                tops = top[lo // 64] > t
                cols = [np.abs(grid.T[lo : lo + 64, tops[c]]) for c, grid in enumerate((r, g, b))]
                return np.concatenate([v[v > t] for v in cols])

            return np.concatenate(list(_threaded_map(select, tiles)))

        ref = _p999(3 * r.size, top.reshape(-1), above)
    pixels = np.empty((height, width, 3), np.uint8)

    def quantize(lo: int) -> None:
        for c, tile in enumerate(magnitudes(lo)):
            if ref > 0:
                tile /= ref
                np.minimum(tile, 1.0, out=tile)
            # round-half-up, so 0.5 steps are platform-independent (unlike np.round)
            tile *= 255
            tile += 0.5
            pixels[lo : lo + 64, :, c] = np.floor(tile, out=tile)

    list(_threaded_map(quantize, tiles))
    return RGBImage(width=width, height=height, pixels=pixels)


def encode_ppm(img: RGBImage) -> bytes:
    """Binary PPM (P6) bytes: tiny header, then raw RGB triplets."""
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()
