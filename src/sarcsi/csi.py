"""Focusing and colorized sub-aperture composition: three Doppler bands become R, G, B.

The azimuth spectrum is cut into the three equal thirds of the Doppler window
that classify_hue names, low to high Doppler mapping to red, green, blue.
Each band is focused from its own rows by a unitary inverse 2D DFT, straight
into its magnitudes, and the three magnitudes are composed into one 8-bit
image, so a target's colour encodes where its energy sits in Doppler, hence
its orientation.  By Parseval a band's energy is the summed power of its
spectrum rows.  The composition builds no magnitude stack and selects its
99.9th percentile exactly from a few values.
"""

from __future__ import annotations

from collections import deque
from itertools import product

import numpy as np

from ._threads import check_memory, threaded_map, workers
from .simulator import SpectrumGrid

NORM_MODES = ("linear", "clip_p999")
TILE = 64    # spectrum rows, range bins or raster rows a worker takes at a time
SCRATCH_POINTS = 1 << 16    # complex points (1 MiB) of a band job's scratch, at most


def _centred_ifft(x: np.ndarray, axis: int) -> None:
    """Unitary fftshift(ifft(ifftshift(x))) along an axis of even length n, in
    place: both shifts are exact sign flips, (-1)^(m - n/2) ifft((-1)^k x)[m]."""
    n = x.shape[axis]
    lines = np.moveaxis(x, axis, 0)
    np.negative(lines[1::2], out=lines[1::2])
    np.fft.ifft(x, axis=axis, norm="ortho", out=x)
    odd = lines[(n // 2 + 1) % 2 :: 2]          # m - n/2 odd
    np.negative(odd, out=odd)


def split_subbands(g: SpectrumGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Focus each colour band of the spectrum separately, into its magnitudes.

    Every azimuth bin goes to the band RadarParams.band_index gives its
    Doppler f_a, the rule classify_hue applies, so the colour a frequency is
    predicted in is the colour it is rendered in.  Each bin lands in exactly
    one band and the DFT is unitary, so each band image carries exactly the
    power of its rows.  The band index rises with f_a, which ascends, so each
    band is one run of rows.

    The spectrum is consumed.  Its rows take the range IFFT in place, in row
    tiles: each row lies in one band, so one pass serves all three.  Then each
    (band, range tile) job copies the band's rows of its bins, transposed,
    into a zero-filled (bins, na) scratch, takes the azimuth IFFT there and
    writes |.| into the band's magnitudes; a tile has TILE bins, fewer when
    na > SCRATCH_POINTS / TILE, so a scratch holds at most SCRATCH_POINTS.
    Both passes run on worker threads.  Returns (red, green, blue) float64
    (nr, na) magnitude rasters: one row per range bin, one column per Doppler
    bin, as in the PPM.  The stage peaks with the spectrum, the rasters and a
    scratch per worker live; when those need more than physical memory,
    ValueError is raised before any work.
    """
    data = g.data
    na, nr = data.shape
    bins = max(1, min(TILE, SCRATCH_POINTS // na))
    jobs = list(product(range(3), range(0, nr, bins)))
    check_memory(data.nbytes + 24 * na * nr + workers(len(jobs)) * 16 * bins * na,
                 f"splitting a {na}x{nr} spectrum")
    cuts = np.searchsorted(g.params.band_index(g.f_a), range(4)).tolist()
    deque(threaded_map(lambda lo: _centred_ifft(data[lo : lo + TILE], 1), range(0, na, TILE)),
          maxlen=0)
    mags = [np.empty((nr, na)) for _ in range(3)]

    def focus(job: tuple[int, int]) -> None:
        b, lo = job
        rows = slice(cuts[b], cuts[b + 1])
        scratch = np.zeros((min(bins, nr - lo), na), data.dtype)
        scratch[:, rows] = data[rows, lo : lo + bins].T
        _centred_ifft(scratch, 1)
        np.abs(scratch, out=mags[b][lo : lo + bins])

    deque(threaded_map(focus, jobs), maxlen=0)
    return tuple(mags)


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
) -> np.ndarray:
    """Fuse three (height, width) band rasters into the (height, width, 3)
    uint8 pixels of their magnitudes.

    The channels share a single normalizer so their relative strengths, and
    therefore the perceived hue, survive quantization: the joint maximum
    (norm="linear") or numpy's linear-rule joint 99.9th percentile with
    clipping (norm="clip_p999").  No magnitude stack is built: the passes
    run over TILE-row tiles of the rasters on worker threads, each taking |.|
    of one channel at a time into scratch the size of a tile.  The first
    keeps the column maxima of every tile; for clip_p999 a second selects the
    values above a bound set by those maxima, from the columns that exceed
    it, and the percentile exactly from them; the last quantizes straight
    into the pixels, rounding half up.  NaN or inf: ValueError.
    """
    if norm not in NORM_MODES:
        raise ValueError(f"norm must be one of {NORM_MODES}, got {norm!r}")
    if not (r.shape == g.shape == b.shape and r.ndim == 2 and r.size):
        raise ValueError("channel grids must be three equal-shape non-empty 2-D arrays")
    height, width = r.shape
    tiles = range(0, height, TILE)

    def magnitudes(lo: int):    # |.| of each channel's tile at lo in turn, in one scratch
        scratch = np.empty((min(TILE, height - lo), width))
        for grid in (r, g, b):
            yield np.abs(grid[lo : lo + TILE], out=scratch)

    def maxima(lo: int) -> np.ndarray:
        return np.stack([m.max(axis=0) for m in magnitudes(lo)])

    top = np.stack(list(threaded_map(maxima, tiles)))    # (tile, channel, column)
    if not np.isfinite(top).all():    # NaN and inf survive the maxima
        raise ValueError("channel grids must be finite")
    if norm == "linear":
        ref = float(top.max())
    else:
        def above(t: float) -> np.ndarray:
            def select(lo: int) -> np.ndarray:    # from the columns whose maximum is > t
                tops = top[lo // TILE] > t
                cols = [np.abs(grid[lo : lo + TILE, tops[c]])
                        for c, grid in enumerate((r, g, b))]
                return np.concatenate([v[v > t] for v in cols])

            return np.concatenate(list(threaded_map(select, tiles)))

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
            pixels[lo : lo + TILE, :, c] = np.floor(tile, out=tile)

    list(threaded_map(quantize, tiles))
    return pixels


def encode_ppm(pixels: np.ndarray) -> bytes:
    """Binary PPM (P6) bytes of (height, width, 3) uint8 pixels: tiny header,
    then raw RGB triplets, row-major.  Any other array: ValueError."""
    if pixels.dtype != np.uint8 or pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ValueError("pixels must be a (height, width, 3) uint8 array")
    height, width, _ = pixels.shape
    return f"P6\n{width} {height}\n255\n".encode("ascii") + pixels.tobytes()
