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

from itertools import pairwise

import numpy as np

from ._threads import check_memory, threaded_map, workers
from .simulator import SpectrumGrid, spectrum_bytes

NORM_MODES = ("linear", "clip_p999")
TILE = 64    # spectrum rows, range bins or raster rows a worker takes at a time
BLOCK = 512    # raster columns compose_rgb takes at a time within a tile
SCRATCH_POINTS = 1 << 16    # complex points (1 MiB) of each band scratch of a split job, at most


def _centred_ifft(x: np.ndarray, axis: int) -> None:
    """Unitary fftshift(ifft(ifftshift(x))) along an axis of even length n, in
    place: both shifts are exact sign flips, (-1)^(m - n/2) ifft((-1)^k x)[m]."""
    n = x.shape[axis]
    lines = np.moveaxis(x, axis, 0)
    np.negative(lines[1::2], out=lines[1::2])
    np.fft.ifft(x, axis=axis, norm="ortho", out=x)
    odd = lines[(n // 2 + 1) % 2 :: 2]          # m - n/2 odd
    np.negative(odd, out=odd)


def _bins(na: int) -> int:    # range bins of a split job
    return max(1, min(TILE, SCRATCH_POINTS // na))


def colour_bytes(na: int, nr: int) -> int:
    """Peak bytes of the split and composition of an (na, nr) spectrum: its
    buffer (spectrum_bytes) and blue, and the split's band scratches or
    compose's pixels, block scratches and tile maxima (twice: np.stack copies)."""
    bins, tiles = _bins(na), -(-nr // TILE)
    split = workers(-(-nr // bins)) * 3 * 16 * bins * na
    compose = 3 * na * nr + workers(tiles) * 24 * TILE * min(BLOCK, na) + 2 * tiles * 24 * na
    return spectrum_bytes(na, nr) + 8 * na * nr + max(split, compose)


def split_subbands(g: SpectrumGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Focus each colour band of the spectrum separately, into its magnitudes.

    Every azimuth bin goes to the band RadarParams.band_index gives its
    Doppler f_a, the rule classify_hue applies, so the colour a frequency is
    predicted in is the colour it is rendered in.  Each bin lands in exactly
    one band and the DFT is unitary, so each band image carries exactly the
    power of its rows.  The band index rises with f_a, which ascends, so each
    band is one run of rows.

    The spectrum is consumed, and red and green are left in its memory.  Its
    rows take the range IFFT in place, in row tiles: each row lies in one
    band, so one pass serves all three.  Then each range-tile job copies all
    three bands' rows of its bins, transposed, into its thread's three zeroed
    (bins, na) scratches from threaded_map, takes their azimuth IFFTs and
    writes |red| into data.real and |green| into data.imag of the bins it has
    just read, which no other job reads; |blue| goes to a raster of its own.  A tile has TILE
    bins, fewer when na > SCRATCH_POINTS / TILE, so a scratch holds at most
    SCRATCH_POINTS.  Both passes run on worker threads.  Returns (red, green,
    blue) float64 (nr, na) magnitude rasters: one row per range bin, one
    column per Doppler bin, as in the PPM.  Red and green are transposed views
    of the spectrum's buffer, blue is C-contiguous.  The stage peaks with the
    spectrum's buffer, blue and three scratches per worker live; if it or
    compose_rgb's peak (colour_bytes) exceeds physical memory: ValueError.
    """
    data = g.data
    na, nr = data.shape
    bins = _bins(na)
    tiles = range(0, nr, bins)
    check_memory(colour_bytes(na, nr), f"splitting and composing a {na}x{nr} spectrum")
    cuts = np.searchsorted(g.params.band_index(g.f_a), range(4)).tolist()
    threaded_map(lambda lo: _centred_ifft(data[lo : lo + TILE], 1), range(0, na, TILE))
    blue = np.empty((nr, na))

    def focus(lo: int, scratch: np.ndarray) -> None:
        cols = slice(lo, lo + bins)
        scratch = scratch[:, : min(bins, nr - lo)]
        scratch[...] = 0
        for band, (a, b) in zip(scratch, pairwise(cuts)):
            band[:, a:b] = data[a:b, cols].T
        _centred_ifft(scratch, 2)
        red, green, pair = scratch
        np.abs(pair, out=blue[cols])
        np.abs(red, out=pair.real)    # |red| + j|green| in blue's scratch,
        np.abs(green, out=pair.imag)  # then back to the bins, transposed
        data[:, cols] = pair.T

    threaded_map(focus, tiles, ((3, bins, na), data.dtype))
    return data.real.T, data.imag.T, blue


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
    clipping (norm="clip_p999").  No magnitude stack is built: the passes run
    over TILE-row tiles of the rasters on worker threads, and within a tile
    over blocks of BLOCK columns, taking |.| of the three channels' block
    into its thread's scratch row.  A raster that is a transposed view, as
    split_subbands' red and green are, is so read BLOCK of its underlying
    rows at a time, TILE values of each, which stay in cache while they are
    transposed.  The first pass keeps the column maxima of every tile; for
    clip_p999 a second selects the values above a bound set by those maxima,
    from the columns that exceed it, and the percentile exactly from them;
    the last quantizes straight into the pixels, rounding half up, and skips
    the blocks whose maxima quantize to 0.  NaN or inf: ValueError.
    """
    if norm not in NORM_MODES:
        raise ValueError(f"norm must be one of {NORM_MODES}, got {norm!r}")
    if not (r.shape == g.shape == b.shape and r.ndim == 2 and r.size):
        raise ValueError("channel grids must be three equal-shape non-empty 2-D arrays")
    height, width = r.shape
    tiles, blocks = range(0, height, TILE), range(0, width, BLOCK)

    def magnitudes(lo: int, starts, scratch):    # (column, |.| of the block) of tile lo
        for k in starts:
            block = scratch[:, : height - lo, : width - k]
            for grid, m in zip((r, g, b), block):
                np.abs(grid[lo : lo + TILE, k : k + BLOCK], out=m)
            yield k, block

    def maxima(lo: int, scratch: np.ndarray) -> np.ndarray:
        return np.hstack([m.max(axis=1) for _, m in magnitudes(lo, blocks, scratch)])

    abs_block = ((3, TILE, min(BLOCK, width)), float)    # |.| of one block
    top = np.stack(threaded_map(maxima, tiles, abs_block))    # (tile, channel, column)
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

            return np.concatenate(threaded_map(select, tiles))

        ref = _p999(3 * r.size, top.reshape(-1), above)
    pixels = np.zeros((height, width, 3), np.uint8)

    def level(x: float) -> float:    # what quantize makes of x, before the cast
        return (min(x / ref, 1.0) if ref > 0 else float(x > 0)) * 255 + 0.5

    def quantize(lo: int, scratch: np.ndarray) -> None:
        # Each step is monotone, so a block whose largest magnitude quantizes
        # to 0 is all 0, as the pixels start: such dark blocks are not read.
        tops = top[lo // TILE]
        lit = [k for k in blocks if level(float(tops[:, k : k + BLOCK].max())) >= 1]
        for k, block in magnitudes(lo, lit, scratch):
            if ref > 0:
                block /= ref
                np.minimum(block, 1.0, out=block)
            else:    # all above a normalizer of 0 saturates
                np.greater(block, 0, out=block)
            # round-half-up, so 0.5 steps are platform-independent (unlike
            # np.round); the values are >= 0.5, so the cast's truncation floors
            block *= 255
            block += 0.5
            for c, m in enumerate(block):
                pixels[lo : lo + TILE, k : k + BLOCK, c] = m

    threaded_map(quantize, tiles, abs_block)
    return pixels


def encode_ppm(pixels: np.ndarray) -> bytes:
    """Binary PPM (P6) bytes of (height, width, 3) uint8 pixels: tiny header,
    then raw RGB triplets, row-major, copied once.  Any other array:
    ValueError."""
    if pixels.dtype != np.uint8 or pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ValueError("pixels must be a (height, width, 3) uint8 array")
    height, width, _ = pixels.shape
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    return b"".join((header, np.ascontiguousarray(pixels).data))
