"""Colorized sub-aperture composition: three Doppler bands become R, G, B.

The azimuth spectrum is cut into the three equal thirds of the Doppler
window that classify_hue names, low to high Doppler mapping to red, green,
blue.  Each band is focused on its own and the three magnitudes are composed
into one 8-bit image, so a target's colour encodes where its energy sits in
Doppler, hence its orientation.  By Parseval a band image's energy is the
summed power of its spectrum rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simulator import ComplexImage, SpectrumGrid, _centred_ifft, _image, _threaded_map

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


def split_subbands(
    g: SpectrumGrid,
) -> tuple[ComplexImage, ComplexImage, ComplexImage]:
    """Focus each colour band of the spectrum separately.

    Every azimuth bin goes to the band RadarParams.band_index gives its
    Doppler f_a, the rule classify_hue applies, so the colour a frequency is
    predicted in is the colour it is rendered in.  Each bin lands in exactly
    one band and the DFT is unitary, so each band image carries exactly the
    power of its rows.  One range IFFT pass serves all three bands, as it acts
    on each row alone; the bands' azimuth IFFTs run on worker threads.
    Returns (red, green, blue) complex images.
    """
    if g.data.shape[0] < 3:
        raise ValueError("need at least 3 azimuth bins to split into bands")
    band = g.params.band_index(g.f_a)
    rows = _centred_ifft(g.data.copy(), 1)

    def focus(b: int) -> ComplexImage:
        img = np.zeros_like(rows)
        np.copyto(img, rows, where=(band == b)[:, None])
        return _image(_centred_ifft(img, 0), g.params)

    return tuple(_threaded_map(focus, range(3)))


def compose_rgb(
    r: np.ndarray, g: np.ndarray, b: np.ndarray, norm: str = "linear"
) -> RGBImage:
    """Fuse three per-band grids into one 8-bit RGB raster of their magnitudes.

    The channels share a single normalizer so their relative strengths, and
    therefore the perceived hue, survive quantization: the joint maximum
    (norm="linear") or the joint 99.9th percentile with clipping
    (norm="clip_p999").  Grids arrive azimuth-major and come out as an
    image with azimuth across and range down.  The grids may be the complex
    band images themselves; |.| is taken here, into the one (height, width, 3)
    array that is then quantized in place, rounding half up.
    """
    if norm not in NORM_MODES:
        raise ValueError(f"norm must be one of {NORM_MODES}, got {norm!r}")
    if not (r.shape == g.shape == b.shape and r.ndim == 2):
        raise ValueError("channel grids must be three equal-shape 2-D arrays")
    stack = np.empty(r.shape[::-1] + (3,))
    for lo in range(0, r.shape[0], 64):   # 64-row tiles keep the transposed writes in cache
        for c, grid in enumerate((r, g, b)):
            np.abs(grid[lo : lo + 64].T, out=stack[:, lo : lo + 64, c])
    if norm == "linear":
        ref = stack.max()
    else:
        ref = float(np.percentile(stack, 99.9))
    if ref > 0:
        stack /= ref
        np.minimum(stack, 1.0, out=stack)
    # round-half-up, so 0.5 steps are platform-independent (unlike np.round)
    stack *= 255
    stack += 0.5
    pixels = np.floor(stack, out=stack).astype(np.uint8)
    return RGBImage(width=pixels.shape[1], height=pixels.shape[0], pixels=pixels)


def encode_ppm(img: RGBImage) -> bytes:
    """Binary PPM (P6) bytes: tiny header, then raw RGB triplets."""
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()
