import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sarcsi as s


def point_grid(p, na, nr, x=0.0):
    sc = s.Scene(x=np.array([x]), y=np.array([0.0]), amp=np.array([1.0]),
                 label="pt")
    return s.synth_spectrum(sc, p, na=na, nr=nr)


def test_band_specs_thirds(xband):
    lo, e1, e2, hi = xband.band_edges
    third = xband.B_a / 3.0
    assert (lo, hi) == xband.doppler_window == (-38000.0, 38000.0)
    assert e1 == pytest.approx(lo + third)
    assert e1 == pytest.approx(-xband.B_a / 6)
    assert e2 == pytest.approx(xband.B_a / 6)
    # a shifted centroid shifts all four edges rigidly
    shifted = s.make_params(9.6e9, 7600.0, 0.1, 0.1, f_dc=5000.0)
    assert shifted.band_edges == pytest.approx(
        [e + 5000.0 for e in xband.band_edges]
    )


def test_split_needs_three_bins(xband):
    g = s.SpectrumGrid(
        data=np.ones((2, 4), complex),
        f_a=np.array([-19000.0, 19000.0]),
        f_r=np.linspace(-7.5e8, 7.5e8, 4, endpoint=False),
        params=xband,
    )
    with pytest.raises(ValueError):
        s.split_subbands(g)


def flat_grid(p, na, nr):
    return s.SpectrumGrid(
        data=np.ones((na, nr), complex),
        f_a=np.linspace(-p.B_a / 2, p.B_a / 2, na, endpoint=False),
        f_r=np.linspace(-p.B_r / 2, p.B_r / 2, nr, endpoint=False),
        params=p,
    )


def test_split_partitions_energy_exactly(xband):
    g = flat_grid(xband, 96, 8)
    r, gr, b = s.split_subbands(g)
    total = np.sum(np.abs(g.data) ** 2)
    parts = [np.sum(np.abs(im.data) ** 2) for im in (r, gr, b)]
    # flat spectrum: each band holds exactly 8 units per bin of its hue.
    # 96 bins put bins 32 and 64 on the band edges up to rounding, so the
    # split is not 32/32/32; it follows classify_hue bin by bin
    hues = [s.classify_hue(xband, f) for f in g.f_a]
    counts = [hues.count(h) for h in (s.Hue.RED, s.Hue.GREEN, s.Hue.BLUE)]
    assert sum(counts) == 96
    assert np.allclose(parts, 8.0 * np.array(counts), rtol=1e-12)
    assert sum(parts) == pytest.approx(total, rel=1e-12)


def test_split_floor_rule_bin_counts(xband):
    # na = 2048: bins 0-682 red, 683-1365 green (closed band), 1366-2047
    # blue, as classify_hue names their frequencies
    g = flat_grid(xband, 2048, 4)
    r, gr, b = s.split_subbands(g)
    widths = [np.sum(np.abs(im.data) ** 2) / 4.0 for im in (r, gr, b)]
    assert [round(w) for w in widths] == [683, 683, 682]


@pytest.mark.parametrize("f_dc", [0.0, 5000.0, -12345.6])
@pytest.mark.parametrize("na", [2**k for k in range(3, 13)])
def test_rendered_band_is_the_hue(na, f_dc):
    # every bin's energy ends up in the band classify_hue names for its
    # Doppler: undo each band's focusing and see which rows it kept
    p = s.make_params(9.6e9, 7600.0, 0.1, 0.1, f_dc=f_dc)
    g = point_grid(p, na, 8)
    hues = [s.classify_hue(p, f) for f in g.f_a]
    assert s.Hue.OUT_OF_WINDOW not in hues
    for hue, img in zip((s.Hue.RED, s.Hue.GREEN, s.Hue.BLUE), s.split_subbands(g)):
        kept = np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(img.data), norm="ortho"))
        rendered = np.abs(kept).max(axis=1) > 0.5
        assert list(rendered) == [h is hue for h in hues]


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2**32 - 1))
def test_split_partition_property(xband, seed):
    rng = np.random.default_rng(seed)
    na, nr = 16, 4
    data = rng.standard_normal((na, nr)) + 1j * rng.standard_normal((na, nr))
    g = s.SpectrumGrid(
        data=data,
        f_a=np.linspace(-38000.0, 38000.0, na, endpoint=False),
        f_r=np.linspace(-7.5e8, 7.5e8, nr, endpoint=False),
        params=xband,
    )
    total = np.sum(np.abs(data) ** 2)
    parts = sum(np.sum(np.abs(im.data) ** 2) for im in s.split_subbands(g))
    assert parts == pytest.approx(total, rel=1e-9)


def test_tilted_line_lands_in_red_band(xband):
    # +2 deg line peaks near -17 kHz, inside the low-Doppler (red) third
    sc = s.line_scene(math.radians(2.0), 1.0, xband.lam / 4)
    g = s.synth_spectrum(sc, xband, na=512, nr=8)
    r, gr, b = s.split_subbands(g)
    er, eg, eb = (np.sum(np.abs(im.data) ** 2) for im in (r, gr, b))
    assert er > 5.0 * eg
    assert er > 20.0 * eb


def test_compose_orientation_and_dtype():
    r = np.zeros((6, 4))
    r[2, 1] = 1.0
    img = s.compose_rgb(r, np.zeros((6, 4)), np.zeros((6, 4)))
    assert (img.width, img.height) == (6, 4)
    assert img.pixels.shape == (4, 6, 3)
    assert img.pixels.dtype == np.uint8
    # azimuth-major input transposes into (range row, azimuth column)
    assert img.pixels[1, 2, 0] == 255
    assert img.pixels.sum() == 255


def test_compose_black_when_empty():
    z = np.zeros((3, 3))
    img = s.compose_rgb(z, z, z)
    assert np.all(img.pixels == 0)


def test_compose_joint_normalization():
    r = np.full((2, 2), 1.0)
    g = np.full((2, 2), 0.5)
    b = np.zeros((2, 2))
    img = s.compose_rgb(r, g, b)
    assert np.all(img.pixels[..., 0] == 255)
    assert np.all(img.pixels[..., 1] == 128)    # 0.5 * 255 + 0.5 rounds up
    assert np.all(img.pixels[..., 2] == 0)


def test_compose_rounds_half_up():
    # 0.5/255 of the reference must quantize to byte 1, not 0
    r = np.array([[1.0, 0.5 / 255.0]])
    z = np.zeros_like(r)
    img = s.compose_rgb(r, z, z)
    assert img.pixels[0, 0, 0] == 255
    assert img.pixels[1, 0, 0] == 1


def test_compose_clip_percentile_rescues_dynamic_range():
    r = np.ones((1000, 1))
    r[0, 0] = 100.0
    z = np.zeros_like(r)
    dim = s.compose_rgb(r, z, z, norm="linear")
    bright = s.compose_rgb(r, z, z, norm="clip_p999")
    # one outlier crushes everything under linear; the percentile norm
    # saturates the outlier instead and keeps the field visible
    assert dim.pixels[0, 1, 0] == 3
    assert bright.pixels[0, 1, 0] == 255
    assert bright.pixels[0, 0, 0] == 255


def test_compose_validation():
    z = np.zeros((2, 2))
    with pytest.raises(ValueError):
        s.compose_rgb(z, z, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        s.compose_rgb(z, z, z, norm="log")
    with pytest.raises(ValueError):
        s.compose_rgb(np.zeros(4), np.zeros(4), np.zeros(4))


def test_rgb_image_validation():
    with pytest.raises(ValueError):
        s.RGBImage(width=2, height=1, pixels=np.zeros((1, 3, 3), np.uint8))
    with pytest.raises(ValueError):
        s.RGBImage(width=2, height=1, pixels=np.zeros((1, 2, 3), np.float64))


def test_ppm_single_black_pixel():
    img = s.RGBImage(width=1, height=1, pixels=np.zeros((1, 1, 3), np.uint8))
    raw = s.encode_ppm(img)
    assert raw == b"P6\n1 1\n255\n\x00\x00\x00"
    assert len(raw) == 14


def test_ppm_pixel_order_is_row_major():
    px = np.zeros((1, 2, 3), np.uint8)
    px[0, 0] = (255, 0, 0)
    px[0, 1] = (0, 0, 255)
    raw = s.encode_ppm(s.RGBImage(width=2, height=1, pixels=px))
    assert raw == b"P6\n2 1\n255\n\xff\x00\x00\x00\x00\xff"


def parse_ppm(raw):
    magic, dims, depth, rest = raw.split(b"\n", 3)
    w, h = (int(v) for v in dims.split())
    assert magic == b"P6" and depth == b"255"
    return np.frombuffer(rest, np.uint8).reshape(h, w, 3)


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_ppm_roundtrip(w, h, seed):
    rng = np.random.default_rng(seed)
    px = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    img = s.RGBImage(width=w, height=h, pixels=px)
    assert np.array_equal(parse_ppm(s.encode_ppm(img)), px)


def test_compose_deterministic(xband):
    g = point_grid(xband, 64, 8, x=0.5)
    r, gr, b = s.split_subbands(g)
    one = s.encode_ppm(s.compose_rgb(r.data, gr.data, b.data))
    two = s.encode_ppm(s.compose_rgb(r.data, gr.data, b.data))
    assert one == two
