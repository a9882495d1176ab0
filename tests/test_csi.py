import itertools
import json
import math
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import sarcsi as s
from sarcsi import csi


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
    shifted = s.RadarParams(9.6e9, 7600.0, 0.1, 0.1, f_dc=5000.0)
    assert shifted.band_edges == pytest.approx(
        [e + 5000.0 for e in xband.band_edges]
    )


def flat_grid(p, na, nr):
    return s.SpectrumGrid(np.ones((na, nr), complex), p)


def test_split_partitions_energy_exactly(xband):
    g = flat_grid(xband, 128, 8)
    total = np.sum(np.abs(g.data) ** 2)
    parts = [np.sum(m**2) for m in s.split_subbands(g)]
    # flat spectrum: each band holds exactly 8 units per bin of its hue.
    # 128 bins do not split into thirds; the split follows classify_hue bin
    # by bin
    hues = [s.classify_hue(xband, f) for f in g.f_a]
    counts = [hues.count(h) for h in (s.Hue.RED, s.Hue.GREEN, s.Hue.BLUE)]
    assert counts == [43, 43, 42]
    assert np.allclose(parts, 8.0 * np.array(counts), rtol=1e-12)
    assert sum(parts) == pytest.approx(total, rel=1e-12)


def test_split_floor_rule_bin_counts(xband):
    # na = 2048: bins 0-682 red, 683-1365 green (closed band), 1366-2047
    # blue, as classify_hue names their frequencies
    g = flat_grid(xband, 2048, 8)
    widths = [np.sum(m**2) / 8.0 for m in s.split_subbands(g)]
    assert [round(w) for w in widths] == [683, 683, 682]


@pytest.mark.parametrize("f_dc", [0.0, 5000.0, -12345.6])
@pytest.mark.parametrize("na", [2**k for k in range(3, 13)])
def test_rendered_band_is_the_hue(na, f_dc):
    # every bin's energy ends up in the band classify_hue names for its
    # Doppler: a point's spectrum has |G| = 1 in every bin, so each band's
    # energy counts the bins it rendered, and the bands are runs of bins
    p = s.RadarParams(9.6e9, 7600.0, 0.1, 0.1, f_dc=f_dc)
    g = point_grid(p, na, 8)
    hues = [s.classify_hue(p, f) for f in g.f_a]
    assert s.Hue.OUT_OF_WINDOW not in hues
    energy = [np.sum(m**2) for m in s.split_subbands(g)]
    counts = [8 * hues.count(h) for h in (s.Hue.RED, s.Hue.GREEN, s.Hue.BLUE)]
    assert energy == pytest.approx(counts, rel=1e-12, abs=1e-12)


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2**32 - 1))
def test_split_partition_property(xband, seed):
    rng = np.random.default_rng(seed)
    na, nr = 16, 8
    data = rng.standard_normal((na, nr)) + 1j * rng.standard_normal((na, nr))
    g = s.SpectrumGrid(data, xband)
    total = np.sum(np.abs(data) ** 2)
    parts = sum(np.sum(m**2) for m in s.split_subbands(g))
    assert parts == pytest.approx(total, rel=1e-9)


def test_tilted_line_lands_in_red_band(xband):
    # +2 deg line peaks near -17 kHz, inside the low-Doppler (red) third
    sc = s.generate_scene({"kind": "line", "theta_az_deg": 2.0, "length_m": 1.0}, xband.lam)
    g = s.synth_spectrum(sc, xband, na=512, nr=8)
    er, eg, eb = (np.sum(m**2) for m in s.split_subbands(g))
    assert er > 5.0 * eg
    assert er > 20.0 * eb


def test_compose_orientation_and_dtype():
    r = np.zeros((4, 6))
    r[1, 2] = 1.0
    px = s.compose_rgb(r, np.zeros((4, 6)), np.zeros((4, 6)))
    # a (height, width) raster keeps its orientation: width 6, height 4
    assert px.shape == (4, 6, 3)
    assert px.dtype == np.uint8
    assert px[1, 2, 0] == 255
    assert px.sum() == 255


def test_compose_black_when_empty():
    z = np.zeros((3, 3))
    assert np.all(s.compose_rgb(z, z, z) == 0)


def test_compose_joint_normalization():
    r = np.full((2, 2), 1.0)
    g = np.full((2, 2), 0.5)
    b = np.zeros((2, 2))
    px = s.compose_rgb(r, g, b)
    assert np.all(px[..., 0] == 255)
    assert np.all(px[..., 1] == 128)    # 0.5 * 255 + 0.5 rounds up
    assert np.all(px[..., 2] == 0)


def test_compose_rounds_half_up():
    # 0.5/255 of the reference must quantize to byte 1, not 0
    r = np.array([[1.0], [0.5 / 255.0]])
    z = np.zeros_like(r)
    px = s.compose_rgb(r, z, z)
    assert px[0, 0, 0] == 255
    assert px[1, 0, 0] == 1


def test_compose_clip_percentile_rescues_dynamic_range():
    r = np.ones((1, 1000))
    r[0, 0] = 100.0
    z = np.zeros_like(r)
    dim = s.compose_rgb(r, z, z, norm="linear")
    bright = s.compose_rgb(r, z, z, norm="clip_p999")
    # one outlier crushes everything under linear; the percentile norm
    # saturates the outlier instead and keeps the field visible
    assert dim[0, 1, 0] == 3
    assert bright[0, 1, 0] == 255
    assert bright[0, 0, 0] == 255


def test_compose_validation():
    z = np.zeros((2, 2))
    with pytest.raises(ValueError):
        s.compose_rgb(z, z, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        s.compose_rgb(z, z, z, norm="log")
    with pytest.raises(ValueError):
        s.compose_rgb(np.zeros(4), np.zeros(4), np.zeros(4))
    with pytest.raises(ValueError):
        s.compose_rgb(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3)))


@pytest.mark.parametrize("norm", csi.NORM_MODES)
@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0, np.inf)])
def test_compose_rejects_non_finite(norm, value):
    # one NaN used to skip normalization (every other lit pixel read 255),
    # and one inf blacked out the whole image under "linear"
    r = np.ones((200, 130), complex)
    r[150, 70] = value
    with pytest.raises(ValueError, match="finite"):
        s.compose_rgb(r, np.ones_like(r), np.ones_like(r), norm=norm)


def test_ppm_rejects_anything_but_rgb_bytes():
    # the header is taken from the shape, so only the shape and the dtype
    # can be wrong
    for bad in (np.zeros((1, 2), np.uint8), np.zeros((1, 2, 4), np.uint8),
                np.zeros((1, 2, 3), np.float64)):
        with pytest.raises(ValueError, match="uint8"):
            s.encode_ppm(bad)


def test_ppm_single_black_pixel():
    raw = s.encode_ppm(np.zeros((1, 1, 3), np.uint8))
    assert raw == b"P6\n1 1\n255\n\x00\x00\x00"
    assert len(raw) == 14


def test_ppm_pixel_order_is_row_major():
    px = np.zeros((1, 2, 3), np.uint8)
    px[0, 0] = (255, 0, 0)
    px[0, 1] = (0, 0, 255)
    raw = s.encode_ppm(px)
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
    assert np.array_equal(parse_ppm(s.encode_ppm(px)), px)


def test_compose_deterministic(xband):
    g = point_grid(xband, 64, 8, x=0.5)
    r, gr, b = s.split_subbands(g)
    one = s.encode_ppm(s.compose_rgb(r, gr, b))
    two = s.encode_ppm(s.compose_rgb(r, gr, b))
    assert one == two


def random_grid(p, na, nr, seed=5):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((na, nr)) + 1j * rng.standard_normal((na, nr))
    return s.SpectrumGrid(data, p)


@pytest.mark.parametrize(
    "grid",
    [
        lambda p: flat_grid(p, 128, 8),
        lambda p: flat_grid(p, 2048, 8),
        lambda p: random_grid(p, 16, 8),
    ],
    ids=["flat128x8", "flat2048x8", "random16x8"],
)
def test_split_matches_masked_2d_focus(xband, grid):
    # focusing each band from its own rows, with sign-flip shifts, gives the
    # magnitudes of the plain mask-shift-ifft2-shift bands, as float64 (nr, na)
    # rasters
    g = grid(xband)
    want = [np.abs(w) for w in oracles.split_subbands_reference(g)]
    got = s.split_subbands(g)
    scale = max(w.max() for w in want)
    for m, ref in zip(got, want):
        assert m.dtype == np.float64 and m.flags.c_contiguous
        assert np.abs(m - ref).max() <= 1e-12 * scale


@pytest.mark.parametrize("shape", [(64, 8), (16, 8)])
def test_focus_matches_shifted_ifft2(xband, shape):
    g = random_grid(xband, *shape)
    data = g.data.copy()
    want = oracles.focus_reference(g.data)
    assert np.abs(oracles.focus_image(g).data - want).max() <= 1e-12 * np.abs(want).max()
    assert np.array_equal(g.data, data)          # the input is left alone


def tiny_scene_grid(p):
    # the benchmark's smoke scene: a 1 m line at 2 deg on 256x64
    line = s.generate_scene({"kind": "line", "theta_az_deg": 2.0, "length_m": 1.0}, p.lam)
    return s.synth_spectrum(line, p, na=256, nr=64)


@pytest.mark.parametrize(
    "grid",
    [lambda p: random_grid(p, 16, 8), tiny_scene_grid],
    ids=["random16x8", "tiny"],
)
def test_focus_is_sum_of_band_images(xband, grid):
    # the complex band images the split takes the magnitudes of and the full
    # image take one focusing path, and the bands partition the rows, so by
    # linearity the bands add up to the whole
    g = grid(xband)
    want = oracles.focus_image(g).data
    cuts = np.searchsorted(xband.band_index(g.f_a), range(4)).tolist()
    total = sum(oracles._focus(g, cuts[b], cuts[b + 1]).data for b in range(3))
    assert np.abs(total - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("norm", csi.NORM_MODES)
def test_compose_matches_reference_bytes(norm):
    # 200 raster rows span several magnitude tiles, the last one partial
    rng = np.random.default_rng(11)
    grids = [rng.standard_normal((200, 24)) + 1j * rng.standard_normal((200, 24))
             for _ in range(3)]
    got = s.compose_rgb(*grids, norm=norm)
    want = oracles.compose_rgb_reference(*grids, norm=norm)
    assert s.encode_ppm(got) == s.encode_ppm(want)


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 70), st.integers(1, 70),
       st.sampled_from(["random", "tied", "zero", "one-hot"]), st.booleans(),
       st.sampled_from(csi.NORM_MODES), st.sampled_from([1, 2, 4]), st.integers(0, 2**32 - 1))
def test_compose_matches_reference_property(height, width, values, is_complex, norm, n_cpus,
                                            seed):
    # the tiled passes give the plain stack-and-percentile pixels bit for bit;
    # the height runs to two tiles, the last one partial
    rng = np.random.default_rng(seed)
    shape = (3, height, width)
    if values == "random":
        mag = rng.random(shape)
    elif values == "tied":
        mag = rng.integers(0, 4, shape).astype(float)
    else:
        mag = np.zeros(shape)
        if values == "one-hot":
            mag.flat[rng.integers(mag.size)] = rng.random() + 0.5
    # a unit phase of 1, j, -1 or -j keeps tied magnitudes exactly tied
    grids = mag * np.array([1, 1j, -1, -1j])[rng.integers(0, 4, shape)] if is_complex else mag
    with mock.patch("os.sched_getaffinity", return_value=set(range(n_cpus)), create=True):
        got = s.compose_rgb(*grids, norm=norm)
    want = oracles.compose_rgb_reference(*grids, norm=norm)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("norm", csi.NORM_MODES)
def test_tiny_scene_ppm_matches_reference(tmp_path, norm):
    # the benchmark's smoke scene: a 1 m line at 2 deg on 256x64
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({
        "radar": {"fc_hz": 9.6e9, "v_mps": 7600.0, "rho_a_m": 0.1,
                  "rho_r_m": 0.1, "fdc_hz": 0.0},
        "grid": {"na": 256, "nr": 64},
        "targets": [{"kind": "line", "theta_az_deg": 2.0, "length_m": 1.0}],
    }))
    cfg = s.parse_scene_config(str(path))
    g = s.synth_spectrum(s.merge_scenes(s.build_scenes(cfg)), cfg.radar, cfg.na, cfg.nr)
    want = oracles.compose_rgb_reference(*oracles.split_subbands_reference(g), norm=norm)
    assert s.encode_ppm(s.compose_rgb(*s.split_subbands(g), norm=norm)) == s.encode_ppm(want)


def test_band_focus_failure_propagates(xband, run_bounded):
    # the second band tile's azimuth IFFT raises on a worker thread:
    # split_subbands re-raises it in the caller instead of hanging on it
    g = random_grid(xband, 64, 8)
    band_calls = itertools.count()
    centred_ifft = csi._centred_ifft

    def failing(x, axis):
        if x.shape[axis] == 64 and next(band_calls) == 1:    # along azimuth
            raise RuntimeError("band 2 failed")
        return centred_ifft(x, axis)

    with mock.patch.object(csi, "_centred_ifft", side_effect=failing), \
            mock.patch("os.sched_getaffinity", return_value=set(range(2)), create=True):
        finished, result = run_bounded(lambda: s.split_subbands(g))
    assert finished
    assert isinstance(result, RuntimeError) and str(result) == "band 2 failed"


def p999_cases():
    rng = np.random.default_rng(99)
    for n in range(1, 401):
        yield n, rng.random(n)
        yield n, rng.integers(0, 4, n).astype(float)       # ties
    for n in (64 * 6293 - 1, 64 * 6293, 64 * 6293 + 1, 3 * 4096 * 512):
        one_hot = np.zeros(n)
        one_hot[rng.integers(n)] = 1.0
        for x in (rng.random(n), rng.integers(0, 4, n).astype(float), np.zeros(n), one_hot):
            yield n, x
    for n in (1, 2, 63, 64, 65, 999, 1000, 1001):
        yield n, np.zeros(n)
        one_hot = np.zeros(n)
        one_hot[n // 2] = 1.0
        yield n, one_hot


def groupings(x):
    # group maxima the selection may start from: 64-member interleaved groups
    # with the tail as groups of one, and contiguous runs of 64
    n = x.size
    m = n - n % 64
    yield np.concatenate((x[:m].reshape(64, -1).max(axis=0), x[m:]))
    yield np.maximum.reduceat(x, np.arange(0, n, 64))


def test_p999_is_numpy_percentile_exactly():
    # the selection must give numpy's linear-rule 99.9th percentile bit for
    # bit, so the clip_p999 raster is byte-identical to np.percentile's,
    # whatever grouping the maxima come from
    for n, x in p999_cases():
        kept = x.copy()
        for top in groupings(x):
            got = csi._p999(n, top, lambda t: x[x > t])
            assert got == float(np.percentile(x, 99.9)), n
        assert np.array_equal(x, kept)          # selection works on copies


def test_compose_p999_makes_no_full_copy(xband):
    # no magnitude stack and no np.percentile: besides the pixels, compose
    # holds a 64-row scratch tile per worker and the small group maxima
    na, nr = 1024, 128
    bands = s.split_subbands(random_grid(xband, na, nr))
    want = oracles.compose_rgb_reference(*bands, norm="clip_p999")
    with mock.patch.object(np, "percentile", side_effect=AssertionError("np.percentile")), \
            mock.patch("os.sched_getaffinity", return_value=set(range(2)), create=True):
        s.compose_rgb(*bands, norm="clip_p999")     # warms up the imports
        tracemalloc.start()
        try:
            got = s.compose_rgb(*bands, norm="clip_p999")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert np.array_equal(got, want)
    scratch = 2 * 64 * na * 8
    stack = nr * na * 3 * 8
    assert peak <= got.nbytes + 1.25 * scratch < stack


def azimuth_major_band(g, lo, hi):
    # the arithmetic before range-major images: rows lo:hi on the (na, nr)
    # layout, range IFFT on those rows, then the azimuth IFFT along axis 0
    data = np.zeros_like(g.data)
    data[lo:hi] = g.data[lo:hi]
    csi._centred_ifft(data[lo:hi], 1)
    csi._centred_ifft(data, 0)
    return data


@pytest.mark.parametrize("shape", [(512, 64), (64, 8), (16, 8), (8, 256), (32, 512)])
def test_range_major_images_are_bit_identical(xband, shape):
    # one in-place range IFFT over the spectrum's rows, then the azimuth
    # IFFT of each band in tiles of range bins (several where nr > TILE),
    # gives the bits of the whole band focused range-major (oracles._focus)
    # and azimuth-major
    g = random_grid(xband, *shape)
    cuts = np.searchsorted(xband.band_index(g.f_a), range(4)).tolist()
    want = [azimuth_major_band(g, cuts[b], cuts[b + 1]) for b in range(3)]
    for b in range(3):
        assert np.array_equal(oracles._focus(g, cuts[b], cuts[b + 1]).data, want[b])
    assert np.array_equal(oracles.focus_image(g).data, azimuth_major_band(g, 0, shape[0]))
    for m, w in zip(s.split_subbands(g), want):
        assert m.shape == shape[::-1]
        assert np.array_equal(m, np.abs(w).T)


def test_split_allocates_only_magnitudes_and_tiles(xband):
    # the spectrum's rows are transformed in place and each band tile in a
    # scratch of at most SCRATCH_POINTS, here (32, 2048): past the three
    # magnitude images, the split holds one scratch per worker, on 1, 2 or 4
    # CPUs, and no spectrum- or band-sized temporary (numpy's FFT keeps a
    # fixed buffer of about 0.25 MiB)
    na, nr = 2048, 256
    for n_cpus in (1, 2, 4):
        with mock.patch("os.sched_getaffinity", return_value=set(range(n_cpus)), create=True):
            s.split_subbands(random_grid(xband, na, nr))     # warms up the imports
            g = random_grid(xband, na, nr)
            tracemalloc.start()
            try:
                mags = s.split_subbands(g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        images = sum(m.nbytes for m in mags)
        scratch = n_cpus * csi.SCRATCH_POINTS * 16
        assert peak <= images + scratch + (1 << 19) < images + g.data.nbytes, n_cpus


@pytest.mark.parametrize("norm", csi.NORM_MODES)
def test_compose_same_pixels_on_one_or_two_cpus(xband, norm):
    # 200 raster rows are four tiles, the last one partial; the tiles run on
    # worker threads with two CPUs and inline with one.  The grids are laid
    # out as split_subbands returns them
    bands = list(np.random.default_rng(3).random((3, 200, 96)))
    seen = {}
    for n_cpus in (1, 2):
        threads = set()
        absolute = np.abs

        def spy(*args, **kwargs):
            threads.add(threading.get_ident())
            return absolute(*args, **kwargs)

        with mock.patch("os.sched_getaffinity", return_value=set(range(n_cpus)), create=True), \
                mock.patch.object(csi.np, "abs", side_effect=spy):
            seen[n_cpus] = s.compose_rgb(*bands, norm=norm)
        assert (threading.get_ident() in threads) == (n_cpus == 1)
    assert np.array_equal(seen[1], seen[2])
    want = oracles.compose_rgb_reference(*bands, norm=norm)
    assert np.array_equal(seen[1], want)
