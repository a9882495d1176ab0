import itertools
import math
import random
import threading
import time
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.signal import find_peaks

import oracles
import sarcsi as s
from sarcsi import _threads, simulator as sim
from sarcsi.analysis import peak_indices
from sarcsi.errors import AliasingError, DopplerRangeError
from sarcsi.simulator import azimuth_spectrum_csv

# Bound on max|dG| / max|G| between any synthesis path and the direct sum.
ERROR_BUDGET = 1e-10


def point(x=0.0, y=0.0, amp=1.0):
    return s.Scene(x=np.array([x]), y=np.array([y]), amp=np.array([amp]),
                   label="pt")


def reference_spectrum(scene, p, na, nr):
    """Unchunked direct sum of every phasor, written out from the model."""
    f_a = p.f_dc - p.B_a / 2 + np.arange(na) * (p.B_a / na)
    f_r = -p.B_r / 2 + np.arange(nr) * (p.B_r / nr)
    carrier = p.f_c * np.cos(np.arcsin(p.lam * f_a / (2 * p.V)))
    u, v = scene.x / p.V, 2 * scene.y / s.C
    az = np.exp(-2j * np.pi * (np.outer(f_a, u) + np.outer(carrier, v)))
    rg = np.exp(-2j * np.pi * np.outer(v, f_r))
    return (az * scene.amp) @ rg


def relative_error(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def only_path(taken):
    """Context that fails the test if synth_spectrum takes the other path."""
    other = "_direct_sum" if taken == "closed" else "_closed_form"
    return mock.patch.object(
        sim, other, side_effect=AssertionError(f"{other} was called")
    )


def test_point_at_origin_is_flat(xband):
    g = s.synth_spectrum(point(), xband, na=64, nr=16)
    assert g.data.shape == (64, 16)
    assert np.allclose(np.abs(g.data), 1.0)
    assert g.f_a[0] == -xband.B_a / 2
    assert g.f_a[1] - g.f_a[0] == pytest.approx(xband.B_a / 64)
    assert sim._freq_axis(16, xband.B_r)[0] == -xband.B_r / 2    # the range axis


def test_azimuth_phase_slope_encodes_position(xband):
    # a shifted point produces a pure phase ramp exp(-2j pi f_a x/V)
    x0 = 3.0
    g = s.synth_spectrum(point(x=x0), xband, na=256, nr=8)
    col = g.data[:, 0]
    dphi = np.angle(col[1:] / col[:-1])
    df = xband.B_a / 256
    assert np.allclose(dphi, -2.0 * math.pi * df * x0 / xband.V, atol=1e-9)


def test_grid_size_must_be_power_of_two(xband):
    for na, nr in [(100, 16), (64, 9), (4, 16)]:
        with pytest.raises(ValueError):
            s.synth_spectrum(point(), xband, na=na, nr=nr)


def test_spectrum_grid_rejects_what_synthesis_cannot_make(xband):
    # a spectrum holds what synth_spectrum makes, a 2-D complex array with
    # power-of-two sizes of at least 8; an odd, a non-power-of-two or a too
    # small size is rejected, and so is a real or a 1-D array
    for na, nr in [(15, 8), (16, 5), (96, 8), (16, 12), (2, 8), (16, 4)]:
        with pytest.raises(ValueError, match="power of two"):
            s.SpectrumGrid(np.ones((na, nr), complex), xband)
    for data in (np.ones((16, 8)), np.ones(16, complex), np.ones((2, 16, 8), complex)):
        with pytest.raises(ValueError, match="2-D complex"):
            s.SpectrumGrid(data, xband)


def test_spectrum_grid_derives_its_doppler_axis():
    # any spectrum's axis is its acquisition's, bit for bit the one
    # synthesis sums on, and ascending
    p = s.RadarParams(9.6e9, 7600.0, 0.1, 0.1, f_dc=5000.0)
    f_a = s.SpectrumGrid(np.zeros((64, 16), complex), p).f_a
    assert np.array_equal(f_a, p.f_dc - p.B_a / 2 + np.arange(64) * (p.B_a / 64))
    assert np.all(np.diff(f_a) > 0)


def test_unambiguous_extent_guard(xband):
    # na=2048: |x| must stay below V*na/(2*B_a) = 102400 m
    far = point(x=1.1 * xband.V * 2048 / (2.0 * xband.B_a))
    with pytest.raises(AliasingError):
        s.synth_spectrum(far, xband, na=2048, nr=16)
    deep = point(y=1.1 * s.C * 16 / (4.0 * xband.B_r))
    with pytest.raises(AliasingError):
        s.synth_spectrum(deep, xband, na=64, nr=16)


def test_window_beyond_realizable_doppler():
    p = s.RadarParams(9.6e9, 7600.0, 0.1, 0.1, f_dc=486700.0)
    with pytest.raises(DopplerRangeError):
        s.synth_spectrum(point(), p, na=64, nr=16)


def test_superposition(xband):
    a = s.generate_scene({"kind": "line", "theta_az_deg": 2.0, "length_m": 0.5,
                          "spacing_m": 0.01, "label": "a"}, xband.lam)
    b = point(x=1.0, y=0.2, amp=0.5)
    ga = s.synth_spectrum(a, xband, na=128, nr=16).data
    gb = s.synth_spectrum(b, xband, na=128, nr=16).data
    gm = s.synth_spectrum(s.merge_scenes([a, b]), xband, na=128, nr=16).data
    assert np.max(np.abs(gm - (ga + gb))) < 1e-12


def test_focus_preserves_energy_and_centers_point(xband):
    g = s.synth_spectrum(point(amp=2.0), xband, na=128, nr=32)
    img = oracles.focus_image(g)
    # unitary transform: Parseval holds to machine precision
    assert np.sum(np.abs(img.data) ** 2) == pytest.approx(
        np.sum(np.abs(g.data) ** 2), rel=1e-12
    )
    k, l = np.unravel_index(np.argmax(np.abs(img.data)), img.data.shape)
    assert (k, l) == (64, 16)
    assert np.abs(img.data[k, l]) == pytest.approx(2.0 * math.sqrt(128 * 32))
    assert img.t_a[64] == 0.0 and img.t_r[16] == 0.0


def test_focus_zero_spectrum(xband):
    g = s.SpectrumGrid(np.zeros((16, 8), complex), xband)
    assert np.all(oracles.focus_image(g).data == 0.0)


def test_half_band_focus_matches_dirichlet_kernel(xband):
    # keep 128 of 256 azimuth rows: the azimuth cut of the focused image
    # must be the length-128 Dirichlet kernel, sidelobes and all
    g = s.synth_spectrum(point(), xband, na=256, nr=8)
    g.data[:64] = 0.0
    g.data[192:] = 0.0
    prof = np.abs(oracles.focus_image(g).data[:, 4])
    phi = (np.arange(256) - 128) / 256.0
    with np.errstate(divide="ignore", invalid="ignore"):
        want = np.abs(np.sin(128 * np.pi * phi) / np.sin(np.pi * phi))
    want[128] = 128.0
    want *= math.sqrt(8.0) / math.sqrt(256.0)
    assert np.allclose(prof, want, rtol=1e-10, atol=1e-10)
    # first sidelobe (phi = 3/256) is the familiar 13 dB down
    side = prof[131]
    want_db = 20.0 * math.log10(128.0 * math.sin(3.0 * np.pi / 256.0))
    assert 20.0 * math.log10(prof[128] / side) == pytest.approx(want_db, abs=1e-6)


def test_render_psf_shape_and_peak(xband):
    psf = oracles.render_psf(xband, math.radians(2.0), na=128, nr=32)
    assert psf.data.shape == (128, 32)
    k, l = np.unravel_index(np.argmax(np.abs(psf.data)), psf.data.shape)
    assert (k, l) == (64, 16)
    assert psf.data[64, 16] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        oracles.render_psf(xband, math.radians(95.0), na=64, nr=16)


def test_render_psf_matches_focused_point(xband):
    # broadside point focused through the synthesizer equals the closed form
    g = s.synth_spectrum(point(), xband, na=128, nr=32)
    img = oracles.focus_image(g)
    got = img.data / img.data[64, 16]
    want = oracles.render_psf(xband, 0.0, na=128, nr=32).data
    assert np.max(np.abs(got - want)) < 1e-9


def test_azimuth_power_spectrum_marginal(xband):
    g = s.synth_spectrum(point(amp=2.0), xband, na=64, nr=16)
    f_a, power = s.azimuth_power_spectrum(g)
    assert np.array_equal(f_a, g.f_a)
    assert np.allclose(power, 16.0 * 4.0)
    text = azimuth_spectrum_csv(f_a, power)
    lines = text.splitlines()
    assert lines[0] == "f_a_hz,power"
    assert len(lines) == 65
    assert float(lines[1].split(",")[0]) == -38000.0
    assert text.endswith("\n")


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e155], ids=["nan", "inf", "square_overflows"])
def test_azimuth_power_spectrum_rejects_non_finite(xband, value):
    # 1e155 is a finite |G| whose square is not; every case is a ValueError,
    # not a spectrum of inf or NaN powers
    g = s.synth_spectrum(point(), xband, na=64, nr=16)
    g.data[5, 3] = value
    with pytest.raises(ValueError, match="not finite"):
        s.azimuth_power_spectrum(g)


def test_peak_indices_handles_endpoints():
    v = np.array([5.0, 1.0, 0.0, 3.0, 0.0, 1.0, 6.0])
    assert list(peak_indices(v, 2.0)) == [0, 3, 6]
    assert list(peak_indices(v, 4.0)) == [0, 6]
    assert list(peak_indices(np.zeros(4), 1.0)) == []
    assert list(peak_indices(np.zeros(4), 0.0)) == [1]
    assert list(peak_indices(np.array([]), 0.0)) == []
    assert list(peak_indices([7.0], 0.0)) == [0]


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(st.integers(0, 4).map(float), max_size=40),
    min_height=st.integers(-1, 5).map(float),
)
def test_peak_indices_matches_find_peaks(values, min_height):
    # small integer levels make plateaus common; a flat top is reported at
    # its middle sample, rounded down, as scipy.signal.find_peaks does
    padded = np.concatenate(([-np.inf], values, [-np.inf]))
    want, _ = find_peaks(padded, height=min_height)
    assert list(peak_indices(np.array(values), min_height)) == list(want - 1)


def collinear_run(kind, n, step, angle_deg, offset, amp, lam):
    """n equal-amplitude samples of one collinear target kind, off-centre."""
    if kind == "line":
        t = {"theta_az_deg": angle_deg, "length_m": (n - 1) * step, "spacing_m": step}
    elif kind == "array":
        t = {"theta_az_deg": angle_deg, "dx_m": step, "n": n}
    else:
        t = {"theta_h_deg": angle_deg, "theta_v_deg": angle_deg / 2, "theta_inc_deg": 40.0,
             "length_m": (n - 1) * step, "spacing_m": step}
    sc = s.generate_scene({"kind": kind, "amp": amp, **t}, lam)
    assert sc.n == n
    return s.Scene(x=sc.x + offset[0], y=sc.y + offset[1], amp=sc.amp)


# An array whose m = -1 and m = 0 orders fall exactly on bins 0 and na/2:
# every quantity below is a power of two times a small integer, so the
# phase step f_a * du is an exact integer there and r = 0 on those bins.
ON_BIN = dict(params=(9.6e9, 4096.0, 0.125, 1.0), na=1024, d_x=0.25)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["line", "array", "segment3d"]),
    n=st.integers(sim.CLOSED_FORM_MIN_N, 400),
    step=st.floats(0.005, 0.05),
    angle_deg=st.floats(-30.0, 30.0),
    offset=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    amp=st.floats(0.1, 3.0),
    nr=st.sampled_from([16, 32]),
)
@example(kind="on_bin", n=256, step=0.0, angle_deg=0.0, offset=(0.0, 0.0),
         amp=1.0, nr=16)
@example(kind="on_bin", n=257, step=0.0, angle_deg=0.0, offset=(0.0, 0.0),
         amp=1.0, nr=16)
def test_closed_form_matches_direct_sum(
    arr_params, kind, n, step, angle_deg, offset, amp, nr
):
    if kind == "on_bin":
        p = s.RadarParams(*ON_BIN["params"])
        na = ON_BIN["na"]
        sc = s.generate_scene({"kind": "array", "theta_az_deg": 0.0, "dx_m": ON_BIN["d_x"],
                               "n": n, "amp": amp}, p.lam)
    else:
        p, na = arr_params, 512
        sc = collinear_run(kind, n, step, angle_deg, offset, amp, p.lam)
    with only_path("closed"):
        g = s.synth_spectrum(sc, p, na=na, nr=nr).data
    assert relative_error(g, reference_spectrum(sc, p, na, nr)) <= ERROR_BUDGET
    if kind == "on_bin":
        # the limit of the Dirichlet ratio, with (-1)^(m (n-1)) at m = -1
        sign = -1.0 if n % 2 == 0 else 1.0
        assert np.allclose(g[0], sign * n * amp, rtol=0, atol=1e-9)
        assert np.allclose(g[na // 2], n * amp, rtol=0, atol=1e-9)


@pytest.mark.parametrize("case", ["jittered", "graded_amp", "below_min_n", "arc"])
def test_other_scenes_take_the_direct_sum(arr_params, case):
    rng = np.random.default_rng(7)
    sc = collinear_run("line", 300, 0.01, 2.0, (0.3, -0.2), 1.0, arr_params.lam)
    if case == "jittered":
        sc = s.Scene(x=sc.x + rng.normal(0.0, 1e-6, sc.n), y=sc.y, amp=sc.amp)
    elif case == "graded_amp":
        sc = s.Scene(x=sc.x, y=sc.y, amp=np.linspace(1.0, 1.5, sc.n))
    elif case == "below_min_n":
        sc = collinear_run("array", sim.CLOSED_FORM_MIN_N - 1, 0.02, 20.0,
                           (0.0, 0.0), 1.0, arr_params.lam)
    else:
        sc = s.generate_scene({"kind": "arc", "radius_m": 40.0, "tan_lo_deg": -2.0,
                               "tan_hi_deg": 2.0, "spacing_m": 0.01}, arr_params.lam)
    with only_path("direct"):
        g = s.synth_spectrum(sc, arr_params, na=256, nr=16).data
    assert relative_error(g, reference_spectrum(sc, arr_params, 256, 16)) <= 1e-12


def spread_scene(n, seed=3):
    rng = np.random.default_rng(seed)
    return s.Scene(x=rng.uniform(-10.0, 10.0, n), y=rng.uniform(-0.3, 0.3, n),
                   amp=rng.uniform(0.5, 2.0, n))


def half_axis_combine(tb, na, nr):
    """G from the complex (2 na, nr/2 + 1) sums T over S of the direct sum:
    conj(T - jS) on the first nr/2 + 1 columns, T + jS on their partners."""
    t, s_, h = tb[:na], tb[na:], nr // 2 + 1
    g = np.empty((na, nr), complex)
    g[:, :h] = np.conj(t - 1j * s_)
    g[:, h:] = (t + 1j * s_)[:, h - 2 : 0 : -1]
    return g


def edge_scene(p, na, nr, n, seed=5, fill=0.999, signed=False):
    """n scatterers spread up to fill times the grid's unambiguous extents."""
    rng = np.random.default_rng(seed)
    x_max = p.V * na / (2 * p.B_a) * fill
    y_max = s.C * nr / (4 * p.B_r) * fill
    x = rng.uniform(-x_max, x_max, n)
    y = rng.uniform(-y_max, y_max, n)
    y[:2] = (-y_max, y_max)
    amp = rng.uniform(0.5, 2.0, n) * (rng.choice([-1.0, 1.0], n) if signed else 1.0)
    return s.Scene(x=x, y=y, amp=amp)


# (f_dc, na, nr, scatterers, fill, signed) per case of the half-axis sum
HALF_AXIS_CASES = {
    "nr8": (0.0, 256, 8, 40, 0.5, False),
    "na8": (0.0, 8, 64, 40, 0.5, False),
    "f_dc": (20000.0, 512, 32, 60, 0.5, False),
    "range_edge": (0.0, 256, 64, 60, 0.999, False),
    "mixed_sign": (0.0, 256, 32, 60, 0.5, True),
    "several_chunks": (0.0, 4096, 16, 1031, 0.5, True),
}


@pytest.mark.parametrize("case", HALF_AXIS_CASES)
def test_half_axis_sum_matches_reference(case):
    # the direct sum fills every column from the nr/2 + 1 it multiplies out,
    # so the smallest grids, an off-centre Doppler window, the range edge
    # and cancelling amplitudes all check the conjugate-partner identity
    f_dc, na, nr, n, fill, signed = HALF_AXIS_CASES[case]
    p = s.RadarParams(9.6e9, 7600.0, 0.1, 0.1, f_dc=f_dc)
    sc = edge_scene(p, na, nr, n, fill=fill, signed=signed)
    if case == "several_chunks":
        rows, step = sim._block_shape(na, n)
        assert na // rows == 4 and n > 4 * step
    with only_path("direct"):
        g = s.synth_spectrum(sc, p, na=na, nr=nr).data
    assert g.shape == (na, nr)
    assert relative_error(g, reference_spectrum(sc, p, na, nr)) <= 1e-12


def test_combine_tiles_give_the_same_bits_on_one_or_four_cpus(xband):
    # at 4096 x 512, 300 scatterers are two sample chunks by four row tiles
    # of ROW_TILE rows, and the combine runs per row tile; on four worker
    # threads it must write exactly what one thread writes
    na, nr = 4096, 512
    sc = edge_scene(xband, na, nr, 300, signed=True)
    tmap = sim.threaded_map
    got = []
    for n_cpus in (1, 4):
        stages = []                   # (items, threads) per threaded_map call

        def spy(fn, items):
            threads = set()
            stages.append((len(items), threads))
            return tmap(lambda x: threads.add(threading.get_ident()) or fn(x), items)

        with cpus(n_cpus), only_path("direct"), \
                mock.patch.object(sim, "threaded_map", side_effect=spy):
            got.append(s.synth_spectrum(sc, xband, na=na, nr=nr).data)
        (blocks, _), (tiles, combine_threads) = stages
        assert tiles == na // sim.ROW_TILE == 4 and blocks == 2 * tiles
        assert (len(combine_threads) > 1) == (n_cpus > 1)
    assert np.array_equal(got[0], got[1])
    assert relative_error(got[0], reference_spectrum(sc, xband, na, nr)) <= 1e-12


def test_direct_block_allocates_only_its_operands(xband):
    # a full block of a 2048 x 256 sum, one row tile by one sample chunk: the
    # phases, their whole cycles and the carrier product are all built inside
    # the returned (2 rows, step) array; only the small range factor has a
    # temporary of its own
    na, nr = 2048, 256
    rows, step = sim._block_shape(na, 4 * na)
    assert rows * step == sim.BLOCK_PHASES and rows < na
    sc = edge_scene(xband, na, nr, step)
    f_a = sim._freq_axis(na, xband.B_a, xband.f_dc)[:rows]
    f_r = sim._freq_axis(nr, xband.B_r)
    carrier = xband.f_c * np.cos(s.squint_from_doppler(xband, f_a))
    u, v = sc.x / xband.V, 2 * sc.y / s.C
    tracemalloc.start()
    try:
        w = sim._direct_block(f_a, carrier, u, v)
        r = sim._range_factor(f_r, v, sc.amp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w.dtype == r.dtype == np.float64
    assert w.shape == (2 * rows, step) and r.shape == (step, 2 * (nr // 2 + 1))
    assert peak <= 1.1 * (w.nbytes + r.nbytes)


def test_overflowing_sum_warns_on_no_thread(xband):
    # 300 scatterers at 1e307 overflow the sum, and inf - inf in the combine
    # is invalid.  Worker threads run under the caller's numpy error state,
    # so no RuntimeWarning (an error under this suite's filter) escapes;
    # the verdict is azimuth_power_spectrum's
    na, nr = 4096, 512
    sc = edge_scene(xband, na, nr, 300)
    sc = s.Scene(x=sc.x, y=sc.y, amp=np.full(sc.n, 1e307))
    with cpus(4), only_path("direct"):
        g = s.synth_spectrum(sc, xband, na=na, nr=nr)
    assert not np.all(np.isfinite(g.data))
    with pytest.raises(ValueError, match="not finite"):
        s.azimuth_power_spectrum(g)


def cpus(n):
    """Context that makes the process see n CPUs in its affinity mask."""
    return mock.patch("os.sched_getaffinity", return_value=set(range(n)), create=True)


@pytest.mark.parametrize("n_cpus", [1, 2, 4])
def test_threaded_map_keeps_no_yielded_result(n_cpus):
    # once the caller drops a result, the map holds no reference to it, so it
    # is freed before the next one is asked for; a worker thread may still be
    # letting go of its future for a moment after the handover
    class Item:
        pass

    with cpus(n_cpus):
        results = _threads.threaded_map(lambda _: Item(), range(6))
        for _ in range(6):
            ref = weakref.ref(next(results))
            deadline = time.monotonic() + 5.0
            while ref() is not None and time.monotonic() < deadline:
                time.sleep(0.001)
            assert ref() is None
        assert next(results, None) is None


def test_chunked_sum_spans_chunks(xband):
    # 1031 is prime; at 4096 rows a block is ROW_TILE = 1024 rows by 256
    # scatterers, so the sum runs over four row tiles of five chunks each,
    # four of 256 scatterers and one of 7
    na, n = 4096, 1031
    assert sim._block_shape(na, n) == (1024, 256)
    sc = spread_scene(n)
    with only_path("direct"):
        g = s.synth_spectrum(sc, xband, na=na, nr=8).data
    assert relative_error(g, reference_spectrum(sc, xband, na, 8)) <= 1e-12


@pytest.mark.parametrize("n_cpus", [1, 4])
def test_chunked_sum_ignores_timing_and_cpu_count(xband, n_cpus):
    # twenty blocks, four row tiles by five sample chunks, finish out of
    # order under random delays, on one thread or on four; the sum must
    # still be the serial sum of each tile's (2 rows, 2h) products in chunk
    # order
    na, nr, n = 4096, 8, 1031
    sc = spread_scene(n)
    f_a = sim._freq_axis(na, xband.B_a, xband.f_dc)
    f_r = sim._freq_axis(nr, xband.B_r)
    carrier = xband.f_c * np.cos(s.squint_from_doppler(xband, f_a))
    u, v = sc.x / xband.V, 2 * sc.y / s.C
    rows, step = sim._block_shape(na, n)
    assert na // rows == 4 and -(-n // step) == 5
    tiles = {}
    for lo in range(0, n, step):
        sl = slice(lo, lo + step)
        r = sim._range_factor(f_r, v[sl], sc.amp[sl])
        for a in range(0, na, rows):
            p = sim._direct_block(f_a[a : a + rows], carrier[a : a + rows], u[sl], v[sl]) @ r
            tiles[a] = p if lo == 0 else tiles[a] + p
    tb = np.concatenate([tiles[a][:rows] for a in tiles] + [tiles[a][rows:] for a in tiles])
    want = half_axis_combine(tb.view(complex), na, nr)

    build = sim._direct_block
    delays = random.Random(n_cpus)
    threads = set()

    def slow_block(*args):
        threads.add(threading.get_ident())
        time.sleep(delays.uniform(0.0, 0.02))
        return build(*args)

    with cpus(n_cpus), only_path("direct"), \
            mock.patch.object(sim, "_direct_block", side_effect=slow_block):
        g = s.synth_spectrum(sc, xband, na=na, nr=nr).data
    assert np.array_equal(g, want)
    assert (len(threads) > 1) == (n_cpus > 1)


@pytest.mark.parametrize("n_cpus", [1, 2, 4])
def test_threaded_blocks_reuse_a_fixed_ring(xband, n_cpus):
    # twenty blocks, five sample chunks by four row tiles, in that order: on
    # worker threads block k is built in buffer k mod (workers + 1), so how
    # far the builders run ahead cannot change the memory touched; inline,
    # each block allocates its own
    na, n = 4096, 1031
    sc = spread_scene(n)
    u = sc.x / xband.V
    f_a = sim._freq_axis(na, xband.B_a, xband.f_dc)
    rows, step = sim._block_shape(na, n)
    build = sim._direct_block
    outs = {}

    def spy(*args):
        chunk = int(np.flatnonzero(u == args[2][0])[0]) // step
        tile = int(np.flatnonzero(f_a == args[0][0])[0]) // rows
        outs[chunk * (na // rows) + tile] = args[4]
        return build(*args)

    with cpus(n_cpus), only_path("direct"), \
            mock.patch.object(sim, "_direct_block", side_effect=spy):
        g = s.synth_spectrum(sc, xband, na=na, nr=8).data
    assert sorted(outs) == list(range(20))
    if n_cpus == 1:
        assert all(out is None for out in outs.values())
    else:
        ring = [outs[k] for k in range(n_cpus + 1)]
        assert len({id(out) for out in ring}) == n_cpus + 1
        assert all(outs[k] is ring[k % (n_cpus + 1)] for k in outs)
    assert relative_error(g, reference_spectrum(sc, xband, na, 8)) <= 1e-12


def test_chunk_failure_propagates(xband, run_bounded):
    # the third block's builder raises on a worker thread: synth_spectrum
    # re-raises that exception in the caller instead of hanging on it
    build = sim._direct_block
    calls = itertools.count()

    def failing(*args):
        if next(calls) == 2:
            raise RuntimeError("chunk 3 failed")
        return build(*args)

    with cpus(2), mock.patch.object(sim, "_direct_block", side_effect=failing):
        finished, result = run_bounded(
            lambda: s.synth_spectrum(spread_scene(1031), xband, na=4096, nr=8)
        )
    assert finished
    assert isinstance(result, RuntimeError) and str(result) == "chunk 3 failed"


def test_one_chunk_starts_no_thread(xband):
    # analyze's small direct sums fit in one chunk: they run inline
    sc = spread_scene(64)
    with cpus(4), only_path("direct"), \
            mock.patch("threading.Thread", side_effect=AssertionError("thread started")):
        g = s.synth_spectrum(sc, xband, na=2048, nr=64).data
    assert relative_error(g, reference_spectrum(sc, xband, 2048, 64)) <= 1e-12


def test_closed_form_memory_is_independent_of_n(arr_params):
    # 60 m line, 7686 scatterers; summed term by term it would need 4 MiB
    # phase blocks even in chunks, the closed form only a few na x nr arrays
    na, nr = 2048, 64
    sc = s.generate_scene({"kind": "line", "theta_az_deg": 1.0, "length_m": 60.0},
                          arr_params.lam)
    assert sc.n == 7686
    tracemalloc.start()
    try:
        s.synth_spectrum(sc, arr_params, na=na, nr=nr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * na * nr * 16


class TestDirichletOracle:
    def test_broadside_array_gives_single_zero_line(self, xband, bin_hz):
        # K = 0: constructive phases need f d_u integer; only m = 0 fits
        # in the window (the m = +-1 lines sit at +-152 kHz)
        f = np.linspace(-38000.0, 38000.0, 2048, endpoint=False)
        freqs = oracles.dirichlet_peaks_oracle(8, 0.05 / 7600.0, 0.0, xband, f)
        assert freqs.shape == (1,)
        assert abs(freqs[0]) <= bin_hz

    def test_flagship_first_order_peak(self, xband, bin_hz):
        # 20 deg array, d_x = 5 cm: only the m = 1 line is in the window
        t = s.GratingTarget(math.radians(20.0), 0.05)
        K = math.tan(t.theta_az) * 2.0 * xband.V / s.C
        f = np.linspace(-38000.0, 38000.0, 2048, endpoint=False)
        freqs = oracles.dirichlet_peaks_oracle(64, 0.05 / 7600.0, K, xband, f)
        want = s.doppler_from_squint(xband, s.high_order_squint(t, 1, xband.lam))
        assert freqs.shape == (1,)
        assert abs(freqs[0] - want) <= bin_hz

    def test_two_elements_single_peak_per_period(self, xband):
        # N = 2: one line inside a single grating period 1/d_u
        d_u = 0.05 / 7600.0
        f = np.linspace(-0.5 / d_u, 0.5 / d_u, 4096, endpoint=False)
        assert oracles.dirichlet_peaks_oracle(2, d_u, 0.0, xband, f).shape == (1,)

    def test_peaks_sit_on_integer_phase(self, xband):
        # documented post-condition of every reported frequency
        t = s.GratingTarget(math.radians(20.0), 0.05)
        K = math.tan(t.theta_az) * 2.0 * xband.V / s.C
        d_u = 0.05 / 7600.0
        f = np.linspace(-38000.0, 38000.0, 8192, endpoint=False)
        freqs = oracles.dirichlet_peaks_oracle(64, d_u, K, xband, f)
        assert freqs.size > 0
        for fd in freqs:
            cos_t = math.sqrt(1.0 - (xband.lam * fd / (2.0 * xband.V)) ** 2)
            phase = (fd + xband.f_c * K * cos_t) * d_u
            assert abs(phase - round(phase)) < 1.0 / 64.0

    def test_bad_arguments(self, xband):
        f = np.zeros(4)
        with pytest.raises(ValueError):
            oracles.dirichlet_peaks_oracle(1, 1e-5, 0.0, xband, f)
        with pytest.raises(ValueError):
            oracles.dirichlet_peaks_oracle(8, -1e-5, 0.0, xband, f)


class TestZeroOrderOracle:
    def test_broadside_peak_at_zero(self, xband):
        f = np.linspace(-38000.0, 38000.0, 2048, endpoint=False)
        assert oracles.zero_order_peak_oracle(0.0, xband, f) == 0.0

    def test_tilted_line_peak_at_negated_squint(self, xband, bin_hz):
        f = np.linspace(-38000.0, 38000.0, 2048, endpoint=False)
        for deg in (-2.0, 2.0):
            got = oracles.zero_order_peak_oracle(math.radians(deg), xband, f)
            want = s.doppler_from_squint(xband, -math.radians(deg))
            assert abs(got - want) <= bin_hz

    def test_antisymmetry(self, xband):
        # mirror the line, mirror the peak; grid symmetric about zero
        f = np.linspace(-38000.0, 38000.0, 513)
        a = oracles.zero_order_peak_oracle(math.radians(1.5), xband, f)
        b = oracles.zero_order_peak_oracle(math.radians(-1.5), xband, f)
        assert a == -b

    def test_support_floor(self, xband):
        with pytest.raises(ValueError):
            oracles.zero_order_peak_oracle(0.0, xband, np.array([0.0]),
                                     support_cells=8)


@pytest.mark.parametrize("case", ["direct", "closed"])
def test_synthesis_holds_what_the_preflight_counts(xband, case):
    # a 2048 x 256 scene on two CPUs.  The curve's direct sum holds T over S,
    # then G, with the ring of workers + 1 operand blocks and one product in
    # between, and no second T-over-S-sized product buffer; the line's closed
    # form holds a few float64 grids.  Either peak is what the memory
    # preflight checks against physical memory
    na, nr = 2048, 256
    if case == "direct":
        target = {"kind": "arc", "radius_m": 40.0, "tan_lo_deg": -2.0, "tan_hi_deg": 2.0,
                  "spacing_m": 0.002}
    else:
        target = {"kind": "line", "theta_az_deg": 1.0, "length_m": 20.0, "spacing_m": 0.002}
    sc = s.generate_scene(target, xband.lam)
    rows, step = sim._block_shape(na, sc.n)
    h = nr // 2 + 1
    with cpus(2), only_path(case):
        s.synth_spectrum(sc, xband, na=na, nr=nr)      # warms up the imports
        tracemalloc.start()
        try:
            g = s.synth_spectrum(sc, xband, na=na, nr=nr).data
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        counted = sim._peak_bytes(na, nr, sc.n, case == "direct")
    assert relative_error(g, reference_spectrum(sc, xband, na, nr)) <= 1e-12
    if case == "direct":
        assert na // rows == 2 and sc.n > 4 * step
        ts, ring, product = 32 * na * h, 3 * 16 * rows * step, 32 * rows * h
        assert peak <= ts + g.nbytes + ring + product + (1 << 20)
    assert counted - (1 << 20) <= peak <= counted + (1 << 20)
