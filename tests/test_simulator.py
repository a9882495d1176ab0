import importlib.util
import itertools
import math
import random
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.signal import find_peaks

import oracles
import sarcsi as s
from sarcsi import _threads, csi, simulator as sim
from sarcsi.analysis import peak_indices
from sarcsi.errors import AliasingError, DopplerRangeError
from sarcsi.scene import scene_config_from_dict
from sarcsi.simulator import azimuth_spectrum_csv

# Bound on max|dG| / max|G| between any synthesis path and the direct sum.
ERROR_BUDGET = 1e-10


def point(x=0.0, y=0.0, amp=1.0):
    return s.Scene(x=np.array([x]), y=np.array([y]), amp=np.array([amp]),
                   label="pt")


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
    assert relative_error(g, oracles.direct_sum(sc, p, na, nr)) <= ERROR_BUDGET
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
    assert relative_error(g, oracles.direct_sum(sc, arr_params, 256, 16)) <= 1e-12


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
    assert relative_error(g, oracles.direct_sum(sc, p, na, nr)) <= 1e-12


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_staged_combine_at_the_narrowest_range_axis(xband, n_cpus, cpus):
    # at nr = 8 the combine stages a whole row tile at a time (16384 / nr
    # rows, at most ROW_TILE) and each G row covers 8 of its pair's 10
    # values, so its mirrored half lands on the S values it is built from;
    # 4096 rows by 700 scatterers are four row tiles by three sample chunks.
    # G is written over the pairs' buffer and must still be the direct sum
    na, nr, n = 4096, 8, 700
    rows, step = sim._block_shape(na, n)
    assert na // rows == 4 and -(-n // step) == 3
    assert sim._combine_group(nr, rows) == rows
    sc = edge_scene(xband, na, nr, n, signed=True)
    with cpus(n_cpus), only_path("direct"):
        g = s.synth_spectrum(sc, xband, na=na, nr=nr).data
    assert g.shape == (na, nr) and g.strides == (16 * (nr + 2), 16)
    assert relative_error(g, oracles.direct_sum(sc, xband, na, nr)) <= 1e-12


@pytest.mark.parametrize("shape", [(4096, 512), (2048, 256), (64, 8)])
def test_azimuth_power_is_bit_identical_on_a_padded_view(xband, shape):
    # the marginal is taken a few rows at a time in one scratch; on the
    # direct sum's padded rows it gives the bits of the whole-grid sum of a
    # C-ordered copy
    na, nr = shape
    rng = np.random.default_rng(na)
    data = np.empty((na, nr + 2), complex)[:, :nr]
    data.real[...] = rng.standard_normal((na, nr))
    data.imag[...] = rng.standard_normal((na, nr))
    f_a, power = s.azimuth_power_spectrum(s.SpectrumGrid(data, xband))
    assert np.array_equal(power, np.sum(np.abs(data.copy()) ** 2, axis=1))
    assert np.array_equal(f_a, s.SpectrumGrid(data.copy(), xband).f_a)


def tile_stages(tiles_seen):
    """A threaded_map spy that records (items, threads) per call in tiles_seen."""
    tmap = sim.threaded_map

    def spy(fn, items, *scratch):
        threads = set()
        tiles_seen.append((len(items), threads))
        return tmap(lambda *args: threads.add(threading.get_ident()) or fn(*args), items,
                    *scratch)

    return mock.patch.object(sim, "threaded_map", side_effect=spy)


def test_combine_tiles_give_the_same_bits_on_one_or_four_cpus(xband, cpus):
    # at 4096 x 512, 300 scatterers are two sample chunks by four row tiles
    # of ROW_TILE rows, and the one stage runs a job per row tile, which
    # ends with its combine; on four worker threads it must write exactly
    # what one thread writes
    na, nr = 4096, 512
    sc = edge_scene(xband, na, nr, 300, signed=True)
    got = []
    for n_cpus in (1, 4):
        stages = []
        with cpus(n_cpus), only_path("direct"), tile_stages(stages):
            got.append(s.synth_spectrum(sc, xband, na=na, nr=nr).data)
        [(tiles, threads)] = stages
        assert tiles == na // sim.ROW_TILE == 4
        assert (len(threads) > 1) == (n_cpus > 1)
    assert np.array_equal(got[0], got[1])
    assert relative_error(got[0], oracles.direct_sum(sc, xband, na, nr)) <= 1e-12


def test_direct_block_allocates_only_its_operands(xband):
    # a full block of a 2048 x 256 sum, one row tile by one sample chunk: the
    # phases, their whole cycles and the carrier product are all built inside
    # the returned (2 rows, step) view of its flat slot, and the range
    # factor's cycles inside its own complex slot
    na, nr = 2048, 256
    rows, step = sim._block_shape(na, 4 * na)
    assert rows * step == sim.BLOCK_PHASES and rows < na
    sc = edge_scene(xband, na, nr, step)
    f_a = sim._freq_axis(na, xband.B_a, xband.f_dc)[:rows]
    f_r = sim._freq_axis(nr, xband.B_r)
    carrier = xband.f_c * np.cos(s.squint_from_doppler(xband, f_a))
    u, v = sc.x / xband.V, 2 * sc.y / s.C
    block, factor = np.empty(2 * rows * step), np.empty((step, nr // 2 + 1), complex)
    tracemalloc.start()
    try:
        w = sim._direct_block(f_a, carrier, u, v, block)
        r = sim._range_factor(f_r, v, sc.amp, factor)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w.dtype == r.dtype == np.float64
    assert w.shape == (2 * rows, step) and r.shape == (step, 2 * (nr // 2 + 1))
    assert np.shares_memory(w, block) and np.shares_memory(r, factor)
    assert peak <= 0.1 * (w.nbytes + r.nbytes)


def test_overflowing_sum_warns_on_no_thread(xband, cpus):
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


@pytest.mark.parametrize("n_cpus", [1, 2, 4])
def test_threaded_map_runs_call_k_in_slot_k_mod_n(n_cpus, run_bounded, cpus):
    # ten calls of uneven length on n = n_cpus threads: call k gets row k % n
    # of each scratch the map allocated, (n, *shape) of its dtype, and runs
    # on the thread that ran call k - n, after that call ended; the caller
    # runs row 0, the results come back in input order and no thread is left
    # running
    events = []    # ("start" | "end", k), in the order they happen
    lock = threading.Lock()

    def call(item, block, pair):
        k = "abcdefghij".index(item)
        with lock:
            events.append(("start", k))
        time.sleep(0.001 * (7 * k % 5))
        with lock:
            events.append(("end", k))
        return item, (block, pair), threading.current_thread()

    def mapped():
        before = threading.active_count()
        got = _threads.threaded_map(call, "abcdefghij", ((3,), float), ((2, 5), complex))
        return got, threading.active_count() - before, threading.current_thread()

    with cpus(n_cpus):
        finished, result = run_bounded(mapped)
    assert finished
    got, left, caller = result
    assert left == 0
    assert [item for item, _, _ in got] == list("abcdefghij")
    scratch = [row.base for row in got[0][1]]
    assert [(b.shape, b.dtype) for b in scratch] == [((n_cpus, 3), np.float64),
                                                      ((n_cpus, 2, 5), np.complex128)]
    for k, (_, rows, _) in enumerate(got):
        assert all(row.base is b for row, b in zip(rows, scratch))
        assert [row.ctypes.data for row in rows] == [b[k % n_cpus].ctypes.data for b in scratch]
    assert got[0][2] is caller and len({thread for *_, thread in got}) == n_cpus
    for k in range(n_cpus, 10):
        assert got[k][2] is got[k - n_cpus][2]
        assert events.index(("start", k)) > events.index(("end", k - n_cpus))


def test_threaded_map_of_no_items_starts_no_thread(cpus):
    with cpus(4), mock.patch("threading.Thread", side_effect=AssertionError("thread started")):
        assert _threads.threaded_map(lambda item: 1 / 0, []) == []


def test_threaded_map_stops_at_a_worker_failure(run_bounded, cpus):
    # on two threads, call 1 raises on the worker thread; call 0, on the
    # caller's, either never starts or waits for that thread to end.  No
    # later call starts, the exception reaches the caller and no thread is
    # left running
    ran, worker, raising = [], [], threading.Event()

    def call(k):
        ran.append(k)
        if k == 1:
            worker.append(threading.current_thread())
            raising.set()
            raise RuntimeError("call 1 failed")
        if k == 0:
            assert raising.wait(10)
            worker[0].join(10)

    def mapped():
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="call 1 failed"):
            _threads.threaded_map(call, range(8))
        return threading.active_count() - before

    with cpus(2):
        finished, left = run_bounded(mapped)
    assert finished and left == 0
    assert 1 in ran and set(ran) <= {0, 1}


def failing_second_start(error):
    """A patch under which the second thread start raises error."""
    start, starts = threading.Thread.start, itertools.count()

    def failing_start(thread):
        if next(starts) == 1:
            raise error
        start(thread)

    return mock.patch.object(threading.Thread, "start", failing_start)


def test_threaded_map_runs_the_rows_of_a_thread_that_cannot_start(run_bounded, cpus):
    # on four CPUs the second of three thread starts fails as a process out
    # of threads fails: the caller runs rows 0, 2 and 3, each call on its own
    # row, and the results are those of the map without the failure
    def call(k, row):
        row[...] = k    # each call overwrites its row, as the stages do
        return k, int(row[0]), row.ctypes.data - row.base.ctypes.data, threading.get_ident()

    def mapped():
        before = threading.active_count()
        with failing_second_start(RuntimeError("can't start new thread")):
            got = _threads.threaded_map(call, range(10), ((2,), np.int64))
        return got, threading.active_count() - before, threading.get_ident()

    with cpus(4):
        finished, result = run_bounded(mapped)
        want = _threads.threaded_map(call, range(10), ((2,), np.int64))
    assert finished
    got, left, caller = result
    assert left == 0
    assert [g[:3] for g in got] == [w[:3] for w in want] == [(k, k, 16 * (k % 4))
                                                             for k in range(10)]
    assert {g[3] for g in got if g[0] % 4 != 1} == {caller}
    assert caller not in {g[3] for g in got if g[0] % 4 == 1}


def test_threaded_map_reraises_an_interrupt_at_start_after_joining(run_bounded, cpus):
    # of three worker threads the second fails to start with an interrupt:
    # the caller runs no call, the started thread runs only calls of its own
    # row and is joined, and the interrupt is re-raised
    ran = []

    def mapped():
        before = threading.active_count()
        with failing_second_start(KeyboardInterrupt()), pytest.raises(KeyboardInterrupt):
            _threads.threaded_map(lambda k: ran.append(k), range(10))
        return threading.active_count() - before

    with cpus(4):
        finished, left = run_bounded(mapped)
    assert finished and left == 0
    assert all(k % 4 == 1 for k in ran)


def test_chunked_sum_spans_chunks(xband):
    # 1031 is prime; at 4096 rows a block is ROW_TILE = 1024 rows by 256
    # scatterers, so the sum runs over four row tiles of five chunks each,
    # four of 256 scatterers and one of 7
    na, n = 4096, 1031
    assert sim._block_shape(na, n) == (1024, 256)
    sc = spread_scene(n)
    with only_path("direct"):
        g = s.synth_spectrum(sc, xband, na=na, nr=8).data
    assert relative_error(g, oracles.direct_sum(sc, xband, na, 8)) <= 1e-12


@pytest.mark.parametrize("n_cpus", [1, 4])
def test_chunked_sum_ignores_timing_and_cpu_count(xband, n_cpus, cpus):
    # twenty blocks, four row tiles by five sample chunks, finish out of
    # order under random delays, on one thread or on four; the sum must
    # still be the serial sum of each tile's T-row and S-row (rows, 2h)
    # products in chunk order
    na, nr, n = 4096, 8, 1031
    sc = spread_scene(n)
    f_a = sim._freq_axis(na, xband.B_a, xband.f_dc)
    f_r = sim._freq_axis(nr, xband.B_r)
    carrier = xband.f_c * np.cos(s.squint_from_doppler(xband, f_a))
    u, v = sc.x / xband.V, 2 * sc.y / s.C
    rows, step = sim._block_shape(na, n)
    assert na // rows == 4 and -(-n // step) == 5
    tiles = dict.fromkeys(range(0, na, rows), 0.0)
    for lo in range(0, n, step):
        sl = slice(lo, lo + step)
        r = sim._range_factor(f_r, v[sl], sc.amp[sl], np.empty((step, nr // 2 + 1), complex))
        for a in tiles:
            w = sim._direct_block(f_a[a : a + rows], carrier[a : a + rows], u[sl], v[sl],
                                  np.empty(2 * rows * step))
            tiles[a] = tiles[a] + np.concatenate([w[:rows] @ r, w[rows:] @ r])
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
def test_tiles_build_their_blocks_in_fixed_slots(xband, n_cpus, cpus):
    # four row tiles by five sample chunks: tile k builds all its blocks in
    # slot k mod workers of one buffer the caller allocated, so how far the
    # jobs run ahead cannot change the memory touched
    na, n = 4096, 1031
    sc = spread_scene(n)
    f_a = sim._freq_axis(na, xband.B_a, xband.f_dc)
    rows, step = sim._block_shape(na, n)
    build = sim._direct_block
    outs = {}

    def spy(*args):
        tile = int(np.flatnonzero(f_a == args[0][0])[0]) // rows
        outs.setdefault(tile, []).append(args[4])
        return build(*args)

    with cpus(n_cpus), only_path("direct"), \
            mock.patch.object(sim, "_direct_block", side_effect=spy):
        g = s.synth_spectrum(sc, xband, na=na, nr=8).data
    assert sorted(outs) == list(range(na // rows)) == [0, 1, 2, 3]
    slots = outs[0][0].base
    assert slots.shape == (n_cpus, 2 * rows * step)
    for k, built in outs.items():
        assert len(built) == -(-n // step) == 5
        assert all(out.base is slots for out in built)
        assert {out.ctypes.data for out in built} == {slots[k % n_cpus].ctypes.data}
    assert relative_error(g, oracles.direct_sum(sc, xband, na, 8)) <= 1e-12


@contextmanager
def growing_mask(after):
    """A context in which the affinity mask reads {0} for its first after
    reads and {0, 1} from then on: a mask that grows while a stage runs.  The
    CPU count is read afresh on entry and again after it."""
    reads = itertools.count()
    _threads.cpus.cache_clear()
    try:
        with mock.patch("os.sched_getaffinity", create=True,
                        side_effect=lambda _: {0} if next(reads) < after else {0, 1}):
            yield
    finally:
        _threads.cpus.cache_clear()


def test_stages_count_their_threads_once(xband):
    # the direct sum of four row tiles and the split of a 2048 x 128
    # spectrum give the bits of an unmocked run whenever the mask grows: the
    # CPU count is read once per process, and each map sizes its scratch by
    # it.  When the stages sized their scratch by a read of their own, the
    # split raised IndexError with the mask growing after four reads
    rng = np.random.default_rng(5)
    spectrum = rng.standard_normal((2048, 128)) + 1j * rng.standard_normal((2048, 128))
    sc = spread_scene(1031)
    with only_path("direct"):
        want = [s.synth_spectrum(sc, xband, na=4096, nr=8).data,
                *s.split_subbands(s.SpectrumGrid(spectrum.copy(), xband))]
    for after in range(6):
        with growing_mask(after), only_path("direct"):
            got = [s.synth_spectrum(sc, xband, na=4096, nr=8).data]
        with growing_mask(after):
            got += s.split_subbands(s.SpectrumGrid(spectrum.copy(), xband))
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), after


def test_preflights_and_maps_count_the_same_threads(xband):
    # the mask reads {0} once and {0, 1} after, over one direct sum of four
    # row tiles, its split and its composition: every count of threads, the
    # preflights' and the maps', is the one CPU of the first read.  When each
    # read the mask for itself, synthesis_bytes checked one thread's scratch
    # while the direct sum's map ran two
    seen = []    # (items, threads) of each count
    count = _threads.workers

    def spy(n_items):
        seen.append((n_items, count(n_items)))
        return seen[-1][1]

    with growing_mask(1), only_path("direct"), \
            mock.patch.object(_threads, "workers", side_effect=spy), \
            mock.patch.object(sim, "workers", side_effect=spy), \
            mock.patch.object(csi, "workers", side_effect=spy):
        g = s.synth_spectrum(spread_scene(1031), xband, na=4096, nr=8)
        s.compose_rgb(*s.split_subbands(g))
    assert [threads for _, threads in seen] == [1] * len(seen), seen
    assert len(seen) == 8 and max(items for items, _ in seen) > 1


def test_a_1024_row_sum_runs_as_two_tiles(xband, cpus):
    # a multi-chunk sum is cut into at least two row tiles, so a 1024-row
    # grid is two jobs of 512 rows that two CPUs share
    na, nr, n = 1024, 256, 1031
    rows, step = sim._block_shape(na, n)
    assert (rows, step) == (na // 2, sim.BLOCK_PHASES // (na // 2)) and step < n
    sc = edge_scene(xband, na, nr, n, signed=True)
    stages = []
    with cpus(2), only_path("direct"), tile_stages(stages):
        g = s.synth_spectrum(sc, xband, na=na, nr=nr).data
    [(tiles, threads)] = stages
    assert tiles == 2 and len(threads) == 2
    assert relative_error(g, oracles.direct_sum(sc, xband, na, nr)) <= 1e-12


def test_chunk_failure_propagates(xband, run_bounded, cpus):
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


def test_one_chunk_starts_no_thread(xband, cpus):
    # analyze's small direct sums fit in one chunk: they run inline
    sc = spread_scene(64)
    with cpus(4), only_path("direct"), \
            mock.patch("threading.Thread", side_effect=AssertionError("thread started")):
        g = s.synth_spectrum(sc, xband, na=2048, nr=64).data
    assert relative_error(g, oracles.direct_sum(sc, xband, 2048, 64)) <= 1e-12


@pytest.fixture
def blas_count():
    """The BLAS thread-count getter, the count set to 2 for the test and the
    count found restored after it; skips without a known BLAS."""
    api = _threads._blas()
    if api is None:
        pytest.skip("numpy's BLAS exports no known thread-count symbol")
    get, set_, _ = api
    found = get()
    set_(2)
    yield get
    set_(found)


def test_direct_sum_runs_on_one_blas_thread(xband, blas_count, cpus):
    # the blocks are built while the GEMMs run, so the sum pins the BLAS to
    # one thread and gives back the count it found
    build = sim._direct_block
    seen = set()

    def spy(*args):
        seen.add(blas_count())
        return build(*args)

    with cpus(2), only_path("direct"), mock.patch.object(sim, "_direct_block", side_effect=spy):
        s.synth_spectrum(spread_scene(1031), xband, na=4096, nr=8)
    assert seen == {1}
    assert blas_count() == 2


def test_failing_sum_restores_the_blas_thread_count(xband, blas_count, cpus):
    with cpus(2), mock.patch.object(sim, "_direct_block",
                                    side_effect=RuntimeError("block failed")):
        with pytest.raises(RuntimeError, match="block failed"):
            s.synth_spectrum(spread_scene(1031), xband, na=4096, nr=8)
    assert blas_count() == 2


def test_concurrent_pins_run_one_block_at_a_time(blas_count):
    # eight threads on at most a few CPUs enter and leave the pin with a
    # short switch interval: a block that restored its count while another
    # thread's block ran would show that count inside, or leave it at 1
    inside_counts = set()

    def churn():
        for _ in range(200):
            with _threads.one_blas_thread():
                inside_counts.add(blas_count())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn, daemon=True) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert inside_counts == {1}
    assert blas_count() == 2


def test_concurrent_sums_pin_one_at_a_time(xband, blas_count, cpus):
    # two threads each start a direct sum of four row tiles on two CPUs: the
    # second sum's pinned block starts after the first's has ended, though
    # each waits long enough inside for the other to enter, and each gives
    # the bits of the same sum run alone
    scenes = [spread_scene(1031, seed) for seed in (3, 4)]
    with cpus(2), only_path("direct"):
        want = [s.synth_spectrum(sc, xband, na=4096, nr=8).data for sc in scenes]
    events, lock, start = [], threading.Lock(), threading.Barrier(2)
    tmap, got = sim.threaded_map, {}

    def spy(*args):    # the direct sum's map, inside its pinned block
        with lock:
            events.append(("in", threading.get_ident()))
        time.sleep(0.05)
        try:
            return tmap(*args)
        finally:
            with lock:
                events.append(("out", threading.get_ident()))

    def run(k):
        start.wait(10)
        got[k] = s.synth_spectrum(scenes[k], xband, na=4096, nr=8).data

    with cpus(2), only_path("direct"), mock.patch.object(sim, "threaded_map", side_effect=spy):
        threads = [threading.Thread(target=run, args=(k,), daemon=True) for k in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert [e for e, _ in events] == ["in", "out", "in", "out"]
    assert events[0][1] == events[1][1] != events[2][1] == events[3][1]
    assert all(np.array_equal(got[k], want[k]) for k in (0, 1))
    assert blas_count() == 2


def test_a_nested_pin_restores_the_outer_count(blas_count, run_bounded):
    # on one thread a block inside a block reads one BLAS thread and leaves
    # the count the outer block set; the outer restores the count it found
    def nested():
        with _threads.one_blas_thread():
            with _threads.one_blas_thread():
                inner = blas_count()
            return inner, blas_count()

    finished, result = run_bounded(nested, 10)
    assert finished and result == (1, 1)
    assert blas_count() == 2


def test_sum_without_a_known_blas(xband):
    # MKL, Accelerate or another prefix: the count is left alone, and the
    # sum is the same sum
    sc = spread_scene(1031)
    with mock.patch.object(_threads, "_blas", return_value=None), \
            only_path("direct"):
        g = s.synth_spectrum(sc, xband, na=4096, nr=8).data
    assert relative_error(g, oracles.direct_sum(sc, xband, 4096, 8)) <= ERROR_BUDGET


@pytest.mark.parametrize("dgemm", [True, False], ids=["binding", "matmul"])
def test_blas_gemm_sets_or_adds_and_checks_its_matrices(dgemm):
    # c := a @ b + beta c into rows of any pitch; beta = 0 never reads c.
    # Disagreeing shapes are refused before anything is written, and by the
    # binding also another dtype or a non-unit last stride.  Where no dgemm
    # resolves, blas_gemm is numpy's matmul
    api = _threads._blas()
    if dgemm and (api is None or api[2] is None):
        pytest.skip("numpy's BLAS exports no known dgemm")
    with mock.patch.object(_threads, "_blas", return_value=api if dgemm else None):
        gemm = _threads.blas_gemm()
    assert (gemm is _threads.matmul_gemm) != dgemm
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((5, 3)), rng.standard_normal((3, 4))
    c = rng.standard_normal((10, 4))[::2]
    want = np.matmul(a, b) + c
    gemm(a, b, c, 1.0)
    assert np.allclose(c, want, rtol=1e-14, atol=1e-14)
    c[...] = np.nan
    gemm(a, b, c, 0.0)
    assert np.array_equal(c, np.matmul(a, b))
    refused = [(a, b[:2], c), (a, b, c[:4]), (a[:1], b, c), (a, b[:, :1], c)]
    if dgemm:
        refused += [(a.astype(np.float32), b, c), (a, b, np.empty((5, 8))[:, ::2]),
                    (np.asfortranarray(a), b, c)]
    for args in refused:
        for beta in (0.0, 1.0):
            before = c.copy()
            with pytest.raises(ValueError, match="gemm" if dgemm else "matmul"):
                gemm(*args, beta)
            assert np.array_equal(c, before)


def nan_empty():
    """Context in which np.empty fills its arrays with NaN, so a sum that
    reads its uninitialised T and S before it writes them shows it."""
    return mock.patch.object(np, "empty",
                             lambda shape, dtype=float: np.full(shape, np.nan, dtype))


@pytest.mark.parametrize("na, nr", [(8, 8), (2048, 256)])
def test_empty_scene_synthesizes_zeros(xband, na, nr):
    # no scatterers: one empty block, whose first GEMM (K = 0, beta = 0)
    # writes T and S; the spectrum is all zeros
    sc = s.Scene(x=np.empty(0), y=np.empty(0), amp=np.empty(0))
    with nan_empty(), only_path("direct"):
        g = s.synth_spectrum(sc, xband, na=na, nr=nr).data
    assert g.shape == (na, nr)
    assert not g.any()


@pytest.mark.parametrize("n_cpus", [1, 4])
def test_sum_without_a_dgemm(xband, n_cpus, cpus):
    # where no dgemm resolves (Accelerate, MKL, another prefix), numpy's
    # matmul allocates each later chunk's products and adds them to the
    # sums: the same bits, within what the preflight counts for it
    sc, na, nr = spread_scene(1031), 2048, 64
    rows, step = sim._block_shape(na, sc.n)
    assert step < sc.n                # several chunks
    api = _threads._blas()
    if api is None or api[2] is None:
        pytest.skip("numpy's BLAS exports no known dgemm")
    with cpus(n_cpus), only_path("direct"), nan_empty():
        want = s.synth_spectrum(sc, xband, na=na, nr=nr).data
        with_dgemm = sim.synthesis_bytes(na, nr, sc.n, True)
        with mock.patch.object(_threads, "_blas", return_value=(*api[:2], None)):
            s.synth_spectrum(sc, xband, na=na, nr=nr)        # warms up the imports
            tracemalloc.start()
            try:
                got = s.synth_spectrum(sc, xband, na=na, nr=nr).data
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            counted = sim.synthesis_bytes(na, nr, sc.n, True)
    assert got.tobytes() == want.tobytes()
    assert peak <= counted
    # one float64 (rows, nr + 2) product per worker
    assert counted - with_dgemm == min(n_cpus, na // rows) * 8 * rows * (nr + 2)


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
        want = s.doppler_from_squint(xband, s.order_squint(t, 1, xband.lam))
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


ARC = {"kind": "arc", "radius_m": 40.0, "tan_lo_deg": -2.0, "tan_hi_deg": 2.0, "spacing_m": 0.002}
PREFLIGHT_CASES = {    # id: (target, na, nr)
    "direct": (ARC, 2048, 256),
    "direct1024": (ARC, 1024, 256),
    "direct_nr64": (ARC, 2048, 64),
    "closed": ({"kind": "line", "theta_az_deg": 1.0, "length_m": 20.0, "spacing_m": 0.002},
               2048, 256),
    "array64": ({"kind": "array", "theta_az_deg": 20.0, "dx_m": 0.05, "n": 64}, 2048, 256),
    "array64_nr64": ({"kind": "array", "theta_az_deg": 20.0, "dx_m": 0.05, "n": 64}, 2048, 64),
    "array193": ({"kind": "array", "theta_az_deg": 20.0, "dx_m": 0.05, "n": 193}, 2048, 256),
}


@pytest.mark.parametrize("case", list(PREFLIGHT_CASES))
def test_synthesis_holds_what_the_preflight_counts(xband, case, cpus):
    # scenes on one and two CPUs.  The curve's direct sum holds T and S and,
    # per worker, one slot each of a block, a range factor and a combine
    # staging buffer, numpy's ufunc buffers and, as the dgemm adds each
    # chunk's products in place, no product and no second T-and-S-sized
    # buffer; G is written over T and S, so it is a view of their buffer
    # with a row pitch of nr + 2.  A 64-element array is one full-height
    # block on one thread; a 193-element array is one chunk of 193 samples
    # over two row tiles, two blocks.  The line's closed form holds a few
    # float64 grids.  Each peak is at most what the memory preflight checks
    # against physical memory
    target, na, nr = PREFLIGHT_CASES[case]
    direct = case != "closed"
    sc = s.generate_scene(target, xband.lam)
    rows, step = sim._block_shape(na, sc.n)
    h = nr // 2 + 1
    want = oracles.direct_sum(sc, xband, na, nr)
    for n_cpus in (1, 2):
        with cpus(n_cpus), only_path("direct" if direct else "closed"):
            s.synth_spectrum(sc, xband, na=na, nr=nr)      # warms up the imports
            tracemalloc.start()
            try:
                g = s.synth_spectrum(sc, xband, na=na, nr=nr).data
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            counted = sim.synthesis_bytes(na, nr, sc.n, direct)
        assert relative_error(g, want) <= 1e-12
        if case.startswith("direct"):
            assert na // rows == 2 and sc.n > 2 * step    # two tiles, several chunks
            ts, slots = 32 * na * h, 2 * 16 * (rows * step + step * h)
            assert peak <= ts + slots + (1 << 20)
            assert g.base.nbytes == ts and g.strides == (16 * (nr + 2), 16)
        elif direct:                  # one block, or two row tiles of one chunk
            assert (na // rows, -(-sc.n // step)) == ((2, 1) if case == "array193" else (1, 1))
        assert counted - (1 << 20) <= peak <= counted


def axes_maxima(p, na, nr):
    """max|f_a| and max(carrier) + max|f_r|: what picked the synthesis path
    before the window's edges did."""
    f_a = sim._freq_axis(na, p.B_a, p.f_dc)
    carrier = p.f_c * np.cos(s.squint_from_doppler(p, f_a))
    return np.abs(f_a).max(), carrier.max() + np.abs(sim._freq_axis(nr, p.B_r)).max()


@settings(deadline=None, max_examples=200)
@given(st.floats(1e8, 1e11), st.floats(1.0, 1e4), st.floats(0.51, 100.0), st.floats(1e-3, 100.0),
       st.one_of(st.just(0.0), st.floats(-0.99, 0.99)), st.integers(3, 14), st.integers(3, 12))
def test_window_edges_bound_the_axes(f_c, v, rho_a_waves, rho_r, centroid, log_na, log_nr):
    # the edges |f_dc| + B_a/2 and f_c + B_r/2 bound the axes' maxima from
    # above, and equal them to the bit at f_dc = 0; the centroid is a share
    # of the largest that keeps the window realizable
    p = s.RadarParams(f_c, v, rho_a_waves * s.C / f_c, rho_r)
    f_dc = centroid * (2 * p.V / p.lam - p.B_a / 2)
    p = s.RadarParams(f_c, v, p.rho_a, rho_r, f_dc=f_dc)
    axes = axes_maxima(p, 2**log_na, 2**log_nr)
    edges = (abs(p.f_dc) + p.B_a / 2, p.f_c + p.B_r / 2)
    if f_dc == 0:
        assert edges == axes
    else:
        assert edges[0] >= axes[0] and edges[1] >= axes[1]


def path_scenes():
    """(id, scene, radar, na, nr): what the benchmark synthesizes on seeds 1-3
    (the merged scene of simulate, each target of analyze), and long lines,
    closed-form scenes, under a Doppler centroid."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, {spec.name: workloads}):    # for its dataclasses
        spec.loader.exec_module(workloads)
    for name in ("simulate-mixed", "simulate-sparse-wide", "analyze-collinear"):
        w = workloads.WORKLOADS[name]
        for seed in (1, 2, 3):
            cfg = scene_config_from_dict(workloads.scene_config(w, seed))
            scenes = s.build_scenes(cfg)
            if w.command == "simulate":
                scenes = [s.merge_scenes(scenes)]
            for k, sc in enumerate(scenes):
                yield f"{name}:{seed}:{k}", sc, cfg.radar, cfg.na, cfg.nr
    for f_dc, na, nr in ((5000.0, 2048, 256), (-12345.6, 2048, 256), (20000.0, 512, 32)):
        p = s.RadarParams(9.6e9, 7600.0, 0.1, 0.1, f_dc=f_dc)
        for length in (1.0, 20.0):
            line = {"kind": "line", "theta_az_deg": 2.0, "length_m": length}
            yield f"line_{length}m:{f_dc}", s.generate_scene(line, p.lam), p, na, nr


def test_scenes_keep_their_synthesis_path():
    # every scene the benchmark runs, and lines under a Doppler centroid,
    # take the path the axes' maxima took, which at f_dc = 0 are the bounds
    # synthesis now passes, to the bit; synthesis checks its memory once
    # (the sums are stubbed)
    def stub(f_a, f_r, *_):
        return np.zeros((f_a.size, f_r.size), complex)

    paths = set()
    for label, sc, p, na, nr in path_scenes():
        with mock.patch.object(sim, "_direct_sum", side_effect=stub) as direct, \
                mock.patch.object(sim, "_closed_form", side_effect=stub), \
                mock.patch.object(sim, "_uniform_steps", wraps=sim._uniform_steps) as pick, \
                mock.patch.object(sim, "check_memory", wraps=sim.check_memory) as check:
            s.synth_spectrum(sc, p, na, nr)
        axes = axes_maxima(p, na, nr)
        bounds = pick.call_args.args[3:]
        assert bounds == axes if p.f_dc == 0 else min(np.subtract(bounds, axes)) >= 0, label
        taken = "direct" if direct.called else "closed"
        u, v = sc.x / p.V, 2 * sc.y / s.C
        assert taken == ("closed" if sim._uniform_steps(u, v, sc.amp, *axes) else "direct"), label
        assert check.call_count == 1, label
        paths.add(taken)
    assert paths == {"direct", "closed"}
