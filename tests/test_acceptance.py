"""The ten acceptance criteria, one test each.

Each test carries an acceptance marker; the terminal summary prints a
PASS/FAIL line per criterion.  Expected values are computed in-test from
first principles (or frozen constants derived independently), never from
the code paths under test.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
import sarcsi as s
from sarcsi.analysis import detect_peaks

DATA = Path(__file__).parent / "data"

# Flagship grating case, derived by hand from the interference condition:
# theta_az = 20 deg, d_x = 0.05 m, m = 1 -> f_d near -24.9 kHz.
FLAGSHIP_FD = -24925.243642702615

ARRAY_MATRIX = [
    (n, dx, deg) for n in (8, 64) for dx in (0.03, 0.05) for deg in (0, 10, 20)
]


def law_fd(p, theta_az_deg):
    # zero-order law from raw constants: f_d = (2V / lam) sin(-theta_az)
    lam = s.C / p.f_c
    return -2.0 * p.V / lam * math.sin(math.radians(theta_az_deg))


def marginal_argmax(scene, p, na, nr):
    g = s.synth_spectrum(scene, p, na=na, nr=nr)
    f_a, power = s.azimuth_power_spectrum(g)
    return float(f_a[int(np.argmax(power))])


def split_mags(scene, p, na=2048, nr=256):
    return s.split_subbands(s.synth_spectrum(scene, p, na=na, nr=nr))


@pytest.mark.acceptance("C1", "zero-order law on nine lines")
def test_c1_zero_order_law(xband, bin_hz):
    start = time.monotonic()
    for deg in range(-4, 5):
        sc = s.generate_scene({"kind": "line", "theta_az_deg": deg, "length_m": 1.0}, xband.lam)
        got = marginal_argmax(sc, xband, 2048, 256)
        assert abs(got - law_fd(xband, deg)) <= bin_hz, f"theta_az = {deg} deg"
    assert time.monotonic() - start <= 10.0


@pytest.mark.acceptance("C2", "grating orders over the (N, d_x, theta) matrix")
def test_c2_grating_orders(xband, arr_params, bin_hz):
    for n, dx, deg in ARRAY_MATRIX:
        t = s.GratingTarget(math.radians(deg), dx)
        sols = [
            d for d in s.orders_in_window(t, arr_params, (-3, 3)) if d.observable
        ]
        sc = s.generate_scene({"kind": "array", "theta_az_deg": deg, "dx_m": dx, "n": n},
                              arr_params.lam)
        g = s.synth_spectrum(sc, arr_params, 2048, 256)
        f_a, power = s.azimuth_power_spectrum(g)
        detected = detect_peaks(f_a, power, 256.0 * float(sc.amp.sum()) ** 2)
        cell = f"N={n} dx={dx} theta={deg}"
        # every observable order must surface as a peak within 1 bin
        for d in sols:
            dist = min((abs(d.f_d - f) for f, _ in detected), default=math.inf)
            assert dist <= bin_hz, f"{cell}: order m={d.m} missing"
        # and every detection must be claimed by an order within 2 bins
        for f, _ in detected:
            dist = min((abs(d.f_d - f) for d in sols), default=math.inf)
            assert dist <= 2.0 * bin_hz, f"{cell}: stray peak at {f} Hz"
        if (n, dx, deg) == (64, 0.05, 20):
            assert len(sols) == 1 and len(detected) == 1
            assert abs(detected[0][0] - FLAGSHIP_FD) <= bin_hz

    # the same flagship order also sits in the full-range-bandwidth spectrum:
    # the f_r = 0 carrier column peaks on it even when the range-summed
    # marginal top is flattened by the per-carrier shift
    sc = s.generate_scene({"kind": "array", "theta_az_deg": 20.0, "dx_m": 0.05, "n": 64},
                          arr_params.lam)
    g = s.synth_spectrum(sc, xband, 2048, 256)
    col = np.abs(g.data[:, 128]) ** 2
    got = float(g.f_a[int(np.argmax(col))])
    assert abs(got - FLAGSHIP_FD) <= bin_hz


@pytest.mark.acceptance("C3", "time-domain, Dirichlet, and simulator agree")
def test_c3_triple_oracle(xband, arr_params, bin_hz):
    f_grid = xband.f_dc - xband.B_a / 2 + np.arange(2048) * bin_hz

    # lines of criterion 1: simulator vs time-domain oracle vs analytic law
    for deg in range(-4, 5):
        line = s.generate_scene({"kind": "line", "theta_az_deg": deg, "length_m": 1.0},
                                xband.lam)
        f_sim = marginal_argmax(line, xband, 2048, 256)
        f_orc = oracles.zero_order_peak_oracle(math.radians(deg), xband, f_grid)
        f_law = law_fd(xband, deg)
        assert abs(f_sim - f_orc) <= bin_hz, f"line {deg} deg: sim vs oracle"
        assert abs(f_sim - f_law) <= bin_hz, f"line {deg} deg: sim vs law"
        assert abs(f_orc - f_law) <= bin_hz, f"line {deg} deg: oracle vs law"

    # arrays of criterion 2: simulator peaks vs Dirichlet array factor
    for n, dx, deg in ARRAY_MATRIX:
        t = s.GratingTarget(math.radians(deg), dx)
        sols = [
            d for d in s.orders_in_window(t, arr_params, (-3, 3)) if d.observable
        ]
        if not sols:
            continue
        K = math.tan(math.radians(deg)) * 2.0 * arr_params.V / s.C
        f_orc = oracles.dirichlet_peaks_oracle(n, dx / arr_params.V, K,
                                               arr_params, f_grid)
        sc = s.generate_scene({"kind": "array", "theta_az_deg": deg, "dx_m": dx, "n": n},
                              arr_params.lam)
        g = s.synth_spectrum(sc, arr_params, 2048, 256)
        f_a, power = s.azimuth_power_spectrum(g)
        detected = detect_peaks(f_a, power, 256.0 * float(sc.amp.sum()) ** 2)
        cell = f"N={n} dx={dx} theta={deg}"
        assert len(f_orc) == len(detected), cell
        for fo in f_orc:
            dist = min(abs(fo - f) for f, _ in detected)
            assert dist <= bin_hz, f"{cell}: oracle line {fo} Hz unmatched"
        # broadside cells carry only m = 0, where the array is a sampled
        # line and the time-domain oracle applies as well
        if deg == 0:
            f_zero = oracles.zero_order_peak_oracle(0.0, arr_params, f_grid)
            assert abs(f_zero - detected[0][0]) <= bin_hz, cell


@pytest.mark.acceptance("C4", "grating solutions satisfy the interference law")
def test_c4_interference_consistency(xband):
    rng = np.random.default_rng(20260822)
    checked = 0
    attempts = 0
    while checked < 1000:
        attempts += 1
        assert attempts < 20000, "drawing non-evanescent triples stalled"
        theta_az = math.radians(rng.uniform(-75.0, 75.0))
        d_x = rng.uniform(0.01, 0.2)
        m = int(rng.choice([-3, -2, -1, 1, 2, 3]))
        t = s.GratingTarget(theta_az, d_x)
        try:
            theta_sq = s.order_squint(t, m, xband.lam)
            f_d = s.doppler_from_squint(xband, theta_sq)
        except (s.EvanescentOrderError, ValueError):
            continue
        K = math.tan(theta_az) * 2.0 * xband.V / s.C
        residual = (f_d + xband.f_c * K * math.cos(theta_sq)) * (d_x / xband.V) - m
        assert abs(residual) <= 1e-10, (
            f"theta_az={math.degrees(theta_az):.3f} deg, d_x={d_x:.4f}, m={m}"
        )
        checked += 1


@pytest.mark.acceptance("C5", "green condition kills the projected squint")
def test_c5_green_condition(xband):
    rng = np.random.default_rng(20260822)
    bin_hz = xband.B_a / 1024
    for _ in range(100):
        h_deg, inc_deg = rng.uniform(-60.0, 60.0), rng.uniform(20.0, 70.0)
        th_h, th_inc = math.radians(h_deg), math.radians(inc_deg)
        th_v = -math.atan(math.tan(th_inc) * math.tan(th_h))
        o = s.Orientation3D(th_h, th_v, th_inc)
        assert abs(s.effective_squint_3d(o)) <= 1e-10
        sc = s.generate_scene({"kind": "segment3d", "theta_h_deg": h_deg,
                               "theta_v_deg": math.degrees(th_v),
                               "theta_inc_deg": inc_deg, "length_m": 1.0}, xband.lam)
        got = marginal_argmax(sc, xband, 1024, 64)
        assert abs(got) <= bin_hz


@pytest.mark.acceptance("C6", "interpretation chart reproduction")
def test_c6_chart(xband):
    grid = [math.radians(-6.0 + 0.25 * k) for k in range(49)]
    chart = s.chart_data(xband, 0.05, [-1, 0, 1], grid)

    # main response: exact negation, no tolerance
    for theta_sq, theta_az in chart.zero_order_curve:
        assert theta_az == -theta_sq

    # region bounds at theta_sq = 0 against a direct evaluation of the
    # interference condition at the two carrier extremes
    row = next(r for r in chart.order_regions[1] if r[0] == 0.0)
    lam_lo = s.C / (xband.f_c + xband.B_r / 2)
    lam_hi = s.C / (xband.f_c - xband.B_r / 2)
    assert row[1] == pytest.approx(math.atan(lam_lo / 0.1), rel=1e-9)
    assert row[2] == pytest.approx(math.atan(lam_hi / 0.1), rel=1e-9)
    assert math.degrees(row[1]) == pytest.approx(16.154667492197646, rel=1e-9)
    assert math.degrees(row[2]) == pytest.approx(18.712714647741358, rel=1e-9)
    mirror = next(r for r in chart.order_regions[-1] if r[0] == 0.0)
    assert mirror[1] == -row[2] and mirror[2] == -row[1]

    # the rendered CSV is byte-stable against the committed golden
    assert s.chart_to_csv(chart) == (DATA / "chart_golden.csv").read_text()


@pytest.mark.acceptance("C7", "hue rules: lines and the arc sweep")
def test_c7_hue_rules(xband):
    # channel indices: 0 red, 1 green, 2 blue
    for deg, want in ((-4.0, 2), (0.0, 1), (4.0, 0)):
        sc = s.generate_scene({"kind": "line", "theta_az_deg": deg, "length_m": 1.0}, xband.lam)
        r, gr, b = split_mags(sc, xband)
        rgb = s.compose_rgb(r, gr, b)
        total = rgb.astype(int).sum(axis=2)
        iy, ix = np.unravel_index(int(np.argmax(total)), total.shape)
        assert int(np.argmax(rgb[iy, ix])) == want, f"{deg} deg peak"
        mask = total > 0.01 * total.max()
        agg = rgb[mask].astype(np.int64).sum(axis=0)
        assert int(np.argmax(agg)) == want, f"{deg} deg aggregate"

    # arc with tangents sweeping -4 -> +4 deg: walking along it, the
    # dominant channel steps Blue -> Green -> Red without going back
    sc = s.generate_scene({"kind": "arc", "radius_m": 40.0, "tan_lo_deg": -4.0,
                           "tan_hi_deg": 4.0}, xband.lam)
    r, gr, b = split_mags(sc, xband)
    rgb = s.compose_rgb(r, gr, b)
    n = sc.n
    dominants = []
    for c in range(8):
        idx = slice(c * n // 8, (c + 1) * n // 8)
        cols = np.clip(np.round(sc.x[idx] / 0.1).astype(int) + 1024, 0, 2047)
        rows = np.clip(np.round(sc.y[idx] / 0.1).astype(int) + 128, 0, 255)
        chunk = rgb[rows, cols].astype(np.int64).sum(axis=0)
        dominants.append(int(np.argmax(chunk)))
    assert dominants == sorted(dominants, reverse=True), dominants
    assert set(dominants) == {0, 1, 2}, dominants


@pytest.mark.acceptance("C8", "energy conservation and PSF nulls")
def test_c8_conservation_and_psf(xband):
    rng = np.random.default_rng(11)
    for _ in range(3):
        data = rng.standard_normal((64, 16)) + 1j * rng.standard_normal((64, 16))
        g = s.SpectrumGrid(data, xband)
        total = float(np.sum(np.abs(data) ** 2))
        # the split consumes the spectrum, so the full image is focused first
        focused = float(np.sum(np.abs(oracles.focus_reference(data)) ** 2))
        parts = sum(float(np.sum(m**2)) for m in s.split_subbands(g))
        assert abs(parts - total) <= 1e-9 * total
        assert abs(focused - total) <= 1e-9 * total

    # first azimuth null of the squinted PSF at 1 / (B_a cos theta)
    for deg in (0, 30, 60):
        psf = oracles.render_psf(xband, math.radians(deg), 256, 16)
        row = psf.data[:, 8]
        f_d = s.doppler_from_squint(xband, math.radians(deg))
        env = np.real(row * np.exp(-2j * np.pi * f_d * psf.t_a))
        k = next(i for i in range(128, 255) if env[i] > 0 >= env[i + 1])
        frac = env[k] / (env[k] - env[k + 1])
        t_null = psf.t_a[k] + frac * (psf.t_a[k + 1] - psf.t_a[k])
        want = 1.0 / (xband.B_a * math.cos(math.radians(deg)))
        assert abs(t_null - want) <= 1.0 / xband.B_a, f"{deg} deg"


@pytest.mark.acceptance("C9", "orientation inversion round-trip")
def test_c9_inversion_roundtrip(xband):
    errors = []
    for deg in (-4, -2, -1, 1, 2, 4):
        sc = s.generate_scene({"kind": "line", "theta_az_deg": deg, "length_m": 0.5}, xband.lam)
        theta, mask = s.estimate_orientation_map(*split_mags(sc, xband), xband)
        med = float(np.degrees(np.median(theta[mask])))
        assert math.copysign(1.0, med) == math.copysign(1.0, deg), f"{deg} deg"
        errors.append(abs(med - deg))
    assert float(np.median(errors)) <= 0.5


@pytest.mark.acceptance("C10", "simulate runs are byte-deterministic")
def test_c10_determinism(tmp_path):
    cfg = {
        "radar": {"fc_hz": 9.6e9, "v_mps": 7600.0, "rho_a_m": 0.1,
                  "rho_r_m": 0.1},
        "grid": {"na": 256, "nr": 8},
        "targets": [
            {"kind": "line", "theta_az_deg": 2.0, "length_m": 1.0},
            {"kind": "arc", "radius_m": 40.0, "tan_lo_deg": -4.0,
             "tan_hi_deg": 4.0},
        ],
    }
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(cfg))
    blobs = []
    for run_dir in ("one", "two"):
        out = tmp_path / run_dir
        out.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "sarcsi", "simulate", "--scene", str(scene),
             "--out-prefix", str(out / "run")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        blobs.append({
            name: (out / f"run{name}").read_bytes()
            for name in ("_rgb.ppm", "_azspec.csv", "_report.json")
        })
    assert blobs[0]["_rgb.ppm"] == blobs[1]["_rgb.ppm"]
    assert blobs[0]["_azspec.csv"] == blobs[1]["_azspec.csv"]
    assert blobs[0]["_report.json"] == blobs[1]["_report.json"]
