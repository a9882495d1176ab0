import json
import math
from unittest import mock

import numpy as np
import pytest

import sarcsi as s
from sarcsi.analysis import detect_peaks, merge_reports, report_to_json


def solution(m, theta_sq, p):
    f_d = s.doppler_from_squint(p, theta_sq)
    return s.DiffractionSolution(
        m=m,
        theta_sq=theta_sq,
        f_d=f_d,
        hue=s.classify_hue(p, f_d),
    )


def test_detect_peaks_uses_external_reference():
    f = np.arange(5.0)
    power = np.array([0.0, 10.0, 0.0, 4.0, 0.0])
    got = detect_peaks(f, power, ref_power=10.0)
    assert got == [(1.0, 10.0)]
    got = detect_peaks(f, power, ref_power=6.0)
    assert got == [(1.0, 10.0), (3.0, 4.0)]


def test_verify_broadside_line_passes(xband):
    sc = s.generate_scene({"kind": "line", "theta_az_deg": 0.0, "length_m": 1.0}, xband.lam)
    t = s.verify_scene_against_model(sc, xband, [solution(0, 0.0, xband)],
                                     na=512, nr=16)
    assert t.passed
    assert len(t.matches) == 1
    assert t.matches[0].m == 0
    assert t.matches[0].distance_bins <= 0.5
    assert t.unmatched_predictions == 0 and t.unmatched_detections == 0


def test_verify_flagship_array(arr_params, bin_hz):
    t = s.GratingTarget(math.radians(20.0), 0.05)
    preds = s.orders_in_window(t, arr_params, (-2, 2))
    sc = s.generate_scene({"kind": "array", "theta_az_deg": 20.0, "dx_m": 0.05, "n": 64},
                          arr_params.lam)
    t = s.verify_scene_against_model(sc, arr_params, preds, tol_bins=2.0)
    assert t.passed
    m = t.matches
    assert [pm.m for pm in m] == [1]
    assert m[0].distance_bins <= 1.0


def test_verify_wrong_prediction_fails_both_ways(xband):
    sc = s.generate_scene({"kind": "line", "theta_az_deg": 0.0, "length_m": 1.0}, xband.lam)
    wrong = solution(0, math.radians(-2.0), xband)   # predicts +17 kHz
    t = s.verify_scene_against_model(sc, xband, [wrong], na=512, nr=16)
    assert not t.passed
    assert t.matches == []
    assert t.unmatched_predictions == 1
    assert t.unmatched_detections == 1


def test_verify_ignores_unobservable_predictions(xband):
    sc = s.generate_scene({"kind": "line", "theta_az_deg": 0.0, "length_m": 1.0}, xband.lam)
    far = s.DiffractionSolution(
        m=1, theta_sq=-0.5, f_d=2.0e5, hue=s.Hue.OUT_OF_WINDOW,
    )
    t = s.verify_scene_against_model(sc, xband, [far], na=512, nr=16)
    # the out-of-window order is not owed a peak, but the real peak at
    # zero Doppler goes unclaimed, so the target still fails
    assert t.unmatched_predictions == 0
    assert t.unmatched_detections == 1
    assert not t.passed


def test_verify_requires_predictions(xband):
    sc = s.generate_scene({"kind": "line", "theta_az_deg": 0.0, "length_m": 1.0}, xband.lam)
    with pytest.raises(ValueError):
        s.verify_scene_against_model(sc, xband, [])


@pytest.mark.parametrize("tol_bins", [math.nan, math.inf, 0.0, -1.0])
def test_verify_rejects_a_tolerance_outside_zero_to_inf(xband, tol_bins):
    # a NaN or infinite tolerance would let the 2-degree prediction of this
    # broadside line match its peak; it is refused before any synthesis
    sc = s.generate_scene({"kind": "line", "theta_az_deg": 0.0, "length_m": 1.0}, xband.lam)
    wrong = solution(0, math.radians(-2.0), xband)
    with mock.patch("sarcsi.analysis.synth_spectrum",
                    side_effect=AssertionError("synthesized")) as synth, \
            pytest.raises(ValueError, match="tolerance must be positive and finite"):
        s.verify_scene_against_model(sc, xband, [wrong], tol_bins=tol_bins, na=512, nr=16)
    assert synth.call_count == 0


def test_merge_reports(xband):
    sc = s.generate_scene({"kind": "line", "theta_az_deg": 0.0, "length_m": 0.5}, xband.lam)
    r1 = s.verify_scene_against_model(sc, xband, [solution(0, 0.0, xband)],
                                      na=256, nr=16)
    r2 = s.verify_scene_against_model(sc, xband, [solution(0, 0.0, xband)],
                                      na=256, nr=16)
    merged = merge_reports([r1, r2], 2.0)
    assert len(merged["targets"]) == 2
    assert merged["passed"]
    with pytest.raises(ValueError):
        merge_reports([], 2.0)


def test_report_json_shape(xband):
    sc = s.generate_scene({"kind": "line", "theta_az_deg": 0.0, "length_m": 0.5}, xband.lam)
    rep = s.verify_scene_against_model(sc, xband, [solution(0, 0.0, xband)],
                                       na=256, nr=16)
    text = report_to_json(merge_reports([rep], 2.0))
    assert text.endswith("\n")
    payload = json.loads(text)
    assert payload["passed"] is True
    assert payload["tol_bins"] == 2.0
    tgt = payload["targets"][0]
    assert tgt["label"] == "line"
    assert tgt["predicted"][0]["hue"] == "green"
    assert {"f_d_hz", "power"} <= set(tgt["detected"][0])
    # stable: serializing twice gives identical bytes
    assert text == report_to_json(merge_reports([rep], 2.0))


class TestOrientationMap:
    def test_shape_mismatch(self, xband):
        with pytest.raises(ValueError):
            s.estimate_orientation_map(np.ones((2, 2)), np.ones((2, 3)),
                                       np.ones((2, 2)), xband)

    def test_complex_grids_are_refused(self, xband):
        # a complex grid would give complex energies, so it is not taken
        # for its magnitude
        m = np.ones((2, 2))
        for grids in ((m + 1j, m, m), (m, m, m.astype(complex))):
            with pytest.raises(ValueError, match="real"):
                s.estimate_orientation_map(*grids, xband)

    def test_energies_are_the_squares_of_the_magnitudes(self, xband):
        # x**2 is |x|**2 to the bit for real x: signed grids give the same
        # bits as their absolute values, subnormal and large values too
        rng = np.random.default_rng(3)
        grids = rng.standard_normal((3, 16, 16)) * np.logspace(-160, 140, 16)
        grids[:, 0, :4] = [5e-324, -2.2e-308, 1e140, -1e140]
        got = s.estimate_orientation_map(*grids, xband)
        want = s.estimate_orientation_map(*np.abs(grids), xband)
        assert got[0].tobytes() == want[0].tobytes()
        assert np.array_equal(got[1], want[1]) and got[1].any() and not got[1].all()

    def test_all_dark_is_fully_masked(self, xband):
        z = np.zeros((3, 3))
        theta, mask = s.estimate_orientation_map(z, z, z, xband)
        assert not mask.any()
        assert np.all(np.isnan(theta))

    def test_pure_band_pixels_hit_band_centers(self, xband):
        # energy in exactly one band puts f_hat on that band's center
        r = np.array([[1.0, 0.0, 0.0]])
        g = np.array([[0.0, 1.0, 0.0]])
        b = np.array([[0.0, 0.0, 1.0]])
        theta, mask = s.estimate_orientation_map(r, g, b, xband)
        assert mask.all()
        sat = math.asin(xband.lam * xband.B_a / 3.0 / (2.0 * xband.V))
        assert theta[0, 0] == pytest.approx(sat)      # red: low Doppler
        assert theta[0, 1] == pytest.approx(0.0, abs=1e-15)
        assert theta[0, 2] == pytest.approx(-sat)     # blue: high Doppler

    def test_noise_floor_masks_faint_pixels(self, xband):
        r = np.array([[1.0, 1e-9]])
        z = np.zeros_like(r)
        theta, mask = s.estimate_orientation_map(r, z, z, xband)
        assert mask[0, 0] and not mask[0, 1]
        assert np.isnan(theta[0, 1])
        # floor is relative to the USED grids, so a laxer floor admits it
        _, mask2 = s.estimate_orientation_map(r, z, z, xband, noise_floor=1e-20)
        assert mask2.all()

    def test_line_orientation_recovered_end_to_end(self, xband):
        sc = s.generate_scene({"kind": "line", "theta_az_deg": 2.0, "length_m": 1.0},
                              xband.lam)
        g = s.synth_spectrum(sc, xband, na=2048, nr=16)
        theta, mask = s.estimate_orientation_map(*s.split_subbands(g), xband)
        med = math.degrees(float(np.nanmedian(theta[mask])))
        assert 1.5 <= med <= 2.5

    def test_broadside_maps_to_zero(self, xband):
        sc = s.generate_scene({"kind": "line", "theta_az_deg": 0.0, "length_m": 1.0},
                              xband.lam)
        g = s.synth_spectrum(sc, xband, na=1024, nr=16)
        theta, mask = s.estimate_orientation_map(*s.split_subbands(g), xband)
        med = math.degrees(float(np.nanmedian(theta[mask])))
        assert abs(med) < 0.05
