import json
import math

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
        observable=s.observable(p, f_d),
        hue=s.classify_hue(p, f_d),
    )


def test_detect_peaks_uses_external_reference():
    f = np.arange(5.0)
    power = np.array([0.0, 10.0, 0.0, 4.0, 0.0])
    got = detect_peaks(f, power, ref_power=10.0)
    assert got == [(1.0, 10.0)]
    got = detect_peaks(f, power, ref_power=10.0, frac=0.3)
    assert got == [(1.0, 10.0), (3.0, 4.0)]


def test_verify_broadside_line_passes(xband):
    sc = s.line_scene(0.0, 1.0, xband.lam / 4)
    rep = s.verify_scene_against_model(sc, xband, [solution(0, 0.0, xband)],
                                       na=512, nr=16)
    assert rep.passed
    t = rep.targets[0]
    assert len(t.matches) == 1
    assert t.matches[0].m == 0
    assert t.matches[0].distance_bins <= 0.5
    assert t.unmatched_predictions == 0 and t.unmatched_detections == 0


def test_verify_flagship_array(arr_params, bin_hz):
    t = s.GratingTarget(math.radians(20.0), 0.05)
    preds = s.orders_in_window(t, arr_params, (-2, 2))
    sc = s.array_scene(math.radians(20.0), 0.05, 64)
    rep = s.verify_scene_against_model(sc, arr_params, preds, tol_bins=2.0)
    assert rep.passed
    m = rep.targets[0].matches
    assert [pm.m for pm in m] == [1]
    assert m[0].distance_bins <= 1.0


def test_verify_wrong_prediction_fails_both_ways(xband):
    sc = s.line_scene(0.0, 1.0, xband.lam / 4)
    wrong = solution(0, math.radians(-2.0), xband)   # predicts +17 kHz
    rep = s.verify_scene_against_model(sc, xband, [wrong], na=512, nr=16)
    assert not rep.passed
    t = rep.targets[0]
    assert t.matches == []
    assert t.unmatched_predictions == 1
    assert t.unmatched_detections == 1


def test_verify_ignores_unobservable_predictions(xband):
    sc = s.line_scene(0.0, 1.0, xband.lam / 4)
    far = s.DiffractionSolution(
        m=1, theta_sq=-0.5, f_d=2.0e5, observable=False,
        hue=s.Hue.OUT_OF_WINDOW,
    )
    rep = s.verify_scene_against_model(sc, xband, [far], na=512, nr=16)
    t = rep.targets[0]
    # the out-of-window order is not owed a peak, but the real peak at
    # zero Doppler goes unclaimed, so the target still fails
    assert t.unmatched_predictions == 0
    assert t.unmatched_detections == 1
    assert not rep.passed


def test_verify_requires_predictions(xband):
    sc = s.line_scene(0.0, 1.0, xband.lam / 4)
    with pytest.raises(ValueError):
        s.verify_scene_against_model(sc, xband, [])


def test_merge_reports(xband):
    sc = s.line_scene(0.0, 0.5, xband.lam / 4)
    r1 = s.verify_scene_against_model(sc, xband, [solution(0, 0.0, xband)],
                                      na=256, nr=16)
    r2 = s.verify_scene_against_model(sc, xband, [solution(0, 0.0, xband)],
                                      na=256, nr=16)
    merged = merge_reports([r1, r2])
    assert len(merged.targets) == 2
    assert merged.passed
    bad = s.VerificationReport(tol_bins=1.0)
    with pytest.raises(ValueError):
        merge_reports([r1, bad])
    with pytest.raises(ValueError):
        merge_reports([])


def test_report_json_shape(xband):
    sc = s.line_scene(0.0, 0.5, xband.lam / 4)
    rep = s.verify_scene_against_model(sc, xband, [solution(0, 0.0, xband)],
                                       na=256, nr=16)
    text = report_to_json(rep)
    assert text.endswith("\n")
    payload = json.loads(text)
    assert payload["passed"] is True
    assert payload["tol_bins"] == 2.0
    tgt = payload["targets"][0]
    assert tgt["label"] == "line"
    assert tgt["predicted"][0]["hue"] == "green"
    assert {"f_d_hz", "power"} <= set(tgt["detected"][0])
    # stable: serializing twice gives identical bytes
    assert text == report_to_json(rep)


class TestOrientationMap:
    def test_shape_mismatch(self, xband):
        with pytest.raises(ValueError):
            s.estimate_orientation_map(np.ones((2, 2)), np.ones((2, 3)),
                                       np.ones((2, 2)), xband)

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
        sc = s.line_scene(math.radians(2.0), 1.0, xband.lam / 4)
        g = s.synth_spectrum(sc, xband, na=2048, nr=16)
        theta, mask = s.estimate_orientation_map(*s.split_subbands(g), xband)
        med = math.degrees(float(np.nanmedian(theta[mask])))
        assert 1.5 <= med <= 2.5

    def test_broadside_maps_to_zero(self, xband):
        sc = s.line_scene(0.0, 1.0, xband.lam / 4)
        g = s.synth_spectrum(sc, xband, na=1024, nr=16)
        theta, mask = s.estimate_orientation_map(*s.split_subbands(g), xband)
        med = math.degrees(float(np.nanmedian(theta[mask])))
        assert abs(med) < 0.05
