import json
import math
import tracemalloc

import numpy as np
import pytest

import sarcsi as s
from sarcsi.errors import ConfigError
from sarcsi.scene import scene_config_from_dict

DEG = math.radians
LAM = 0.031228381041666666


def test_line_geometry():
    sc = s.generate_scene({"kind": "line", "theta_az_deg": 30.0, "length_m": 2.0,
                           "spacing_m": 0.01}, LAM)
    assert sc.n == 201
    assert sc.x[0] == pytest.approx(-math.cos(DEG(30.0)))
    assert sc.y[-1] == pytest.approx(math.sin(DEG(30.0)))
    assert np.all(sc.amp == 1.0)
    # samples are evenly spaced along the line
    step = np.hypot(np.diff(sc.x), np.diff(sc.y))
    assert np.allclose(step, 0.01)


def test_array_period_is_azimuth_spacing():
    sc = s.generate_scene({"kind": "array", "theta_az_deg": 20.0, "dx_m": 0.05, "n": 64}, LAM)
    assert sc.n == 64
    assert np.allclose(np.diff(sc.x), 0.05)          # azimuth period, exactly d_x
    assert np.allclose(sc.y, sc.x * math.tan(DEG(20.0)))
    assert sc.x.sum() == pytest.approx(0.0, abs=1e-12)


def test_arc_tangent_sweep():
    sc = s.generate_scene({"kind": "arc", "radius_m": 40.0, "tan_lo_deg": -4.0,
                           "tan_hi_deg": 4.0}, LAM)
    # centred on the origin: some sample falls within half a step of it
    step = np.hypot(np.diff(sc.x), np.diff(sc.y))
    assert np.hypot(sc.x, sc.y).min() <= step.max() / 2 + 1e-9
    # local tangent angle sweeps -4 -> +4 degrees
    tan0 = math.degrees(math.atan2(sc.y[1] - sc.y[0], sc.x[1] - sc.x[0]))
    tan1 = math.degrees(math.atan2(sc.y[-1] - sc.y[-2], sc.x[-1] - sc.x[-2]))
    assert tan0 == pytest.approx(-4.0, abs=0.01)
    assert tan1 == pytest.approx(4.0, abs=0.01)
    assert np.allclose(step, LAM / 4, rtol=1e-3)


def test_catenary_profile():
    sc = s.generate_scene({"kind": "catenary", "a_m": 5.0, "half_span_m": 2.0,
                           "theta_inc_deg": 45.0, "spacing_m": 0.01}, LAM)
    # recentred on the bounding box and symmetric at theta_h = 0
    assert sc.y.max() == pytest.approx(-sc.y.min())
    assert np.allclose(sc.x, -sc.x[::-1])
    # local slope follows the projected cosh profile: dy/dx = sinh(x/a) cos(inc)
    i = sc.n // 4
    slope = (sc.y[i + 1] - sc.y[i - 1]) / (sc.x[i + 1] - sc.x[i - 1])
    want = math.sinh(sc.x[i] / 5.0) * math.cos(DEG(45.0))
    assert slope == pytest.approx(want, rel=1e-3)


def test_projected_segment_slope():
    o = s.Orientation3D(DEG(10.0), DEG(5.0), DEG(40.0))
    sc = s.generate_scene({"kind": "segment3d", "theta_h_deg": 10.0, "theta_v_deg": 5.0,
                           "theta_inc_deg": 40.0, "length_m": 2.0, "spacing_m": 1.0}, LAM)
    t = np.array([-1.0, 0.0, 1.0])
    assert np.array_equal(sc.x, t)
    want = math.tan(DEG(10.0)) * math.sin(DEG(40.0)) + math.tan(DEG(5.0)) * math.cos(
        DEG(40.0)
    )
    assert np.allclose(sc.y, t * want)
    # projected in-plane orientation is the closed-form squint law's, exactly:
    # both take the one projected slope
    theta_az = math.atan(sc.y[2] / sc.x[2])
    assert theta_az == -s.effective_squint_3d(o)


def test_green_segment_collapses_to_broadside():
    th_v = -math.degrees(math.atan(math.tan(DEG(50.0)) * math.tan(DEG(25.0))))
    sc = s.generate_scene({"kind": "segment3d", "theta_h_deg": 25.0, "theta_v_deg": th_v,
                           "theta_inc_deg": 50.0, "length_m": 1.0, "spacing_m": 0.01}, LAM)
    assert np.allclose(sc.y, 0.0, atol=1e-12)


def test_merge_scenes():
    a = s.generate_scene({"kind": "line", "theta_az_deg": 0.0, "length_m": 1.0,
                          "spacing_m": 0.01, "label": "a"}, LAM)
    b = s.generate_scene({"kind": "array", "theta_az_deg": 0.0, "dx_m": 0.05, "n": 8,
                          "label": "b"}, LAM)
    m = s.merge_scenes([a, b])
    assert m.n == a.n + b.n
    assert m.label == "a+b"
    assert m.config == {}
    with pytest.raises(ValueError):
        s.merge_scenes([])


def test_scene_building_holds_what_its_check_counts():
    # build_scenes checks 48 bytes per scatterer: each target's arrays and
    # their merged copy.  On the README's five-target scene, building and
    # merging trace no more than that, plus 64 KiB
    obj = {"radar": GOOD["radar"], "targets": [
        {"kind": "line", "theta_az_deg": 2.0, "length_m": 1.0},
        {"kind": "array", "theta_az_deg": 20.0, "dx_m": 0.05, "n": 64},
        {"kind": "arc", "radius_m": 80.0, "tan_lo_deg": -4.0, "tan_hi_deg": 4.0},
        {"kind": "catenary", "a_m": 120.0, "half_span_m": 30.0, "theta_inc_deg": 40.0},
        {"kind": "segment3d", "theta_h_deg": 10.0, "theta_v_deg": 5.0,
         "theta_inc_deg": 40.0, "length_m": 1.0},
    ]}
    cfg = scene_config_from_dict(obj)
    s.merge_scenes(s.build_scenes(cfg))     # warms up the imports
    tracemalloc.start()
    try:
        sc = s.merge_scenes(s.build_scenes(cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sc.n == 9440
    assert peak <= 48 * sc.n + (1 << 16)


def test_scene_arrays_must_have_equal_length():
    with pytest.raises(ValueError, match="equal length"):
        s.Scene(x=np.zeros(3), y=np.zeros(2), amp=np.ones(3))


# --- config parsing ---------------------------------------------------------

GOOD = {
    "radar": {"fc_hz": 9.6e9, "v_mps": 7600.0, "rho_a_m": 0.1, "rho_r_m": 0.1},
    "grid": {"na": 1024, "nr": 64},
    "targets": [
        {"kind": "line", "theta_az_deg": 2.0, "length_m": 1.0},
        {"kind": "array", "theta_az_deg": 20.0, "dx_m": 0.05, "n": 64, "amp": 2.0},
    ],
}


def write_cfg(tmp_path, obj):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(obj))
    return path


def test_parse_good_config(tmp_path):
    cfg = s.parse_scene_config(write_cfg(tmp_path, GOOD))
    assert cfg.radar.B_a == 76000.0
    assert (cfg.na, cfg.nr) == (1024, 64)
    assert cfg.targets[0]["label"] == "line_0"
    assert cfg.targets[1]["amp"] == 2.0


def test_grid_defaults(tmp_path):
    obj = {k: v for k, v in GOOD.items() if k != "grid"}
    cfg = s.parse_scene_config(write_cfg(tmp_path, obj))
    assert (cfg.na, cfg.nr) == (2048, 256)


@pytest.mark.parametrize("field", ["na", "nr"])
@pytest.mark.parametrize("size", [100, -4, 4, 2**63 - 1, 2**63 + 8])
def test_grid_size_checked_at_parse_time(field, size):
    obj = json.loads(json.dumps(GOOD))
    obj["grid"][field] = size
    with pytest.raises(ConfigError, match=f"grid: field '{field}' must be a power of two >= 8, "
                                          f"got {size}$"):
        scene_config_from_dict(obj)


def test_grid_size_check_takes_any_integer():
    # 2^63 is a power of two beyond int64; the rule is plain integer
    # arithmetic, so it neither overflows nor rejects it
    obj = json.loads(json.dumps(GOOD))
    obj["grid"] = {"na": 2**63, "nr": 8}
    cfg = scene_config_from_dict(obj)
    assert (cfg.na, cfg.nr) == (2**63, 8)


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text('{"radar": {,}}')
    with pytest.raises(ConfigError, match=r"line 1 column 12"):
        s.parse_scene_config(path)


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        s.parse_scene_config(tmp_path / "absent.json")


def test_deeply_nested_config_names_the_file(tmp_path):
    # json.loads recurses per level and would raise RecursionError
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    with pytest.raises(ConfigError, match=f"^{path}: JSON nested too deeply$"):
        s.parse_scene_config(path)


def test_config_that_is_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    with pytest.raises(ConfigError, match=f"^cannot read {path}: 'utf-8' codec can't decode"):
        s.parse_scene_config(path)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda o: o.update(extra=1), "unknown field 'extra'"),
        (lambda o: o["radar"].update(bandwidth=1.0), "unknown field 'bandwidth'"),
        (lambda o: o["grid"].update(nb=2), "unknown field 'nb'"),
        (lambda o: o["targets"][0].update(dx_m=0.05), "unknown field 'dx_m'"),
        (lambda o: o["radar"].pop("v_mps"), "missing field 'v_mps'"),
        (lambda o: o["targets"][0].pop("length_m"), "missing field 'length_m'"),
        (lambda o: o.update(targets=[]), "non-empty"),
        (lambda o: o["targets"][0].update(kind="blob"), "one of"),
        (lambda o: o["targets"][1].update(n=True), "'n' must be an integer"),
        (lambda o: o["targets"][0].update(theta_az_deg=90.0), "theta_az_deg"),
        (lambda o: o["targets"][0].update(length_m=-1.0), "must be positive"),
        (lambda o: o["radar"].update(fc_hz=float("nan")), "'fc_hz' must be finite"),
        (lambda o: o["targets"][0].update(length_m=float("inf")), "'length_m' must be finite"),
        (lambda o: o["targets"][0].update(theta_az_deg=10**400), "'theta_az_deg' must be finite"),
        (lambda o: o.update(targets=[1]), r"targets\[0\]: expected an object"),
        (lambda o: o["targets"][0].update(label=5), "field 'label' must be a string"),
    ],
)
def test_schema_violations_name_the_field(tmp_path, mutate, message):
    obj = json.loads(json.dumps(GOOD))
    mutate(obj)
    with pytest.raises(ConfigError, match=message):
        s.parse_scene_config(write_cfg(tmp_path, obj))


def test_config_root_must_be_an_object(tmp_path):
    with pytest.raises(ConfigError, match="config root must be an object"):
        s.parse_scene_config(write_cfg(tmp_path, []))


def test_unhashable_kind_is_a_config_error(tmp_path):
    # a list is not a kind; the lookup must not raise TypeError
    obj = json.loads(json.dumps(GOOD))
    obj["targets"][0]["kind"] = ["line"]
    with pytest.raises(ConfigError, match="one of"):
        s.parse_scene_config(write_cfg(tmp_path, obj))


def test_arc_needs_ordered_tangents(tmp_path):
    obj = json.loads(json.dumps(GOOD))
    obj["targets"] = [
        {"kind": "arc", "radius_m": 40.0, "tan_lo_deg": 4.0, "tan_hi_deg": -4.0}
    ]
    with pytest.raises(ConfigError, match="tan_lo_deg < tan_hi_deg"):
        s.parse_scene_config(write_cfg(tmp_path, obj))


def test_incidence_range_enforced(tmp_path):
    obj = json.loads(json.dumps(GOOD))
    obj["targets"] = [
        {
            "kind": "segment3d",
            "theta_h_deg": 0.0,
            "theta_v_deg": 0.0,
            "theta_inc_deg": 90.0,
            "length_m": 1.0,
        }
    ]
    with pytest.raises(ConfigError, match="theta_inc_deg"):
        s.parse_scene_config(write_cfg(tmp_path, obj))


def test_generate_scene_all_kinds():
    targets = [
        {"kind": "line", "theta_az_deg": 2.0, "length_m": 1.0, "label": "l",
         "amp": 1.0},
        {"kind": "array", "theta_az_deg": 0.0, "dx_m": 0.05, "n": 8, "label": "a",
         "amp": 1.0},
        {"kind": "arc", "radius_m": 40.0, "tan_lo_deg": -4.0, "tan_hi_deg": 4.0,
         "label": "c", "amp": 1.0},
        {"kind": "catenary", "a_m": 5.0, "half_span_m": 2.0, "theta_inc_deg": 45.0,
         "label": "h", "amp": 1.0},
        {"kind": "segment3d", "theta_h_deg": 10.0, "theta_v_deg": -10.0,
         "theta_inc_deg": 45.0, "length_m": 1.0, "label": "s", "amp": 1.0},
    ]
    for t in targets:
        sc = s.generate_scene(t, LAM)
        assert sc.n >= 2 and sc.label == t["label"]
        assert sc.config == t    # the target itself, "kind" included


@pytest.mark.parametrize(
    "target, field",
    [
        ({"kind": "line", "theta_az_deg": 95.0, "length_m": 1.0}, "theta_az_deg"),
        ({"kind": "catenary", "a_m": 5.0, "half_span_m": 2.0, "theta_inc_deg": 135.0},
         "theta_inc_deg"),
        ({"kind": "line", "theta_az_deg": 2.0, "lenght_m": 1.0}, "lenght_m"),
        ({"kind": "array", "theta_az_deg": 0.0, "dx_m": 0.05, "n": 64.7}, "'n'"),
        ({"kind": "line", "theta_az_deg": 0.0, "length_m": 1.0, "spacing_m": 0.0},
         "'spacing_m' must be positive"),
        ({"kind": "array", "theta_az_deg": 0.0, "dx_m": 0.05, "n": 1}, "'n' must be at least 2"),
        ({"kind": "array", "theta_az_deg": 0.0, "dx_m": -0.05, "n": 8},
         "'dx_m' must be positive"),
        ({"kind": "arc", "radius_m": -1.0, "tan_lo_deg": -4.0, "tan_hi_deg": 4.0},
         "'radius_m' must be positive"),
        ({"kind": "line", "theta_az_deg": 0.0, "length_m": 1e308},
         "'line': its extent over its sample spacing gives no finite scatterer count"),
        ({"kind": "catenary", "a_m": 0.001, "half_span_m": 1.0, "theta_inc_deg": 40.0},
         r"'catenary': its scatterer positions are not finite"),
    ],
    ids=["line_angle", "catenary_incidence", "typo", "fractional_n", "zero_spacing",
         "single_element", "negative_period", "negative_radius", "uncountable_line",
         "overflowing_catenary"],
)
def test_generate_scene_checks_its_target(target, field):
    # the Python API builds scenes from target dicts too; they get the same
    # schema check as a config file's targets
    with pytest.raises(ConfigError, match=field):
        s.generate_scene(target, LAM)


def test_generate_scene_defaults():
    sc = s.generate_scene({"kind": "array", "theta_az_deg": 20.0, "dx_m": 0.05, "n": 64}, LAM)
    assert sc.label == "array" and np.all(sc.amp == 1.0)


def test_default_spacing_is_quarter_wavelength():
    sc = s.generate_scene({"kind": "line", "theta_az_deg": 0.0, "length_m": 1.0,
                           "amp": 1.0, "label": "x"}, LAM)
    assert sc.n == round(1.0 / (LAM / 4)) + 1


def test_build_scenes_preserves_order(tmp_path):
    cfg = s.parse_scene_config(write_cfg(tmp_path, GOOD))
    scenes = s.build_scenes(cfg)
    assert [sc.label for sc in scenes] == ["line_0", "array_1"]
    assert scenes[1].amp[0] == 2.0
