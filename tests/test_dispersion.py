import math

import pytest
from hypothesis import given, strategies as st

import sarcsi as s
from sarcsi import dispersion
from sarcsi.errors import EvanescentOrderError

DEG = math.radians


def test_zero_order_is_negated_orientation(xband):
    assert s.order_squint(s.GratingTarget(DEG(20.0)), 0, xband.lam) == -DEG(20.0)
    with pytest.raises(ValueError):
        s.order_squint(s.GratingTarget(DEG(90.0)), 0, xband.lam)


def test_flagship_first_order(xband):
    t = s.GratingTarget(DEG(20.0), 0.05)
    theta = s.order_squint(t, 1, xband.lam)
    assert math.degrees(theta) == pytest.approx(-2.9353366784390325, abs=1e-10)


def test_order_zero_reduces_to_zero_order(xband):
    t = s.GratingTarget(DEG(12.5), 0.04)
    assert s.order_squint(t, 0, xband.lam) == -DEG(12.5)


@pytest.mark.parametrize("theta_az", [0.0, -0.0, DEG(20.0), DEG(-3.5)])
def test_zero_order_is_the_same_with_or_without_a_period(xband, theta_az):
    # m = 0 is -theta_az for every target, to the sign of a zero
    want = s.order_squint(s.GratingTarget(theta_az), 0, xband.lam)
    have = s.order_squint(s.GratingTarget(theta_az, 0.05), 0, xband.lam)
    assert want == -theta_az and math.copysign(1.0, want) == math.copysign(1.0, -theta_az)
    assert have == want and math.copysign(1.0, have) == math.copysign(1.0, want)


def test_evanescent_order_raises(xband):
    # m=2 at broadside with d_x=0.03: arcsine argument 1.041 > 1
    t = s.GratingTarget(0.0, 0.03)
    with pytest.raises(EvanescentOrderError):
        s.order_squint(t, 2, xband.lam)


def test_high_order_needs_period(xband):
    with pytest.raises(ValueError, match="periodic"):
        s.order_squint(s.GratingTarget(0.0), 1, xband.lam)


def test_continuous_target_has_only_zero_order(xband):
    sols = s.orders_in_window(s.GratingTarget(0.0), xband, (-2, 2))
    assert [d.m for d in sols] == [0]
    assert sols[0].f_d == 0.0 and sols[0].observable
    # however wide the range, only m = 0 is tried
    assert s.orders_in_window(s.GratingTarget(0.0), xband, (-10**12, 10**12)) == sols
    assert s.orders_in_window(s.GratingTarget(0.0), xband, (3, 10**12)) == []


def test_flagship_order_table(xband):
    sols = s.orders_in_window(s.GratingTarget(DEG(20.0), 0.05), xband, (-2, 2))
    assert [d.m for d in sols] == [-2, -1, 0, 1, 2]
    visible = [d for d in sols if d.observable]
    assert len(visible) == 1 and visible[0].m == 1
    assert visible[0].f_d == pytest.approx(-24925.243642702615, abs=1e-6)
    assert visible[0].hue is s.Hue.RED


def test_evanescent_orders_are_omitted(xband):
    sols = s.orders_in_window(s.GratingTarget(0.0, 0.03), xband, (-3, 3))
    assert [d.m for d in sols] == [-1, 0, 1]


def test_empty_order_range_rejected(xband):
    with pytest.raises(ValueError):
        s.orders_in_window(s.GratingTarget(0.0, 0.05), xband, (2, 1))


def test_wide_order_range_tries_only_propagating_orders(xband, monkeypatch):
    t = s.GratingTarget(DEG(2.0), 0.05)
    want = s.orders_in_window(t, xband, (-10, 10))
    tried = []
    real = dispersion.order_squint
    monkeypatch.setattr(dispersion, "order_squint",
                        lambda t, m, lam: tried.append(m) or real(t, m, lam))
    assert s.orders_in_window(t, xband, (-10**4, 10**4)) == want
    # |m| <= 3 propagate; one more order each side is the margin
    assert tried == list(range(-4, 5))

    # a continuous target has only its zero order to try
    tried.clear()
    sols = s.orders_in_window(s.GratingTarget(DEG(2.0)), xband, (-10**12, 10**12))
    assert [d.m for d in sols] == [0] and tried == [0]

    # a period so long that the order bound overflows keeps the range as given
    sols = s.orders_in_window(s.GratingTarget(0.0, 1e308), xband, (-2, 2))
    assert [d.m for d in sols] == [-2, -1, 0, 1, 2]


@given(
    st.floats(-1.3, 1.3),
    st.floats(0.02, 0.2),
    st.integers(-3, 3),
)
def test_observable_orders_always_have_a_colour(theta_az, d_x, m):
    p = s.RadarParams(9.6e9, 7600.0, 0.1, 0.1)
    sols = s.orders_in_window(s.GratingTarget(theta_az, d_x), p, (m, m))
    for d in sols:
        assert d.observable == (d.hue is not s.Hue.OUT_OF_WINDOW)


def test_hue_band_edges(xband):
    third = xband.B_a / 6
    assert s.classify_hue(xband, -third) is s.Hue.GREEN
    assert s.classify_hue(xband, third) is s.Hue.GREEN
    assert s.classify_hue(xband, -third - 1e-6) is s.Hue.RED
    assert s.classify_hue(xband, third + 1e-6) is s.Hue.BLUE
    assert s.classify_hue(xband, -38000.0) is s.Hue.RED
    assert s.classify_hue(xband, 38000.0) is s.Hue.BLUE
    assert s.classify_hue(xband, 38000.1) is s.Hue.OUT_OF_WINDOW
    assert s.classify_hue(xband, 0.0) is s.Hue.GREEN


def test_hue_bands_follow_centroid():
    p = s.RadarParams(9.6e9, 7600.0, 0.1, 0.1, f_dc=10000.0)
    assert s.classify_hue(p, 10000.0) is s.Hue.GREEN
    assert s.classify_hue(p, -10000.0) is s.Hue.RED
    assert s.classify_hue(p, 30000.0) is s.Hue.BLUE
    assert s.classify_hue(p, -38000.0) is s.Hue.OUT_OF_WINDOW


def test_projected_squint_of_horizontal_segment():
    o = s.Orientation3D(theta_h=0.0, theta_v=DEG(10.0), theta_inc=DEG(45.0))
    assert math.degrees(s.effective_squint_3d(o)) == pytest.approx(
        -7.107076110446535, abs=1e-10
    )


def test_projected_orientation_small_slope():
    o = s.Orientation3D(theta_h=0.0, theta_v=DEG(2.0), theta_inc=DEG(45.0))
    theta_az = -s.effective_squint_3d(o)
    assert math.degrees(theta_az) == pytest.approx(1.4145007934175509, abs=1e-10)


def test_green_condition_cancellation():
    o = s.Orientation3D(theta_h=DEG(10.0), theta_v=DEG(-10.0), theta_inc=DEG(45.0))
    assert abs(s.effective_squint_3d(o)) <= 1e-10


@given(st.floats(-1.0, 1.0), st.floats(0.4, 1.2))
def test_green_condition_family(theta_h, theta_inc):
    theta_v = -math.atan(math.tan(theta_inc) * math.tan(theta_h))
    o = s.Orientation3D(theta_h, theta_v, theta_inc)
    assert abs(s.effective_squint_3d(o)) <= 1e-10


def test_orientation_validation():
    with pytest.raises(ValueError):
        s.Orientation3D(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        s.Orientation3D(DEG(95.0), 0.0, DEG(45.0))


@pytest.mark.parametrize("d_x", [0.0, -1.0, math.nan, math.inf])
def test_grating_period_validation(d_x):
    with pytest.raises(ValueError, match="positive"):
        s.GratingTarget(0.1, d_x)


@given(st.floats(-1.2, 1.2))
def test_inversion_recovers_orientation(theta_az):
    p = s.RadarParams(9.6e9, 7600.0, 0.1, 0.1)
    f_d = s.doppler_from_squint(p, s.order_squint(s.GratingTarget(theta_az), 0, p.lam))
    assert -s.squint_from_doppler(p, f_d) == pytest.approx(
        theta_az, abs=1e-12
    )


# --- chart ------------------------------------------------------------------

GRID = [DEG(v / 4) for v in range(-24, 25)]


def test_chart_zero_order_curve_is_exact_negation(xband):
    ch = s.chart_data(xband, 0.05, [-1, 0, 1], GRID)
    assert all(az == -sq for sq, az in ch.zero_order_curve)
    assert len(ch.zero_order_curve) == len(GRID)


def test_chart_regions_skip_zero_order(xband):
    ch = s.chart_data(xband, 0.05, [-1, 0, 1], GRID)
    assert sorted(ch.order_regions) == [-1, 1]
    for rows in ch.order_regions.values():
        assert all(lo <= hi for _, lo, hi in rows)


def test_chart_band_edges(xband):
    ch = s.chart_data(xband, 0.05, [1], GRID)
    assert ch.window == (-38000.0, 38000.0)
    assert ch.band_edges == (-38000.0, -xband.B_a / 6, xband.B_a / 6, 38000.0)


def test_chart_bounds_at_broadside(xband):
    ch = s.chart_data(xband, 0.05, [-1, 1], [0.0])
    _, lo, hi = ch.order_regions[1][0]
    assert math.degrees(lo) == pytest.approx(16.154667492197646, rel=1e-12)
    assert math.degrees(hi) == pytest.approx(18.712714647741358, rel=1e-12)
    _, lo_m, hi_m = ch.order_regions[-1][0]
    assert lo_m == -hi and hi_m == -lo


def test_chart_rejects_bad_inputs(xband):
    with pytest.raises(ValueError):
        s.chart_data(xband, 0.0, [1], GRID)
    with pytest.raises(ValueError):
        s.chart_data(xband, 0.05, [1], [math.pi / 2])


@pytest.mark.parametrize("d_x", [math.nan, math.inf])
def test_chart_rejects_a_non_finite_period(xband, d_x):
    # a NaN period would write NaN region rows, an infinite one regions of
    # zero width
    with pytest.raises(ValueError, match="positive and finite"):
        s.chart_data(xband, d_x, [1], [0.0])


def test_chart_csv_layout(xband):
    ch = s.chart_data(xband, 0.05, [-1, 0, 1], GRID)
    text = s.chart_to_csv(ch)
    lines = text.splitlines()
    assert lines[0].startswith("# doppler_window_hz,")
    assert lines[1].startswith("# band_edges_hz,")
    assert lines[2] == "curve_id,m,theta_sq_deg,theta_az_deg_low,theta_az_deg_high"
    zero_rows = [ln for ln in lines if ln.startswith("zero_order,")]
    assert len(zero_rows) == len(GRID)
    for row in zero_rows:
        _, m, _, lo, hi = row.split(",")
        assert m == "0" and lo == hi
    assert text.endswith("\n")
