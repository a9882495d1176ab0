import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import sarcsi as s
from sarcsi.errors import DopplerRangeError, ParameterError


def test_derived_bandwidths(xband):
    assert xband.B_a == 76000.0
    assert xband.B_r == 1498962290.0
    assert xband.lam == pytest.approx(0.031228381041666666, abs=0)
    assert xband.doppler_window == (-38000.0, 38000.0)


def test_window_follows_centroid():
    p = s.RadarParams(9.6e9, 7600.0, 0.1, 0.1, f_dc=5000.0)
    assert p.doppler_window == (-33000.0, 43000.0)


@pytest.mark.parametrize("field", ["f_c", "V", "rho_a", "rho_r"])
def test_nonpositive_rejected(field):
    kwargs = dict(f_c=9.6e9, V=7600.0, rho_a=0.1, rho_r=0.1)
    kwargs[field] = 0.0
    with pytest.raises(ParameterError):
        s.RadarParams(**kwargs)


@pytest.mark.parametrize("field", ["f_c", "V", "rho_a", "rho_r", "f_dc"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_rejected(field, value):
    kwargs = dict(f_c=9.6e9, V=7600.0, rho_a=0.1, rho_r=0.1, f_dc=0.0)
    kwargs[field] = value
    with pytest.raises(ParameterError, match="finite"):
        s.RadarParams(**kwargs)


@pytest.mark.parametrize("kwargs, rate", [
    (dict(rho_r=1e308), "B_r=0.0"),                   # 2 rho_r overflows
    (dict(rho_r=5e-324), "B_r=inf"),
    (dict(V=5e-324, rho_a=1e308), "B_a=0.0"),
    (dict(f_c=1e308, V=2.0**63), "2V/lambda=inf"),
])
def test_derived_rates_must_be_numbers(kwargs, rate):
    # finite, positive inputs whose bandwidth or Doppler span is not
    with pytest.raises(ParameterError, match=f"positive and finite, got .*{rate}"):
        s.RadarParams(**{**dict(f_c=9.6e9, V=7600.0, rho_a=0.1, rho_r=0.1), **kwargs})


def test_azimuth_band_beyond_doppler_limit_rejected():
    # rho_a below lam/2 would ask for more Doppler band than 2V/lam exists
    with pytest.raises(ParameterError):
        s.RadarParams(9.6e9, 7600.0, 0.01, 0.1)


def test_replace_checks_again(xband):
    # RadarParams checks itself whenever it is built, by replace too
    with pytest.raises(ParameterError, match="positive"):
        dataclasses.replace(xband, rho_a=0.0)


def test_doppler_of_broadside_is_zero(xband):
    assert s.doppler_from_squint(xband, 0.0) == 0.0


def test_doppler_of_one_degree_line(xband):
    line = s.GratingTarget(math.radians(1.0))
    f = s.doppler_from_squint(xband, s.order_squint(line, 0, xband.lam))
    assert f == pytest.approx(-8494.727200003177, abs=1e-9)


def test_squint_beyond_quarter_turn_rejected(xband):
    with pytest.raises(ValueError):
        s.doppler_from_squint(xband, math.pi / 2)


def test_doppler_beyond_realizable_rejected(xband):
    limit = 2 * xband.V / xband.lam
    with pytest.raises(DopplerRangeError):
        s.squint_from_doppler(xband, limit * 1.0000001)


def test_squint_from_doppler_is_elementwise(xband):
    f = np.array([-30000.0, 0.0, 12345.6])
    np.testing.assert_allclose(
        s.squint_from_doppler(xband, f),
        [s.squint_from_doppler(xband, v) for v in f], rtol=1e-15, atol=0,
    )
    # one out-of-range entry rejects the array; the error names the largest |f|
    limit = 2 * xband.V / xband.lam
    with pytest.raises(DopplerRangeError, match=f"{1.5 * limit:.6g} Hz"):
        s.squint_from_doppler(xband, np.array([0.0, -1.5 * limit, 1.2 * limit]))


@given(st.floats(-1.2, 1.2))
def test_squint_doppler_roundtrip(theta):
    p = s.RadarParams(9.6e9, 7600.0, 0.1, 0.1)
    assert s.squint_from_doppler(p, s.doppler_from_squint(p, theta)) == pytest.approx(
        theta, abs=1e-12
    )


def test_observable_window_edges_inclusive(xband):
    assert s.observable(xband, 38000.0)
    assert s.observable(xband, -38000.0)
    assert not s.observable(xband, 38000.0000001)
    assert not s.observable(xband, -38000.0000001)
