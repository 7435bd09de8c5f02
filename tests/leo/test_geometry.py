"""Tests for spherical geometry helpers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.leo.geometry import (
    GeoPoint,
    ecef,
    elevation_angle,
    fiber_path_delay,
    great_circle_distance,
    propagation_delay,
    slant_range,
)
from repro.units import EARTH_RADIUS, SPEED_OF_LIGHT, km


def test_ecef_on_equator_prime_meridian():
    pos = ecef(0.0, 0.0)
    assert pos == pytest.approx([EARTH_RADIUS, 0.0, 0.0])


def test_ecef_north_pole():
    pos = ecef(90.0, 0.0)
    assert pos[2] == pytest.approx(EARTH_RADIUS)
    assert abs(pos[0]) < 1.0


def test_ecef_altitude_adds_radially():
    ground = ecef(45.0, 10.0)
    high = ecef(45.0, 10.0, alt_m=km(550))
    assert np.linalg.norm(high) == pytest.approx(
        EARTH_RADIUS + km(550))
    assert np.linalg.norm(high - ground) == pytest.approx(km(550))


def test_slant_range_zenith():
    ground = ecef(50.0, 4.0)
    sat = ecef(50.0, 4.0, alt_m=km(550))
    assert slant_range(ground, sat) == pytest.approx(km(550))


def test_slant_range_vectorised():
    ground = ecef(50.0, 4.0)
    sats = np.array([ecef(50.0, 4.0, km(550)),
                     ecef(51.0, 5.0, km(550))])
    ranges = slant_range(ground, sats)
    assert ranges.shape == (2,)
    assert ranges[0] == pytest.approx(km(550))
    assert ranges[1] > ranges[0]


def test_elevation_at_zenith_is_90():
    ground = ecef(50.0, 4.0)
    sat = ecef(50.0, 4.0, km(550))
    assert elevation_angle(ground, sat) == pytest.approx(90.0)


def test_elevation_below_horizon_negative():
    ground = ecef(50.0, 4.0)
    antipode_sat = ecef(-50.0, -176.0, km(550))
    assert elevation_angle(ground, antipode_sat) < 0


def test_elevation_vectorised_matches_scalar():
    ground = ecef(50.0, 4.0)
    sats = np.array([ecef(52.0, 8.0, km(550)),
                     ecef(40.0, -20.0, km(550))])
    vector = elevation_angle(ground, sats)
    for i in range(2):
        assert vector[i] == pytest.approx(
            elevation_angle(ground, sats[i]))


def test_great_circle_known_distance():
    brussels = GeoPoint(50.85, 4.35)
    paris = GeoPoint(48.86, 2.35)
    distance = great_circle_distance(brussels, paris)
    assert distance == pytest.approx(264_000, rel=0.05)


def test_great_circle_zero_for_same_point():
    p = GeoPoint(10.0, 20.0)
    assert great_circle_distance(p, p) == pytest.approx(0.0)


def test_propagation_delay():
    assert propagation_delay(SPEED_OF_LIGHT) == pytest.approx(1.0)


def test_fiber_delay_slower_than_vacuum_and_stretched():
    a, b = GeoPoint(50.0, 4.0), GeoPoint(52.0, 13.0)
    straight = great_circle_distance(a, b) / SPEED_OF_LIGHT
    assert fiber_path_delay(a, b) > 2.0 * straight


@given(lat=st.floats(-90, 90), lon=st.floats(-180, 180))
def test_property_ecef_magnitude_is_radius(lat, lon):
    assert np.linalg.norm(ecef(lat, lon)) == pytest.approx(
        EARTH_RADIUS, rel=1e-12)


@given(lat1=st.floats(-89, 89), lon1=st.floats(-179, 179),
       lat2=st.floats(-89, 89), lon2=st.floats(-179, 179))
def test_property_great_circle_symmetric_and_bounded(lat1, lon1,
                                                     lat2, lon2):
    a, b = GeoPoint(lat1, lon1), GeoPoint(lat2, lon2)
    d_ab = great_circle_distance(a, b)
    d_ba = great_circle_distance(b, a)
    assert d_ab == pytest.approx(d_ba, abs=1.0)
    assert 0 <= d_ab <= np.pi * EARTH_RADIUS + 1.0


def test_elevation_up_param_is_bit_identical():
    """Passing the precomputed unit-up changes nothing, bitwise."""
    from repro.leo.geometry import unit_up

    ground = ecef(50.0, 4.0)
    up = unit_up(ground)
    sats = np.array([ecef(50.0 + d, 4.0 + d, km(550))
                     for d in (0.0, 2.0, 7.0, 15.0)])
    for sat in sats:
        assert elevation_angle(ground, sat, up=up) == \
            elevation_angle(ground, sat)
    assert np.array_equal(elevation_angle(ground, sats, up=up),
                          elevation_angle(ground, sats))


def test_elevation_and_range_matches_separate_calls():
    """The fused pass returns exactly what two passes would."""
    from repro.leo.geometry import elevation_and_range, unit_up

    ground = ecef(51.0, 5.0)
    up = unit_up(ground)
    sats = np.array([ecef(51.0 + d, 5.0 - d, km(550 + 20 * d))
                     for d in (0.0, 1.0, 4.0, 12.0)])
    elev, rng = elevation_and_range(ground, sats, up)
    assert np.array_equal(elev, elevation_angle(ground, sats, up=up))
    assert np.array_equal(rng, slant_range(ground, sats))


def test_scalar_ops_match_row_subsets_bitwise():
    """Scalar calls equal the vectorised rows, bit for bit -- the
    invariant the fleet scheduler's bit-identity rests on."""
    ground = ecef(50.668, 4.611)
    sats = np.array([ecef(50.0 + d, 4.0 + 2 * d, km(540 + 5 * d))
                     for d in range(8)])
    vec_elev = elevation_angle(ground, sats)
    vec_rng = slant_range(ground, sats)
    for i in range(len(sats)):
        assert elevation_angle(ground, sats[i]) == vec_elev[i]
        assert slant_range(ground, sats[i]) == vec_rng[i]


def test_gateway_geometry_matches_scalar_ops_bitwise():
    """The fused gateway kernel equals per-gateway elevation_angle +
    slant_range bit for bit: random satellites above and below each
    gateway's horizon, plus zenith/nadir lines of sight whose raw sine
    rounds past +-1 and must be clamped."""
    from repro.leo.geometry import unit_up
    from repro.leo.scheduling import gateway_geometry
    from tests.leo.oracle import gateway_geometry as unfused

    rng = np.random.default_rng(20221025)
    gws = np.array([ecef(lat, lon) for lat, lon in
                    zip(rng.uniform(-70, 70, 8), rng.uniform(-180, 180, 8))])
    ups = [unit_up(gw) for gw in gws]
    sats = [ecef(lat, lon, km(alt)) for lat, lon, alt in
            zip(rng.uniform(-90, 90, 400), rng.uniform(-180, 180, 400),
                rng.uniform(300, 1200, 400))]
    # Along each gateway's own up-vector: straight overhead (sine
    # ~ +1) and straight down through the Earth (sine ~ -1).
    for gw, up in zip(gws, ups):
        for h in rng.uniform(1e5, 2e6, 40):
            sats += [gw + h * up, gw - h * up]
    raw_sines = [np.dot(s - gw, up) / np.sqrt((s - gw).dot(s - gw))
                 for s in sats for gw, up in zip(gws, ups)]
    assert max(raw_sines) > 1.0 and min(raw_sines) < -1.0
    elevations = []
    for sat in sats:
        got_elev, got_rng = gateway_geometry(gws, ups, sat)
        want_elev, want_rng = unfused(gws, ups, sat)
        assert got_elev.tobytes() == want_elev.tobytes()
        assert got_rng.tobytes() == want_rng.tobytes()
        elevations.extend(got_elev)
    assert max(elevations) == 90.0 and min(elevations) == -90.0
    assert any(e < 0 for e in elevations) and any(e > 0 for e in elevations)
