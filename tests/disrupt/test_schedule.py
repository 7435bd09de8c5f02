"""Tests for disruption windows and schedules."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.disrupt.schedule import (
    CAPACITY_FLOOR,
    CLEAR_SKY,
    FADE_LOSS_COEFF,
    SURGE_CAPACITY_COEFF,
    WINDOW_KINDS,
    DisruptionSchedule,
    DisruptionWindow,
)
from repro.errors import DisruptionError, ReproError


# -- window validation --------------------------------------------------

def test_unknown_kind_rejected():
    with pytest.raises(DisruptionError, match="unknown disruption kind"):
        DisruptionWindow("hailstorm", 0.0, 1.0)


def test_empty_or_inverted_window_rejected():
    with pytest.raises(DisruptionError, match="empty or inverted"):
        DisruptionWindow("fade", 5.0, 5.0)
    with pytest.raises(DisruptionError, match="empty or inverted"):
        DisruptionWindow("fade", 5.0, 4.0)


def test_severity_bounds():
    with pytest.raises(DisruptionError, match="severity"):
        DisruptionWindow("fade", 0.0, 1.0, severity=0.0)
    with pytest.raises(DisruptionError, match="severity"):
        DisruptionWindow("fade", 0.0, 1.0, severity=1.5)
    # Endpoint 1.0 is valid.
    DisruptionWindow("fade", 0.0, 1.0, severity=1.0)


def test_gateway_out_needs_target():
    with pytest.raises(DisruptionError, match="gateway name"):
        DisruptionWindow("gateway_out", 0.0, 1.0)


def test_blackout_target_restricted():
    with pytest.raises(DisruptionError, match="blackout target"):
        DisruptionWindow("blackout", 0.0, 1.0, target="gw-aerzen-de")
    DisruptionWindow("blackout", 0.0, 1.0, target="route")
    DisruptionWindow("blackout", 0.0, 1.0)


def test_disruption_error_is_repro_error():
    with pytest.raises(ReproError):
        DisruptionWindow("nope", 0.0, 1.0)


def test_window_active_is_half_open():
    w = DisruptionWindow("fade", 2.0, 4.0, severity=0.5)
    assert not w.active(1.9)
    assert w.active(2.0)
    assert w.active(3.9)
    assert not w.active(4.0)
    assert w.duration_s == pytest.approx(2.0)


# -- schedule queries ---------------------------------------------------

def test_capacity_factor_fade_and_surge():
    sched = DisruptionSchedule("s", (
        DisruptionWindow("fade", 0.0, 10.0, severity=0.5),
        DisruptionWindow("surge", 5.0, 15.0, severity=1.0),
    ))
    assert sched.capacity_factor(2.0) == pytest.approx(0.5)
    # Overlap multiplies: 0.5 * (1 - 0.6).
    assert sched.capacity_factor(7.0) == pytest.approx(
        0.5 * (1.0 - SURGE_CAPACITY_COEFF))
    assert sched.capacity_factor(12.0) == pytest.approx(
        1.0 - SURGE_CAPACITY_COEFF)
    assert sched.capacity_factor(20.0) == 1.0


def test_capacity_factor_floored():
    sched = DisruptionSchedule("s", (
        DisruptionWindow("fade", 0.0, 10.0, severity=1.0),
        DisruptionWindow("fade", 0.0, 10.0, severity=1.0),
    ))
    assert sched.capacity_factor(1.0) == pytest.approx(CAPACITY_FLOOR)


def test_extra_loss_prob():
    sched = DisruptionSchedule("s", (
        DisruptionWindow("fade", 0.0, 10.0, severity=0.5),))
    assert sched.extra_loss_prob(1.0) == pytest.approx(
        FADE_LOSS_COEFF * 0.5)
    assert sched.extra_loss_prob(11.0) == 0.0


def test_overlapping_fades_compose_loss():
    sched = DisruptionSchedule("s", (
        DisruptionWindow("fade", 0.0, 10.0, severity=1.0),
        DisruptionWindow("fade", 0.0, 10.0, severity=1.0),
    ))
    # 1 - (1 - 0.3)^2, never above 1.
    assert sched.extra_loss_prob(1.0) == pytest.approx(
        1.0 - (1.0 - FADE_LOSS_COEFF) ** 2)


def test_blackout_at_covers_link_and_route():
    sched = DisruptionSchedule("s", (
        DisruptionWindow("blackout", 0.0, 5.0),
        DisruptionWindow("blackout", 10.0, 15.0, target="route"),
    ))
    assert sched.blackout_at(1.0)
    assert sched.blackout_at(12.0)
    assert not sched.blackout_at(7.0)


def test_window_extraction_for_installers():
    sched = DisruptionSchedule("s", (
        DisruptionWindow("blackout", 0.0, 5.0),
        DisruptionWindow("blackout", 10.0, 15.0, target="route"),
        DisruptionWindow("gateway_out", 20.0, 30.0,
                         target="gw-aerzen-de"),
        DisruptionWindow("fade", 0.0, 1.0, severity=0.2),
    ))
    assert sched.link_blackouts() == [(0.0, 5.0)]
    assert sched.route_blackouts() == [(10.0, 15.0)]
    assert sched.gateway_outages() == [("gw-aerzen-de", 20.0, 30.0)]
    assert sched.has_capacity_effects()
    assert sched.has_fades()


def test_shifted_translates_windows():
    sched = DisruptionSchedule("s", (
        DisruptionWindow("blackout", 1.0, 2.0),))
    moved = sched.shifted(100.0)
    assert moved.windows[0].start_t == pytest.approx(101.0)
    assert moved.windows[0].end_t == pytest.approx(102.0)
    # Empty schedules and zero shifts return the same object.
    assert CLEAR_SKY.shifted(50.0) is CLEAR_SKY
    assert sched.shifted(0.0) is sched


def test_overlapping_query():
    w = DisruptionWindow("fade", 5.0, 10.0, severity=0.3)
    sched = DisruptionSchedule("s", (w,))
    assert sched.overlapping(0.0, 6.0) == [w]
    assert sched.overlapping(9.0, 20.0) == [w]
    assert sched.overlapping(10.0, 20.0) == []


def test_clear_sky_is_empty_and_inert():
    assert CLEAR_SKY.is_empty
    assert CLEAR_SKY.capacity_factor(0.0) == 1.0
    assert CLEAR_SKY.extra_loss_prob(0.0) == 0.0
    assert not CLEAR_SKY.blackout_at(0.0)


def test_schedule_accepts_list_windows():
    sched = DisruptionSchedule(
        "s", [DisruptionWindow("fade", 0.0, 1.0, severity=0.1)])
    assert isinstance(sched.windows, tuple)


# -- interval index vs linear scan --------------------------------------

def _scan_oracle(schedule, t):
    """``(capacity_factor, extra_loss_prob, blackout_at)`` by scanning
    every window at ``t`` (the pre-index query formulas)."""
    def active(kind):
        return [w for w in schedule.windows
                if w.kind == kind and w.start_t <= t < w.end_t]
    factor = 1.0
    for w in active("fade"):
        factor *= max(CAPACITY_FLOOR, 1.0 - w.severity)
    for w in active("surge"):
        factor *= max(CAPACITY_FLOOR,
                      1.0 - SURGE_CAPACITY_COEFF * w.severity)
    keep = 1.0
    for w in active("fade"):
        keep *= 1.0 - FADE_LOSS_COEFF * w.severity
    return (max(CAPACITY_FLOOR, factor), 1.0 - keep,
            bool(active("blackout")))


def _bits(x):
    """Exact identity of a query result: type plus every bit."""
    return (type(x), x.hex() if isinstance(x, float) else x)


# Boundaries from a small grid make overlapping, nested and touching
# windows common; arbitrary floats cover everything else.
_points = st.one_of(st.integers(-3, 12).map(float),
                    st.floats(-1e7, 1e7, allow_nan=False))
_severities = st.one_of(st.just(1.0),
                        st.floats(0.0, 1.0, exclude_min=True))


@st.composite
def _windows(draw):
    a, b = draw(_points), draw(_points)
    if a == b:
        b = a + draw(st.sampled_from([0.5, 1.0, 3.0]))
    kind = draw(st.sampled_from(WINDOW_KINDS))
    target = {"gateway_out": "gw-a",
              "blackout": draw(st.sampled_from(["", "route"]))
              }.get(kind, "")
    return DisruptionWindow(kind, min(a, b), max(a, b),
                            severity=draw(_severities), target=target)


@settings(max_examples=200, deadline=None)
@given(st.lists(_windows(), min_size=1, max_size=8))
def test_property_index_matches_linear_scan_bitwise(windows):
    sched = DisruptionSchedule("prop", windows)
    edges = [x for w in windows for x in (w.start_t, w.end_t)]
    probes = [min(edges) - 1.0, max(edges) + 1.0, -math.inf, math.inf]
    for x in edges:
        probes += [x, math.nextafter(x, -math.inf),
                   math.nextafter(x, math.inf)]
    for t in probes:
        cap, loss, black = _scan_oracle(sched, t)
        assert _bits(sched.capacity_factor(t)) == _bits(cap), t
        assert _bits(sched.extra_loss_prob(t)) == _bits(loss), t
        assert sched.blackout_at(t) is black, t


@pytest.mark.parametrize("sched", [CLEAR_SKY, DisruptionSchedule("none")])
@pytest.mark.parametrize("t", [-math.inf, -1.0, 0.0, 1e9, math.inf])
def test_empty_schedule_returns_exact_identities(sched, t):
    assert _bits(sched.capacity_factor(t)) == _bits(1.0)
    assert _bits(sched.extra_loss_prob(t)) == _bits(0.0)
    assert sched.blackout_at(t) is False
