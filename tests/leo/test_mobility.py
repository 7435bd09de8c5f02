"""Tests for mobile-terminal mode: trajectories, obstruction
shadowing and the handover-kind bookkeeping they feed."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.leo.constellation import Constellation
from repro.leo.geometry import (
    GeoPoint,
    azimuth_angle,
    elevation_and_range,
    great_circle_distance,
    unit_up,
)
from repro.leo.ground import (
    LOUVAIN_LA_NEUVE,
    STARLINK_GATEWAYS,
    default_terminal,
)
from repro.leo.mobility import (
    FULL_SKY_MASK,
    ObstructionTrace,
    SkyMask,
    SkySector,
    StationaryTrajectory,
    WaypointTrajectory,
    build_mobility,
    build_obstruction,
    build_trajectory,
    drive_trajectory,
)
from repro.leo.fleet import FleetScheduler
from repro.leo.scheduling import HANDOVER_KINDS, SLOT_DURATION
from repro.testing.digest import digest_value


def make_scheduler(seed=3, trajectory=None, obstruction=None):
    """A single dish (a fleet of one) with fixed mobility inputs."""
    return FleetScheduler(Constellation(), [default_terminal()],
                          STARLINK_GATEWAYS, seeds=[seed],
                          trajectories=[trajectory],
                          obstructions=[obstruction])


def snapshot_digest(scheduler, slots=120):
    picks = []
    for k in range(slots):
        snap = scheduler.snapshot_at(0, k * SLOT_DURATION)
        picks.append((snap.sat_index, snap.gateway.name, snap.pop,
                      snap.one_way_propagation, snap.elevation_deg))
    return digest_value(picks)


# -- azimuth geometry ---------------------------------------------------

def test_azimuth_cardinal_directions():
    ground = LOUVAIN_LA_NEUVE.to_ecef()
    for d_lat, d_lon, expected in ((1.0, 0.0, 0.0),      # north
                                   (0.0, 1.0, 90.0),     # east
                                   (-1.0, 0.0, 180.0),   # south
                                   (0.0, -1.0, 270.0)):  # west
        target = GeoPoint(LOUVAIN_LA_NEUVE.lat_deg + d_lat,
                          LOUVAIN_LA_NEUVE.lon_deg + d_lon,
                          550_000.0).to_ecef()
        az = azimuth_angle(ground, target)
        assert az == pytest.approx(expected, abs=2.0), (d_lat, d_lon)


def test_azimuth_in_range_for_overhead_pass():
    ground = LOUVAIN_LA_NEUVE.to_ecef()
    sat = GeoPoint(51.0, 5.0, 550_000.0).to_ecef()
    az = azimuth_angle(ground, sat)
    assert 0.0 <= az < 360.0
    elevs, _ = elevation_and_range(ground, sat.reshape(1, 3),
                                   unit_up(ground))
    assert elevs[0] > 0.0


# -- trajectories -------------------------------------------------------

def test_stationary_trajectory_matches_fixed_terminal_digest():
    classic = make_scheduler()
    mobile = make_scheduler(
        trajectory=StationaryTrajectory(location=LOUVAIN_LA_NEUVE))
    assert snapshot_digest(classic) == snapshot_digest(mobile)


def test_speed_zero_drive_matches_fixed_terminal_digest():
    classic = make_scheduler()
    parked = make_scheduler(
        trajectory=drive_trajectory(seed=3, speed_kmh=0.0))
    assert snapshot_digest(classic) == snapshot_digest(parked)


def test_waypoint_interpolation_midpoint():
    a = GeoPoint(50.0, 4.0)
    b = GeoPoint(51.0, 4.0)    # due north, ~111 km
    leg = great_circle_distance(a, b)
    speed_kmh = 100.0
    traj = WaypointTrajectory(waypoints=(a, b), speed_kmh=speed_kmh)
    half_t = (leg / 2) / (speed_kmh / 3.6)
    mid = traj.position_at(half_t)
    assert mid.lat_deg == pytest.approx(50.5, abs=1e-6)
    assert mid.lon_deg == pytest.approx(4.0)


def test_waypoint_trajectory_parks_at_final_waypoint():
    a, b = GeoPoint(50.0, 4.0), GeoPoint(50.1, 4.0)
    traj = WaypointTrajectory(waypoints=(a, b), speed_kmh=60.0)
    done = traj.parked_after_s
    end = traj.position_at(done * 10)
    assert (end.lat_deg, end.lon_deg) == (b.lat_deg, b.lon_deg)


def test_waypoint_trajectory_before_start_stays_at_origin():
    a, b = GeoPoint(50.0, 4.0), GeoPoint(50.1, 4.0)
    traj = WaypointTrajectory(waypoints=(a, b), speed_kmh=60.0,
                              start_t=100.0)
    assert traj.position_at(0.0) == a
    assert traj.position_at(100.0) == a


def test_waypoint_trajectory_rejects_bad_inputs():
    with pytest.raises(ConfigurationError):
        WaypointTrajectory(waypoints=(), speed_kmh=10.0)
    with pytest.raises(ConfigurationError):
        WaypointTrajectory(waypoints=(GeoPoint(50.0, 4.0),),
                           speed_kmh=-1.0)
    with pytest.raises(ConfigurationError):
        WaypointTrajectory(waypoints=(GeoPoint(50.0, 4.0),),
                           speed_kmh=math.nan)


def test_drive_trajectory_deterministic_and_seed_sensitive():
    a = drive_trajectory(seed=7, speed_kmh=90.0)
    b = drive_trajectory(seed=7, speed_kmh=90.0)
    c = drive_trajectory(seed=8, speed_kmh=90.0)
    assert a.waypoints == b.waypoints
    assert a.waypoints != c.waypoints


def test_drive_trajectory_moves_roughly_at_speed():
    traj = drive_trajectory(seed=1, speed_kmh=90.0,
                            duration_s=3600.0)
    start = traj.position_at(0.0)
    end = traj.position_at(3600.0)
    travelled = great_circle_distance(start, end)
    # A meandering walk covers less straight-line ground than the
    # odometer, but a 90 km/h hour should displace tens of km.
    assert 10_000.0 < travelled < 95_000.0


# -- sky masks and obstruction traces -----------------------------------

def test_sky_sector_wraps_through_north():
    sector = SkySector(az_start_deg=350.0, width_deg=20.0,
                       max_elevation_deg=40.0)
    assert sector.blocks(355.0, 30.0)
    assert sector.blocks(5.0, 30.0)      # wrapped past north
    assert not sector.blocks(20.0, 30.0)
    assert not sector.blocks(355.0, 50.0)  # above the roofline


def test_full_sky_mask_blocks_everything():
    assert FULL_SKY_MASK.full_sky
    for az in (0.0, 90.0, 180.0, 270.0):
        assert FULL_SKY_MASK.blocks(az, 89.0)
    partial = SkyMask(sectors=(
        SkySector(az_start_deg=0.0, width_deg=180.0,
                  max_elevation_deg=90.0),))
    assert not partial.full_sky


def test_obstruction_trace_query_order_independent():
    a = ObstructionTrace(seed=5, profile="roadside")
    b = ObstructionTrace(seed=5, profile="roadside")
    slots = [40, 3, 17, 3, 0, 29]
    masks_a = [a.mask_at(s) for s in slots]
    masks_b = [b.mask_at(s) for s in reversed(slots)][::-1]
    assert masks_a == masks_b


def test_obstruction_trace_bounded_window_clears_outside():
    trace = ObstructionTrace(seed=5, profile="urban_canyon",
                             end_slot=20,
                             obstructed_at_start=True)
    assert trace.mask_at(0) is not None
    assert trace.mask_at(20) is None
    assert trace.mask_at(10_000) is None


def test_obstruction_trace_obstructed_windows_align_to_slots():
    trace = ObstructionTrace(seed=5, profile="urban_canyon",
                             end_slot=100)
    windows = trace.obstructed_windows(0.0, 100 * SLOT_DURATION)
    assert windows, "urban canyon should shadow some slots in 100"
    for start, end in windows:
        assert start < end
        assert start % SLOT_DURATION == 0.0
        assert end % SLOT_DURATION == 0.0
        # Every slot inside the window really is obstructed.
        k = int(start // SLOT_DURATION)
        assert trace.mask_at(k) is not None


def test_obstruction_trace_rejects_bad_config():
    with pytest.raises(ConfigurationError):
        ObstructionTrace(seed=0, profile="nope")
    with pytest.raises(ConfigurationError):
        ObstructionTrace(seed=0, end_slot=0)
    with pytest.raises(ConfigurationError):
        ObstructionTrace(seed=0,
                         end_slot=ObstructionTrace.MAX_TRACE_SLOTS + 1)


def test_obstruction_makes_some_slots_unservable():
    sched = make_scheduler(
        obstruction=ObstructionTrace(seed=5, profile="urban_canyon",
                                     obstructed_at_start=True))
    outcomes = []
    for k in range(200):
        try:
            sched.snapshot_at(0, k * SLOT_DURATION)
            outcomes.append(True)
        except ConfigurationError:
            outcomes.append(False)
    assert not outcomes[0] or not all(outcomes)
    assert any(outcomes), "a whole urban canyon never clearing is " \
                          "implausible in 200 slots"
    assert not all(outcomes), "shadowing never costing a slot is " \
                              "implausible in 200 slots"


# -- moving terminals ---------------------------------------------------

def test_moving_terminal_changes_selection_digest():
    classic = make_scheduler()
    moving = make_scheduler(
        trajectory=drive_trajectory(seed=3, speed_kmh=500.0))
    assert snapshot_digest(classic) != snapshot_digest(moving)


# -- handover kinds (the handover_times bugfix) -------------------------

def test_handover_events_report_all_change_kinds():
    sched = make_scheduler()
    events = sched.handover_events(0, 0.0, 400 * SLOT_DURATION)
    kinds = set()
    for event in events:
        assert event.kinds <= set(HANDOVER_KINDS)
        kinds |= event.kinds
    assert {"satellite", "gateway", "pop"} <= kinds


def test_handover_times_include_gateway_only_changes():
    """Pre-fix failure: handover_times diffed only sat_index.

    With seed 3 the serving satellite stays 1311 across the slot-68
    boundary (t=1020 s) while the gateway hops gravelines->turnhout
    and the PoP frankfurt->amsterdam; the sat_index-only diff missed
    this boundary entirely.
    """
    sched = make_scheduler(seed=3)
    before = sched.snapshot_at(0, 67 * SLOT_DURATION)
    after = sched.snapshot_at(0, 68 * SLOT_DURATION)
    assert before.sat_index == after.sat_index
    assert (before.gateway.name, before.pop) \
        != (after.gateway.name, after.pop)
    t = 68 * SLOT_DURATION
    assert t in sched.handover_times(0, 0.0, 80 * SLOT_DURATION)
    (event,) = [e for e in
                sched.handover_events(0, 0.0, 80 * SLOT_DURATION)
                if e.t == t]
    assert "satellite" not in event.kinds
    assert "gateway" in event.kinds
    assert "pop" in event.kinds


def test_service_transitions_reported_as_handovers():
    sched = make_scheduler(
        obstruction=ObstructionTrace(seed=5, profile="urban_canyon",
                                     obstructed_at_start=True))
    events = sched.handover_events(0, 0.0, 400 * SLOT_DURATION)
    service = [e for e in events if "service" in e.kinds]
    assert service, "an urban canyon with no service transition in " \
                    "400 slots is implausible"


# -- config builders ----------------------------------------------------

def test_build_trajectory_mapping():
    assert build_trajectory("stationary", seed=0, speed_kmh=0.0) \
        is None
    drive = build_trajectory("drive", seed=0, speed_kmh=80.0)
    assert isinstance(drive, WaypointTrajectory)
    with pytest.raises(ConfigurationError):
        build_trajectory("teleport", seed=0, speed_kmh=0.0)


def test_build_obstruction_mapping():
    assert build_obstruction("none", seed=0) is None
    trace = build_obstruction("roadside", seed=0, end_slot=10)
    assert isinstance(trace, ObstructionTrace)
    assert trace.end_slot == 10
    with pytest.raises(ConfigurationError):
        build_obstruction("fog", seed=0)


def test_build_mobility_bounds_obstruction_to_drive_window():
    class Cfg:
        trajectory = "drive"
        obstruction = "roadside"
        speed_kmh = 60.0
        drive_duration_s = 300.0
        seed = 1

    trajectory, obstruction = build_mobility(Cfg())
    assert trajectory is not None
    assert obstruction.end_slot == 20   # ceil(300 / 15)
