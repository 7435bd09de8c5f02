"""Differential suite: FleetScheduler == per-terminal scalar oracle.

The scheduler's load-bearing claim is *bit-identity*: terminal ``i``
of a :class:`FleetScheduler` produces exactly the snapshot the plain
scalar reference scheduler (``tests/leo/oracle.py``) would with seed
``seeds[i]`` — same satellite, same gateway, same floats byte for
byte, and the same error message for unservable slots — across seeds,
latitudes, candidate-pool sizes, outage windows, trajectories and
obstruction traces. Hypothesis explores the space; any drift shrinks
to a minimal counterexample.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.leo.constellation import Constellation
from repro.leo.fleet import (
    FleetScheduler,
    FleetSpec,
    build_fleet_terminals,
    fleet_seeds,
)
from repro.leo.geometry import GeoPoint
from repro.leo.ground import STARLINK_GATEWAYS, GroundStation
from repro.leo.mobility import (
    FULL_SKY_MASK,
    ObstructionTrace,
    StationaryTrajectory,
    WaypointTrajectory,
    drive_trajectory,
)
from repro.leo.scheduling import SLOT_DURATION
from repro.testing.scenarios import (
    random_obstruction_trace,
    random_trajectory,
)
from tests.leo.oracle import SatelliteScheduler

N_SLOTS = 8
#: Slots the mobility axis walks: long enough for a drive to move
#: the terminal and for an obstruction chain to change state.
MOBILE_SLOTS = 40


def _gateways_for(lat: float) -> list[GroundStation]:
    """Gateways near a latitude band, so paths exist at any latitude
    the strategy generates (the real Benelux gateways only serve
    mid-latitude terminals)."""
    return [
        GroundStation(f"gw-a-{lat:.0f}", GeoPoint(lat, 6.5), pop="p1"),
        GroundStation(f"gw-b-{lat:.0f}", GeoPoint(lat + 1.5, 2.5),
                      pop="p2"),
        GroundStation(f"gw-c-{lat:.0f}", GeoPoint(max(lat - 2.0, -60.0),
                                                  4.0), pop="p1"),
    ]


def _compare(fleet: FleetScheduler,
             oracles: list[SatelliteScheduler],
             slots: int = N_SLOTS) -> None:
    for slot in range(slots):
        t = slot * SLOT_DURATION
        for i, oracle in enumerate(oracles):
            try:
                expected = oracle.snapshot(t)
            except ConfigurationError as exc:
                with pytest.raises(ConfigurationError) as info:
                    fleet.snapshot_at(i, t)
                assert str(info.value) == str(exc)
                continue
            got = fleet.snapshot_at(i, t)
            # Dataclass equality covers every float field exactly —
            # bit-identity, not approximate agreement.
            assert got == expected


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**20),
       terminals=st.integers(1, 5),
       base_lat=st.floats(0.0, 58.0),
       pool=st.integers(1, 6))
def test_fleet_matches_scalar(seed, terminals, base_lat, pool):
    spec = FleetSpec(terminals=terminals,
                     lat_bands=((base_lat, base_lat + 2.0),),
                     seed=seed)
    uts = build_fleet_terminals(spec)
    seeds = fleet_seeds(seed, terminals)
    gateways = _gateways_for(base_lat)
    fleet = FleetScheduler(Constellation(), uts, gateways,
                           seeds=seeds, candidate_pool=pool)
    oracles = [SatelliteScheduler(Constellation(), uts[i], gateways,
                                  seed=seeds[i], candidate_pool=pool)
               for i in range(terminals)]
    _compare(fleet, oracles)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**20),
       terminals=st.integers(1, 4),
       base_lat=st.floats(35.0, 55.0),
       sat_index=st.integers(0, 1583),
       start=st.integers(0, 4),
       length=st.integers(1, 6),
       gw_start=st.integers(0, 4),
       gw_length=st.integers(1, 6))
def test_fleet_matches_scalar_under_outages(seed, terminals, base_lat,
                                            sat_index, start, length,
                                            gw_start, gw_length):
    spec = FleetSpec(terminals=terminals,
                     lat_bands=((base_lat, base_lat + 2.0),),
                     seed=seed)
    uts = build_fleet_terminals(spec)
    seeds = fleet_seeds(seed, terminals)
    gateways = _gateways_for(base_lat)
    outages = [(sat_index, start, start + length)]
    gateway_outages = [(gateways[0].name, gw_start,
                        gw_start + gw_length)]
    fleet = FleetScheduler(Constellation(), uts, gateways,
                           seeds=seeds, outages=outages,
                           gateway_outages=gateway_outages)
    oracles = [SatelliteScheduler(Constellation(), uts[i], gateways,
                                  seed=seeds[i], outages=outages,
                                  gateway_outages=gateway_outages)
               for i in range(terminals)]
    _compare(fleet, oracles)


def _mobile_pair(seed: int, trajectories, obstructions):
    """A fleet and its per-terminal oracles on the same mobility
    inputs. Each side gets its own obstruction trace objects, built
    by ``obstructions()``, so no memo is shared between them."""
    terminals = len(trajectories)
    uts = build_fleet_terminals(FleetSpec(
        terminals=terminals, lat_bands=((50.0, 51.5),), seed=seed))
    seeds = fleet_seeds(seed, terminals)
    fleet = FleetScheduler(Constellation(), uts, STARLINK_GATEWAYS,
                           seeds=seeds, trajectories=trajectories,
                           obstructions=obstructions())
    oracles = [SatelliteScheduler(Constellation(), uts[i],
                                  STARLINK_GATEWAYS, seed=seeds[i],
                                  trajectory=trajectories[i],
                                  obstruction=trace)
               for i, trace in enumerate(obstructions())]
    return fleet, oracles


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**20),
       terminals=st.integers(1, 4),
       mobility_seed=st.integers(0, 10_000))
def test_fleet_matches_scalar_with_mobility(seed, terminals,
                                            mobility_seed):
    """Generated trajectories (none, stationary, parked, driving)
    crossed with generated obstruction traces, one per terminal."""
    keys = range(mobility_seed, mobility_seed + terminals)
    fleet, oracles = _mobile_pair(
        seed, [random_trajectory(k) for k in keys],
        lambda: [random_obstruction_trace(k) for k in keys])
    _compare(fleet, oracles, slots=MOBILE_SLOTS)


def _full_sky_at_start() -> int:
    """Seed of an urban-canyon trace whose slot 0 is fully obstructed
    (driving into a tunnel as the campaign starts)."""
    for seed in range(300):
        trace = ObstructionTrace(seed, profile="urban_canyon",
                                 obstructed_at_start=True)
        if trace.mask_at(0) == FULL_SKY_MASK:
            return seed
    raise AssertionError("no full-sky-at-slot-0 trace in 300 seeds")


@pytest.mark.parametrize("trajectory", ["fixed", "stationary", "drive",
                                        "fast"])
@pytest.mark.parametrize("obstruction", ["clear", "urban_canyon",
                                         "full_sky_at_t0"])
def test_fleet_matches_scalar_mobility_grid(trajectory, obstruction):
    """Every trajectory kind x obstruction kind, mixed in one fleet
    with a fixed, clear-sky terminal beside the one under test."""
    trajectories = [None, {
        "fixed": None,
        "stationary": StationaryTrajectory(),
        "drive": drive_trajectory(seed=4, speed_kmh=120.0),
        # ~75 km per slot over a ~3,000 km route: the terminal leaves
        # its starting prefilter cone, so a prefilter row not taken
        # from the slot's position would drop visible satellites.
        "fast": WaypointTrajectory(
            waypoints=(GeoPoint(50.67, 4.61), GeoPoint(35.0, 35.0)),
            speed_kmh=18_000.0),
    }[trajectory]]
    trace_seed = _full_sky_at_start()

    def obstructions():
        trace = {
            "clear": None,
            "urban_canyon": ObstructionTrace(
                5, profile="urban_canyon", obstructed_at_start=True),
            "full_sky_at_t0": ObstructionTrace(
                trace_seed, profile="urban_canyon",
                obstructed_at_start=True),
        }[obstruction]
        return [None, trace]

    fleet, oracles = _mobile_pair(17, trajectories, obstructions)
    _compare(fleet, oracles, slots=MOBILE_SLOTS)
    if obstruction == "full_sky_at_t0":
        with pytest.raises(ConfigurationError, match="fully obstructed"):
            fleet.snapshot_at(1, 0.0)


def test_fleet_matches_scalar_real_gateways():
    """T=1 at the paper's vantage point against the real gateways."""
    spec = FleetSpec(terminals=1, lat_bands=((50.0, 51.5),), seed=7)
    uts = build_fleet_terminals(spec)
    seeds = fleet_seeds(7, 1)
    fleet = FleetScheduler(Constellation(), uts, STARLINK_GATEWAYS,
                           seeds=seeds)
    oracle = SatelliteScheduler(Constellation(), uts[0],
                                STARLINK_GATEWAYS, seed=seeds[0])
    for slot in range(40):
        t = slot * SLOT_DURATION
        assert fleet.snapshot_at(0, t) == oracle.snapshot(t)


def test_prefilter_is_a_superset_of_visibility():
    """Every satellite the exact pass keeps survives the prefilter."""
    spec = FleetSpec(terminals=6, lat_bands=((30.0, 58.0),), seed=11)
    uts = build_fleet_terminals(spec)
    const = Constellation()
    fleet = FleetScheduler(const, uts, STARLINK_GATEWAYS, seed=11)
    for slot in (0, 3, 17):
        t = slot * SLOT_DURATION
        positions = const.positions(t)
        sat_units = positions * fleet._inv_radii[:, None]
        cos_angles = fleet._ut_units @ sat_units.T
        keep = cos_angles >= fleet._thresholds(
            const.min_elevation_deg)[:, None]
        for i, ut in enumerate(uts):
            visible, _, _ = const.visible_from(ut.ecef(), t)
            kept = set(np.nonzero(keep[i])[0].tolist())
            assert set(visible.tolist()) <= kept
