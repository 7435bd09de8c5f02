"""Unit tests for the fleet scheduling layer and its caches."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.leo.access import StarlinkPathModel
from repro.leo.constellation import Constellation
from repro.leo.fleet import (
    FleetScheduler,
    FleetSpec,
    build_fleet_terminals,
    fleet_seeds,
)
from repro.leo.ground import STARLINK_GATEWAYS, default_terminal
from repro.leo.scheduling import SLOT_DURATION
from repro.rng import make_rng


def _fleet(terminals=4, seed=0, **kwargs):
    spec = FleetSpec(terminals=terminals, seed=seed)
    uts = build_fleet_terminals(spec)
    return FleetScheduler(Constellation(), uts, STARLINK_GATEWAYS,
                          seed=seed, **kwargs)


# -- placement ---------------------------------------------------------


def test_fleet_spec_validation():
    with pytest.raises(ConfigurationError):
        FleetSpec(terminals=0)
    with pytest.raises(ConfigurationError):
        FleetSpec(terminals=2, lat_bands=())
    with pytest.raises(ConfigurationError):
        FleetSpec(terminals=2, lat_bands=((55.0, 50.0),))
    with pytest.raises(ConfigurationError):
        FleetSpec(terminals=2, lon_range=(7.0, 2.0))


def test_placement_is_deterministic_and_prefix_stable():
    small = build_fleet_terminals(FleetSpec(terminals=4, seed=3))
    again = build_fleet_terminals(FleetSpec(terminals=4, seed=3))
    grown = build_fleet_terminals(FleetSpec(terminals=9, seed=3))
    assert small == again
    # Growing the fleet never moves an existing terminal.
    assert grown[:4] == small


def test_placement_round_robins_bands():
    bands = ((40.0, 42.0), (50.0, 52.0))
    uts = build_fleet_terminals(
        FleetSpec(terminals=4, lat_bands=bands))
    for i, ut in enumerate(uts):
        lo, hi = bands[i % 2]
        assert lo <= ut.location.lat_deg <= hi


def test_fleet_seeds_are_distinct():
    seeds = fleet_seeds(0, 32)
    assert len(set(seeds)) == 32


def test_fleet_constructor_validation():
    uts = build_fleet_terminals(FleetSpec(terminals=2))
    with pytest.raises(ConfigurationError):
        FleetScheduler(Constellation(), [], STARLINK_GATEWAYS)
    with pytest.raises(ConfigurationError):
        FleetScheduler(Constellation(), uts, [])
    with pytest.raises(ConfigurationError):
        FleetScheduler(Constellation(), uts, STARLINK_GATEWAYS,
                       seeds=[1])


# -- caches ------------------------------------------------------------


def test_slot_cache_is_bounded_lru():
    fleet = _fleet(terminals=2)
    fleet.slot_cache_slots = 8
    for slot in range(30):
        fleet.snapshot_at(0, slot * SLOT_DURATION)
    assert len(fleet._slot_cache) <= 8
    # Most-recent slots survive; ancient ones were evicted.
    assert 29 in fleet._slot_cache
    assert 0 not in fleet._slot_cache


def test_position_cache_lru_and_counters():
    const = Constellation(position_cache_size=4)
    for k in range(6):
        const.positions(k * SLOT_DURATION)
    assert len(const._position_cache) == 4
    assert const.position_cache_misses == 6
    before = const.position_cache_hits
    const.positions(5 * SLOT_DURATION)
    assert const.position_cache_hits == before + 1
    # Evicted time is recomputed (a miss), not served stale.
    const.positions(0.0)
    assert const.position_cache_misses == 7


def test_outage_injection_invalidates_cached_slots():
    """Outages derive a new scheduler; the cached slots of the old
    one stay valid for the old inputs."""
    fleet = _fleet(terminals=2)
    first = fleet.snapshot_at(0, 0.0)
    outaged = fleet.with_outages(outages=[(first.sat_index, 0, 1)])
    after = outaged.snapshot_at(0, 0.0)
    assert after.sat_index != first.sat_index
    assert fleet.snapshot_at(0, 0.0) is first
    assert outaged.constellation is fleet.constellation
    assert outaged.seeds == fleet.seeds


def test_outage_window_validation():
    fleet = _fleet(terminals=1)
    with pytest.raises(ConfigurationError):
        fleet.with_outages(outages=[(5, 3, 3)])
    with pytest.raises(ConfigurationError):
        fleet.with_outages(gateway_outages=[("nope", 0, 2)])
    with pytest.raises(ConfigurationError):
        fleet.with_outages(
            gateway_outages=[(STARLINK_GATEWAYS[0].name, 4, 2)])


def test_out_sets_match_linear_scan():
    fleet = _fleet(terminals=1).with_outages(
        outages=[(10, 2, 5), (11, 4, 6)],
        gateway_outages=[(STARLINK_GATEWAYS[0].name, 3, 4)])
    for slot in range(8):
        expected = frozenset(
            sat for sat, start, end in fleet.outages
            if start <= slot < end)
        assert fleet.out_sats_at(slot) == expected
    assert fleet.out_gateways_at(3) == frozenset({0})
    assert fleet.out_gateways_at(4) == frozenset()


# -- fleet-level queries ----------------------------------------------


def test_user_counts_and_capacity_share():
    fleet = _fleet(terminals=8)
    counts = fleet.user_counts(0.0)
    assert sum(counts.values()) == 8
    for i in range(8):
        snap = fleet.snapshot_at(i, 0.0)
        assert fleet.capacity_share(i, 0.0) == \
            1.0 / counts[snap.sat_index]


def test_snapshots_returns_one_entry_per_terminal():
    fleet = _fleet(terminals=5)
    snaps = fleet.snapshots(0.0)
    assert len(snaps) == 5
    assert all(s is not None for s in snaps)


# -- the per-terminal view: a path model on a fleet ------------------


def test_view_index_validation():
    fleet = _fleet(terminals=2)
    with pytest.raises(ConfigurationError):
        StarlinkPathModel(scheduler=fleet, index=2)


def test_view_delegates_to_fleet():
    fleet = _fleet(terminals=3)
    view = StarlinkPathModel(seed=fleet.seeds[1], scheduler=fleet,
                             index=1)
    assert view.terminal is fleet.terminals[1]
    assert view.constellation is fleet.constellation
    assert view.snapshot(0.0) == fleet.snapshot_at(1, 0.0)
    assert view.pop_name(0.0) == fleet.snapshot_at(1, 0.0).pop
    assert not view.mobility_armed


def test_path_model_with_injected_view_matches_classic():
    """A T=1 fleet behind StarlinkPathModel reproduces the classic
    single-dish model sample for sample."""
    terminal = default_terminal()
    seed = 5
    fleet = FleetScheduler(Constellation(), [terminal],
                           STARLINK_GATEWAYS, seeds=[seed])
    injected = StarlinkPathModel(seed=seed, scheduler=fleet)
    classic = StarlinkPathModel(terminal=terminal, seed=seed)
    assert injected.terminal is terminal
    rng_a = make_rng((seed, "probe"))
    rng_b = make_rng((seed, "probe"))
    for k in range(200):
        t = k * 7.5
        assert injected.idle_rtt(t, rng_a) == \
            classic.idle_rtt(t, rng_b)


def test_view_handover_times_match_scalar():
    from tests.leo.oracle import SatelliteScheduler

    terminal = default_terminal()
    fleet = FleetScheduler(Constellation(), [terminal],
                           STARLINK_GATEWAYS, seeds=[9])
    oracle = SatelliteScheduler(Constellation(), terminal,
                                STARLINK_GATEWAYS, seed=9)
    assert fleet.handover_times(0, 0.0, 600.0) == \
        oracle.handover_times(0.0, 600.0)
    assert fleet.handover_events(0, 0.0, 600.0) == \
        oracle.handover_events(0.0, 600.0)


def test_prefilter_counters_accumulate():
    fleet = _fleet(terminals=4)
    fleet.snapshot_at(0, 0.0)
    assert fleet.prefilter_total == 4 * fleet.constellation.size
    assert 0 < fleet.prefilter_kept < fleet.prefilter_total
