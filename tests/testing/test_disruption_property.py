"""Property-based no-hang checks for random disruption schedules.

The hardened measurement apps promise: under *any* valid disruption
schedule the run terminates, reports a structured outcome, and leaves
the engine drainable to idle. These tests draw random schedules (via
:mod:`repro.testing.scenarios`) instead of spot-checking the five
named scenarios.
"""

import pytest

from repro.apps.outcome import OUTCOME_STATUSES
from repro.apps.ping import ping
from repro.core.availability import analyze_availability
from repro.core.campaign import Campaign, CampaignConfig
from repro.disrupt.apply import apply_to_access, gateway_outage_slots
from repro.disrupt.scenarios import unregister_scenario
from repro.disrupt.schedule import DisruptionSchedule
from repro.leo.access import StarlinkAccess
from repro.leo.geometry import GeoPoint
from repro.testing.scenarios import (
    random_disruption_schedule,
    random_disruption_windows,
    register_random_scenario,
)
from repro.units import days, minutes

BRUSSELS = GeoPoint(50.85, 4.35)
ANCHOR = "130.104.1.1"


def test_generated_windows_are_always_valid():
    # DisruptionWindow validates in __post_init__, so merely drawing
    # many schedules proves the generator only emits valid windows.
    for seed in range(50):
        windows = random_disruption_windows(seed, horizon_s=60.0)
        schedule = DisruptionSchedule(name=f"random-{seed}",
                                      windows=windows)
        for w in windows:
            assert w.end_t > w.start_t
            assert schedule.capacity_factor(w.start_t) > 0.0


def test_generator_is_deterministic_in_seed():
    a = random_disruption_windows(11, horizon_s=60.0)
    b = random_disruption_windows(11, horizon_s=60.0)
    assert a == b
    assert a != random_disruption_windows(12, horizon_s=60.0)


@pytest.mark.parametrize("seed", range(6))
def test_ping_terminates_under_any_random_schedule(seed):
    schedule = random_disruption_schedule(seed, horizon_s=30.0,
                                          max_windows=4)
    access = StarlinkAccess(
        seed=seed, gateway_outages=gateway_outage_slots(schedule))
    access.add_remote_host("anchor", ANCHOR, BRUSSELS)
    access.finalize()
    apply_to_access(access, schedule)
    result = ping(access.client, ANCHOR, count=3)
    assert result.outcome.status in OUTCOME_STATUSES
    assert result.sent == 3
    # No leaked listener, and the engine drains (bounded): the no-hang
    # invariant at the packet level.
    assert not access.client._icmp_listeners
    access.sim.run_until_idle(max_events=500_000)


def test_campaign_under_random_scenario_terminates():
    name = register_random_scenario(7, campaign_horizon_s=days(0.5))
    try:
        config = CampaignConfig(
            seed=0, scenario=name, ping_days=0.5,
            ping_interval_s=minutes(120), speedtest_epochs=1,
            speedtest_measure_s=0.5, speedtest_warmup_s=0.5,
            satcom_warmup_s=2.0, bulk_per_direction=1,
            bulk_bytes=500_000, messages_per_direction=1,
            messages_duration_s=1.5, web_sites=3,
            web_visits_per_site=1)
        data = Campaign(config).run_all()
        statuses = [o.status for o in data.pings.outcomes.values()]
        statuses += [s.outcome.status for s in data.speedtests]
        statuses += [s.outcome.status for s in data.bulk]
        statuses += [s.outcome.status for s in data.messages]
        statuses += [s.outcome.status for s in data.visits]
        assert statuses
        assert all(s in OUTCOME_STATUSES for s in statuses)
        # The availability analysis must accept whatever came out.
        report = analyze_availability(data, scenario=name)
        assert 0.0 <= report.availability_pct <= 100.0
    finally:
        unregister_scenario(name)
