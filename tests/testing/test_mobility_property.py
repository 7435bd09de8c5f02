"""Property-based no-hang checks for the mobility product space.

Mobile-terminal mode widens the no-hang promise: under *any*
trajectory x obstruction x disruption composition every measurement
app terminates with a structured outcome and the engine drains to
idle — including the worst case of a full-sky obstruction in force
at t=0 (driving into a tunnel as the campaign starts).
"""

import pytest

from repro.apps.outcome import OUTCOME_STATUSES
from repro.apps.ping import ping
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.datasets import CampaignDatasets
from repro.disrupt.apply import apply_to_access, gateway_outage_slots
from repro.disrupt.scenarios import unregister_scenario
from repro.leo.access import StarlinkAccess
from repro.leo.geometry import GeoPoint
from repro.leo.mobility import FULL_SKY_MASK, ObstructionTrace
from repro.testing.scenarios import (
    random_disruption_schedule,
    random_obstruction_trace,
    random_trajectory,
    register_random_scenario,
)
from repro.units import days, minutes

BRUSSELS = GeoPoint(50.85, 4.35)
ANCHOR = "130.104.1.1"


def test_generators_are_deterministic_in_seed():
    for seed in range(30):
        a = random_trajectory(seed)
        b = random_trajectory(seed)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.position_at(100.0) == b.position_at(100.0)
        ta = random_obstruction_trace(seed)
        tb = random_obstruction_trace(seed)
        assert (ta is None) == (tb is None)
        if ta is not None:
            assert [ta.mask_at(k) for k in range(40)] \
                == [tb.mask_at(k) for k in range(40)]


def test_generators_cover_the_interesting_shapes():
    trajectories = [random_trajectory(s) for s in range(60)]
    assert any(t is None for t in trajectories)
    assert any(t is not None and t.is_stationary
               for t in trajectories)
    assert any(t is not None and not t.is_stationary
               for t in trajectories)
    traces = [random_obstruction_trace(s) for s in range(60)]
    assert any(t is None for t in traces)
    assert any(t is not None and t.obstructed_at_start
               for t in traces)


@pytest.mark.parametrize("seed", range(8))
def test_ping_terminates_under_any_mobility_composition(seed):
    schedule = random_disruption_schedule(seed, horizon_s=30.0)
    access = StarlinkAccess(
        seed=seed,
        trajectory=random_trajectory(seed),
        obstruction=random_obstruction_trace(seed),
        gateway_outages=gateway_outage_slots(schedule))
    access.add_remote_host("anchor", ANCHOR, BRUSSELS)
    access.finalize()
    apply_to_access(access, schedule)
    result = ping(access.client, ANCHOR, count=3)
    assert result.outcome.status in OUTCOME_STATUSES
    assert result.sent == 3
    assert not access.client._icmp_listeners
    access.sim.run_until_idle(max_events=500_000)


def test_ping_survives_full_sky_obstruction_at_t0():
    # Find a trace whose very first slot draws the full-sky mask —
    # the terminal starts the campaign under an overpass.
    trace = None
    for seed in range(300):
        candidate = ObstructionTrace(seed, profile="urban_canyon",
                                     obstructed_at_start=True)
        if candidate.mask_at(0) == FULL_SKY_MASK:
            trace = candidate
            break
    assert trace is not None, "no full-sky-at-slot-0 trace in 300 seeds"
    access = StarlinkAccess(seed=0, obstruction=trace)
    access.add_remote_host("anchor", ANCHOR, BRUSSELS)
    access.finalize()
    result = ping(access.client, ANCHOR, count=3)
    assert result.outcome.status in OUTCOME_STATUSES
    access.sim.run_until_idle(max_events=500_000)


def test_campaign_under_mobility_and_random_scenario_terminates():
    name = register_random_scenario(13, campaign_horizon_s=days(0.02))
    try:
        config = CampaignConfig(
            seed=13, scenario=name, ping_days=0.02,
            ping_interval_s=minutes(2), speedtest_epochs=1,
            speedtest_measure_s=0.5, speedtest_warmup_s=0.5,
            satcom_warmup_s=2.0, bulk_per_direction=1,
            bulk_bytes=500_000, messages_per_direction=1,
            messages_duration_s=1.5, web_sites=3,
            web_visits_per_site=1,
            trajectory="drive", speed_kmh=120.0,
            obstruction="urban_canyon", drive_duration_s=900.0)
        campaign = Campaign(config)
        data = campaign.run_all()
        statuses = [o.status for o in data.pings.outcomes.values()]
        statuses += [s.outcome.status for s in data.speedtests]
        statuses += [s.outcome.status for s in data.bulk]
        statuses += [s.outcome.status for s in data.messages]
        statuses += [s.outcome.status for s in data.visits]
        assert statuses
        assert all(s in OUTCOME_STATUSES for s in statuses)
        # The mobility analysis accepts whatever came out and its
        # attribution conserves the episode count.
        report = campaign.mobility_report(data)
        episodes = report.availability.episodes
        assert sum(report.cause_counts.values()) == len(episodes)
    finally:
        unregister_scenario(name)


def test_campaign_with_obstructed_start_completes():
    """Full-sky shadowing can cover the first slots of the campaign;
    the run must still complete with structured outcomes."""
    config = CampaignConfig(
        seed=29, ping_days=0.01, ping_interval_s=minutes(2),
        speedtest_epochs=1, speedtest_measure_s=0.5,
        speedtest_warmup_s=0.5, satcom_warmup_s=2.0,
        bulk_per_direction=1, bulk_bytes=500_000,
        messages_per_direction=1, messages_duration_s=1.5,
        web_sites=3, web_visits_per_site=1,
        trajectory="drive", speed_kmh=60.0,
        obstruction="urban_canyon", drive_duration_s=600.0)
    campaign = Campaign(config)
    data = campaign.run_all()
    assert isinstance(data, CampaignDatasets)
    for outcome in data.pings.outcomes.values():
        assert outcome.status in OUTCOME_STATUSES
