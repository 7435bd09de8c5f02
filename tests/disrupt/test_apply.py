"""Tests for installing disruption schedules into access networks."""

import pytest

from repro.apps.ping import ping
from repro.disrupt.apply import (
    ScheduledExtraLoss,
    apply_to_access,
    apply_to_scheduler,
    gateway_outage_slots,
)
from repro.disrupt.schedule import DisruptionSchedule, DisruptionWindow
from repro.errors import ConfigurationError
from repro.leo.access import StarlinkAccess
from repro.leo.geometry import GeoPoint
from repro.netsim.loss import CompositeLoss
from repro.rng import make_rng

BRUSSELS = GeoPoint(50.85, 4.35)
ANCHOR = "130.104.1.1"


def _access(seed=0, schedule=None):
    access = StarlinkAccess(seed=seed)
    access.add_remote_host("anchor", ANCHOR, BRUSSELS)
    access.finalize()
    if schedule is not None:
        apply_to_access(access, schedule)
    return access


def test_empty_schedule_is_a_noop():
    access = StarlinkAccess(seed=1)
    loss_up = access.space_link.pipe_ab.loss
    loss_down = access.space_link.pipe_ba.loss
    apply_to_access(access, DisruptionSchedule(name="nothing"))
    assert access.channel.downlink.attenuation is None
    assert access.channel.uplink.attenuation is None
    assert access.space_link.pipe_ab.loss is loss_up
    assert access.space_link.pipe_ba.loss is loss_down


def test_fade_attenuates_capacity_inside_window_only():
    schedule = DisruptionSchedule("fade", (
        DisruptionWindow("fade", 10.0, 20.0, severity=0.5),))
    clear = StarlinkAccess(seed=2)
    faded = StarlinkAccess(seed=2)
    apply_to_access(faded, schedule)
    assert faded.channel.downlink.attenuation is not None
    # The capacity process is a pure function of t, so the attenuated
    # rate is exactly the clear-sky rate times the window factor.
    assert faded.channel.downlink.rate_at(15.0) == pytest.approx(
        0.5 * clear.channel.downlink.rate_at(15.0))
    assert faded.channel.downlink.rate_at(5.0) == pytest.approx(
        clear.channel.downlink.rate_at(5.0))


def test_scheduled_extra_loss_touches_no_rng_when_clear():
    schedule = DisruptionSchedule("fade", (
        DisruptionWindow("fade", 0.0, 10.0, severity=1.0),))
    rng = make_rng(("extra-loss-test", 0))
    extra = ScheduledExtraLoss(schedule, rng)
    state = rng.getstate()
    assert not extra.is_lost(20.0)
    assert rng.getstate() == state  # no draw outside the window
    lost = sum(extra.is_lost(5.0) for _ in range(2000))
    assert 0.25 < lost / 2000 < 0.35  # FADE_LOSS_COEFF * severity


def test_link_blackout_drops_pings_then_recovers():
    schedule = DisruptionSchedule("out", (
        DisruptionWindow("blackout", 0.0, 30.0),))
    access = _access(seed=3, schedule=schedule)
    assert isinstance(access.space_link.pipe_ab.loss, CompositeLoss)
    during = ping(access.client, ANCHOR, count=3)
    assert during.outcome.status == "unreachable"
    assert during.received == 0
    access.sim.run(until=35.0)
    after = ping(access.client, ANCHOR, count=3)
    assert after.outcome.status == "ok"
    assert after.received == 3


def test_route_blackout_blackholes_the_pop_then_restores():
    schedule = DisruptionSchedule("maint", (
        DisruptionWindow("blackout", 0.0, 30.0, target="route"),))
    access = _access(seed=4, schedule=schedule)
    pop = access.net.node("pop")
    assert pop.blackholed  # start_t <= now: withdrawn immediately
    during = ping(access.client, ANCHOR, count=3)
    assert during.outcome.status == "unreachable"
    assert pop.blackhole_drops > 0
    access.sim.run(until=31.0)  # restore event fires at t=30
    assert not pop.blackholed
    after = ping(access.client, ANCHOR, count=3)
    assert after.outcome.status == "ok"


def test_gateway_outage_replans_the_exit_gateway():
    access = StarlinkAccess(seed=5)
    scheduler = access.path_model.scheduler
    in_force = scheduler.snapshot_at(0, 100.0).gateway.name
    schedule = DisruptionSchedule("maint", (
        DisruptionWindow("gateway_out", 90.0, 120.0, target=in_force),))
    scheduler = apply_to_scheduler(scheduler, schedule)
    assert scheduler.snapshot_at(0, 100.0).gateway.name != in_force


def test_apply_to_scheduler_without_gateway_windows_is_identity():
    scheduler = StarlinkAccess(seed=5).path_model.scheduler
    fade = DisruptionSchedule("fade", (
        DisruptionWindow("fade", 0.0, 10.0, severity=0.5),))
    assert apply_to_scheduler(scheduler, fade) is scheduler


def test_access_takes_gateway_windows_at_construction():
    gateway = StarlinkAccess(seed=5).path_model.snapshot(100.0).gateway
    schedule = DisruptionSchedule("maint", (
        DisruptionWindow("gateway_out", 90.0, 120.0,
                         target=gateway.name),))
    assert gateway_outage_slots(schedule) == ((gateway.name, 6, 8),)
    access = StarlinkAccess(
        seed=5, gateway_outages=gateway_outage_slots(schedule))
    apply_to_access(access, schedule)
    assert access.path_model.snapshot(100.0).gateway != gateway


def test_apply_to_access_rejects_gateway_windows_it_cannot_install():
    schedule = DisruptionSchedule("maint", (
        DisruptionWindow("gateway_out", 90.0, 120.0,
                         target="gw-gravelines-fr"),))
    with pytest.raises(ConfigurationError, match="gateway_outages"):
        apply_to_access(StarlinkAccess(seed=5), schedule)
