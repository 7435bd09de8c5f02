"""Installers: wire a disruption schedule into a simulated network.

Two installation targets:

* :func:`apply_to_access` — a packet-level
  :class:`~repro.leo.access.StarlinkAccess`: fades attach capacity
  attenuation and extra medium loss, blackouts compose an outage
  window onto the space link and route blackouts schedule a
  withdraw/restore pair on the exit PoP. Gateway windows are
  scheduler inputs, so they enter at construction:
  ``StarlinkAccess(gateway_outages=gateway_outage_slots(schedule))``.
* :func:`apply_to_scheduler` — the shared analytic scheduler behind
  the five-month ping series (gateway outages change which PoP the
  path exits at, which the latency series must reflect). Schedulers
  are immutable; this returns a new one.

Installation with an empty schedule is a no-op by construction: no
hook is attached, no loss model wrapped, no event scheduled and no
RNG stream consumed, so ``clear_sky`` runs stay bit-identical to a
scenario-less build.
"""

from __future__ import annotations

import math
import random

from repro.disrupt.schedule import DisruptionSchedule
from repro.errors import ConfigurationError
from repro.leo.scheduling import SLOT_DURATION
from repro.netsim.loss import CompositeLoss, OutageSchedule
from repro.rng import make_rng


class ScheduledExtraLoss:
    """Time-varying Bernoulli medium loss driven by a schedule.

    During active fade windows every packet is additionally lost with
    :meth:`DisruptionSchedule.extra_loss_prob`; outside them the model
    draws nothing, so the composed chain's RNG streams stay untouched
    whenever the weather is clear.
    """

    def __init__(self, schedule: DisruptionSchedule,
                 rng: random.Random):
        self.schedule = schedule
        self._rng = rng

    def is_lost(self, now: float) -> bool:
        p = self.schedule.extra_loss_prob(now)
        if p <= 0.0:
            return False
        return self._rng.random() < p


def _slot_span(start_t: float, end_t: float) -> tuple[int, int]:
    """Slot window [first, last) fully covering ``[start_t, end_t)``."""
    first = int(start_t // SLOT_DURATION)
    last = int(math.ceil(end_t / SLOT_DURATION))
    return first, max(last, first + 1)


def gateway_outage_slots(schedule: DisruptionSchedule
                         ) -> tuple[tuple[str, int, int], ...]:
    """``(gateway_name, first_slot, last_slot)`` scheduler windows of
    the schedule's gateway maintenance windows."""
    return tuple((gateway, *_slot_span(start_t, end_t))
                 for gateway, start_t, end_t in schedule.gateway_outages())


def apply_to_scheduler(scheduler, schedule: DisruptionSchedule):
    """``scheduler`` with the schedule's gateway maintenance windows
    (the scheduler itself when there are none)."""
    windows = gateway_outage_slots(schedule)
    if not windows:
        return scheduler
    return scheduler.with_outages(gateway_outages=windows)


def apply_to_access(access, schedule: DisruptionSchedule) -> None:
    """Install every effect of ``schedule`` into a StarlinkAccess.

    Must be called after construction and before the experiment
    starts driving the simulator. A no-op for empty schedules. The
    access must have been built with the schedule's gateway windows
    (:func:`gateway_outage_slots`); a missing one raises
    :class:`~repro.errors.ConfigurationError` rather than being
    silently dropped.
    """
    if schedule.is_empty:
        return
    missing = (set(gateway_outage_slots(schedule))
               - set(access.path_model.scheduler.gateway_outages))
    if missing:
        raise ConfigurationError(
            f"gateway outages {sorted(missing)} are not in the access's "
            "scheduler; build the access with "
            "gateway_outages=gateway_outage_slots(schedule)")

    # Capacity: fades and surges shrink the granted rate.
    if schedule.has_capacity_effects():
        access.channel.downlink.attenuation = schedule.capacity_factor
        access.channel.uplink.attenuation = schedule.capacity_factor

    # Medium loss: fades push the modem past its coding margin.
    if schedule.has_fades():
        for direction, pipe in (("up", access.space_link.pipe_ab),
                                ("down", access.space_link.pipe_ba)):
            extra = ScheduledExtraLoss(
                schedule,
                make_rng((access.seed, "disrupt-fade", direction)))
            pipe.loss = CompositeLoss([pipe.loss, extra])

    # Space-link blackouts: total loss during the window.
    blackouts = schedule.link_blackouts()
    if blackouts:
        for pipe in (access.space_link.pipe_ab,
                     access.space_link.pipe_ba):
            pipe.loss = CompositeLoss(
                [pipe.loss, OutageSchedule(blackouts)])

    # Exit-PoP route withdrawal: the pop blackholes everything during
    # the window (silent drops, as during route-convergence gaps).
    route_windows = schedule.route_blackouts()
    if route_windows:
        pop = access.net.node("pop")
        sim = access.sim
        for start_t, end_t in route_windows:
            if start_t > sim.now:
                sim.at(start_t, pop.withdraw_routes)
            else:
                pop.withdraw_routes()
            sim.at(end_t, pop.restore_routes)
