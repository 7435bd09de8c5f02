"""Reference oracle: the scalar single-terminal scheduler.

This is the original per-terminal serving-satellite selection, one
terminal and one slot at a time, kept as the reference that the
production :class:`repro.leo.fleet.FleetScheduler` is compared
against (``tests/leo/test_fleet_differential.py`` and
``scripts/fleet_smoke.py``). It is deliberately plain: every query
re-derives visibility over the whole constellation with
:meth:`Constellation.visible_from` (no prefilter), gateway geometry is
recomputed per candidate (no memo), outage membership is a linear
scan over the windows (no interval index) and terminal positions are
evaluated per slot (no position cache). Its inputs — trajectory,
obstruction, satellite and gateway outages — are fixed at
construction, like the scheduler it checks.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.leo.constellation import Constellation
from repro.leo.geometry import azimuth_angle, unit_up
from repro.leo.ground import GroundStation, UserTerminal
from repro.leo.scheduling import (
    SLOT_DURATION,
    HandoverEvent,
    PathSnapshot,
    gateway_geometry,
    select_gateway,
)
from repro.rng import make_rng


class SatelliteScheduler:
    """Chooses the serving satellite and gateway per 15 s slot."""

    def __init__(self, constellation: Constellation,
                 terminal: UserTerminal,
                 gateways: list[GroundStation],
                 seed: int = 0,
                 candidate_pool: int = 4,
                 trajectory=None,
                 obstruction=None,
                 outages=(),
                 gateway_outages=()):
        if not gateways:
            raise ConfigurationError("at least one gateway is required")
        self.constellation = constellation
        self.terminal = terminal
        self.gateways = list(gateways)
        self.seed = seed
        self.candidate_pool = candidate_pool
        self.trajectory = trajectory
        self.obstruction = obstruction
        self._mobile = (trajectory is not None
                        and not trajectory.is_stationary)
        self._ut_ecef = (trajectory.position_at(0.0).to_ecef()
                         if trajectory is not None and not self._mobile
                         else terminal.ecef())
        self._ut_up = unit_up(self._ut_ecef)
        self._gw_ecef = np.array([gw.ecef() for gw in self.gateways])
        self._gw_ups = [unit_up(gw) for gw in self._gw_ecef]
        names = [gw.name for gw in self.gateways]
        #: Satellite outages: (sat_index, start_slot, end_slot).
        self._outages = [(sat, start, end)
                         for sat, start, end in outages]
        #: Gateway outages: (gw_index, start_slot, end_slot).
        self._gateway_outages = [(names.index(name), start, end)
                                 for name, start, end in gateway_outages]
        self._cache: dict[int, PathSnapshot | ConfigurationError] = {}

    def _terminal_state(self, slot: int):
        if not self._mobile:
            return self._ut_ecef, self._ut_up
        ecef = self.trajectory.position_at(slot * SLOT_DURATION).to_ecef()
        return ecef, unit_up(ecef)

    def slot_of(self, t: float) -> int:
        """Scheduler slot index containing time ``t``."""
        return int(t // SLOT_DURATION)

    def snapshot(self, t: float) -> PathSnapshot:
        """The path in force at time ``t``; unservable slots raise
        :class:`ConfigurationError` (cached like snapshots)."""
        slot = self.slot_of(t)
        cached = self._cache.get(slot)
        if cached is None:
            try:
                cached = self._compute_slot(slot)
            except ConfigurationError as exc:
                cached = exc
            self._cache[slot] = cached
        if isinstance(cached, ConfigurationError):
            raise cached
        return cached

    def out_sats_at(self, slot: int) -> frozenset[int]:
        """Satellite indices out of service during ``slot``."""
        return frozenset(sat for sat, start, end in self._outages
                         if start <= slot < end)

    def out_gateways_at(self, slot: int) -> frozenset[int]:
        """Gateway indices out of service during ``slot``."""
        return frozenset(gw for gw, start, end in self._gateway_outages
                         if start <= slot < end)

    def _compute_slot(self, slot: int) -> PathSnapshot:
        t = slot * SLOT_DURATION
        ut_ecef, ut_up = self._terminal_state(slot)
        mask = (self.obstruction.mask_at(slot)
                if self.obstruction is not None else None)
        if mask is not None and mask.full_sky:
            raise ConfigurationError(
                f"sky fully obstructed at {self.terminal.name} at "
                f"t={t} (overpass/tunnel slot)")
        indices, elevations, ranges = self.constellation.visible_from(
            ut_ecef, t, up=ut_up)
        if indices.size == 0:
            raise ConfigurationError(
                f"no satellite visible from {self.terminal.name} at t={t}; "
                "constellation too sparse for this latitude")
        positions = self.constellation.positions(t)
        out_sats = self.out_sats_at(slot)
        out_gws = self.out_gateways_at(slot)
        candidates = []
        for idx, elev, rng_m in zip(indices, elevations, ranges):
            if int(idx) in out_sats:
                continue
            if mask is not None and mask.blocks(
                    azimuth_angle(ut_ecef, positions[idx], up=ut_up),
                    float(elev)):
                continue
            gw_choice = select_gateway(
                *gateway_geometry(self._gw_ecef, self._gw_ups,
                                  positions[idx]),
                out_gws)
            if gw_choice is None:
                continue
            gw_pos_idx, gw_range = gw_choice
            candidates.append((int(idx), float(elev), float(rng_m),
                               gw_pos_idx, gw_range))
            if len(candidates) >= self.candidate_pool:
                break
        if not candidates:
            if mask is not None:
                raise ConfigurationError(
                    f"all visible satellites obstructed at t={t}")
            raise ConfigurationError(
                f"no visible satellite sees a gateway at t={t}")
        rng = make_rng((self.seed, slot))
        sat_idx, elev, ut_range, gw_idx, gw_range = rng.choice(candidates)
        return PathSnapshot(
            slot=slot, sat_index=sat_idx, gateway=self.gateways[gw_idx],
            ut_range_m=ut_range, gw_range_m=gw_range, elevation_deg=elev)

    def handover_events(self, start: float,
                        end: float) -> list[HandoverEvent]:
        """Every path-change boundary in ``[start, end)`` with kinds."""
        def state_at(t: float):
            try:
                snap = self.snapshot(t)
            except ConfigurationError:
                return None
            return (snap.sat_index, snap.gateway.name, snap.pop)

        events: list[HandoverEvent] = []
        previous = state_at(start)
        slot = self.slot_of(start) + 1
        while slot * SLOT_DURATION < end:
            t = slot * SLOT_DURATION
            current = state_at(t)
            if current != previous:
                kinds = set()
                if (current is None) != (previous is None):
                    kinds.add("service")
                if current is not None and previous is not None:
                    for kind, a, b in zip(
                            ("satellite", "gateway", "pop"),
                            current, previous):
                        if a != b:
                            kinds.add(kind)
                events.append(HandoverEvent(t=t, kinds=frozenset(kinds)))
                previous = current
            slot += 1
        return events

    def handover_times(self, start: float, end: float) -> list[float]:
        """Slot boundaries where the serving path changes."""
        return [event.t for event in self.handover_events(start, end)]
