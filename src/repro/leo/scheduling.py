"""Serving-satellite selection primitives and handover records.

Starlink reallocates the serving satellite on a fixed 15-second cycle.
Within a slot the dish tracks one satellite, so path length (and hence
the latency floor) is piecewise-continuous with small jumps at slot
boundaries -- the jitter visible in the paper's idle-latency
distributions.

Selection is randomised among the best candidates rather than purely
greedy: the real scheduler balances load across cells, which shows up
to a single user as *not always* getting the highest-elevation
satellite. Randomness is seeded per slot, so a snapshot for a given
time is reproducible no matter the query order.

The scheduler itself is :class:`repro.leo.fleet.FleetScheduler` (the
single dish is a fleet of one); this module holds the slot grid, the
per-slot path record and the gateway-selection and outage-index
helpers it is built from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.leo.ground import GroundStation
from repro.units import SPEED_OF_LIGHT

#: Reallocation period of the Starlink scheduler, seconds.
SLOT_DURATION = 15.0

#: Gateways track satellites down to lower elevations than dishes.
GATEWAY_MIN_ELEVATION_DEG = 10.0

#: Refuse to materialise an outage interval index covering more slots
#: than this (a pathological years-long window would allocate a dict
#: entry per slot); membership falls back to the linear window scan.
MAX_INDEXED_OUTAGE_SLOTS = 250_000

_NO_OUTAGES: frozenset[int] = frozenset()


def build_outage_index(windows: list[tuple[int, int, int]]
                       ) -> dict[int, frozenset[int]] | None:
    """Interval index ``slot -> frozenset(out identifiers)``.

    ``windows`` holds ``(identifier, start_slot, end_slot)`` triples.
    Candidate selection probes outage membership once per candidate
    per slot; the index turns the per-probe linear window scan into a
    dict lookup. Returns ``None`` when the windows span more than
    :data:`MAX_INDEXED_OUTAGE_SLOTS` slots (callers keep the scan).
    """
    total = sum(end - start for _, start, end in windows)
    if total > MAX_INDEXED_OUTAGE_SLOTS:
        return None
    accum: dict[int, set[int]] = {}
    for ident, start, end in windows:
        for slot in range(start, end):
            accum.setdefault(slot, set()).add(ident)
    return {slot: frozenset(out) for slot, out in accum.items()}


def gateway_geometry(gw_ecef: np.ndarray, gw_ups: list[np.ndarray],
                     sat_pos: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Per-gateway ``(elevations_deg, ranges_m)`` of one satellite.

    A fused scalar kernel: each line of sight is formed once and its
    norm is both the range and the elevation's divisor. Bit-identical
    to per-gateway :func:`~repro.leo.geometry.elevation_angle` +
    :func:`~repro.leo.geometry.slant_range`: the same scalar 1-D ops
    in the same order, the sine clamped by two comparisons. Do not
    vectorise across gateways: these floats feed digest-pinned
    :class:`PathSnapshot` fields, and the broadcast BLAS kernels round
    differently from the scalar ones. The fleet layer memoizes this
    function per (slot, satellite) across terminals.
    """
    n = len(gw_ecef)
    elevations = np.empty(n)
    ranges = np.empty(n)
    for i in range(n):
        los = sat_pos - gw_ecef[i]
        rng = np.sqrt(los.dot(los))
        sin_el = np.dot(los, gw_ups[i]) / rng
        if sin_el > 1.0:
            sin_el = 1.0
        elif sin_el < -1.0:
            sin_el = -1.0
        elevations[i] = np.degrees(np.arcsin(sin_el))
        ranges[i] = rng
    return elevations, ranges


def select_gateway(elevations: np.ndarray, ranges: np.ndarray,
                   out: frozenset[int] = _NO_OUTAGES
                   ) -> tuple[int, float] | None:
    """Closest in-service gateway given per-gateway geometry.

    ``out`` names gateway indices out of service for the slot under
    consideration. Returns ``(gateway_index, range_m)`` or ``None``
    when no usable gateway sees the satellite.
    """
    usable = np.nonzero(elevations >= GATEWAY_MIN_ELEVATION_DEG)[0]
    if out:
        usable = np.array([i for i in usable if int(i) not in out],
                          dtype=int)
    if usable.size == 0:
        return None
    best = int(usable[np.argmin(ranges[usable])])
    return best, float(ranges[best])


#: Change kinds a slot boundary can carry: the serving satellite, the
#: landing gateway, the exit PoP (each causes a latency step), and
#: ``service`` for servable <-> unservable transitions.
HANDOVER_KINDS = ("satellite", "gateway", "pop", "service")


@dataclass(frozen=True)
class HandoverEvent:
    """One slot boundary where the serving path changed.

    ``kinds`` names every change the boundary carries — a satellite
    switch usually moves the gateway too, and either can move the
    exit PoP. A ``service`` kind marks a transition into or out of an
    unservable slot (no visible satellite/gateway pair, e.g. under a
    full-sky obstruction).
    """

    t: float
    kinds: frozenset[str]


@dataclass(frozen=True)
class PathSnapshot:
    """The bent-pipe path in force during one scheduler slot."""

    slot: int
    sat_index: int
    gateway: GroundStation
    ut_range_m: float
    gw_range_m: float
    elevation_deg: float

    @property
    def one_way_propagation(self) -> float:
        """UT -> satellite -> gateway radio propagation, seconds."""
        return (self.ut_range_m + self.gw_range_m) / SPEED_OF_LIGHT

    @property
    def pop(self) -> str:
        """Name of the PoP this path exits at."""
        return self.gateway.pop
