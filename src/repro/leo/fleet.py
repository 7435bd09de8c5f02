"""Serving-satellite selection for a fleet of terminals.

Starlink reallocates the serving satellite and gateway on a fixed
15-second cycle (:data:`~repro.leo.scheduling.SLOT_DURATION`); the
path length, and with it the latency floor, steps at slot boundaries.
:class:`FleetScheduler` is the one scheduler that decides those
paths. The paper's single dish is a fleet of one terminal; the
multi-vantage campaign mode runs thousands on the *same*
constellation.

Every input is fixed at construction: terminals and their seeds,
each terminal's trajectory and obstruction trace, satellite outages
and gateway outages. A cached slot therefore can never go stale, and
fault injection or a disruption scenario derives a new scheduler with
:meth:`FleetScheduler.with_outages` instead of mutating a live one.

A whole slot is computed for all T terminals in one batched pass,
bit-identical per terminal to the plain scalar selection kept as the
reference oracle in ``tests/leo/oracle.py`` (pinned by
``tests/leo/test_fleet_differential.py`` and the ``fleet-smoke`` CI
digest gate). Only steps whose floats cannot move are vectorised:

* One conservative **prefilter** per slot: a single (T, 3) x (3, N)
  matmul of unit vectors bounds the central angle between every
  satellite and every terminal. Satellites that cannot possibly clear
  ``min_elevation_deg - prefilter_margin_deg`` are dropped *before*
  any exact math runs. The bound is analytic (spherical geometry,
  widest shell) with a 10-degree elevation margin and an epsilon of
  cosine slack, so the surviving set is a strict superset of the
  visible set.
* Exact per-terminal geometry on the surviving subset with the *same*
  vectorised kernels as :meth:`Constellation.visible_from`: numpy
  row-subset elementwise ops, ``@`` with a fixed unit vector and
  ``norm(axis=1)`` produce bit-identical floats on a subset of rows.
  (A broadcast (T, N) formulation would *not*: scalar BLAS dot/norm
  round through FMA contractions that numpy's broadcast kernels
  don't reproduce.)
* Per-satellite **gateway geometry memoised once per slot** and
  shared by every terminal: it relates satellites to gateways, never
  to terminal positions, so the scalar-op cost is paid once per
  distinct satellite actually considered.

Selection itself stays per terminal: the descending-elevation
candidate walk (skipping out-of-service satellites, sky sectors the
terminal's obstruction mask blocks, and satellites no in-service
gateway sees), the ``candidate_pool`` cutoff and the
``make_rng((seed, slot)).choice(...)`` draw, so every digest derived
from the snapshots is unchanged.

A moving terminal's position is evaluated at the start of each slot;
it feeds both the exact geometry and that terminal's prefilter row.
A stationary trajectory collapses to its position at ``t = 0``, the
same floats as a fixed :class:`~repro.leo.ground.UserTerminal` there.

Fleet placement (:class:`FleetSpec`) assigns terminals to latitude
bands round-robin with per-terminal seeded jitter, which is how the
multi-vantage campaign mode spreads its dishes.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.leo.constellation import Constellation
from repro.leo.geometry import (
    GeoPoint,
    azimuth_angle,
    elevation_and_range,
    unit_up,
)
from repro.leo.ground import GroundStation, UserTerminal
from repro.leo.scheduling import (
    SLOT_DURATION,
    HandoverEvent,
    PathSnapshot,
    _NO_OUTAGES,
    build_outage_index,
    gateway_geometry,
    select_gateway,
)
from repro.rng import make_rng, stable_seed

__all__ = [
    "FleetScheduler",
    "FleetSpec",
    "build_fleet_terminals",
    "fleet_seeds",
]


@dataclass(frozen=True)
class FleetSpec:
    """Seeded placement of a terminal fleet across latitude bands."""

    terminals: int
    #: (low, high) latitude bands, degrees; terminals are assigned
    #: round-robin so every band gets an even share.
    lat_bands: tuple[tuple[float, float], ...] = ((48.5, 52.5),)
    #: (low, high) longitude range shared by all bands, degrees.
    lon_range: tuple[float, float] = (2.0, 7.0)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.terminals < 1:
            raise ConfigurationError(
                f"FleetSpec.terminals must be >= 1, got {self.terminals}")
        if not self.lat_bands:
            raise ConfigurationError("FleetSpec.lat_bands is empty")
        for lo, hi in self.lat_bands:
            if not lo <= hi:
                raise ConfigurationError(
                    f"inverted latitude band ({lo}, {hi})")
        lo, hi = self.lon_range
        if not lo <= hi:
            raise ConfigurationError(
                f"inverted longitude range ({lo}, {hi})")


def build_fleet_terminals(spec: FleetSpec) -> list[UserTerminal]:
    """The spec's terminals, deterministically placed.

    Terminal ``i`` draws its site from the stream seeded
    ``(spec.seed, "fleet-site", i)``, so growing the fleet never
    moves an existing terminal.
    """
    terminals = []
    for i in range(spec.terminals):
        lo_lat, hi_lat = spec.lat_bands[i % len(spec.lat_bands)]
        lo_lon, hi_lon = spec.lon_range
        rng = make_rng((spec.seed, "fleet-site", i))
        lat = lo_lat + rng.random() * (hi_lat - lo_lat)
        lon = lo_lon + rng.random() * (hi_lon - lo_lon)
        terminals.append(
            UserTerminal(f"ut-fleet-{i:04d}", GeoPoint(lat, lon)))
    return terminals


def fleet_seeds(seed: int, n: int) -> list[int]:
    """Per-terminal scheduler seeds derived from a fleet seed."""
    return [stable_seed(seed, "fleet-terminal", i) for i in range(n)]


def _max_central_angle_deg(rg_m: float, rs_m: float,
                           elevation_deg: float) -> float:
    """Largest Earth-central angle at which a satellite on a circular
    orbit of radius ``rs_m`` can appear at or above ``elevation_deg``
    from a ground site at radius ``rg_m`` (spherical geometry)."""
    e = math.radians(elevation_deg)
    x = (rg_m / rs_m) * math.cos(e)
    if x >= 1.0:
        return 0.0
    psi = math.acos(x) - e
    return math.degrees(psi)


class FleetScheduler:
    """Per-slot serving satellite and gateway for T terminals.

    ``trajectories`` and ``obstructions`` hold one entry per terminal
    (``None``: fixed at the terminal's site / clear sky). ``outages``
    are ``(sat_index, start_slot, end_slot)`` windows and
    ``gateway_outages`` ``(gateway_name, start_slot, end_slot)``
    windows; both are fleet-wide, as a failed bird or a gateway in
    maintenance affects every dish at once. Unservable slots are
    reported as :class:`ConfigurationError`, with the same messages
    as the scalar oracle.
    """

    #: Whole slots (all T snapshots) the LRU retains. At least the
    #: 8,640 five-minute slots of a 30-day series, so several series
    #: sharing one scheduler revisit cached slots.
    slot_cache_slots = 10_000
    #: Elevation safety margin of the visibility prefilter, degrees.
    #: The analytic bound is exact on a sphere; the margin absorbs
    #: every rounding concern by many orders of magnitude. Shrinking
    #: it below ~1 degree is the only way to make the prefilter
    #: unsound; the differential suite pins the superset property.
    prefilter_margin_deg = 10.0

    def __init__(self, constellation: Constellation,
                 terminals: list[UserTerminal],
                 gateways: list[GroundStation],
                 seeds: list[int] | None = None,
                 seed: int = 0,
                 candidate_pool: int = 4,
                 trajectories=None,
                 obstructions=None,
                 outages=(),
                 gateway_outages=()):
        if not terminals:
            raise ConfigurationError(
                "a fleet needs at least one terminal")
        if not gateways:
            raise ConfigurationError("at least one gateway is required")
        n = len(terminals)
        for name, given in (("seeds", seeds),
                            ("trajectories", trajectories),
                            ("obstructions", obstructions)):
            if given is not None and len(given) != n:
                raise ConfigurationError(
                    f"got {len(given)} {name} for {n} terminals")
        self.constellation = constellation
        self.terminals = list(terminals)
        self.gateways = list(gateways)
        self.seeds = (list(seeds) if seeds is not None
                      else fleet_seeds(seed, n))
        self.candidate_pool = candidate_pool
        self.trajectories = (tuple(trajectories)
                             if trajectories is not None else (None,) * n)
        self.obstructions = (tuple(obstructions)
                             if obstructions is not None else (None,) * n)
        names = [gw.name for gw in self.gateways]
        self.outages = tuple(_window(w, "outage") for w in outages)
        self.gateway_outages = tuple(_window(w, "gateway outage")
                                     for w in gateway_outages)
        for name, _, _ in self.gateway_outages:
            if name not in names:
                raise ConfigurationError(
                    f"unknown gateway {name!r}; have {names}")
        self._gw_windows = [(names.index(name), start, end)
                            for name, start, end in self.gateway_outages]
        # Interval indices (slot -> frozenset of out identifiers);
        # None means "too large to materialise, scan instead".
        self._out_index = build_outage_index(list(self.outages))
        self._gw_out_index = build_outage_index(self._gw_windows)
        # Exact per-terminal ground state: 1-D ecef vectors and their
        # unit ups. A trajectory's t=0 position stands in for the
        # terminal's site; moving terminals re-evaluate it per slot.
        self._ut_ecef = [
            traj.position_at(0.0).to_ecef() if traj is not None
            else ut.ecef()
            for ut, traj in zip(self.terminals, self.trajectories)]
        self._ut_ups = [unit_up(g) for g in self._ut_ecef]
        self._mobile = tuple(
            i for i, traj in enumerate(self.trajectories)
            if traj is not None and not traj.is_stationary)
        self._gw_ecef = np.array([gw.ecef() for gw in self.gateways])
        self._gw_ups = [unit_up(gw) for gw in self._gw_ecef]
        # Prefilter state: unit directions as a (T, 3) matrix and the
        # per-terminal cosine thresholds (approximate math is fine
        # here; the threshold only has to be conservative). Row-major
        # so each terminal's keep row comes out contiguous.
        self._ut_units = np.ascontiguousarray(np.stack(self._ut_ups))
        self._inv_radii = 1.0 / self.constellation.orbit_radii()
        self._max_radius = float(self.constellation.orbit_radii().max())
        self._cos_thresh: np.ndarray | None = None
        self._thresh_min_el: float | None = None
        #: slot -> per-terminal entries (PathSnapshot, or the
        #: ConfigurationError explaining why the slot is unservable).
        self._slot_cache: OrderedDict[
            int, list[PathSnapshot | ConfigurationError]] = OrderedDict()
        #: Prefilter effectiveness counters (candidates kept / total
        #: satellite-terminal pairs examined); observability only.
        self.prefilter_kept = 0
        self.prefilter_total = 0

    def with_outages(self, outages=(), gateway_outages=()
                     ) -> "FleetScheduler":
        """A scheduler with these windows on top of this one's.

        Everything else is carried over and the constellation (with
        its position cache) is shared; this scheduler is untouched.
        """
        return FleetScheduler(
            self.constellation, self.terminals, self.gateways,
            seeds=self.seeds, candidate_pool=self.candidate_pool,
            trajectories=self.trajectories,
            obstructions=self.obstructions,
            outages=self.outages + tuple(outages),
            gateway_outages=self.gateway_outages + tuple(gateway_outages))

    # -- fleet shape --------------------------------------------------

    @property
    def size(self) -> int:
        """Number of terminals in the fleet."""
        return len(self.terminals)

    def slot_of(self, t: float) -> int:
        """Scheduler slot index containing time ``t``."""
        return int(t // SLOT_DURATION)

    def mobility_armed(self, index: int) -> bool:
        """Whether terminal ``index`` moves or has an obstruction
        trace, i.e. whether its slots can turn unservable."""
        return (index in self._mobile
                or self.obstructions[index] is not None)

    def out_sats_at(self, slot: int) -> frozenset[int]:
        """Satellite indices out of service during ``slot``."""
        if self._out_index is None:
            return frozenset(sat for sat, start, end in self.outages
                             if start <= slot < end)
        return self._out_index.get(slot, _NO_OUTAGES)

    def out_gateways_at(self, slot: int) -> frozenset[int]:
        """Gateway indices out of service during ``slot``."""
        if self._gw_out_index is None:
            return frozenset(gw for gw, start, end in self._gw_windows
                             if start <= slot < end)
        return self._gw_out_index.get(slot, _NO_OUTAGES)

    # -- queries ------------------------------------------------------

    def snapshot_at(self, index: int, t: float) -> PathSnapshot:
        """Terminal ``index``'s path in force at time ``t``.

        Raises :class:`ConfigurationError` when the slot is
        unservable for that terminal (sky fully obstructed, nothing
        visible, or no visible satellite sees an in-service gateway);
        the error is cached like a snapshot, so a drive-through outage
        costs one geometry pass per slot, not one per packet.
        """
        entry = self._slot_entries(self.slot_of(t))[index]
        if isinstance(entry, ConfigurationError):
            raise entry
        return entry

    def snapshots(self, t: float) -> list[PathSnapshot | None]:
        """All terminals' paths at ``t``; ``None`` where unservable."""
        return [entry if isinstance(entry, PathSnapshot) else None
                for entry in self._slot_entries(self.slot_of(t))]

    def user_counts(self, t: float) -> dict[int, int]:
        """Served terminals per satellite index during ``t``'s slot."""
        counts: dict[int, int] = {}
        for entry in self._slot_entries(self.slot_of(t)):
            if isinstance(entry, PathSnapshot):
                counts[entry.sat_index] = \
                    counts.get(entry.sat_index, 0) + 1
        return counts

    def capacity_share(self, index: int, t: float) -> float:
        """Terminal ``index``'s fair share of its serving satellite.

        ``1 / (terminals served by the same satellite this slot)`` —
        the oversubscription knob the campaign's fleet mode feeds into
        :class:`repro.leo.access.StarlinkAccess`'s ``capacity_share``.
        """
        snap = self.snapshot_at(index, t)
        return 1.0 / self.user_counts(t)[snap.sat_index]

    def handover_events(self, index: int, start: float,
                        end: float) -> list[HandoverEvent]:
        """Every path-change boundary of terminal ``index`` in
        ``[start, end)``, with the kinds of change it carries.

        Gateway and PoP switches under an unchanged satellite are
        reported too (they step the latency floor just like satellite
        handovers), and a transition into or out of an unservable
        slot is a ``service`` change.
        """
        def state_at(t: float):
            entry = self._slot_entries(self.slot_of(t))[index]
            if isinstance(entry, ConfigurationError):
                return None
            return (entry.sat_index, entry.gateway.name, entry.pop)

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
                elif current is not None:
                    for kind, now, before in zip(
                            ("satellite", "gateway", "pop"),
                            current, previous):
                        if now != before:
                            kinds.add(kind)
                events.append(HandoverEvent(t=t, kinds=frozenset(kinds)))
                previous = current
            slot += 1
        return events

    def handover_times(self, index: int, start: float,
                       end: float) -> list[float]:
        """Slot boundaries where terminal ``index``'s path changes
        (every kind: satellite, gateway, PoP, service)."""
        return [event.t
                for event in self.handover_events(index, start, end)]

    # -- the batched slot computation ---------------------------------

    def _slot_entries(self, slot: int
                      ) -> list[PathSnapshot | ConfigurationError]:
        entries = self._slot_cache.get(slot)
        if entries is None:
            entries = self._compute_slot(slot)
            self._slot_cache[slot] = entries
            while len(self._slot_cache) > self.slot_cache_slots:
                self._slot_cache.popitem(last=False)
        else:
            self._slot_cache.move_to_end(slot)
        return entries

    def _cos_threshold(self, ground: np.ndarray, min_el: float) -> float:
        """Prefilter cosine threshold of one ground position."""
        psi = _max_central_angle_deg(
            float(np.linalg.norm(ground)), self._max_radius,
            min_el - self.prefilter_margin_deg)
        # A hair of cosine slack on top of the 10-degree elevation
        # margin; cos is decreasing, so lower threshold == more
        # satellites kept.
        return math.cos(math.radians(min(psi, 180.0))) - 1e-9

    def _thresholds(self, min_el: float) -> np.ndarray:
        """Per-terminal prefilter cosine thresholds, recomputed only
        when the constellation's minimum elevation changes."""
        if self._cos_thresh is None or self._thresh_min_el != min_el:
            self._cos_thresh = np.array(
                [self._cos_threshold(g, min_el) for g in self._ut_ecef])
            self._thresh_min_el = min_el
        return self._cos_thresh

    def _compute_slot(self, slot: int
                      ) -> list[PathSnapshot | ConfigurationError]:
        t = slot * SLOT_DURATION
        positions = self.constellation.positions(t)
        min_el = self.constellation.min_elevation_deg
        grounds, ups = self._ut_ecef, self._ut_ups
        units, thresh = self._ut_units, self._thresholds(min_el)
        if self._mobile:
            # Moving terminals: this slot's position feeds both the
            # exact geometry and the terminal's prefilter row.
            grounds, ups = list(grounds), list(ups)
            units, thresh = units.copy(), thresh.copy()
            for i in self._mobile:
                ground = self.trajectories[i].position_at(t).to_ecef()
                grounds[i] = ground
                ups[i] = unit_up(ground)
                units[i] = ups[i]
                thresh[i] = self._cos_threshold(ground, min_el)
        # One (T, 3) x (3, N) pass bounds every satellite-terminal
        # central angle; exact math below runs on survivors only.
        sat_units = positions * self._inv_radii[:, None]
        keep = units @ sat_units.T >= thresh[:, None]
        self.prefilter_kept += int(np.count_nonzero(keep))
        self.prefilter_total += keep.size
        out_sats = (self.out_sats_at(slot) if self.outages
                    else _NO_OUTAGES)
        out_gws = (self.out_gateways_at(slot)
                   if self.gateway_outages else _NO_OUTAGES)
        # Best-gateway choice per satellite, shared across terminals;
        # valid slot-wide because the gateway outage set is fixed
        # within a slot.
        gw_memo: dict[int, tuple[int, float] | None] = {}
        return [self._terminal_slot(i, slot, t, positions, min_el,
                                    grounds[i], ups[i], keep[i],
                                    out_sats, out_gws, gw_memo)
                for i in range(len(grounds))]

    def _terminal_slot(self, i, slot, t, positions, min_el, ground, up,
                       keep_row, out_sats, out_gws, gw_memo
                       ) -> PathSnapshot | ConfigurationError:
        obstruction = self.obstructions[i]
        mask = (obstruction.mask_at(slot)
                if obstruction is not None else None)
        if mask is not None and mask.full_sky:
            return ConfigurationError(
                f"sky fully obstructed at {self.terminals[i].name} at "
                f"t={t} (overpass/tunnel slot)")
        cand = np.nonzero(keep_row)[0]
        # Row-subset computation with the exact kernels the full
        # visible_from pass uses: bit-identical on the subset.
        elev, rng_m = elevation_and_range(ground, positions[cand], up)
        visible = elev >= min_el
        indices = cand[visible]
        if indices.size == 0:
            return ConfigurationError(
                f"no satellite visible from {self.terminals[i].name} "
                f"at t={t}; constellation too sparse for this latitude")
        elevations = elev[visible]
        ranges = rng_m[visible]
        order = np.argsort(-elevations)
        candidates = []
        for sat, elev_deg, range_m in zip(indices[order].tolist(),
                                          elevations[order].tolist(),
                                          ranges[order].tolist()):
            if sat in out_sats:
                continue
            if mask is not None and mask.blocks(
                    azimuth_angle(ground, positions[sat], up=up),
                    elev_deg):
                continue
            if sat in gw_memo:
                gw_choice = gw_memo[sat]
            else:
                gw_choice = select_gateway(
                    *gateway_geometry(self._gw_ecef, self._gw_ups,
                                      positions[sat]),
                    out_gws)
                gw_memo[sat] = gw_choice
            if gw_choice is None:
                continue
            gw_idx, gw_range = gw_choice
            candidates.append((sat, elev_deg, range_m, gw_idx, gw_range))
            if len(candidates) >= self.candidate_pool:
                break
        if not candidates:
            if mask is not None:
                return ConfigurationError(
                    f"all visible satellites obstructed at t={t}")
            return ConfigurationError(
                f"no visible satellite sees a gateway at t={t}")
        rng = make_rng((self.seeds[i], slot))
        sat_idx, elev_deg, ut_range, gw_idx, gw_range = \
            rng.choice(candidates)
        return PathSnapshot(
            slot=slot, sat_index=sat_idx, gateway=self.gateways[gw_idx],
            ut_range_m=ut_range, gw_range_m=gw_range,
            elevation_deg=elev_deg)


def _window(window, what: str) -> tuple:
    """A validated ``(identifier, start_slot, end_slot)`` triple."""
    ident, start, end = window
    if end <= start:
        raise ConfigurationError(
            f"{what} window is empty: [{start}, {end})")
    return ident, start, end
