"""Mobile terminals: seeded trajectories and obstruction shadowing.

The paper measures a fixed dish; "Starlink on the Road" (PAPERS.md)
mounts one on a vehicle and finds that the dominant outage causes
become *handover churn* (the geometry under the dish changes faster
than the 15 s reallocation can follow) and *roadside obstruction*
(trees, buildings, overpasses shadowing sectors of the sky). This
module makes both emerge from geometry instead of being scripted:

* :class:`Trajectory` — where the terminal is at campaign time ``t``.
  :class:`StationaryTrajectory` is provably equivalent to today's
  fixed :class:`~repro.leo.ground.UserTerminal` (it evaluates the
  exact same ECEF floats, pinned by ``tests/leo/test_mobility.py``),
  and :class:`WaypointTrajectory` moves along seeded waypoints at a
  ground speed. :func:`drive_trajectory` draws a seeded random-heading
  road trip.
* :class:`ObstructionTrace` — a seeded two-state Markov chain over
  scheduler slots. While obstructed, a :class:`SkyMask` blocks one or
  more azimuth sectors up to a sector elevation (with a small
  probability the whole sky: an overpass or tunnel). Satellites whose
  (azimuth, elevation) falls inside a blocked sector are invisible to
  candidate selection for that slot.

Both are *pure functions of (seed, slot)* once constructed: any query
order, any process, any resume replays the same positions and masks,
which is what lets the campaign digests stay deterministic while the
dish drives through outages.

Determinism contract: a trajectory with zero net movement (stationary,
or a drive at ``speed_kmh=0``) combined with no obstruction must leave
every scheduler byte untouched — ``scripts/mobility_smoke.py`` and the
``mobility-smoke`` CI job pin that a speed-0 run is digest-identical
to the classic fixed-terminal pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.leo.geometry import GeoPoint, great_circle_distance
from repro.leo.ground import LOUVAIN_LA_NEUVE
from repro.rng import make_rng

__all__ = [
    "ObstructionTrace",
    "SkyMask",
    "SkySector",
    "StationaryTrajectory",
    "Trajectory",
    "WaypointTrajectory",
    "build_mobility",
    "build_obstruction",
    "build_trajectory",
    "drive_trajectory",
    "OBSTRUCTION_KINDS",
    "TRAJECTORY_KINDS",
]

#: Obstruction profiles the campaign config can name.
OBSTRUCTION_KINDS = ("none", "roadside", "urban_canyon")

#: Trajectory kinds the campaign config can name.
TRAJECTORY_KINDS = ("stationary", "drive")

#: Ground speed a ``drive`` trajectory uses when the config leaves
#: ``speed_kmh`` at 0 would make it stationary — callers pass the
#: knob explicitly; this is only the CLI example default.
DEFAULT_DRIVE_SPEED_KMH = 60.0

#: How long a built ``drive`` trajectory keeps moving before parking
#: (seconds). Bounded so month-scale campaigns do not drive across
#: the planet: the interesting churn happens inside the drive window
#: and the analysis scans exactly that window.
DEFAULT_DRIVE_DURATION_S = 3600.0


class Trajectory:
    """Where the terminal is at campaign time ``t``.

    Subclasses are frozen dataclasses, and a scheduler takes its
    terminals' trajectories at construction
    (:class:`~repro.leo.fleet.FleetScheduler`), so a trajectory can
    never change under a scheduler's cached slots.
    """

    def position_at(self, t: float) -> GeoPoint:  # pragma: no cover
        raise NotImplementedError

    @property
    def is_stationary(self) -> bool:
        """Whether the position is the same for every ``t``."""
        return False


@dataclass(frozen=True)
class StationaryTrajectory(Trajectory):
    """The degenerate trajectory: the classic fixed dish.

    ``position_at`` returns the same :class:`GeoPoint` for every
    ``t``, so a scheduler driving it computes byte-for-byte the same
    ECEF vector and unit-up as one built from a fixed
    :class:`~repro.leo.ground.UserTerminal` at the same location.
    """

    location: GeoPoint = LOUVAIN_LA_NEUVE

    def position_at(self, t: float) -> GeoPoint:
        return self.location

    @property
    def is_stationary(self) -> bool:
        return True


@dataclass(frozen=True)
class WaypointTrajectory(Trajectory):
    """Piecewise path through waypoints at a constant ground speed.

    The terminal starts at ``waypoints[0]`` at ``start_t``, moves
    leg by leg at ``speed_kmh`` (positions interpolated linearly in
    latitude/longitude, which is accurate to well under the slot
    geometry noise at road-trip scales) and parks at the final
    waypoint once the path is exhausted. ``speed_kmh=0`` never leaves
    the first waypoint — the provably-stationary digest gate.
    """

    waypoints: tuple[GeoPoint, ...]
    speed_kmh: float
    start_t: float = 0.0

    def __post_init__(self) -> None:
        if not self.waypoints:
            raise ConfigurationError(
                "WaypointTrajectory needs at least one waypoint")
        if not self.speed_kmh >= 0.0:   # also rejects NaN
            raise ConfigurationError(
                f"speed_kmh must be >= 0, got {self.speed_kmh!r}")

    def _leg_lengths_m(self) -> list[float]:
        return [great_circle_distance(a, b)
                for a, b in zip(self.waypoints, self.waypoints[1:])]

    def position_at(self, t: float) -> GeoPoint:
        if (self.speed_kmh == 0.0 or len(self.waypoints) == 1
                or t <= self.start_t):
            return self.waypoints[0]
        travelled = (t - self.start_t) * self.speed_kmh / 3.6
        for (a, b), leg in zip(zip(self.waypoints, self.waypoints[1:]),
                               self._leg_lengths_m()):
            if travelled <= leg or leg == 0.0:
                frac = 0.0 if leg == 0.0 else travelled / leg
                return GeoPoint(
                    a.lat_deg + frac * (b.lat_deg - a.lat_deg),
                    a.lon_deg + frac * (b.lon_deg - a.lon_deg),
                    a.alt_m + frac * (b.alt_m - a.alt_m))
            travelled -= leg
        return self.waypoints[-1]

    @property
    def is_stationary(self) -> bool:
        return self.speed_kmh == 0.0 or len(self.waypoints) == 1

    @property
    def parked_after_s(self) -> float:
        """Seconds after ``start_t`` at which the path is exhausted."""
        if self.is_stationary:
            return 0.0
        return sum(self._leg_lengths_m()) / (self.speed_kmh / 3.6)


def drive_trajectory(seed: int,
                     origin: GeoPoint = LOUVAIN_LA_NEUVE,
                     speed_kmh: float = DEFAULT_DRIVE_SPEED_KMH,
                     duration_s: float = DEFAULT_DRIVE_DURATION_S,
                     n_legs: int = 12) -> WaypointTrajectory:
    """A seeded random road trip from ``origin``.

    Heading starts uniform and random-walks ±45 degrees per leg, the
    way a road network meanders without doubling back every turn.
    Deterministic in ``seed`` — identical waypoints in every process.
    A ``speed_kmh`` of 0 yields a trajectory that provably never
    leaves ``origin`` (the digest gate for mobility plumbing).
    """
    if not duration_s > 0:
        raise ConfigurationError(
            f"drive duration_s must be positive, got {duration_s!r}")
    if n_legs < 1:
        raise ConfigurationError(
            f"drive n_legs must be >= 1, got {n_legs}")
    rng = make_rng((seed, "mobility-drive"))
    heading = rng.random() * 360.0
    leg_s = duration_s / n_legs
    points = [origin]
    lat, lon = origin.lat_deg, origin.lon_deg
    for _ in range(n_legs):
        heading += rng.uniform(-45.0, 45.0)
        step_m = max(speed_kmh, 1.0) / 3.6 * leg_s
        dlat = step_m * math.cos(math.radians(heading)) / 111_320.0
        dlon = (step_m * math.sin(math.radians(heading))
                / (111_320.0 * max(0.1,
                                   math.cos(math.radians(lat)))))
        lat += dlat
        lon += dlon
        points.append(GeoPoint(lat, lon, origin.alt_m))
    return WaypointTrajectory(waypoints=tuple(points),
                              speed_kmh=speed_kmh)


# -- obstruction shadowing ----------------------------------------------


@dataclass(frozen=True)
class SkySector:
    """One blocked azimuth arc, opaque below ``max_elevation_deg``.

    The arc runs clockwise from ``az_start_deg`` for ``width_deg``
    degrees (wrapping through north), the way a tree line or building
    front shadows one side of the road.
    """

    az_start_deg: float
    width_deg: float
    max_elevation_deg: float

    def blocks(self, az_deg: float, elevation_deg: float) -> bool:
        """Whether a satellite at (az, el) is shadowed by this arc."""
        if elevation_deg > self.max_elevation_deg:
            return False
        span = (az_deg - self.az_start_deg) % 360.0
        return span < self.width_deg


@dataclass(frozen=True)
class SkyMask:
    """The blocked portion of the sky during one scheduler slot."""

    sectors: tuple[SkySector, ...]

    def blocks(self, az_deg: float, elevation_deg: float) -> bool:
        """Whether any sector shadows a satellite at (az, el)."""
        return any(s.blocks(az_deg, elevation_deg)
                   for s in self.sectors)

    @property
    def full_sky(self) -> bool:
        """Whether the mask blocks everything (overpass / tunnel)."""
        covered = sum(min(s.width_deg, 360.0) for s in self.sectors
                      if s.max_elevation_deg >= 90.0)
        return covered >= 360.0


#: The mask an overpass/tunnel slot applies: everything blocked.
FULL_SKY_MASK = SkyMask(sectors=(
    SkySector(az_start_deg=0.0, width_deg=360.0,
              max_elevation_deg=90.0),))


@dataclass(frozen=True)
class ObstructionProfile:
    """Transition and severity parameters of one obstruction regime."""

    #: Per-slot probability of entering the obstructed state.
    p_enter: float
    #: Per-slot probability of leaving it again.
    p_exit: float
    #: Probability an obstructed slot is a full-sky blackout.
    p_full_sky: float
    #: (low, high) blocked-arc width draw, degrees.
    width_deg: tuple[float, float]
    #: (low, high) blocked-arc top elevation draw, degrees.
    max_el_deg: tuple[float, float]
    #: (min, max) distinct blocked arcs per obstructed slot.
    sectors: tuple[int, int]


#: Named profiles: roadside trees/buildings vs a dense city canyon.
OBSTRUCTION_PROFILES: dict[str, ObstructionProfile] = {
    "roadside": ObstructionProfile(
        p_enter=0.18, p_exit=0.45, p_full_sky=0.12,
        width_deg=(60.0, 160.0), max_el_deg=(35.0, 70.0),
        sectors=(1, 2)),
    "urban_canyon": ObstructionProfile(
        p_enter=0.35, p_exit=0.30, p_full_sky=0.20,
        width_deg=(100.0, 220.0), max_el_deg=(50.0, 85.0),
        sectors=(2, 3)),
}


class ObstructionTrace:
    """Seeded Markov roadside/overpass shadowing, one state per slot.

    The chain starts clear at ``start_slot`` (unless
    ``obstructed_at_start``) and flips between *clear* and
    *obstructed* with the profile's per-slot transition coins; each
    obstructed slot draws its own :class:`SkyMask` from a slot-keyed
    stream, so the mask of slot ``k`` is identical no matter the
    query order or process. Outside ``[start_slot, end_slot)`` the
    sky is clear.

    The state walk is memoised as a growing prefix (one bool per
    slot), so querying slot ``k`` costs O(k) once and O(1) after —
    and a bounded window keeps month-scale campaigns cheap.
    """

    #: Refuse traces that would materialise more per-slot states than
    #: this (a year of 15 s slots is ~2.1 M; the prefix list is one
    #: bool each, but an unbounded trace is almost always a config
    #: error).
    MAX_TRACE_SLOTS = 2_000_000

    def __init__(self, seed: int, profile: str = "roadside",
                 start_slot: int = 0, end_slot: int | None = None,
                 obstructed_at_start: bool = False):
        if profile not in OBSTRUCTION_PROFILES:
            raise ConfigurationError(
                f"unknown obstruction profile {profile!r}; expected "
                f"one of {sorted(OBSTRUCTION_PROFILES)}")
        if end_slot is not None and end_slot <= start_slot:
            raise ConfigurationError(
                f"obstruction window is empty: "
                f"[{start_slot}, {end_slot})")
        if end_slot is not None \
                and end_slot - start_slot > self.MAX_TRACE_SLOTS:
            raise ConfigurationError(
                f"obstruction trace spans {end_slot - start_slot} "
                f"slots, more than MAX_TRACE_SLOTS="
                f"{self.MAX_TRACE_SLOTS}")
        self.seed = seed
        self.profile_name = profile
        self.profile = OBSTRUCTION_PROFILES[profile]
        self.start_slot = start_slot
        self.end_slot = end_slot
        self.obstructed_at_start = obstructed_at_start
        #: Memoised chain states from ``start_slot`` on.
        self._states: list[bool] = [obstructed_at_start]
        #: Memoised per-slot masks (only obstructed slots appear).
        self._masks: dict[int, SkyMask] = {}

    def _state_at(self, slot: int) -> bool:
        """Chain state (obstructed?) for an in-window ``slot``."""
        index = slot - self.start_slot
        if index - len(self._states) + 1 > self.MAX_TRACE_SLOTS:
            raise ConfigurationError(
                f"obstruction query at slot {slot} would walk more "
                f"than MAX_TRACE_SLOTS={self.MAX_TRACE_SLOTS} states; "
                "bound the trace with end_slot")
        while len(self._states) <= index:
            k = self.start_slot + len(self._states)
            prev = self._states[-1]
            coin = make_rng((self.seed, "obst-chain", k)).random()
            if prev:
                self._states.append(coin >= self.profile.p_exit)
            else:
                self._states.append(coin < self.profile.p_enter)
        return self._states[index]

    def mask_at(self, slot: int) -> SkyMask | None:
        """The sky mask in force during ``slot`` (None: clear)."""
        if slot < self.start_slot:
            return None
        if self.end_slot is not None and slot >= self.end_slot:
            return None
        if not self._state_at(slot):
            return None
        mask = self._masks.get(slot)
        if mask is None:
            mask = self._draw_mask(slot)
            self._masks[slot] = mask
        return mask

    def _draw_mask(self, slot: int) -> SkyMask:
        p = self.profile
        rng = make_rng((self.seed, "obst-mask", slot))
        if rng.random() < p.p_full_sky:
            return FULL_SKY_MASK
        n = rng.randint(*p.sectors)
        sectors = tuple(
            SkySector(az_start_deg=rng.random() * 360.0,
                      width_deg=rng.uniform(*p.width_deg),
                      max_elevation_deg=rng.uniform(*p.max_el_deg))
            for _ in range(n))
        return SkyMask(sectors=sectors)

    def obstructed_windows(self, start_t: float, end_t: float,
                           slot_duration_s: float = 15.0
                           ) -> list[tuple[float, float]]:
        """Contiguous obstructed intervals inside ``[start_t, end_t)``.

        Campaign-clock ``(start, end)`` pairs, one per run of
        obstructed slots — what outage attribution overlaps episodes
        against.
        """
        first = int(start_t // slot_duration_s)
        last = int(math.ceil(end_t / slot_duration_s))
        windows: list[tuple[float, float]] = []
        run_start: int | None = None
        for slot in range(first, last):
            if self.mask_at(slot) is not None:
                if run_start is None:
                    run_start = slot
            elif run_start is not None:
                windows.append((run_start * slot_duration_s,
                                slot * slot_duration_s))
                run_start = None
        if run_start is not None:
            windows.append((run_start * slot_duration_s,
                            last * slot_duration_s))
        return windows


# -- campaign-config builders -------------------------------------------


def build_trajectory(kind: str, seed: int,
                     speed_kmh: float,
                     origin: GeoPoint = LOUVAIN_LA_NEUVE,
                     duration_s: float = DEFAULT_DRIVE_DURATION_S
                     ) -> Trajectory | None:
    """The trajectory a campaign config describes, or None.

    ``None`` (for ``"stationary"``) keeps the scheduler on its classic
    fixed-terminal fast path — the digest-neutral default. A ``drive``
    at any speed (including 0, which provably never moves) returns a
    seeded :class:`WaypointTrajectory`.
    """
    if kind not in TRAJECTORY_KINDS:
        raise ConfigurationError(
            f"unknown trajectory kind {kind!r}; expected one of "
            f"{TRAJECTORY_KINDS}")
    if kind == "stationary":
        return None
    return drive_trajectory(seed, origin=origin, speed_kmh=speed_kmh,
                            duration_s=duration_s)


def build_obstruction(kind: str, seed: int,
                      end_slot: int | None = None
                      ) -> ObstructionTrace | None:
    """The obstruction trace a campaign config describes, or None."""
    if kind not in OBSTRUCTION_KINDS:
        raise ConfigurationError(
            f"unknown obstruction kind {kind!r}; expected one of "
            f"{OBSTRUCTION_KINDS}")
    if kind == "none":
        return None
    return ObstructionTrace(seed, profile=kind, end_slot=end_slot)


def build_mobility(config):
    """``(trajectory, obstruction)`` a campaign config describes.

    ``config`` is any object with ``trajectory`` / ``speed_kmh`` /
    ``drive_duration_s`` / ``obstruction`` / ``seed`` attributes
    (duck-typed to avoid the campaign import cycle). The default
    config maps to ``(None, None)`` — the digest-neutral classic
    pipeline. Both the trajectory and the obstruction trace are
    bounded by the drive window: the terminal parks and the sky
    clears after ``drive_duration_s``, which keeps month-scale
    campaigns cheap while all the churn happens inside the window.
    """
    trajectory = build_trajectory(
        config.trajectory, config.seed, config.speed_kmh,
        duration_s=config.drive_duration_s)
    end_slot = max(1, int(math.ceil(config.drive_duration_s / 15.0)))
    obstruction = build_obstruction(config.obstruction, config.seed,
                                    end_slot=end_slot)
    return trajectory, obstruction
