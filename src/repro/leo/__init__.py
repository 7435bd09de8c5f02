"""Starlink-like LEO constellation substrate.

The chain is: orbital geometry (:mod:`geometry`, :mod:`orbits`,
:mod:`constellation`) -> ground segment (:mod:`ground`) -> serving-
satellite selection and handover (:mod:`scheduling`, :mod:`fleet`;
the single dish is a fleet of one terminal) -> radio capacity
and medium loss (:mod:`channel`) -> campaign-scale exogenous events
(:mod:`events`) -> an assembled access network ready for experiments
(:mod:`access`).

Everything is driven by the same :class:`StarlinkPathModel`, so the
fast analytic latency samples used for the five-month ping campaign
and the per-packet delays seen by the packet-level simulator are the
same model by construction.
"""

from repro.leo.geometry import (
    GeoPoint,
    azimuth_angle,
    ecef,
    slant_range,
    elevation_angle,
)
from repro.leo.constellation import WalkerShell, Constellation
from repro.leo.ground import (
    GroundStation,
    UserTerminal,
    STARLINK_GATEWAYS,
    STARLINK_POPS,
)
from repro.leo.scheduling import HandoverEvent, PathSnapshot
from repro.leo.mobility import (
    ObstructionTrace,
    SkyMask,
    SkySector,
    StationaryTrajectory,
    Trajectory,
    WaypointTrajectory,
    build_obstruction,
    build_trajectory,
    drive_trajectory,
)
from repro.leo.fleet import (
    FleetScheduler,
    FleetSpec,
    build_fleet_terminals,
    fleet_seeds,
)
from repro.leo.channel import CapacityProcess, StarlinkChannel
from repro.leo.events import CampaignTimeline
from repro.leo.access import StarlinkAccess, StarlinkParams, StarlinkPathModel

__all__ = [
    "GeoPoint",
    "azimuth_angle",
    "ecef",
    "slant_range",
    "elevation_angle",
    "WalkerShell",
    "Constellation",
    "GroundStation",
    "UserTerminal",
    "STARLINK_GATEWAYS",
    "STARLINK_POPS",
    "PathSnapshot",
    "HandoverEvent",
    "Trajectory",
    "StationaryTrajectory",
    "WaypointTrajectory",
    "drive_trajectory",
    "ObstructionTrace",
    "SkyMask",
    "SkySector",
    "build_trajectory",
    "build_obstruction",
    "FleetScheduler",
    "FleetSpec",
    "build_fleet_terminals",
    "fleet_seeds",
    "CapacityProcess",
    "StarlinkChannel",
    "CampaignTimeline",
    "StarlinkAccess",
    "StarlinkParams",
    "StarlinkPathModel",
]
