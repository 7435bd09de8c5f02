#!/usr/bin/env python
"""CI smoke test: mobile-terminal mode gates.

Three gates protect mobility (trajectories, obstruction shadowing
and handover-episode analysis):

1. **Stationary bit-identity, digest-pinned.** The quick-config ping
   campaign with a speed-0 drive trajectory must reproduce the
   classic fixed-terminal dataset byte for byte — serially and under
   the work-stealing sharded executor — and both must match the
   digest pinned below. Mobility is strictly additive: the pin
   catches any drift in the classic pipeline.

2. **Drive-trace campaign end-to-end.** A dense-ping urban-canyon
   drive must complete, rerun digest-identically, and produce a
   mobility report whose per-episode attribution *conserves* the
   pooled episode count, with at least one obstruction-attributed
   episode that recovered.

3. **Handover-attributed outage detection and recovery.** With every
   gateway down for four slots mid-drive (maintenance injection) the
   analytic ping series must show an outage episode starting at the
   service-change boundary, attributed to the handover, and
   recovered once service resumes.

Run from the repository root (CI job ``mobility-smoke``)::

    PYTHONPATH=src python scripts/mobility_smoke.py
"""

from __future__ import annotations

import math
import random
import sys

import numpy as np

from repro.core.availability import analyze_availability, analyze_mobility
from repro.core.campaign import Campaign, CampaignConfig, quick_config
from repro.core.datasets import CampaignDatasets, PingDataset
from repro.errors import ConfigurationError
from repro.leo.access import StarlinkPathModel
from repro.leo.ground import STARLINK_GATEWAYS
from repro.leo.mobility import drive_trajectory
from repro.testing.digest import digest_value

#: Digest of ``Campaign(quick_config(0)).run_pings()`` before mobile-
#: terminal mode existed. Both the stationary default and a speed-0
#: drive must reproduce it. Re-record only for a deliberate, explained
#: change to the classic pipeline.
CLASSIC_QUICK_PINGS_DIGEST = (
    "52511c7f0911799a38f90c61c5b16e6d"
    "dbe8fcb68551d3df6e9ac93e57676fa8")

#: Gate 3 maintenance window: every gateway out over these slots.
GW_OUT_SLOTS = (30, 34)
GATE3_HORIZON_S = 900.0


def parked_config() -> CampaignConfig:
    config = quick_config(seed=0)
    config.trajectory = "drive"
    config.speed_kmh = 0.0
    return config


def drive_config() -> CampaignConfig:
    """Dense-ping urban-canyon drive (~29 min at 90 km/h)."""
    return CampaignConfig(
        seed=1,
        ping_days=0.02, ping_interval_s=45.0, pings_per_round=2,
        speedtest_epochs=1, speedtest_measure_s=0.5,
        speedtest_warmup_s=0.5, satcom_warmup_s=2.0,
        bulk_per_direction=1, bulk_bytes=500_000,
        messages_per_direction=1, messages_duration_s=1.5,
        web_sites=3, web_visits_per_site=1,
        trajectory="drive", speed_kmh=90.0,
        obstruction="urban_canyon", drive_duration_s=1728.0)


def gate3_mobility_report():
    """Analytic drive with an all-gateway maintenance window."""
    model = StarlinkPathModel(
        seed=0, trajectory=drive_trajectory(seed=0, speed_kmh=90.0),
        gateway_outages=[(gw.name, *GW_OUT_SLOTS)
                         for gw in STARLINK_GATEWAYS])
    rng = random.Random(7)
    times = np.arange(0.0, GATE3_HORIZON_S, 15.0)
    rtts = []
    for t in times:
        try:
            rtts.append(model.idle_rtt(float(t), rng))
        except ConfigurationError:
            rtts.append(math.nan)
    pings = PingDataset(series={"anchor": (times, np.array(rtts))})
    availability = analyze_availability(CampaignDatasets(pings=pings))
    events = model.scheduler.handover_events(model.index, 0.0,
                                             GATE3_HORIZON_S)
    return analyze_mobility(availability, events,
                            window_s=GATE3_HORIZON_S,
                            trajectory="drive")


def main() -> int:
    failures: list[str] = []

    # Gate 1: speed-0 drive == classic pinned digest, every exec mode.
    serial = digest_value(Campaign(parked_config()).run_pings())
    print(f"parked serial:  digest {serial[:16]}...")
    if serial != CLASSIC_QUICK_PINGS_DIGEST:
        failures.append(
            f"speed-0 drive serial digest {serial} does not match "
            f"the classic pin {CLASSIC_QUICK_PINGS_DIGEST} — "
            "mobility stopped being digest-neutral")
    sharded = digest_value(Campaign(parked_config()).run_pings(
        workers=2, granularity=4))
    print(f"parked sharded: digest {sharded[:16]}...")
    if sharded != CLASSIC_QUICK_PINGS_DIGEST:
        failures.append(
            f"speed-0 drive sharded digest {sharded} does not match "
            f"the classic pin — mobility state leaked across shards")

    # Gate 2: the drive campaign completes, reruns identically, and
    # its attribution reconciles with the pooled availability.
    campaign = Campaign(drive_config())
    pings = campaign.run_pings()
    first = digest_value(pings)
    print(f"drive serial:   digest {first[:16]}...")
    again = digest_value(Campaign(drive_config()).run_pings())
    if again != first:
        failures.append(
            f"drive campaign reruns diverged ({first} vs {again}) — "
            "the moving-terminal pipeline is not deterministic")
    report = campaign.mobility_report(CampaignDatasets(pings=pings))
    episodes = report.availability.episodes
    print(f"drive report:   {len(episodes)} episode(s), "
          f"{report.handover_count} path change(s), causes "
          f"{report.cause_counts}")
    if sum(report.cause_counts.values()) != len(episodes):
        failures.append(
            "attribution does not conserve the episode count: "
            f"{report.cause_counts} vs {len(episodes)} episodes")
    if report.cause_counts.get("obstruction", 0) < 1:
        failures.append(
            "urban-canyon drive produced no obstruction-attributed "
            f"episode (causes {report.cause_counts})")
    if not any(e.recovered for e in episodes):
        failures.append("no drive outage episode ever recovered")
    if report.handover_count < 1:
        failures.append("drive campaign recorded no path changes")

    # Gate 3: handover-attributed outage detected and recovered.
    mob = gate3_mobility_report()
    eps = mob.availability.episodes
    print(f"gate3 report:   {len(eps)} episode(s), causes "
          f"{mob.cause_counts}, mttr "
          f"{mob.mean_time_to_recovery_s:.0f}s")
    if mob.cause_counts.get("handover", 0) < 1:
        failures.append(
            "all-gateway maintenance produced no handover-attributed "
            f"episode (causes {mob.cause_counts})")
    handover_eps = [e for e, c in zip(eps, mob.episode_causes)
                    if c == "handover"]
    if not all(e.recovered for e in handover_eps):
        failures.append(
            "a handover-attributed episode never recovered after "
            "the maintenance window closed")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("mobility-smoke: OK — stationary pinned bit-identity, "
          "drive campaign deterministic with conserved attribution, "
          "handover outages detected and recovered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
