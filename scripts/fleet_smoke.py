#!/usr/bin/env python
"""CI smoke test: fleet scheduling gates.

Two gates protect the vectorized fleet layer:

1. **T=1 bit-identity, digest-pinned.** A single-terminal
   :class:`FleetScheduler` walked over 400 slots (with a satellite
   outage and a gateway outage in the middle) must produce exactly
   the snapshot sequence of the scalar reference oracle
   (``tests/leo/oracle.py``) with the same seed — and both must match
   the digest pinned below. The pin catches silent drift in *either*
   path: the scheduler and the oracle cannot move, even together,
   without a deliberate re-record.

2. **T=16 fleet campaign determinism.** A 16-terminal fleet campaign
   run twice serially must be digest-identical, and a sharded run
   (``workers=2, granularity=3``) must reproduce the serial dataset
   byte for byte — the contended-capacity coupling between terminals
   (shared ``FleetScheduler``, per-satellite user counts) survives
   the work-stealing executor.

Run from the repository root (CI job ``fleet-smoke``)::

    PYTHONPATH=src python scripts/fleet_smoke.py
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.core.campaign import Campaign, quick_config
from repro.errors import ConfigurationError
from repro.leo.constellation import Constellation
from repro.leo.fleet import (
    FleetScheduler,
    FleetSpec,
    build_fleet_terminals,
    fleet_seeds,
)
from repro.leo.ground import STARLINK_GATEWAYS
from repro.leo.scheduling import SLOT_DURATION
from repro.testing.digest import digest_value

# The reference oracle lives with the tests, under the repository root.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.leo.oracle import SatelliteScheduler  # noqa: E402

#: Snapshot-sequence digest for gate 1 (seed 0, 400 slots, satellite
#: 700 out over slots [40, 80), gateway ``gw-ghlin`` out over
#: [120, 160)). Recorded from the scalar scheduler now kept as the
#: test oracle; the fleet scheduler must reproduce it bit for bit.
#: Re-record only for a deliberate, explained change to selection
#: semantics.
T1_PINNED = (
    "ca73fa596d9c2d9849942eae4554cb97"
    "f7b8aea12efd63074101fd503da396bc"
)

N_SLOTS = 400
SAT_OUT = (700, 40, 80)
GW_OUT = (STARLINK_GATEWAYS[2].name, 120, 160)


def walk(snapshot_fn) -> str:
    """Digest of 400 slots of snapshots (errors fold in by message)."""
    entries = []
    for slot in range(N_SLOTS):
        try:
            entries.append(snapshot_fn(slot * SLOT_DURATION))
        except ConfigurationError as exc:
            entries.append(("error", str(exc)))
    return digest_value(tuple(entries))


def t1_digests() -> tuple[str, str]:
    spec = FleetSpec(terminals=1, lat_bands=((50.0, 51.5),), seed=0)
    uts = build_fleet_terminals(spec)
    seeds = fleet_seeds(0, 1)
    fleet = FleetScheduler(Constellation(), uts, STARLINK_GATEWAYS,
                           seeds=seeds, outages=[SAT_OUT],
                           gateway_outages=[GW_OUT])
    oracle = SatelliteScheduler(Constellation(), uts[0],
                                STARLINK_GATEWAYS, seed=seeds[0],
                                outages=[SAT_OUT],
                                gateway_outages=[GW_OUT])
    return (walk(lambda t: fleet.snapshot_at(0, t)),
            walk(oracle.snapshot))


def fleet_campaign_config():
    config = quick_config(seed=1)
    config.ping_days = 1.0
    config.fleet_terminals = 16
    config.fleet_speedtest_epochs = 0
    return config


def main() -> int:
    failures: list[str] = []

    # Gate 1: T=1 scheduler == oracle == pinned digest, 400 slots.
    fleet_digest, oracle_digest = t1_digests()
    print(f"t1 fleet:  digest {fleet_digest[:16]}...")
    print(f"t1 oracle: digest {oracle_digest[:16]}...")
    if fleet_digest != oracle_digest:
        failures.append(
            f"T=1: fleet snapshots ({fleet_digest}) diverged from "
            f"the scalar oracle ({oracle_digest}) — the "
            "vectorized path lost bit-identity")
    if oracle_digest != T1_PINNED:
        failures.append(
            f"T=1: oracle snapshot digest {oracle_digest} does not "
            f"match the pin {T1_PINNED} — selection semantics moved "
            "without a re-record")

    # Gate 2: T=16 campaign — rerun-stable and shard-invariant.
    first = Campaign(fleet_campaign_config()).run_fleet()
    first_digest = digest_value(first)
    print(f"t16 serial: digest {first_digest[:16]}...")
    again_digest = digest_value(
        Campaign(fleet_campaign_config()).run_fleet())
    if again_digest != first_digest:
        failures.append(
            f"T=16: two serial runs diverged ({first_digest} vs "
            f"{again_digest}) — the fleet campaign is not "
            "deterministic")
    sharded_digest = digest_value(
        Campaign(fleet_campaign_config()).run_fleet(workers=2,
                                                    granularity=3))
    print(f"t16 sharded: digest {sharded_digest[:16]}...")
    if sharded_digest != first_digest:
        failures.append(
            f"T=16: sharded run ({sharded_digest}) diverged from "
            f"serial ({first_digest}) — terminal coupling broke "
            "under the work-stealing executor")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("fleet-smoke: OK — T=1 pinned bit-identity over "
          f"{N_SLOTS} slots, T=16 campaign deterministic and "
          "shard-invariant")
    return 0


if __name__ == "__main__":
    sys.exit(main())
