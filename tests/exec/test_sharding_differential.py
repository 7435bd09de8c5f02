"""Differential sharding suite: any split plan reproduces serial.

The sharded executor's load-bearing claim is ``sharded(N, g) ==
serial`` for every worker count N, granularity g and steal order.
Hypothesis generates shard plans — random atom counts, granularities
and dispatch permutations — and every one must merge to the exact
serial payloads (shrinking then hands back the minimal failing plan).
Real campaign units (ping chunks, speedtest connections, bulk
segments, web pages) are pinned the same way at the digest level.
"""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.campaign import Campaign, CampaignConfig
from repro.errors import ConfigurationError
from repro.exec import (
    UnitShard,
    atom_count,
    execute_units,
    plan_shards,
    shard_label,
)
from repro.rng import make_rng
from repro.testing.digest import digest_value
from repro.units import minutes


@dataclass(frozen=True)
class SeriesUnit:
    """Synthetic splittable unit: one derived RNG draw per atom."""

    seed: int
    n: int

    kind = "series"

    @property
    def label(self) -> str:
        return f"series:{self.seed}:{self.n}"

    def n_atoms(self) -> int:
        return self.n

    def run_atoms(self, start: int, stop: int) -> list[float]:
        return [make_rng((self.seed, "atom", i)).random()
                for i in range(start, stop)]

    def merge_atoms(self, payloads) -> list[float]:
        return list(payloads)

    def run(self) -> list[float]:
        return self.merge_atoms(self.run_atoms(0, self.n_atoms()))


def micro_config(seed: int = 0) -> CampaignConfig:
    return CampaignConfig(
        seed=seed,
        ping_days=1.0, ping_interval_s=minutes(120),
        ping_shard_rounds=3,
        speedtest_epochs=1, speedtest_measure_s=1.0,
        speedtest_warmup_s=0.5, satcom_warmup_s=2.0,
        speedtest_connections=3,
        bulk_per_direction=1, bulk_bytes=900_000,
        bulk_segment_bytes=400_000,
        messages_per_direction=1, messages_duration_s=1.5,
        web_sites=4, web_visits_per_site=1)


def micro_units(seed: int = 0) -> list:
    campaign = Campaign(micro_config(seed))
    return (campaign.ping_units()[:2]
            + [u for u in campaign.speedtest_units()
               if u.network == "starlink"][:2]
            + campaign.bulk_units()[:1]
            + campaign.web_units()[:1]
            + campaign.messages_units()[:1])


# -- property: any plan, any steal order ------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 50), st.integers(1, 9)),
                min_size=1, max_size=5),
       st.integers(1, 12),
       st.randoms(use_true_random=False))
def test_any_plan_and_steal_order_merges_to_serial(unit_params,
                                                   granularity,
                                                   steal_rng):
    units = [SeriesUnit(seed, n) for seed, n in unit_params]
    serial = [unit.run() for unit in units]

    plan = plan_shards(units, granularity)
    tasks = [(i, runnable) for i, group in enumerate(plan)
             for runnable in group]
    # An arbitrary steal order: run shards in a random permutation,
    # exactly what a racing pool produces.
    steal_rng.shuffle(tasks)
    by_unit: dict[int, dict[int, object]] = {}
    for i, runnable in tasks:
        index = (runnable.shard_index
                 if isinstance(runnable, UnitShard) else 0)
        by_unit.setdefault(i, {})[index] = runnable.run()
    merged = []
    for i, unit in enumerate(units):
        shards = by_unit[i]
        if not isinstance(plan[i][0], UnitShard):
            merged.append(shards[0])
            continue
        atoms: list = []
        for index in sorted(shards):
            atoms.extend(shards[index])
        merged.append(unit.merge_atoms(atoms))
    assert digest_value(merged) == digest_value(serial)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 12), st.integers(0, 3))
def test_executor_granularity_is_digest_invariant(granularity, seed):
    units = [SeriesUnit(seed, 7), SeriesUnit(seed + 1, 1),
             SeriesUnit(seed + 2, 4)]
    serial = execute_units(units, workers=1)
    sharded = execute_units(units, workers=1, granularity=granularity)
    assert digest_value(sharded) == digest_value(serial)


@settings(max_examples=8, deadline=None)
@given(st.integers(1, 6))
def test_ping_units_shard_digest_invariant(granularity):
    campaign = Campaign(micro_config(seed=1))
    units = campaign.ping_units()[:2]
    serial = execute_units(units, workers=1)
    sharded = execute_units(units, workers=1, granularity=granularity)
    assert digest_value(sharded) == digest_value(serial)


# -- real campaign units, serial and pool -----------------------------------


@pytest.fixture(scope="module")
def micro_reference() -> str:
    """Digest of the unsharded serial run of ``micro_units(seed=3)``,
    the reference of both micro-campaign tests (run once per module)."""
    return digest_value(execute_units(micro_units(seed=3), workers=1))


def test_micro_campaign_sharded_serial_is_digest_identical(
        micro_reference):
    units = micro_units(seed=3)
    for granularity in (2, 5):
        sharded = execute_units(units, workers=1,
                                granularity=granularity)
        assert digest_value(sharded) == micro_reference, \
            f"granularity={granularity} diverged from serial"


def test_micro_campaign_sharded_pool_is_digest_identical(micro_reference):
    units = micro_units(seed=3)
    sharded = execute_units(units, workers=3, granularity=4)
    assert digest_value(sharded) == micro_reference


def test_unit_timings_stay_per_unit_and_shards_are_labelled():
    units = micro_units(seed=3)[:3]
    timings, shard_timings = [], []
    execute_units(units, workers=1, granularity=3, timings=timings,
                  shard_timings=shard_timings)
    assert [t.label for t in timings] == [u.label for u in units]
    assert len(shard_timings) >= len(timings)
    for timing in shard_timings:
        assert timing.label.count("#s") <= 1
    # Every split unit's wall clock is the sum of its shard clocks.
    for unit, timing in zip(units, timings):
        mine = [s.elapsed_s for s in shard_timings
                if s.label == unit.label
                or s.label.startswith(unit.label + "#s")]
        assert timing.elapsed_s == pytest.approx(sum(mine))


# -- plan mechanics ---------------------------------------------------------


def test_plan_shards_is_balanced_and_contiguous():
    unit = SeriesUnit(seed=0, n=10)
    [shards] = plan_shards([unit], 4)
    assert [(s.start, s.stop) for s in shards] \
        == [(0, 2), (2, 5), (5, 7), (7, 10)]
    assert all(s.n_shards == 4 for s in shards)
    assert [s.label for s in shards] \
        == [shard_label(unit.label, s.start, s.stop) for s in shards]
    assert all(s.kind == "series" for s in shards)
    assert all(s.parent_label == unit.label for s in shards)


def test_plan_passthrough_for_unsplittable_and_g1():
    splittable = SeriesUnit(seed=0, n=6)

    @dataclass(frozen=True)
    class Opaque:
        kind = "opaque"
        label = "opaque:0"

        def run(self) -> int:
            return 42

    opaque = Opaque()
    assert atom_count(opaque) == 1
    assert plan_shards([splittable, opaque], 1) \
        == [[splittable], [opaque]]
    plan = plan_shards([splittable, opaque], 3)
    assert len(plan[0]) == 3
    assert plan[1] == [opaque]


def test_granularity_validation():
    with pytest.raises(ConfigurationError, match="granularity"):
        plan_shards([SeriesUnit(0, 3)], 0)
    with pytest.raises(ConfigurationError, match="granularity"):
        execute_units([SeriesUnit(0, 3)], granularity=0)
