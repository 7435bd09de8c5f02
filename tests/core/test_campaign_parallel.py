"""Parallel-vs-serial equivalence of the campaign executor.

The executor contract (``repro.exec``) is that ``workers=N`` is pure
acceleration: the merged :class:`CampaignDatasets` must be
bit-identical to the serial run for the same seed. These tests pin
that with the trace-digest machinery from PR 1, plus the ordering and
timing behaviour of :func:`execute_units` itself.

The end-to-end digest test runs every unit kind once at the smallest
scale that still exercises the packet-level engine, so it stays
within CI budgets while covering the whole seed -> RNG -> engine
chain across a process boundary.
"""

import pytest

from repro.core.campaign import Campaign, CampaignConfig
from repro.errors import ConfigurationError
from repro.exec import (
    PingSeriesUnit,
    default_workers,
    execute_units,
    render_timings,
    timing_breakdown,
)
from repro.testing.digest import digest_dataset, digest_value
from repro.units import minutes


def tiny_config(seed: int = 0) -> CampaignConfig:
    return CampaignConfig(
        seed=seed,
        ping_days=0.5, ping_interval_s=minutes(120),
        speedtest_epochs=1, speedtest_measure_s=0.5,
        speedtest_warmup_s=0.5, satcom_warmup_s=2.0,
        bulk_per_direction=1, bulk_bytes=500_000,
        messages_per_direction=1, messages_duration_s=1.5,
        web_sites=3, web_visits_per_site=1)


@pytest.fixture(scope="module")
def serial_digest() -> str:
    """Digest of the serial seed-0 campaign, the reference of both
    whole-campaign equivalence tests (run once per module)."""
    return digest_dataset(Campaign(tiny_config(seed=0)).run_all(workers=1))


def test_parallel_run_all_is_bit_identical_to_serial(serial_digest):
    parallel = Campaign(tiny_config(seed=0)).run_all(workers=4)
    assert digest_dataset(parallel) == serial_digest


def test_parallel_pings_match_serial_per_anchor():
    serial = Campaign(tiny_config(seed=3)).run_pings(workers=1)
    parallel = Campaign(tiny_config(seed=3)).run_pings(workers=2)
    assert serial.anchors() == parallel.anchors()
    for name in serial.anchors():
        assert digest_value(serial.series[name]) \
            == digest_value(parallel.series[name])


def test_unit_decomposition_covers_table1():
    campaign = Campaign(tiny_config())
    assert len(campaign.ping_units()) == 11
    # epochs x networks x directions / sessions x epochs x directions.
    assert len(campaign.speedtest_units()) == 1 * 2 * 2
    assert len(campaign.bulk_units()) == 2 * 1 * 2
    assert len(campaign.messages_units()) == 1 * 2
    assert len(campaign.web_units()) == 3 * 1
    labels = [u.label for u in campaign.speedtest_units()]
    assert len(labels) == len(set(labels))


def test_execute_units_preserves_input_order():
    campaign = Campaign(tiny_config())
    units = campaign.ping_units()
    payloads = execute_units(units, workers=2)
    assert [name for name, _, _, _ in payloads] \
        == [u.anchor_name for u in units]


def test_execute_units_records_timings_in_order():
    campaign = Campaign(tiny_config())
    units = campaign.ping_units()[:3]
    timings = []
    execute_units(units, workers=1, timings=timings)
    assert [t.label for t in timings] == [u.label for u in units]
    assert all(t.elapsed_s >= 0.0 for t in timings)
    assert all(t.kind == "ping" for t in timings)
    rows = timing_breakdown(timings)
    assert rows[0]["kind"] == "ping" and rows[0]["units"] == 3
    assert "ping" in render_timings(timings)


def test_execute_units_rejects_bad_worker_count():
    with pytest.raises(ConfigurationError):
        execute_units([], workers=0)
    assert execute_units([], workers=2) == []


def test_units_are_picklable():
    import pickle

    campaign = Campaign(tiny_config())
    for unit in (campaign.ping_units()[:1] + campaign.speedtest_units()
                 + campaign.bulk_units() + campaign.messages_units()
                 + campaign.web_units()):
        clone = pickle.loads(pickle.dumps(unit))
        assert clone == unit


def test_default_workers_is_positive():
    assert default_workers() >= 1


def test_sharded_run_all_is_bit_identical_to_serial(serial_digest):
    sharded = Campaign(tiny_config(seed=0)).run_all(workers=4,
                                                    granularity=4)
    assert digest_dataset(sharded) == serial_digest


def test_config_granularity_is_the_default():
    config = tiny_config(seed=2)
    config.shard_granularity = 3
    from_config = Campaign(config).run_pings(workers=2)
    explicit = Campaign(tiny_config(seed=2)).run_pings(workers=2,
                                                       granularity=3)
    serial = Campaign(tiny_config(seed=2)).run_pings(workers=1)
    assert digest_value(from_config.series) \
        == digest_value(explicit.series) == digest_value(serial.series)


def test_config_rejects_bad_granularity():
    with pytest.raises(ConfigurationError, match="shard_granularity"):
        CampaignConfig(shard_granularity=0)


def test_ping_unit_is_self_contained():
    # A unit run in isolation must equal the same unit run through
    # the campaign (shared caches are pure memos, order-independent).
    unit = PingSeriesUnit(tiny_config(seed=5), "be-brussels")
    alone = digest_value(unit.run())
    via_campaign = Campaign(tiny_config(seed=5)).run_pings()
    assert alone == digest_value(
        ("be-brussels",) + via_campaign.series["be-brussels"]
        + (via_campaign.outcomes["be-brussels"],))
