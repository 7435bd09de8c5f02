"""Fleet campaign mode: determinism, sharding, config and CLI."""

import numpy as np
import pytest

from repro.cli import main
from repro.core.campaign import Campaign, CampaignConfig, quick_config
from repro.errors import ConfigurationError
from repro.testing.digest import digest_value


def _fleet_config(seed=0, terminals=4, st_epochs=0):
    cfg = quick_config(seed=seed)
    cfg.ping_days = 1.0
    cfg.fleet_terminals = terminals
    cfg.fleet_speedtest_epochs = st_epochs
    return cfg


def test_fleet_disabled_raises():
    campaign = Campaign(quick_config())
    with pytest.raises(ConfigurationError):
        campaign.fleet_units()


def test_fleet_config_validation():
    with pytest.raises(ConfigurationError):
        CampaignConfig(fleet_terminals=-1)
    with pytest.raises(ConfigurationError):
        CampaignConfig(fleet_speedtest_epochs=-2)


def test_fleet_serial_equals_workers_and_shards():
    cfg = _fleet_config()
    serial = Campaign(cfg).run_fleet()
    workers = Campaign(cfg).run_fleet(workers=2)
    sharded = Campaign(cfg).run_fleet(workers=2, granularity=3)
    d = digest_value(serial)
    assert digest_value(workers) == d
    assert digest_value(sharded) == d


def test_fleet_dataset_shape():
    data = Campaign(_fleet_config(terminals=3)).run_fleet()
    assert data.size == 3
    assert [t.index for t in data.terminals] == [0, 1, 2]
    rounds = len(np.arange(0.0, 86400.0, 3600.0))
    for term in data.terminals:
        assert term.rtts.size == rounds * 3
        assert term.shares.size == rounds
        assert np.nanmin(term.shares) > 0.0
        assert term.outcome.is_ok
    assert 1.0 <= data.oversubscription() <= 3.0


def test_fleet_capacity_share_scales_with_contention():
    """A mean share of 1/k implies k terminals per satellite; a big
    fleet in a narrow band must contend more than a lone dish."""
    lone = Campaign(_fleet_config(terminals=1)).run_fleet()
    cfg = _fleet_config(terminals=12)
    cfg.fleet_lat_bands = ((50.0, 51.0),)
    packed = Campaign(cfg).run_fleet()
    assert lone.oversubscription() == pytest.approx(1.0)
    assert packed.oversubscription() > 1.2


def test_fleet_speedtest_uses_fair_share():
    cfg = _fleet_config(terminals=2, st_epochs=1)
    data = Campaign(cfg).run_fleet()
    for term in data.terminals:
        assert len(term.speedtests) == 1
        st = term.speedtests[0]
        assert st.network == "starlink" and st.direction == "down"


def test_fleet_respects_scenario_outages():
    cfg = _fleet_config()
    cfg.scenario = "gateway_flap"
    data = Campaign(cfg).run_fleet()
    clear = Campaign(_fleet_config()).run_fleet()
    assert digest_value(data) != digest_value(clear)


def test_experiment_gateway_outages_stay_out_of_the_shared_fleet():
    """A speed test's own gateway maintenance window (gateway_flap's
    overlay) applies to that experiment only. Were it installed on
    the fleet every terminal shares, later terminals' pings would
    depend on which speed tests ran before them in the same process,
    and the sharded run would diverge from the serial one."""
    cfg = _fleet_config(terminals=2, st_epochs=1)
    cfg.scenario = "gateway_flap"
    serial = Campaign(cfg).run_fleet()
    sharded = Campaign(cfg).run_fleet(workers=2, granularity=3)
    assert digest_value(sharded) == digest_value(serial)


def test_classic_datasets_unchanged_by_fleet_knobs():
    """Turning fleet mode on must not move a single classic byte."""
    base = quick_config(seed=4)
    base.ping_days = 1.0
    with_fleet = quick_config(seed=4)
    with_fleet.ping_days = 1.0
    with_fleet.fleet_terminals = 8
    a = Campaign(base).run_pings()
    b = Campaign(with_fleet).run_pings()
    assert digest_value(a) == digest_value(b)


def test_cli_fleet_artefact(capsys):
    assert main(["fleet", "--terminals", "2", "--ping-days", "1"]) == 0
    out = capsys.readouterr().out
    assert "Fleet campaign: 2 terminals" in out
    assert "oversubscription" in out


def test_cli_terminals_validation():
    with pytest.raises(SystemExit):
        main(["fleet", "--terminals", "0"])
