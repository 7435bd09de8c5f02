"""The shared-context memo keys are derived from declared fields.

Every :class:`CampaignConfig` field is declared either model-relevant
(:data:`MODEL_FIELDS`: it feeds the scheduler, the scenario or the
terminal placement, so it must be in the memo key of the shared
contexts) or execution-only. Perturbing each field one at a time pins
both halves of that declaration: a model field always moves the key,
and an execution-only field never moves anything a context is built
from. A new config field that is declared nowhere fails here.
"""

import dataclasses

import pytest

from repro.core.campaign import CampaignConfig
from repro.disrupt.scenarios import build_scenario, scenario_names
from repro.exec.units import (
    EXECUTION_ONLY_FIELDS,
    MODEL_FIELDS,
    _CONTEXTS,
    _FLEET_CONTEXTS,
    context_for,
    fleet_context_for,
    fleet_spec_for,
    model_key,
)
from repro.leo.fleet import build_fleet_terminals
from repro.leo.mobility import build_mobility

FIELD_NAMES = [f.name for f in dataclasses.fields(CampaignConfig)]

#: Perturbations for fields whose generic one (flip a bool, add one
#: to an int, double a float) would be invalid or a no-op.
PERTURBED = {
    "ping_loss_prob": 0.01,
    "speed_kmh": 45.0,
    "scenario": "gateway_flap",
    "cc": "bbr",
    "trajectory": "stationary",
    "obstruction": "none",
    "resource_policy": "raise",
    "memory_budget_mb": 64.0,
    "fleet_lat_bands": ((45.0, 47.0),),
    "fleet_lon_range": (1.0, 3.0),
}


def _base() -> CampaignConfig:
    """A config where every model field is live: a drive under
    roadside obstruction, a fleet, and a short campaign."""
    return CampaignConfig(seed=3, ping_days=2.0, scenario="rain_fade",
                          trajectory="drive", speed_kmh=30.0,
                          obstruction="roadside", fleet_terminals=2)


def _perturbed(config: CampaignConfig, name: str) -> CampaignConfig:
    value = getattr(config, name)
    if name in PERTURBED:
        new = PERTURBED[name]
    elif isinstance(value, bool):
        new = not value
    elif isinstance(value, int):
        new = value + 1
    else:
        new = value * 2.0
    assert new != value, name
    return dataclasses.replace(config, **{name: new})


def _model_inputs(config: CampaignConfig) -> tuple:
    """Everything the shared contexts are built from, under every
    scenario (each builder reads its own config fields)."""
    trajectory, obstruction = build_mobility(config)
    return (
        [build_scenario(name, config) for name in scenario_names()],
        trajectory,
        vars(obstruction) if obstruction is not None else None,
        build_fleet_terminals(fleet_spec_for(config)),
    )


def test_every_field_is_declared_exactly_once():
    assert not set(MODEL_FIELDS) & set(EXECUTION_ONLY_FIELDS)
    assert sorted(MODEL_FIELDS + EXECUTION_ONLY_FIELDS) \
        == sorted(FIELD_NAMES)


@pytest.mark.parametrize("name", FIELD_NAMES)
def test_field_changes_key_or_is_execution_only(name):
    base = _base()
    changed = model_key(_perturbed(base, name)) != model_key(base)
    assert changed or name in EXECUTION_ONLY_FIELDS
    assert changed == (name in MODEL_FIELDS)


@pytest.mark.parametrize("name", EXECUTION_ONLY_FIELDS)
def test_execution_only_field_leaves_model_inputs_alone(name):
    base = _base()
    assert _model_inputs(_perturbed(base, name)) == _model_inputs(base)


def test_contexts_split_on_model_fields_and_share_otherwise():
    base = _base()
    ctx = context_for(base)
    fleet_ctx = fleet_context_for(base)
    try:
        assert context_for(_perturbed(base, "cc")) is ctx
        assert fleet_context_for(_perturbed(base, "cc")) is fleet_ctx
        moved = _perturbed(base, "speed_kmh")
        assert context_for(moved) is not ctx
        assert fleet_context_for(moved) is not fleet_ctx
    finally:
        for memo in (_CONTEXTS, _FLEET_CONTEXTS):
            for config in (base, _perturbed(base, "speed_kmh")):
                memo.pop(model_key(config), None)
