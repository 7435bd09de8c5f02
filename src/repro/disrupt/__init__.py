"""Adverse-conditions subsystem: seeded, named network disruptions.

Schedules rain-fade attenuation, satellite/gateway outages, exit-PoP
route withdrawals and load surges into the simulated Starlink access,
composed into reproducible named scenarios (``clear_sky``,
``rain_fade``, ``sat_outage``, ``gateway_flap``, ``storm``,
``wet_month``) selected via
:class:`repro.core.campaign.CampaignConfig.scenario` or
``python -m repro ... --scenario NAME``. ``wet_month`` is generated
rather than hand-placed: a seeded Markov rain chain
(:mod:`repro.disrupt.weather`) produces month-scale fade windows
whose packet experiments see the campaign-clock weather overlapping
their own epoch.
"""

from repro.disrupt.apply import (
    ScheduledExtraLoss,
    apply_to_access,
    apply_to_scheduler,
    gateway_outage_slots,
)
from repro.disrupt.scenarios import (
    DEFAULT_SCENARIO,
    Scenario,
    build_scenario,
    register_scenario,
    scenario_names,
    unregister_scenario,
)
from repro.disrupt.schedule import (
    CLEAR_SKY,
    DisruptionSchedule,
    DisruptionWindow,
)
from repro.disrupt.weather import (
    RAIN_STATES,
    WeatherParams,
    WeatherScenario,
    build_wet_month,
    fade_windows_from_rain,
    generate_rain_trace,
    wet_fraction,
)

__all__ = [
    "CLEAR_SKY",
    "DEFAULT_SCENARIO",
    "DisruptionSchedule",
    "DisruptionWindow",
    "RAIN_STATES",
    "Scenario",
    "ScheduledExtraLoss",
    "WeatherParams",
    "WeatherScenario",
    "apply_to_access",
    "apply_to_scheduler",
    "build_scenario",
    "build_wet_month",
    "fade_windows_from_rain",
    "gateway_outage_slots",
    "generate_rain_trace",
    "register_scenario",
    "scenario_names",
    "unregister_scenario",
    "wet_fraction",
]
