"""Tests for the loss processes."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.netsim.loss import (
    BernoulliLoss,
    CompositeLoss,
    GilbertElliottLoss,
    NoLoss,
    OutageSchedule,
    TimedGilbertElliottLoss,
)


def test_no_loss_never_drops():
    model = NoLoss()
    assert not any(model.is_lost(t) for t in range(1000))


def test_bernoulli_extremes():
    assert not any(BernoulliLoss(0.0).is_lost(0) for _ in range(100))
    assert all(BernoulliLoss(1.0).is_lost(0) for _ in range(100))


def test_bernoulli_rate_close_to_probability():
    model = BernoulliLoss(0.2, rng=random.Random(7))
    n = 20_000
    losses = sum(model.is_lost(0) for _ in range(n))
    assert losses / n == pytest.approx(0.2, abs=0.01)


def test_bernoulli_rejects_bad_probability():
    with pytest.raises(ConfigurationError):
        BernoulliLoss(1.5)
    with pytest.raises(ConfigurationError):
        BernoulliLoss(-0.1)


def test_gilbert_elliott_is_bursty():
    """Losses cluster: mean burst length ~ 1 / p_bad_to_good."""
    model = GilbertElliottLoss(p_good_to_bad=0.001, p_bad_to_good=0.2,
                               loss_bad=1.0, rng=random.Random(3))
    outcomes = [model.is_lost(0) for _ in range(200_000)]
    bursts = []
    current = 0
    for lost in outcomes:
        if lost:
            current += 1
        elif current:
            bursts.append(current)
            current = 0
    if current:
        bursts.append(current)
    assert bursts, "expected some loss bursts"
    mean_burst = sum(bursts) / len(bursts)
    assert mean_burst == pytest.approx(1 / 0.2, rel=0.25)


def test_gilbert_elliott_stationary_rate():
    model = GilbertElliottLoss(p_good_to_bad=0.01, p_bad_to_good=0.1,
                               loss_bad=1.0, rng=random.Random(5))
    expected = model.stationary_loss_rate()
    assert expected == pytest.approx(0.01 / 0.11, rel=1e-6)
    n = 200_000
    measured = sum(model.is_lost(0) for _ in range(n)) / n
    assert measured == pytest.approx(expected, rel=0.1)


def test_gilbert_elliott_validates_probabilities():
    with pytest.raises(ConfigurationError):
        GilbertElliottLoss(p_good_to_bad=2.0, p_bad_to_good=0.1)


def test_outage_schedule_membership():
    schedule = OutageSchedule([(10.0, 2.0), (100.0, 0.5)])
    assert not schedule.is_lost(9.99)
    assert schedule.is_lost(10.0)
    assert schedule.is_lost(11.9)
    assert not schedule.is_lost(12.0)
    assert schedule.is_lost(100.2)
    assert not schedule.is_lost(101.0)


def test_outage_schedule_poisson_respects_horizon():
    schedule = OutageSchedule.poisson(
        horizon=3600.0, rate_per_hour=10.0, mean_duration=2.0,
        rng=random.Random(11))
    assert all(start < 3600.0 for start, _ in schedule.outages)
    assert schedule.outages  # 10/h over an hour: ~10 expected


def test_outage_schedule_zero_rate_empty():
    schedule = OutageSchedule.poisson(3600.0, 0.0, 2.0)
    assert schedule.outages == []


def test_composite_loss_any_semantics():
    composite = CompositeLoss([NoLoss(), BernoulliLoss(1.0)])
    assert composite.is_lost(0)
    composite = CompositeLoss([NoLoss(), NoLoss()])
    assert not composite.is_lost(0)


def test_composite_advances_all_models():
    """Stateful members advance even when an earlier member drops."""
    ge = GilbertElliottLoss(p_good_to_bad=1.0, p_bad_to_good=0.0,
                            loss_bad=1.0, rng=random.Random(1))
    composite = CompositeLoss([BernoulliLoss(1.0), ge])
    composite.is_lost(0)
    assert ge.in_bad_state


@settings(max_examples=25)
@given(p_gb=st.floats(min_value=0.001, max_value=0.5),
       p_bg=st.floats(min_value=0.001, max_value=0.5))
def test_property_ge_stationary_formula(p_gb, p_bg):
    model = GilbertElliottLoss(p_good_to_bad=p_gb, p_bad_to_good=p_bg)
    rate = model.stationary_loss_rate()
    assert 0.0 <= rate <= 1.0
    assert rate == pytest.approx(p_gb / (p_gb + p_bg))


def _sojourn_walk(seed: int, mean_good: float, mean_bad: float,
                  times: list[float]) -> list[tuple[bool, float]]:
    """The timed chain stepped one sojourn at a time with
    ``random.expovariate``: the reference for the batched walk."""
    rng = random.Random(seed)
    bad, until = False, rng.expovariate(1.0 / mean_good)
    states = []
    for now in times:
        while now >= until:
            bad = not bad
            until += rng.expovariate(1.0 / (mean_bad if bad
                                            else mean_good))
        states.append((bad, until))
    return states


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16),
       mean_good=st.floats(0.5, 50.0),
       mean_bad=st.floats(0.001, 5.0),
       steps=st.lists(st.floats(0.0, 500.0), min_size=1, max_size=20))
def test_property_timed_ge_walk_matches_sojourn_steps(seed, mean_good,
                                                      mean_bad, steps):
    """Same states, same boundaries and the same RNG stream position
    as stepping every sojourn through ``expovariate``."""
    times = []
    now = 0.0
    for step in steps:
        now += step
        times.append(now)
    model = TimedGilbertElliottLoss(mean_good_s=mean_good,
                                    mean_bad_s=mean_bad,
                                    rng=random.Random(seed))
    states = []
    for now in times:
        model._advance(now)
        states.append((model.in_bad_state, model._state_until))
    assert states == _sojourn_walk(seed, mean_good, mean_bad, times)
