"""Packet-loss processes for simulated links.

Two physically distinct loss mechanisms matter in the paper:

* congestion loss, which is *not* modelled here -- it emerges from
  finite queues in :mod:`repro.netsim.queues`;
* medium loss (radio imperfections, micro-outages), modelled by the
  processes in this module and attached to the satellite links.

All processes are deterministic given their ``random.Random`` seed, so
experiments are reproducible.
"""

from __future__ import annotations

import random
from math import log
from typing import Protocol as TypingProtocol

from repro.errors import ConfigurationError


class LossModel(TypingProtocol):
    """Interface: decide whether a packet sent at ``now`` is lost."""

    def is_lost(self, now: float) -> bool:  # pragma: no cover - protocol
        ...


class NoLoss:
    """Never drops anything. The default for every link."""

    def is_lost(self, now: float) -> bool:
        return False


class BernoulliLoss:
    """Independent per-packet loss with fixed probability."""

    def __init__(self, probability: float, rng: random.Random | None = None):
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError(
                f"loss probability must be in [0,1], got {probability}")
        self.probability = probability
        self._rng = rng or random.Random(0)

    def is_lost(self, now: float) -> bool:
        return self._rng.random() < self.probability


class GilbertElliottLoss:
    """Two-state bursty loss channel.

    The channel is in a Good or Bad state; transitions occur per
    packet with probabilities ``p_good_to_bad`` and ``p_bad_to_good``.
    Packets are lost with ``loss_good`` (usually 0) in the Good state
    and ``loss_bad`` (usually near 1) in the Bad state. This produces
    the rare-but-long loss bursts the paper attributes to the medium
    (Fig. 4b): mean burst length ~ 1 / p_bad_to_good.
    """

    def __init__(self, p_good_to_bad: float, p_bad_to_good: float,
                 loss_good: float = 0.0, loss_bad: float = 1.0,
                 rng: random.Random | None = None):
        for name, p in (("p_good_to_bad", p_good_to_bad),
                        ("p_bad_to_good", p_bad_to_good),
                        ("loss_good", loss_good), ("loss_bad", loss_bad)):
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"{name} must be in [0,1], got {p}")
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self._rng = rng or random.Random(0)
        self._in_bad_state = False

    @property
    def in_bad_state(self) -> bool:
        """Whether the channel is currently in the Bad state."""
        return self._in_bad_state

    def stationary_loss_rate(self) -> float:
        """Long-run average loss probability of the channel."""
        denom = self.p_good_to_bad + self.p_bad_to_good
        if denom == 0:
            return self.loss_bad if self._in_bad_state else self.loss_good
        pi_bad = self.p_good_to_bad / denom
        return pi_bad * self.loss_bad + (1 - pi_bad) * self.loss_good

    def is_lost(self, now: float) -> bool:
        if self._in_bad_state:
            if self._rng.random() < self.p_bad_to_good:
                self._in_bad_state = False
        else:
            if self._rng.random() < self.p_good_to_bad:
                self._in_bad_state = True
        rate = self.loss_bad if self._in_bad_state else self.loss_good
        return self._rng.random() < rate


class TimedGilbertElliottLoss:
    """Gilbert-Elliott channel whose states live in continuous *time*.

    Radio impairments occupy time windows, not packet counts: a 25 ms
    fade costs a 3 Mbit/s message stream a handful of packets but a
    130 Mbit/s bulk transfer hundreds. Modelling the sojourn times
    (exponential with means ``mean_good_s`` / ``mean_bad_s``) rather
    than per-packet transition probabilities reproduces exactly that
    rate dependence (paper Sec. 3.2).
    """

    def __init__(self, mean_good_s: float, mean_bad_s: float,
                 loss_good: float = 0.0, loss_bad: float = 1.0,
                 rng: random.Random | None = None):
        if mean_good_s <= 0 or mean_bad_s <= 0:
            raise ConfigurationError("state sojourn means must be positive")
        for name, p in (("loss_good", loss_good), ("loss_bad", loss_bad)):
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"{name} must be in [0,1], got {p}")
        self.mean_good_s = mean_good_s
        self.mean_bad_s = mean_bad_s
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self._rng = rng or random.Random(0)
        self._in_bad_state = False
        self._state_until = self._rng.expovariate(1.0 / mean_good_s)

    @property
    def in_bad_state(self) -> bool:
        """Whether the channel is currently in the Bad state."""
        return self._in_bad_state

    def fraction_bad(self) -> float:
        """Long-run fraction of time spent in the Bad state."""
        return self.mean_bad_s / (self.mean_good_s + self.mean_bad_s)

    def _advance(self, now: float) -> None:
        until = self._state_until
        if now < until:
            return
        # The first packet of an experiment can sit months into the
        # campaign, so this walks a long chain of sojourns. The draw
        # is random.expovariate(1/mean) inlined: the same floats from
        # the same stream, without a method call per sojourn.
        draw = self._rng.random
        good_rate = 1.0 / self.mean_good_s
        bad_rate = 1.0 / self.mean_bad_s
        bad = self._in_bad_state
        if bad:
            bad = False
            until += -log(1.0 - draw()) / good_rate
        # One good -> bad -> good cycle per iteration.
        while now >= until:
            until += -log(1.0 - draw()) / bad_rate
            if now < until:
                bad = True
                break
            until += -log(1.0 - draw()) / good_rate
        self._in_bad_state = bad
        self._state_until = until

    def is_lost(self, now: float) -> bool:
        self._advance(now)
        rate = self.loss_bad if self._in_bad_state else self.loss_good
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        return self._rng.random() < rate


class OutageSchedule:
    """Loses everything during scheduled connectivity gaps.

    Models the paper's ">1 second" loss events (satellite handover
    failures, obstruction sweeps). ``outages`` is a list of
    ``(start_time, duration)`` pairs in simulated seconds.
    """

    def __init__(self, outages: list[tuple[float, float]]):
        for start, duration in outages:
            if duration < 0:
                raise ConfigurationError(
                    f"outage duration must be >= 0, got {duration}")
        self.outages = sorted(outages)

    @classmethod
    def poisson(cls, horizon: float, rate_per_hour: float,
                mean_duration: float,
                rng: random.Random | None = None) -> "OutageSchedule":
        """Random outages: Poisson arrivals, exponential durations."""
        rng = rng or random.Random(0)
        outages = []
        t = 0.0
        mean_gap = 3600.0 / rate_per_hour if rate_per_hour > 0 else None
        if mean_gap is not None:
            while True:
                t += rng.expovariate(1.0 / mean_gap)
                if t >= horizon:
                    break
                outages.append((t, rng.expovariate(1.0 / mean_duration)))
        return cls(outages)

    def in_outage(self, now: float) -> bool:
        """Whether ``now`` falls inside any scheduled outage."""
        for start, duration in self.outages:
            if start > now:
                return False
            if now < start + duration:
                return True
        return False

    def is_lost(self, now: float) -> bool:
        return self.in_outage(now)


class UnservedLoss:
    """Loses everything while the access has no servable path.

    The mobility counterpart of :class:`OutageSchedule`: instead of a
    precomputed window list, ``probe(now)`` asks the scheduler whether
    the slot under ``now`` is unservable (full-sky obstruction, or
    churn that left no satellite/gateway pair) — so drive-through
    outages emerge from geometry at packet granularity. Draws no
    randomness, leaving sibling loss models' RNG streams untouched.
    """

    def __init__(self, probe):
        self._probe = probe

    def is_lost(self, now: float) -> bool:
        return bool(self._probe(now))


class CompositeLoss:
    """Union of several loss processes (lost if *any* model drops)."""

    def __init__(self, models: list):
        self.models = list(models)

    def is_lost(self, now: float) -> bool:
        # Evaluate all models so stateful ones (Gilbert-Elliott)
        # advance their chains regardless of earlier verdicts.
        verdicts = [model.is_lost(now) for model in self.models]
        return any(verdicts)
