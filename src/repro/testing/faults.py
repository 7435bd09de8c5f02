"""Deterministic fault injection for netsim and the LEO scheduler.

A :class:`FaultPlan` is a seeded recipe of faults -- link flaps,
satellite outages at 15 s reallocation boundaries, queue-overflow
storms, event-cancellation races -- built up with the ``inject_*``
methods (or :meth:`randomize`) and applied with :meth:`arm` (satellite
outages are scheduler inputs: :meth:`with_outages` builds the
scheduler that carries them). All
randomness flows through :func:`repro.rng.make_rng`, so a plan with a
given seed injects the exact same faults on every run; robustness of
the transport and campaign layers is exercised on purpose rather than
by luck.

::

    plan = FaultPlan(seed=3)
    plan.inject_link_flap(access.space_link, at=2.0, duration=0.5)
    plan.inject_queue_storm(access.space_link.pipe_ab, at=3.0)
    plan.arm(access.sim)
    access.run(10.0)
    plan.assert_cancellation_clean()
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.netsim.engine import Simulator
from repro.netsim.link import Link, Pipe
from repro.netsim.loss import CompositeLoss, OutageSchedule
from repro.netsim.packet import Packet, Protocol
from repro.rng import make_rng

#: TEST-NET-3 source address stamped on storm filler packets.
STORM_SRC = "203.0.113.250"
#: Discard port: hosts and routers silently consume unbound TCP.
STORM_PORT = 9


@dataclass(frozen=True)
class InjectedFault:
    """Log entry describing one armed fault (for test diagnostics)."""

    kind: str
    at: float
    detail: str


def _pipes_of(target) -> list[Pipe]:
    if isinstance(target, Pipe):
        return [target]
    if isinstance(target, Link):
        return [target.pipe_ab, target.pipe_ba]
    raise ConfigurationError(
        f"expected a Pipe or Link to inject into, got {target!r}")


class FaultPlan:
    """A seeded, replayable set of faults to inject into one run."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.rng = make_rng(("fault-plan", seed))
        self.log: list[InjectedFault] = []
        #: Injected satellite outages: (sat_index, start, end slot).
        self.satellite_outages: list[tuple[int, int, int]] = []
        self._arm_fns: list = []
        self._cancelled_fired = 0
        self._races_armed = 0

    # -- individual faults ----------------------------------------------

    def inject_link_flap(self, target, at: float,
                         duration: float) -> "FaultPlan":
        """Blackout every packet on ``target`` during the window.

        Models a micro-outage / obstruction sweep: the pipe's loss
        model is wrapped so the flap composes with (and keeps
        advancing) whatever loss process the link already has.
        """
        if duration <= 0:
            raise ConfigurationError(
                f"flap duration must be positive, got {duration}")
        pipes = _pipes_of(target)

        def arm(sim: Simulator) -> None:
            for pipe in pipes:
                pipe.loss = CompositeLoss(
                    [pipe.loss, OutageSchedule([(at, duration)])])

        self._arm_fns.append(arm)
        self.log.append(InjectedFault(
            "link-flap", at,
            f"{duration:.3f}s blackout on {len(pipes)} pipe(s)"))
        return self

    def inject_satellite_outage(self, scheduler, at: float,
                                slots: int = 2) -> "FaultPlan":
        """Fail the satellite serving the scheduler's first terminal at
        ``at`` from the next reallocation boundary, for ``slots``
        scheduler slots.

        Starting at the boundary (not mid-slot) matches how the real
        scheduler reacts: the 15 s allocation in force is never
        revoked, the *next* allocation simply avoids the failed bird.
        Schedulers are immutable, so the outage is recorded here and
        :meth:`with_outages` builds the scheduler that carries it.
        """
        slot = scheduler.slot_of(at)
        sat = scheduler.snapshot_at(0, at).sat_index
        self.satellite_outages.append((sat, slot + 1, slot + 1 + slots))
        self.log.append(InjectedFault(
            "satellite-outage", (slot + 1) * 15.0,
            f"sat {sat} out for {slots} slot(s)"))
        return self

    def with_outages(self, scheduler):
        """``scheduler`` with every injected satellite outage."""
        return scheduler.with_outages(outages=self.satellite_outages)

    def inject_queue_storm(self, pipe: Pipe, at: float,
                           packets: int = 80,
                           size: int = 1200) -> "FaultPlan":
        """Flood ``pipe`` with filler traffic at time ``at``.

        The burst saturates the serialiser and overflows the egress
        queue, producing the drop storm; filler packets are addressed
        to the pipe's own destination on the TCP discard port so they
        terminate there without generating replies.
        """
        if not isinstance(pipe, Pipe):
            raise ConfigurationError(
                f"queue storms target a single Pipe, got {pipe!r}")

        def storm() -> None:
            dst = getattr(pipe.dst, "address", "0.0.0.0")
            for _ in range(packets):
                pipe.send(Packet(
                    src=STORM_SRC, dst=dst, protocol=Protocol.TCP,
                    size=size, dst_port=STORM_PORT,
                    created_at=pipe.sim.now))

        def arm(sim: Simulator) -> None:
            sim.at(at, storm)

        self._arm_fns.append(arm)
        self.log.append(InjectedFault(
            "queue-storm", at, f"{packets} x {size}B into {pipe.name!r}"))
        return self

    def inject_cancellation_race(self, at: float) -> "FaultPlan":
        """Schedule a cancel/fire race at exactly time ``at``.

        Two events share the timestamp: the first (by insertion order,
        so by tie-break the first to run) cancels the second. A
        correct engine must skip the cancelled victim even though it
        was already due; :meth:`assert_cancellation_clean` verifies no
        victim ever fired.
        """

        def arm(sim: Simulator) -> None:
            def victim() -> None:
                self._cancelled_fired += 1

            canceller_slot: list = []

            def canceller() -> None:
                canceller_slot[0].cancel()

            canceller_event = sim.at(at, canceller)  # noqa: F841
            canceller_slot.append(sim.at(at, victim))

        self._arm_fns.append(arm)
        self._races_armed += 1
        self.log.append(InjectedFault(
            "cancellation-race", at, "cancel-at-same-timestamp pair"))
        return self

    # -- random plans -----------------------------------------------------

    def randomize(self, pipes: list[Pipe], start: float, horizon: float,
                  n_faults: int = 4, scheduler=None) -> "FaultPlan":
        """Add ``n_faults`` seeded-random faults in ``[start, start+horizon)``.

        Satellite outages are only drawn when a ``scheduler`` is
        supplied (apply them with :meth:`with_outages`); everything
        else targets the given pipes.
        """
        if not pipes:
            raise ConfigurationError("randomize needs at least one pipe")
        kinds = ["flap", "storm", "race"]
        if scheduler is not None:
            kinds.append("outage")
        for _ in range(n_faults):
            kind = self.rng.choice(kinds)
            at = start + self.rng.random() * horizon
            if kind == "flap":
                self.inject_link_flap(
                    self.rng.choice(pipes), at,
                    duration=0.05 + self.rng.random() * 0.5)
            elif kind == "storm":
                self.inject_queue_storm(
                    self.rng.choice(pipes), at,
                    packets=20 + self.rng.randrange(100))
            elif kind == "race":
                self.inject_cancellation_race(at)
            else:
                self.inject_satellite_outage(
                    scheduler, at, slots=1 + self.rng.randrange(3))
        return self

    # -- application -------------------------------------------------------

    def arm(self, sim: Simulator) -> "FaultPlan":
        """Apply every fault to ``sim`` (idempotence not supported:
        arm a fresh plan per run so replays stay deterministic)."""
        for fn in self._arm_fns:
            fn(sim)
        self._arm_fns.clear()
        return self

    def assert_cancellation_clean(self) -> None:
        """Raise if any cancelled victim event fired."""
        if self._cancelled_fired:
            raise AssertionError(
                f"{self._cancelled_fired} cancelled event(s) fired "
                f"(of {self._races_armed} races armed)")

    def __repr__(self) -> str:
        return (f"<FaultPlan seed={self.seed} faults={len(self.log)} "
                f"armed={not self._arm_fns}>")
