"""FaultPlan tests: each fault kind fires deterministically."""

import pytest

from repro.errors import ConfigurationError
from repro.leo.constellation import Constellation
from repro.leo.fleet import FleetScheduler
from repro.leo.ground import STARLINK_GATEWAYS, default_terminal
from repro.leo.scheduling import SLOT_DURATION
from repro.netsim.engine import Simulator
from repro.netsim.link import Pipe
from repro.netsim.packet import Packet, Protocol
from repro.netsim.queues import DropTailQueue
from repro.testing.faults import FaultPlan
from repro.testing.invariants import check_invariants


class Sink:
    def __init__(self):
        self.name = "sink"
        self.address = "10.9.9.9"
        self.times = []

    def receive(self, packet, pipe):
        self.times.append(pipe.sim.now)


def steady_traffic(sim, pipe, n=40, interval=0.1, size=500):
    for i in range(n):
        sim.at(i * interval, pipe.send,
               Packet(src="10.0.0.1", dst="10.9.9.9",
                      protocol=Protocol.UDP, size=size))


def test_link_flap_blacks_out_the_window_only():
    sim = Simulator()
    sink = Sink()
    pipe = Pipe(sim, sink, rate=1e6, delay=0.005, name="flappy")
    plan = FaultPlan(seed=1)
    plan.inject_link_flap(pipe, at=1.0, duration=1.0)
    plan.arm(sim)
    steady_traffic(sim, pipe)
    with check_invariants(sim, pipe):
        sim.run_until_idle()
    assert pipe.lost_medium == 10  # sends in [1.0, 2.0)
    assert all(t < 1.0 or t >= 2.0 for t in sink.times)
    assert len(sink.times) == 30


def test_link_flap_composes_with_existing_loss_model():
    sim = Simulator()
    sink = Sink()
    pipe = Pipe(sim, sink, rate=1e6, delay=0.005)
    before = pipe.loss
    FaultPlan(seed=1).inject_link_flap(pipe, at=0.5,
                                       duration=0.2).arm(sim)
    assert pipe.loss is not before
    assert before in pipe.loss.models


def test_queue_storm_overflows_the_queue():
    sim = Simulator()
    sink = Sink()
    pipe = Pipe(sim, sink, rate=64_000.0, delay=0.001,
                queue=DropTailQueue(capacity_packets=8), name="stormy")
    plan = FaultPlan(seed=2)
    plan.inject_queue_storm(pipe, at=0.5, packets=60, size=1200)
    plan.arm(sim)
    with check_invariants(sim, pipe):
        sim.run_until_idle()
    assert pipe.queue.drops > 0
    assert pipe.sent == 60


def test_cancellation_race_is_clean_on_correct_engine():
    sim = Simulator()
    plan = FaultPlan(seed=3)
    for at in (0.5, 1.0, 1.5):
        plan.inject_cancellation_race(at)
    plan.arm(sim)
    with check_invariants(sim):
        sim.run()
    plan.assert_cancellation_clean()
    # the cancellers fired, the victims never did
    assert sim.events_processed == 3


def test_assert_cancellation_clean_raises_when_victims_fire(monkeypatch):
    # Break cancellation on purpose: with Event.cancel a no-op, the
    # victim of every race fires, and the checker must say so instead
    # of silently passing (the failure mode is itself under test).
    from repro.netsim.engine import Event

    monkeypatch.setattr(Event, "cancel", lambda self: None)
    sim = Simulator()
    plan = FaultPlan(seed=5)
    plan.inject_cancellation_race(0.5)
    plan.inject_cancellation_race(1.0)
    plan.arm(sim)
    sim.run()
    with pytest.raises(AssertionError,
                       match=r"2 cancelled event\(s\) fired"):
        plan.assert_cancellation_clean()


def _single_dish():
    return FleetScheduler(Constellation(), [default_terminal()],
                          STARLINK_GATEWAYS, seeds=[0])


def test_satellite_outage_forces_handover_at_boundary():
    scheduler = _single_dish()
    at = 100.0
    serving = scheduler.snapshot_at(0, at).sat_index
    boundary_slot = scheduler.slot_of(at) + 1
    plan = FaultPlan(seed=4)
    plan.inject_satellite_outage(scheduler, at=at, slots=3)
    plan.arm(Simulator())
    scheduler = plan.with_outages(scheduler)
    # the allocation in force is untouched...
    assert scheduler.snapshot_at(0, at).sat_index == serving
    # ...but the failed bird never serves inside the outage window
    for slot in range(boundary_slot, boundary_slot + 3):
        assert scheduler.snapshot_at(
            0, slot * SLOT_DURATION).sat_index != serving


def test_satellite_outage_is_deterministic():
    snaps = []
    for _ in range(2):
        scheduler = _single_dish()
        plan = FaultPlan(seed=4)
        plan.inject_satellite_outage(scheduler, at=100.0, slots=2)
        plan.arm(Simulator())
        scheduler = plan.with_outages(scheduler)
        snaps.append([scheduler.snapshot_at(0, t).sat_index
                      for t in (90.0, 105.0, 120.0, 135.0, 150.0)])
    assert snaps[0] == snaps[1]


def test_randomize_is_replayable():
    def build():
        sim = Simulator()
        pipes = [Pipe(sim, Sink(), rate=1e6, delay=0.01, name=f"p{i}")
                 for i in range(3)]
        return FaultPlan(seed=11).randomize(pipes, start=0.0,
                                            horizon=5.0, n_faults=6)

    first, second = build(), build()
    assert [f.kind for f in first.log] == [f.kind for f in second.log]
    assert [f.at for f in first.log] == [f.at for f in second.log]
    assert len(first.log) == 6


def test_invalid_fault_parameters_rejected():
    pipe = Pipe(Simulator(), Sink(), rate=1e6)
    with pytest.raises(ConfigurationError):
        FaultPlan().inject_link_flap(pipe, at=1.0, duration=0.0)
    with pytest.raises(ConfigurationError):
        FaultPlan().inject_link_flap("not-a-pipe", at=1.0, duration=1.0)
    with pytest.raises(ConfigurationError):
        FaultPlan().inject_queue_storm("not-a-pipe", at=1.0)
    with pytest.raises(ConfigurationError):
        FaultPlan().randomize([], start=0.0, horizon=1.0)
