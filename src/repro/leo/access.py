"""Assembled Starlink access network.

Two views of the same model:

* :class:`StarlinkPathModel` -- analytic per-packet delay samples
  (geometry + processing + scheduling jitter). The five-month ping
  campaign samples this directly, which is what makes simulating
  months of latency data tractable.
* :class:`StarlinkAccess` -- a packet-level topology for transport
  experiments: client -> dish NAT (192.168.1.1) -> service link
  (time-varying rate/delay/loss) -> CGNAT (100.64.0.1) -> PoP ->
  servers. The service-link delay callables *wrap the same path
  model*, so both views agree by construction.

Topology note: the netsim PoP is one logical exit node; per-server
fibre legs are computed from the PoP in force at the experiment epoch.
Mid-experiment gateway switches still move the delay through the
snapshot term of the path model.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.rng import make_rng
from repro.errors import ConfigurationError
from repro.leo.channel import StarlinkChannel
from repro.leo.constellation import Constellation
from repro.leo.events import CampaignTimeline
from repro.leo.geometry import GeoPoint, fiber_path_delay
from repro.leo.ground import (
    STARLINK_GATEWAYS,
    STARLINK_POPS,
    UserTerminal,
    default_terminal,
)
from repro.leo.fleet import FleetScheduler
from repro.leo.scheduling import SLOT_DURATION, PathSnapshot
from repro.netsim.engine import Simulator
from repro.netsim.loss import CompositeLoss, UnservedLoss
from repro.netsim.queues import DropTailQueue
from repro.netsim.topology import Network
from repro.units import gbps, kib, mbps, ms

#: Deterministic stand-in for the slot-constant base delay while no
#: path is servable (drive-through outage). Packets in such slots are
#: dropped by :class:`~repro.netsim.loss.UnservedLoss`, so this value
#: only shapes stragglers already in flight — it just has to be a
#: plausible constant, not geometry.
UNSERVED_FALLBACK_BASE_S = ms(30.0)


@dataclass
class StarlinkParams:
    """Every tunable of the Starlink model, with calibrated defaults.

    Calibration targets are the paper's measurements; see
    EXPERIMENTS.md for the fit. Defaults aim at: idle RTT median
    ~47 ms / min ~21 ms to Belgian anchors, Ookla-style download
    median ~178 Mbit/s, upload ~17 Mbit/s, H3 loaded RTT medians
    ~95/104 ms (down/up), loss ratios of Table 2.
    """

    #: Mean granted capacity before protocol overhead, bit/s.
    down_mean_bps: float = mbps(230)
    up_mean_bps: float = mbps(21)

    #: One-way modem + gateway processing, seconds.
    processing_one_way_s: float = ms(1.2)

    #: Per-direction scheduling-jitter gamma parameters. Jitter is a
    #: *process*: one draw per scheduling frame (``jitter_frame_s``),
    #: shared by all packets in the frame, plus a small per-packet
    #: dither. Independent per-packet draws would let the FIFO link
    #: serialise on the jitter and collapse throughput.
    jitter_shape_down: float = 1.8
    jitter_scale_down_s: float = ms(4.2)
    jitter_shape_up: float = 2.0
    jitter_scale_up_s: float = ms(4.6)
    jitter_floor_s: float = ms(1.0)
    jitter_frame_s: float = ms(15.0)
    jitter_dither_s: float = ms(0.8)

    #: Service-link buffer sizes (same order as the paper suggests:
    #: byte-sized queues, so the slow uplink drains much slower).
    down_queue_bytes: int = kib(3000)
    up_queue_bytes: int = kib(300)

    #: CGNAT + PoP processing, one way.
    pop_processing_s: float = ms(0.5)

    #: LAN between PC-Starlink and the dish router.
    lan_rate_bps: float = gbps(1)
    lan_delay_s: float = ms(0.2)

    #: Amplitude of an optional hour-of-day latency wobble. The paper
    #: found no diurnal pattern (Mood's test), so the default is zero;
    #: set it non-zero for what-if studies of loaded constellations.
    diurnal_amplitude_s: float = 0.0


class StarlinkPathModel:
    """Analytic one-way/RTT delay model of the Starlink access."""

    #: Class-level default for the per-slot base-delay cache (fast
    #: path); equivalence tests flip it to prove digests do not
    #: depend on it.
    base_cache_enabled = True

    def __init__(self, params: StarlinkParams | None = None,
                 constellation: Constellation | None = None,
                 terminal: UserTerminal | None = None,
                 timeline: CampaignTimeline | None = None,
                 seed: int = 0,
                 scheduler: FleetScheduler | None = None,
                 index: int = 0,
                 trajectory=None,
                 obstruction=None,
                 gateway_outages=()):
        self.params = params or StarlinkParams()
        self.timeline = timeline or CampaignTimeline()
        self.seed = seed
        if scheduler is None:
            # The classic single dish: a fleet of one terminal.
            scheduler = FleetScheduler(
                constellation or Constellation(),
                [terminal or default_terminal()], STARLINK_GATEWAYS,
                seeds=[seed], trajectories=[trajectory],
                obstructions=[obstruction],
                gateway_outages=gateway_outages)
        if not 0 <= index < scheduler.size:
            raise ConfigurationError(
                f"terminal index {index} outside fleet of "
                f"{scheduler.size}")
        #: The scheduler this model follows, and which of its
        #: terminals is this model's dish. ``constellation``,
        #: ``terminal``, ``trajectory``, ``obstruction`` and
        #: ``gateway_outages`` only build the scheduler when none is
        #: given.
        self.scheduler = scheduler
        self.index = index
        self.constellation = scheduler.constellation
        self.terminal = scheduler.terminals[index]
        self._fiber_cache: dict[str, float] = {}
        self._jitter_cache: dict[tuple[str, int], float] = {}
        #: Slot -> slot-constant part of base_one_way.
        self._base_cache: dict[int, float] = {}

    # -- building blocks ----------------------------------------------

    def base_one_way(self, t: float) -> float:
        """Deterministic one-way UT->PoP delay at time ``t``.

        Radio propagation over the bent pipe, gateway->PoP fibre,
        processing, the campaign-timeline adjustment and the diurnal
        wobble -- everything except per-packet jitter.

        The geometry + processing part is constant within one 15 s
        scheduler slot, so it is memoized per slot (the cached value
        is the identical left-to-right float sum the uncached
        expression produces -- only the time-varying timeline and
        diurnal terms are re-added per call). The scheduler's inputs
        are fixed at construction, so a cached slot never goes stale.
        """
        if self.base_cache_enabled:
            slot = self.scheduler.slot_of(t)
            base = self._base_cache.get(slot)
            if base is None:
                base = self._slot_base(t)
                if len(self._base_cache) > 50_000:
                    self._base_cache.clear()
                self._base_cache[slot] = base
        else:
            base = self._slot_base(t)
        return (base
                + self.timeline.extra_latency(t)
                + self._diurnal(t))

    def _slot_base(self, t: float) -> float:
        """Slot-constant part of :meth:`base_one_way` at time ``t``."""
        snap = self.snapshot(t)
        gw_to_pop = self._fiber_one_way(snap.gateway.name,
                                        snap.gateway.location,
                                        self.pop_location(t))
        return (snap.one_way_propagation + gw_to_pop
                + self.params.processing_one_way_s
                + self.params.pop_processing_s)

    def _fiber_one_way(self, key: str, a: GeoPoint, b: GeoPoint) -> float:
        cached = self._fiber_cache.get(key)
        if cached is None:
            cached = fiber_path_delay(a, b)
            self._fiber_cache[key] = cached
        return cached

    def _diurnal(self, t: float) -> float:
        amplitude = self.params.diurnal_amplitude_s
        if amplitude == 0.0:
            # Default configuration (the paper found no diurnal
            # pattern); skip the sin() -- the product below is +0.0
            # for every t, so the early-out is value-identical.
            return 0.0
        hour_angle = 2.0 * math.pi * (t % 86_400.0) / 86_400.0
        return amplitude * 0.5 * (1.0 + math.sin(hour_angle))

    def jitter(self, rng: random.Random, direction: str,
               t: float | None = None) -> float:
        """Scheduling-jitter sample for a packet sent at ``t``.

        The dominant component is drawn once per scheduling frame
        (time-bucketed, seeded), so packets within a frame share it;
        ``rng`` only adds sub-millisecond dither.
        """
        p = self.params
        if t is None:
            # No timestamp (pure statistical sampling): fresh draw.
            draw = self._jitter_draw(rng, direction)
        else:
            frame = int(t / p.jitter_frame_s)
            key = (direction, frame)
            draw = self._jitter_cache.get(key)
            if draw is None:
                frame_rng = make_rng((self.seed, "jit", direction, frame))
                draw = self._jitter_draw(frame_rng, direction)
                if len(self._jitter_cache) > 50_000:
                    self._jitter_cache.clear()
                self._jitter_cache[key] = draw
        return p.jitter_floor_s + draw + rng.uniform(0, p.jitter_dither_s)

    def _jitter_draw(self, rng: random.Random, direction: str) -> float:
        p = self.params
        if direction == "up":
            return rng.gammavariate(p.jitter_shape_up, p.jitter_scale_up_s)
        return rng.gammavariate(p.jitter_shape_down,
                                p.jitter_scale_down_s)

    def one_way_delay(self, t: float, rng: random.Random,
                      direction: str) -> float:
        """One-way UT->PoP (or PoP->UT) delay including jitter."""
        return self.base_one_way(t) + self.jitter(rng, direction, t)

    def snapshot(self, t: float) -> PathSnapshot:
        """This dish's path in force at time ``t`` (raises
        :class:`ConfigurationError` for unservable slots)."""
        return self.scheduler.snapshot_at(self.index, t)

    def pop_location(self, t: float) -> GeoPoint:
        """Location of the PoP in force at time ``t``."""
        return STARLINK_POPS[self.snapshot(t).pop].location

    def pop_name(self, t: float) -> str:
        """Name of the PoP in force at time ``t``."""
        return self.snapshot(t).pop

    # -- mobility / obstruction hardening ------------------------------

    @property
    def mobility_armed(self) -> bool:
        """Whether slots can be unservable from motion/obstruction."""
        return self.scheduler.mobility_armed(self.index)

    def is_unserved(self, t: float) -> bool:
        """Whether the slot under ``t`` has no servable path."""
        try:
            self.snapshot(t)
        except ConfigurationError:
            return True
        return False

    def fallback_one_way_delay(self, t: float, rng: random.Random,
                               direction: str) -> float:
        """Delay stand-in for packets crossing an unservable slot.

        Consumes exactly the same RNG draws as
        :meth:`one_way_delay` (jitter frame + dither), so packet
        streams that straddle an outage keep their sibling draws
        aligned with a run where the slot was servable.
        """
        return (UNSERVED_FALLBACK_BASE_S
                + self.timeline.extra_latency(t)
                + self._diurnal(t)
                + self.jitter(rng, direction, t))

    def pop_location_or_default(self, t: float,
                                scan_slots: int = 240) -> GeoPoint:
        """PoP location at ``t``, surviving unservable epochs.

        A full-sky obstruction at the experiment epoch must not crash
        topology construction: scan forward up to ``scan_slots``
        slots for the first servable path, falling back to the first
        gateway's PoP (the terminal's usual exit) if the whole scan
        window is dark.
        """
        for k in range(scan_slots):
            try:
                pop = self.snapshot(t + k * SLOT_DURATION).pop
            except ConfigurationError:
                continue
            return STARLINK_POPS[pop].location
        return STARLINK_POPS[self.scheduler.gateways[0].pop].location

    # -- campaign-level sampling ---------------------------------------

    def idle_rtt(self, t: float, rng: random.Random,
                 remote_rtt_s: float = 0.0) -> float:
        """One idle-link RTT sample at campaign time ``t``.

        ``remote_rtt_s`` is the PoP<->destination round trip (fibre
        path plus server turnaround), computed by the caller from the
        anchor's geography.
        """
        return (2.0 * self.base_one_way(t)
                + self.jitter(rng, "up", t)
                + self.jitter(rng, "down", t)
                + remote_rtt_s)


class StarlinkAccess:
    """Packet-level Starlink access network for one experiment epoch.

    Builds the topology the paper's traceroute saw: the client behind
    the dish router NAT (192.168.1.1), a CGNAT at the network exit
    (100.64.0.1) and the PoP. Call :meth:`add_remote_host` for every
    server/anchor the experiment needs, then :meth:`finalize`.
    """

    CLIENT_ADDRESS = "192.168.1.10"
    DISH_ADDRESS = "192.168.1.1"
    CGNAT_ADDRESS = "100.64.0.1"
    POP_ADDRESS = "149.6.128.1"

    def __init__(self, params: StarlinkParams | None = None,
                 seed: int = 0, epoch_t: float = 0.0,
                 timeline: CampaignTimeline | None = None,
                 constellation: Constellation | None = None,
                 path_model: StarlinkPathModel | None = None,
                 capacity_share: float = 1.0,
                 trajectory=None,
                 obstruction=None,
                 gateway_outages=()):
        self.params = params or StarlinkParams()
        self.seed = seed
        self.epoch_t = epoch_t
        #: Fraction of the terminal's capacity this access models (a
        #: per-connection shard of a multi-connection experiment runs
        #: at ``1/N``); rates and queue depth scale with it, latency
        #: and loss do not.
        self.capacity_share = capacity_share
        self.timeline = timeline or CampaignTimeline()
        # Every scheduler input (trajectory, obstruction, gateway
        # maintenance windows as (name, start_slot, end_slot)) is
        # fixed here: _build_access binds the path model into the
        # space link's loss and delay callables.
        self.path_model = path_model or StarlinkPathModel(
            params=self.params, constellation=constellation,
            timeline=self.timeline, seed=seed, trajectory=trajectory,
            obstruction=obstruction, gateway_outages=gateway_outages)
        self.channel = StarlinkChannel(
            down_mean=self.params.down_mean_bps,
            up_mean=self.params.up_mean_bps, seed=seed,
            share=capacity_share)
        self.channel.downlink.scale = self.timeline.capacity_scale(epoch_t)

        # The simulator clock runs at campaign time so geometry and
        # capacity are evaluated at the right epoch.
        self.net = Network(Simulator(start_time=epoch_t))
        self._build_access()
        self._remote_count = 0

    @property
    def sim(self):
        """The simulator driving this access network."""
        return self.net.sim

    @property
    def client(self):
        """PC-Starlink."""
        return self.net.host("client")

    def _build_access(self) -> None:
        p = self.params
        self.net.add_host("client", self.CLIENT_ADDRESS)
        self.net.add_nat("dish", self.DISH_ADDRESS, inside_neighbor="client")
        self.net.add_nat("cgnat", self.CGNAT_ADDRESS, inside_neighbor="dish")
        self.net.add_router("pop", self.POP_ADDRESS)

        self.net.connect("client", "dish", rate_ab=p.lan_rate_bps,
                         rate_ba=p.lan_rate_bps, delay=p.lan_delay_s)

        up_rng = make_rng((self.seed, "jitter", "up"))
        down_rng = make_rng((self.seed, "jitter", "down"))

        def up_delay(now: float) -> float:
            try:
                return self.path_model.one_way_delay(now, up_rng, "up")
            except ConfigurationError:
                return self.path_model.fallback_one_way_delay(
                    now, up_rng, "up")

        def down_delay(now: float) -> float:
            try:
                return self.path_model.one_way_delay(now, down_rng,
                                                     "down")
            except ConfigurationError:
                return self.path_model.fallback_one_way_delay(
                    now, down_rng, "down")

        loss_up = self.channel.make_loss_model("up")
        loss_down = self.channel.make_loss_model("down")
        if self.path_model.mobility_armed:
            # A moving/obstructed terminal can hit unservable slots;
            # packets crossing one are lost outright (geometry-driven
            # drive-through outage). Wired only when mobility is armed
            # so the classic pipeline pays zero per-packet probes.
            loss_up = CompositeLoss(
                [loss_up, UnservedLoss(self.path_model.is_unserved)])
            loss_down = CompositeLoss(
                [loss_down, UnservedLoss(self.path_model.is_unserved)])

        share = self.capacity_share
        space = self.net.connect(
            "dish", "cgnat",
            rate_ab=self.channel.uplink.rate_at,
            rate_ba=self._scaled_downlink_rate,
            delay=up_delay, delay_ba=down_delay,
            queue_ab=DropTailQueue(
                capacity_bytes=max(1, int(p.up_queue_bytes * share))),
            queue_ba=DropTailQueue(
                capacity_bytes=max(1, int(p.down_queue_bytes * share))),
            loss_ab=loss_up,
            loss_ba=loss_down)
        self.space_link = space

        self.net.connect("cgnat", "pop", rate_ab=gbps(10), rate_ba=gbps(10),
                         delay=ms(0.1))

    def _scaled_downlink_rate(self, now: float) -> float:
        return self.channel.downlink.rate_at(now)

    def add_remote_host(self, name: str, address: str,
                        location: GeoPoint,
                        access_rate_bps: float = gbps(1),
                        server_lan_delay_s: float = ms(0.3)):
        """Attach a server/anchor reachable through the PoP.

        The PoP->server delay is the fibre path from the PoP (as of
        the experiment epoch) to ``location`` plus a small server-side
        LAN delay.
        """
        host = self.net.add_host(name, address)
        pop_loc = self.path_model.pop_location_or_default(self.epoch_t)
        delay = fiber_path_delay(pop_loc, location) + server_lan_delay_s
        self.net.connect("pop", name, rate_ab=access_rate_bps,
                         rate_ba=access_rate_bps, delay=delay)
        self._remote_count += 1
        return host

    def finalize(self) -> None:
        """Install routes; call after all remote hosts are added."""
        self.net.finalize()

    def run(self, duration: float) -> None:
        """Run the simulation for ``duration`` seconds past the epoch."""
        self.net.sim.run(until=self.net.sim.now + duration)
