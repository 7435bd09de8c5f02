"""TCP connection machinery.

Byte-counting model: segments carry (seq, length) rather than
payload. Fidelity choices match the paper's hosts (Linux 5.x):

* Cubic congestion control (NewReno available for ablations);
* receive window autotuned from the 131072-byte kernel default up to
  6291456 bytes (dynamic right-sizing), the exact values the paper
  reports;
* SACK-based loss recovery: duplicate ACKs carry SACK ranges and the
  sender retransmits holes directly -- without this, burst losses
  after slow-start overshoot would take one RTT per hole to repair,
  which no modern stack does;
* FIN consumes one sequence number, so a pure FIN is acknowledged
  and retransmitted like data (the split-TCP PEP relies on this).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import TransportError
from repro.netsim.engine import Event, Simulator
from repro.netsim.packet import Packet
from repro.transport.base import DatagramSocket
from repro.transport.cc import DeliveryRateSample, make_controller
from repro.transport.rangeset import RangeSet
from repro.transport.rtt import RttEstimator

#: Maximum segment size (payload bytes per segment).
MSS = 1400
#: IP + TCP header overhead on the wire.
TCP_OVERHEAD = 40

#: Linux default and maximum receive window (paper Sec. 2).
DEFAULT_RWND = 131_072
MAX_RWND = 6_291_456


@dataclass
class TcpConfig:
    """Endpoint knobs."""

    cc: str = "cubic"
    initial_window: int | None = None   # bytes; None = RFC 6928 (10 MSS)
    #: Cubic's HyStart slow-start exit heuristic (other controllers
    #: ignore the knob).
    hystart: bool = True
    rwnd_default: int = DEFAULT_RWND
    rwnd_max: int = MAX_RWND
    autotune: bool = True
    delayed_ack_s: float = 0.04
    ack_every: int = 2
    dupack_threshold: int = 3
    #: Hole retransmissions allowed per incoming ACK during recovery.
    retx_per_ack: int = 2
    min_rto_s: float = 0.2
    syn_retry_s: float = 1.0
    sack_blocks: int = 4
    #: Spread transmissions at this rate instead of bursting the
    #: window (None = no pacing). Split-TCP PEPs pace the space
    #: segment at the provisioned plan rate. A controller that
    #: publishes its own ``pacing_rate_bps`` (BBR) overrides this
    #: static rate once its model has a bandwidth estimate.
    pacing_rate_bps: float | None = None


@dataclass
class TcpStats:
    """Counters for analysis."""

    segments_sent: int = 0
    segments_received: int = 0
    bytes_acked: int = 0
    retransmissions: int = 0
    fast_retransmits: int = 0
    timeouts: int = 0
    congestion_events: int = 0
    connect_time: float | None = None
    established_time: float | None = None
    #: (time, rtt) samples from non-retransmitted segments.
    rtt_samples: list[tuple[float, float]] = field(default_factory=list)

    @property
    def handshake_rtt(self) -> float | None:
        """SYN to ESTABLISHED, seconds."""
        if self.connect_time is None or self.established_time is None:
            return None
        return self.established_time - self.connect_time


@dataclass
class _Segment:
    seq: int
    length: int          # payload bytes
    span: int            # sequence units consumed (length, +1 for FIN)
    time_sent: float
    fin: bool = False
    retransmitted: bool = False
    sacked: bool = False
    retx_epoch: int = -1  # recovery epoch of the last retransmission
    #: Delivery-rate sampling (rate-estimation draft): the delivered
    #: counter and its timestamp when this segment first left, plus
    #: whether the sender was app-limited at that instant and the
    #: transmit time of its sample period's first segment (for the
    #: send-side interval bound that defeats ACK compression).
    delivered: int = 0
    delivered_time: float = 0.0
    app_limited: bool = False
    first_sent_time: float = 0.0

    @property
    def seq_end(self) -> int:
        return self.seq + self.span


def _segment_seq(segment: _Segment) -> int:
    return segment.seq


class TcpConnection:
    """One TCP endpoint. Created by ``tcp_connect`` or ``TcpServer``."""

    def __init__(self, sim: Simulator, socket, peer_addr: str,
                 peer_port: int, role: str,
                 config: TcpConfig | None = None):
        self.sim = sim
        self.socket = socket
        self.peer_addr = peer_addr
        self.peer_port = peer_port
        self.role = role
        self.config = config or TcpConfig()
        self.stats = TcpStats()

        self.cc = make_controller(self.config.cc, MSS,
                                  self.config.initial_window,
                                  hystart=self.config.hystart)
        self.rtt = RttEstimator()
        # Delivery-rate accounting (feeds model-based controllers).
        self._delivered = 0
        self._delivered_time = 0.0
        self._first_sent_time = 0.0

        # sender state (byte offsets; ISN fixed at 0 for clarity)
        self.snd_una = 0
        self.snd_nxt = 0
        self.send_total = 0           # application bytes queued
        self.fin_queued = False
        self.fin_sent = False
        self._segments: deque[_Segment] = deque()
        self.peer_rwnd = DEFAULT_RWND
        self._dupacks = 0
        self._recover = 0
        self._in_recovery = False
        self._recovery_epoch = 0
        self._highest_sacked = 0
        self._rto_event: Event | None = None
        #: Simulated time the retransmission timer should fire, or
        #: None when no data is in flight. The heap event is re-armed
        #: lazily (see _arm_rto), so this is the authoritative value.
        self._rto_deadline: float | None = None
        self._rto_backoff = 0
        self._pump_scheduled = False
        self._next_pace_time = 0.0

        # receiver state
        self.received = RangeSet()
        self.rcv_fin_at: int | None = None
        self.rwnd = self.config.rwnd_default
        self._ack_pending = 0
        self._ack_timer: Event | None = None
        self._last_window_growth = 0.0
        self._bytes_since_growth = 0
        self.delivered = 0            # contiguous bytes delivered to app

        self.established = False
        self.closed = False
        self.fin_received = False
        self._syn_timer: Event | None = None

        # callbacks
        self.on_established: Callable[[], None] | None = None
        self.on_bytes_delivered: Callable[[int], None] | None = None
        self.on_fin: Callable[[float], None] | None = None
        self.on_send_complete: Callable[[float], None] | None = None

    # -- public API -----------------------------------------------------

    def connect(self) -> None:
        """Client: send SYN."""
        if self.role != "client":
            raise TransportError("connect() is for clients")
        self.stats.connect_time = self.sim.now
        self._send_control("SYN")
        self._syn_timer = self.sim.schedule(self.config.syn_retry_s,
                                            self._retry_syn)

    def send(self, nbytes: int, fin: bool = False) -> None:
        """Queue application data (and optionally FIN)."""
        if self.closed:
            raise TransportError("connection is closed")
        if nbytes < 0:
            raise TransportError(f"cannot send {nbytes} bytes")
        if self.fin_queued:
            raise TransportError("cannot send after FIN")
        self.send_total += nbytes
        if fin:
            self.fin_queued = True
        self._schedule_pump()

    def close(self) -> None:
        """Abort: cancel timers and release the socket."""
        self.closed = True
        for event in (self._rto_event, self._ack_timer, self._syn_timer):
            if event is not None:
                event.cancel()
        self.socket.close()

    @property
    def bytes_in_flight(self) -> int:
        """Unacknowledged sequence units."""
        return self.snd_nxt - self.snd_una

    @property
    def _fin_span_total(self) -> int:
        """Total sequence space: data plus the FIN's unit."""
        return self.send_total + (1 if self.fin_queued else 0)

    # -- handshake --------------------------------------------------------

    def _retry_syn(self) -> None:
        if not self.established and not self.closed:
            self._send_control("SYN")
            self._syn_timer = self.sim.schedule(self.config.syn_retry_s,
                                                self._retry_syn)

    def _send_control(self, flags: str) -> None:
        self.socket.sendto(
            self.peer_addr, self.peer_port, TCP_OVERHEAD + 12,
            payload=("ctrl", flags),
            headers={"tcp_flags": flags, "tcp_seq": 0,
                     "tcp_options": "mss;ws;sackOK;ts"})
        self.stats.segments_sent += 1

    def _handle_control(self, flags: str) -> None:
        if flags == "SYN" and self.role == "server":
            if not self.established:
                self.established = True
                self.stats.established_time = self.sim.now
                if self.on_established is not None:
                    self.on_established()
            self._send_control("SYN-ACK")
            return
        if flags == "SYN-ACK" and self.role == "client":
            if not self.established:
                self.established = True
                self.stats.established_time = self.sim.now
                if self._syn_timer is not None:
                    self._syn_timer.cancel()
                self._send_control("ACK")
                if self.on_established is not None:
                    self.on_established()
                self._schedule_pump()

    # -- sending ----------------------------------------------------------

    def _schedule_pump(self) -> None:
        if not self._pump_scheduled and not self.closed:
            self._pump_scheduled = True
            # Fire-and-forget (pump events are never cancelled);
            # now + 0.0 == now, so this is schedule(0.0, ...) exactly.
            self.sim.post(self.sim.now, self._pump)

    def _pacing_rate(self) -> float | None:
        """Effective pacing rate: the controller's model-driven rate
        (BBR) once it exists, else the static config rate."""
        rate = self.cc.pacing_rate_bps
        return rate if rate is not None else self.config.pacing_rate_bps

    def _pump(self) -> None:
        self._pump_scheduled = False
        if self.closed or not self.established:
            return
        while self._can_send_new():
            now = self.sim.now
            # Re-read per segment: a model-based controller moves its
            # pacing rate on every ACK that lands mid-pump.
            pacing = self._pacing_rate()
            if pacing is not None and now < self._next_pace_time:
                self._pump_scheduled = True
                self.sim.at(self._next_pace_time, self._pump)
                break
            length = min(MSS, self.send_total - self.snd_nxt)
            fin = (self.fin_queued and not self.fin_sent
                   and self.snd_nxt + length == self.send_total)
            if length <= 0 and not fin:
                break
            span = length + (1 if fin else 0)
            if self.bytes_in_flight == 0:
                # Pipe was empty: this transmit starts a fresh
                # delivery-rate sample period.
                self._first_sent_time = now
            segment = _Segment(
                self.snd_nxt, length, span, now, fin=fin,
                delivered=self._delivered,
                delivered_time=(self._delivered_time
                                if self._delivered else now),
                app_limited=(self.send_total - self.snd_nxt
                             - length <= 0),
                first_sent_time=self._first_sent_time or now)
            self._segments.append(segment)
            self.snd_nxt += span
            if fin:
                self.fin_sent = True
            self._transmit(segment)
            if pacing is not None:
                interval = (length + TCP_OVERHEAD) * 8.0 / pacing
                self._next_pace_time = max(now, self._next_pace_time) \
                    + interval
        self._arm_rto()

    def _can_send_new(self) -> bool:
        if self.snd_nxt >= self._fin_span_total:
            return False
        window = min(self.cc.cwnd, self.peer_rwnd)
        return (self.bytes_in_flight + MSS <= window
                or self.bytes_in_flight == 0)

    def _transmit(self, segment: _Segment) -> None:
        flags = "FIN" if segment.fin else ""
        self.socket.sendto(
            self.peer_addr, self.peer_port,
            TCP_OVERHEAD + segment.length,
            payload=("data", segment.seq, segment.length, segment.fin),
            headers={"tcp_seq": segment.seq, "tcp_flags": flags,
                     "tcp_options": "ts"})
        self.stats.segments_sent += 1

    # -- receiving ----------------------------------------------------------

    def _on_packet(self, packet: Packet) -> None:
        if self.closed:
            return
        kind = packet.payload[0]
        self.stats.segments_received += 1
        # Dispatch in frequency order: data and ACK segments dwarf
        # the handful of handshake/teardown control segments.
        if kind == "data":
            _, seq, length, fin = packet.payload
            self._handle_data(seq, length, fin)
            return
        if kind == "ctrl":
            self._handle_control(packet.payload[1])
            return
        if kind == "ack":
            _, ack_no, rwnd, sacks = packet.payload
            self._handle_ack(ack_no, rwnd, sacks)

    def _handle_data(self, seq: int, length: int, fin: bool) -> None:
        if fin:
            self.rcv_fin_at = seq + length
        in_order_before = self.received.prefix_end()
        if length > 0:
            self.received.add(seq, seq + length)
        in_order_now = self.received.prefix_end()
        newly = in_order_now - in_order_before
        if newly > 0:
            self.delivered = in_order_now
            self._bytes_since_growth += newly
            # Precondition inlined: once the advertised window has
            # grown to rwnd_max (the steady state of every bulk
            # flow), skip the call entirely.
            if self.config.autotune and self.rwnd < self.config.rwnd_max:
                self._maybe_autotune()
            if self.on_bytes_delivered is not None:
                self.on_bytes_delivered(newly)
        out_of_order = length > 0 and newly == 0
        fin_done = (self.rcv_fin_at is not None
                    and in_order_now >= self.rcv_fin_at)
        if fin_done and not self.fin_received:
            self.fin_received = True
            self._send_ack()
            if self.on_fin is not None:
                self.on_fin(self.sim.now)
            return
        self._ack_pending += 1
        if out_of_order or self._ack_pending >= self.config.ack_every:
            self._send_ack()
        elif self._ack_timer is None:
            self._ack_timer = self.sim.schedule(
                self.config.delayed_ack_s, self._delayed_ack)

    def _maybe_autotune(self) -> None:
        if not self.config.autotune or self.rwnd >= self.config.rwnd_max:
            return
        # Dynamic right-sizing: if the peer filled more than half the
        # advertised window within roughly one RTT, double it.
        window = self.sim.now - self._last_window_growth
        srtt = self.rtt.smoothed if self.rtt.samples else 0.2
        if (self._bytes_since_growth > self.rwnd // 2
                and window >= srtt * 0.5):
            self.rwnd = min(self.config.rwnd_max, self.rwnd * 2)
            self._last_window_growth = self.sim.now
            self._bytes_since_growth = 0

    def _delayed_ack(self) -> None:
        self._ack_timer = None
        if self._ack_pending > 0:
            self._send_ack()

    def _send_ack(self) -> None:
        self._ack_pending = 0
        if self._ack_timer is not None:
            self._ack_timer.cancel()
            self._ack_timer = None
        ack_no = self.received.prefix_end()
        if (self.rcv_fin_at is not None and ack_no >= self.rcv_fin_at):
            ack_no = self.rcv_fin_at + 1   # FIN consumes one unit
        # SACK blocks: the lowest ranges above the cumulative ACK
        # (they delimit the holes the sender must repair) plus the
        # highest range (so the sender knows how far SACKs reach).
        above = [(s, e) for s, e in self.received if e > ack_no]
        sacks = above[:self.config.sack_blocks - 1]
        if above and above[-1] not in sacks:
            sacks.append(above[-1])
        sacks = tuple(sacks)
        self.socket.sendto(
            self.peer_addr, self.peer_port, TCP_OVERHEAD + 12 + 8 * len(
                sacks),
            payload=("ack", ack_no, self.rwnd, sacks),
            headers={"tcp_flags": "ACK", "tcp_seq": 0, "tcp_ack": ack_no})
        self.stats.segments_sent += 1

    # -- ACK processing -----------------------------------------------------

    def _handle_ack(self, ack_no: int, rwnd: int, sacks: tuple) -> None:
        self.peer_rwnd = rwnd
        now = self.sim.now
        advanced = ack_no > self.snd_una
        if advanced:
            self.stats.bytes_acked += ack_no - self.snd_una
            self.snd_una = ack_no
            self._dupacks = 0
            self._rto_backoff = 0
            acked_units, sample_seg = self._pop_acked(ack_no, now)
            self._delivered += acked_units
            self._delivered_time = now
            sample = None
            if sample_seg is not None:
                sample = DeliveryRateSample(
                    delivered=self._delivered, delivered_time=now,
                    prior_delivered=sample_seg.delivered,
                    prior_delivered_time=sample_seg.delivered_time,
                    in_flight=self.bytes_in_flight,
                    app_limited=sample_seg.app_limited,
                    sent_time=sample_seg.time_sent,
                    first_sent_time=sample_seg.first_sent_time)
                # The delivered segment's transmit time starts the
                # next sample period (tcp_rate.c semantics).
                self._first_sent_time = sample_seg.time_sent
            self.cc.on_ack(acked_units, now,
                           self.rtt.latest or self.rtt.smoothed,
                           sample=sample,
                           in_flight=self.bytes_in_flight)
            if self._in_recovery and ack_no >= self._recover:
                self._in_recovery = False
            if (self.fin_sent and self.snd_una >= self._fin_span_total
                    and self.on_send_complete is not None):
                self.on_send_complete(now)
                self.on_send_complete = None
        else:
            if self.bytes_in_flight > 0:
                self._dupacks += 1
        self._apply_sacks(sacks)
        if (not self._in_recovery
                and self._dupacks >= self.config.dupack_threshold):
            self._enter_recovery(now)
        elif self._in_recovery:
            self._retransmit_holes(self.config.retx_per_ack)
        if advanced:
            self._arm_rto()
            self._schedule_pump()

    def _pop_acked(self, ack_no: int,
                   now: float) -> tuple[int, _Segment | None]:
        units = 0
        newest_sample: float | None = None
        newest_segment: _Segment | None = None
        while self._segments and self._segments[0].seq_end <= ack_no:
            segment = self._segments.popleft()
            units += segment.span
            if not segment.retransmitted:
                newest_sample = now - segment.time_sent
                newest_segment = segment
        if newest_sample is not None:
            self.rtt.update(newest_sample)
            self.stats.rtt_samples.append((now, newest_sample))
        return units, newest_segment

    def _apply_sacks(self, sacks: tuple) -> None:
        if not sacks:
            return
        self._highest_sacked = max(self._highest_sacked,
                                   max(end for _, end in sacks))
        # Segments are contiguous and ordered by seq, so the ones a
        # block covers whole are the run that starts at the first
        # segment at or after the block's start.
        segments = self._segments
        count = len(segments)
        for start, end in sacks:
            i = bisect_left(segments, start, key=_segment_seq)
            while i < count:
                segment = segments[i]
                if segment.seq + segment.length > end:
                    break
                segment.sacked = True
                i += 1

    def _enter_recovery(self, now: float) -> None:
        self._in_recovery = True
        self._recovery_epoch += 1
        self._recover = self.snd_nxt
        self.stats.fast_retransmits += 1
        self.stats.congestion_events += 1
        self.cc.on_congestion_event(now)
        self._retransmit_holes(self.config.retx_per_ack)

    def _retransmit_holes(self, budget: int) -> None:
        """Retransmit unsacked segments below the highest SACKed byte,
        at most ``budget`` per call (ack-clocked pacing).

        Eligibility is RACK-flavoured: a hole may be retransmitted
        again once its last (re)transmission is older than ~1.2
        smoothed RTTs, so a lost retransmission does not have to wait
        for the RTO.
        """
        sent = 0
        now = self.sim.now
        limit = min(self._recover, self._highest_sacked)
        reorder_window = 1.2 * self.rtt.smoothed
        for segment in self._segments:
            if sent >= budget:
                break
            if segment.seq >= limit:
                break
            if segment.sacked:
                continue
            # First retransmission is immediate (the hole sits below
            # SACKed data, so it is presumed lost); repeats are gated
            # by the reorder window.
            if (segment.retransmitted
                    and now - segment.time_sent < reorder_window):
                continue
            segment.retransmitted = True
            segment.retx_epoch = self._recovery_epoch
            segment.time_sent = now
            self.stats.retransmissions += 1
            self._transmit(segment)
            sent += 1

    # -- RTO ------------------------------------------------------------------

    def _arm_rto(self) -> None:
        # Lazy re-arm: _arm_rto runs on every transmission and every
        # window-advancing ACK, which with an eager timer means one
        # cancel + reschedule pair per ACK, all for a timer that
        # almost never fires. Instead the authoritative deadline
        # lives in _rto_deadline and the heap event is only replaced
        # when it would fire *later* than the deadline; a timer that
        # fires early re-arms itself at the current deadline
        # (_check_rto). Actual timeouts still execute at exactly the
        # deadline the eager scheme would have used.
        if self.bytes_in_flight <= 0:
            self._rto_deadline = None
            return
        rto = self.rtt.rto(min_rto=self.config.min_rto_s)
        rto *= 2 ** min(self._rto_backoff, 6)
        deadline = self.sim.now + rto
        self._rto_deadline = deadline
        event = self._rto_event
        if event is None or event.cancelled or event.time > deadline:
            if event is not None:
                event.cancel()
            self._rto_event = self.sim.at(deadline, self._check_rto)

    def _check_rto(self) -> None:
        self._rto_event = None
        deadline = self._rto_deadline
        if deadline is None or self.closed or self.bytes_in_flight <= 0:
            return
        if self.sim.now < deadline:
            # The deadline moved later since this timer was armed;
            # sleep again until the current one.
            self._rto_event = self.sim.at(deadline, self._check_rto)
            return
        self._on_rto()

    def _on_rto(self) -> None:
        if self.closed or self.bytes_in_flight <= 0:
            return
        self.stats.timeouts += 1
        self._rto_backoff += 1
        self._in_recovery = False
        self._dupacks = 0
        self._recovery_epoch += 1
        self.cc.on_timeout(self.sim.now)
        if self._segments:
            head = self._segments[0]
            head.retransmitted = True
            head.retx_epoch = self._recovery_epoch
            head.time_sent = self.sim.now
            self.stats.retransmissions += 1
            self._transmit(head)
        self._arm_rto()
