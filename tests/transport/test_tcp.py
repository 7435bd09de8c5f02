"""Integration tests for the TCP stack over the simulator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TransportError
from repro.netsim import Network
from repro.netsim.engine import Simulator
from repro.netsim.loss import BernoulliLoss
from repro.netsim.queues import DropTailQueue
from repro.transport.tcp import TcpConfig, TcpServer, tcp_connect
from repro.transport.tcp.connection import TcpConnection, _Segment
from repro.units import mb, mbps, ms


def make_net(rate=mbps(100), delay=ms(10), qbytes=None, loss=None):
    net = Network()
    net.add_host("client", "10.0.0.1")
    net.add_host("server", "10.0.1.1")
    queue_a = DropTailQueue(capacity_bytes=qbytes) if qbytes else None
    queue_b = DropTailQueue(capacity_bytes=qbytes) if qbytes else None
    net.connect("client", "server", rate_ab=rate, rate_ba=rate,
                delay=delay, queue_ab=queue_a, queue_ba=queue_b,
                loss_ab=loss, loss_ba=loss)
    net.finalize()
    return net


def upload(net, nbytes, config=None, until=60.0):
    done = {}
    received = {"n": 0}

    def on_conn(conn):
        conn.on_fin = lambda t: done.setdefault("t", t)
        conn.on_bytes_delivered = (
            lambda n: received.__setitem__("n", received["n"] + n))

    server = TcpServer(net.host("server"), 5001, on_connection=on_conn)
    client = tcp_connect(net.host("client"), "10.0.1.1", 5001,
                         config=config)
    client.on_established = lambda: client.send(nbytes, fin=True)
    net.sim.run(until=until)
    return client, server, done, received


def test_handshake_completes_and_measures_rtt():
    net = make_net(delay=ms(25))
    client, _, _, _ = upload(net, 0)
    assert client.established
    assert client.stats.handshake_rtt == pytest.approx(0.05, rel=0.01)


def test_lossless_transfer_delivers_every_byte():
    net = make_net()
    _, _, done, received = upload(net, mb(5))
    assert "t" in done
    assert received["n"] == mb(5)


def test_pure_fin_after_empty_send_completes():
    net = make_net()
    client, _, done, _ = upload(net, 0)
    assert "t" in done       # FIN consumed a sequence number
    assert client.snd_una == 1


def test_send_after_fin_rejected():
    net = make_net()
    client, _, _, _ = upload(net, 1000)
    with pytest.raises(TransportError):
        client.send(10)


def test_throughput_near_link_rate():
    net = make_net(rate=mbps(50), delay=ms(10))
    _, _, done, _ = upload(net, mb(10))
    assert "t" in done
    goodput = mb(10) * 8 / done["t"]
    assert goodput > 0.75 * mbps(50)


def test_recovers_from_random_loss():
    net = make_net(rate=mbps(20), delay=ms(10),
                   loss=BernoulliLoss(0.01))
    client, _, done, received = upload(net, mb(3), until=120.0)
    assert "t" in done
    assert received["n"] == mb(3)
    assert client.stats.retransmissions > 0


def test_recovers_from_queue_overflow():
    net = make_net(rate=mbps(50), delay=ms(30), qbytes=60_000)
    client, _, done, received = upload(net, mb(5), until=120.0)
    assert "t" in done
    assert received["n"] == mb(5)


def test_receive_window_autotunes_up():
    net = make_net(rate=mbps(200), delay=ms(50))
    _, server, done, _ = upload(net, mb(20), until=60.0)
    assert "t" in done
    conn = next(iter(server.connections.values()))
    assert conn.rwnd > TcpConfig().rwnd_default


def test_autotune_disabled_keeps_default_window():
    net = make_net(rate=mbps(200), delay=ms(50))
    done = {}

    def on_conn(conn):
        conn.config.autotune = False
        conn.on_fin = lambda t: done.setdefault("t", t)

    server = TcpServer(net.host("server"), 5001, on_connection=on_conn)
    client = tcp_connect(net.host("client"), "10.0.1.1", 5001)
    client.on_established = lambda: client.send(mb(5), fin=True)
    net.sim.run(until=60.0)
    assert "t" in done
    # Window-limited: ~131072 B per 100 ms RTT ~ 10.5 Mbit/s.
    goodput = mb(5) * 8 / done["t"]
    assert goodput < mbps(14)


def test_rwnd_caps_at_linux_maximum():
    net = make_net(rate=mbps(900), delay=ms(150))
    _, server, _, _ = upload(net, mb(60), until=20.0)
    conn = next(iter(server.connections.values()))
    assert conn.rwnd <= TcpConfig().rwnd_max


def test_pacing_spreads_transmissions():
    net = make_net(rate=mbps(100), delay=ms(5))
    config = TcpConfig(pacing_rate_bps=mbps(10),
                       initial_window=mb(4))
    _, _, done, received = upload(net, mb(2), config=config,
                                  until=10.0)
    # Paced at 10 Mbit/s: 2 MB takes ~1.6 s despite the huge window.
    assert "t" in done
    assert done["t"] == pytest.approx(1.6, rel=0.25)


def test_rtt_samples_skip_retransmissions():
    net = make_net(rate=mbps(20), delay=ms(10),
                   loss=BernoulliLoss(0.02))
    client, _, done, _ = upload(net, mb(2), until=120.0)
    assert "t" in done
    # Karn's algorithm: every sample close to the true RTT (20 ms),
    # never inflated by a retransmission ambiguity.
    assert client.stats.rtt_samples
    for _, sample in client.stats.rtt_samples:
        assert sample < 0.5


def test_server_demuxes_parallel_clients():
    net = make_net()
    received = {"n": 0}

    def on_conn(conn):
        conn.on_bytes_delivered = (
            lambda n: received.__setitem__("n", received["n"] + n))

    server = TcpServer(net.host("server"), 5001, on_connection=on_conn)
    clients = []
    for _ in range(3):
        conn = tcp_connect(net.host("client"), "10.0.1.1", 5001)
        conn.on_established = (lambda conn=conn:
                               conn.send(100_000, fin=True))
        clients.append(conn)
    net.sim.run(until=30.0)
    assert len(server.connections) == 3
    assert received["n"] == 300_000


def test_download_direction_works():
    net = make_net()
    done = {}

    def on_conn(conn):
        conn.on_established = lambda: conn.send(mb(1), fin=True)

    TcpServer(net.host("server"), 5001, on_connection=on_conn)
    client = tcp_connect(net.host("client"), "10.0.1.1", 5001)
    client.on_fin = lambda t: done.setdefault("t", t)
    net.sim.run(until=30.0)
    assert "t" in done
    assert client.delivered == mb(1)


@settings(max_examples=80, deadline=None)
@given(lengths=st.lists(st.integers(1, 1460), min_size=1, max_size=60),
       fin=st.booleans(), presacked=st.sets(st.integers(0, 59)),
       data=st.data())
def test_property_sack_marks_exactly_the_covered_segments(
        lengths, fin, presacked, data):
    """A segment is SACKed iff one block covers its payload whole,
    and marks are never cleared."""
    conn = TcpConnection(Simulator(), None, "10.0.1.1", 5001, "client")
    seq = 0
    for i, length in enumerate(lengths):
        last_fin = fin and i == len(lengths) - 1
        span = length + (1 if last_fin else 0)
        conn._segments.append(_Segment(seq, length, span, 0.0,
                                       fin=last_fin,
                                       sacked=i in presacked))
        seq += span
    # Block edges sit on or next to segment edges, where an
    # off-by-one in the covering test would show.
    edges = [s.seq for s in conn._segments] + [seq]
    edge = st.tuples(st.sampled_from(edges), st.integers(-2, 2)).map(sum)
    sacks = tuple(data.draw(st.lists(st.tuples(edge, edge), max_size=4)))
    conn._apply_sacks(sacks)
    for i, segment in enumerate(conn._segments):
        covered = any(start <= segment.seq
                      and segment.seq + segment.length <= end
                      for start, end in sacks)
        assert segment.sacked == (covered or i in presacked)
