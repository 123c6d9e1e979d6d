"""Output-commit latency on the socket transport.

The backup never answers a heartbeat frame, so its kernel delays the
TCP ACK for the heartbeat's segment (~40 ms on Linux).  With Nagle's
algorithm on, the sender then holds the next small data frame until
that ACK arrives, and every output commit that follows a heartbeat
waits one delayed-ACK timer instead of one loopback round trip.  Both
ends of the link set ``TCP_NODELAY``; these tests pin that, across
reconnects too, and bound the ack wait it buys.
"""

import socket
import statistics

import pytest

from repro.replication.transport import SocketTransport
from tests.replication.test_socket_reset import needs_sockets

pytestmark = [pytest.mark.socket, needs_sockets]


def _nodelay(sock: socket.socket) -> bool:
    return bool(sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))


def _records(n, tag=""):
    return [f"record{tag}-{i:03d}".encode() for i in range(n)]


def test_nodelay_on_both_ends_at_connect_and_after_reconnect():
    transport = SocketTransport(reset_every=1)
    try:
        transport.send(_records(1, "a"))
        # The injected reset dropped the first connection right after
        # the send; waiting for the ack reconnects and retransmits.
        transport.wait_ack()
        assert transport.stats.connection_resets == 1
        assert transport.stats.reconnects == 1
        assert _nodelay(transport._sender)
        assert _nodelay(transport._receiver_sock)
        transport.send(_records(1, "b"))
        transport.wait_ack()
        assert transport.stats.reconnects == 2
        assert _nodelay(transport._sender)
        assert _nodelay(transport._receiver_sock)
        transport.settle()
        assert transport.delivered == _records(1, "a") + _records(1, "b")
    finally:
        transport.close()


def test_nodelay_set_at_first_connect():
    transport = SocketTransport()
    try:
        transport.send(_records(1))
        transport.wait_ack()
        assert transport.stats.reconnects == 0
        assert _nodelay(transport._sender)
        assert _nodelay(transport._receiver_sock)
    finally:
        transport.close()


def test_commit_after_heartbeat_costs_a_round_trip_not_a_delayed_ack():
    transport = SocketTransport()
    try:
        waits = []
        sent = []
        for i in range(15):
            transport.send_heartbeat()
            batch = _records(5, f"-{i}")
            transport.send(batch)
            sent.extend(batch)
            waits.append(transport.wait_ack())
        transport.settle()
        assert transport.delivered == sent
        assert transport.stats.heartbeats_delivered == 15
        # Nagle behind a delayed ACK costs ~40 ms per commit; one
        # loopback round trip is well under a millisecond.
        assert statistics.median(waits) < 0.010, waits
    finally:
        transport.close()
