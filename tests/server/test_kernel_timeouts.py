"""Socket timeouts live in the kernel and end exactly as before.

Server connections and client sockets are blocking, with ``SO_RCVTIMEO`` /
``SO_SNDTIMEO`` as the limit, so a send or recv is one system call. A call
that runs out of time raises ``BlockingIOError`` (``EAGAIN``) where a
Python-level timeout raised ``socket.timeout``; both end the same way.
"""

import socket
import struct
import threading
import time

import pytest

import repro
from repro import LSMConfig
from repro.errors import ConnectionLostError
from repro.server import LSMClient, LSMServer, ServerConfig
from repro.server.protocol import TIMED_OUT, set_kernel_timeout


def kernel_timeout(sock) -> float:
    seconds, micros = struct.unpack(
        "@ll", sock.getsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, 16)
    )
    return seconds + micros / 1e6


def test_a_socket_gets_a_blocking_mode_and_a_kernel_limit():
    a, b = socket.socketpair()
    with a, b:
        set_kernel_timeout(a, 0.15)
        assert a.gettimeout() is None  # blocking: no poll before each call
        assert kernel_timeout(a) == pytest.approx(0.15, abs=0.01)
        began = time.monotonic()
        with pytest.raises(TIMED_OUT) as caught:
            a.recv(16)
        assert isinstance(caught.value, BlockingIOError)
        assert 0.1 <= time.monotonic() - began < 2.0
        b.sendall(b"ok")
        assert a.recv(16) == b"ok"


def test_a_tiny_limit_is_still_a_limit():
    """A zero timeval would mean "wait forever": the shortest limit is 1 us."""
    a, b = socket.socketpair()
    with a, b:
        set_kernel_timeout(a, 1e-9)
        assert kernel_timeout(a) > 0


def test_a_socket_refusing_the_option_raises():
    """There is no second timeout path: a refused option is an error."""
    a, b = socket.socketpair()
    b.close()
    a.close()
    with pytest.raises(OSError):
        set_kernel_timeout(a, 0.5)


class _SilentServer:
    """Accepts connections and never answers."""

    def __init__(self):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.held = []
        self.thread = threading.Thread(target=self._accept, daemon=True)
        self.thread.start()

    def _accept(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            self.held.append(conn)

    def close(self):
        self.listener.close()
        for conn in self.held:
            conn.close()


def test_a_timed_out_attempt_is_a_connection_loss():
    silent = _SilentServer()
    try:
        host, port = silent.listener.getsockname()
        client = LSMClient(host, port, timeout_s=0.2)
        assert client._sock.gettimeout() is None
        began = time.monotonic()
        with pytest.raises(ConnectionLostError, match="timed out awaiting reply"):
            client.get(b"k")
        assert 0.15 <= time.monotonic() - began < 3.0
        assert client._sock is None  # the stream is desynchronized: dropped
        client.close()
    finally:
        silent.close()


def test_shutdown_drains_an_idle_connection_at_the_idle_poll():
    service = repro.open(config=LSMConfig(buffer_bytes=64 << 10), service=True)
    server = LSMServer(
        service,
        ServerConfig(idle_poll_s=0.05, drain_timeout_s=30.0, stats_interval_s=0),
        close_service=True,
    )
    host, port = server.start()
    with LSMClient(host, port) as db:
        db.put(b"k", b"v")  # the handler now idles in recv
        assert server._handlers
        began = time.monotonic()
        server.shutdown()
        elapsed = time.monotonic() - began
    assert elapsed < 2.0  # two idle polls at most, far inside the 30 s drain budget
    assert not server._handlers
