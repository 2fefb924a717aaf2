"""Fixed per-request work on the wire path, counted rather than timed.

A request validates its tenant id at most once, however many keys it
carries, and an id once validated is remembered across requests; a client
sets its socket timeout only when the value changes.
"""

import socket
import struct

import pytest

import repro
from repro import LSMConfig
from repro.server import LSMClient, LSMServer, RemoteError, RetryPolicy, ServerConfig
from repro.server import tenancy


@pytest.fixture
def server():
    service = repro.open(config=LSMConfig(buffer_bytes=64 << 10), service=True)
    srv = LSMServer(service, ServerConfig(), close_service=True)
    srv.start()
    yield srv
    srv.shutdown()


@pytest.fixture
def validations(monkeypatch):
    """Counts every call of ``validate_tenant``, wherever it comes from."""
    calls = []
    original = tenancy.validate_tenant

    def counting(tenant):
        calls.append(tenant)
        return original(tenant)

    monkeypatch.setattr(tenancy, "validate_tenant", counting)
    tenancy.tenant_prefix.cache_clear()
    yield calls
    tenancy.tenant_prefix.cache_clear()


class TestTenantCheckedOncePerRequest:
    def test_get_batch_and_scan_each_validate_once(self, server, validations):
        host, port = server.address
        ops = [("put", b"k%04d" % i, b"v") for i in range(500)]
        requests = [
            lambda db: db.batch(ops) == 500,
            lambda db: db.get(b"k0007").value == b"v",
            lambda db: [key for key, _ in db.scan(limit=1000)] == [op[1] for op in ops],
        ]
        with LSMClient(host, port, tenant="acme") as db:
            for request in requests:
                tenancy.tenant_prefix.cache_clear()
                validations.clear()
                assert request(db)
                assert validations == ["acme"]
        with LSMClient(host, port, tenant="acme") as db:
            assert all(request(db) for request in requests)
        assert validations == ["acme"]  # remembered since the last clear

    def test_an_invalid_tenant_is_refused_on_every_request(self, server, validations):
        host, port = server.address
        with LSMClient(host, port, tenant="no spaces") as db:
            for _ in range(2):
                with pytest.raises(RemoteError, match="invalid tenant id"):
                    db.get(b"k")
        assert validations == ["no spaces", "no spaces"]


class _CountingTransport:
    """A ``transport=`` wrapper that records every ``settimeout`` call."""

    def __init__(self):
        self.timeouts = []

    def wrap(self, sock):
        return _CountingSocket(self, sock)


class _CountingSocket:
    """Records each timeout set, whether as a Python-level timeout or as the
    kernel's receive timeout (``SO_RCVTIMEO``); clearing one is not counted."""

    def __init__(self, transport, sock):
        self._transport = transport
        self._sock = sock

    def __getattr__(self, name):
        return getattr(self._sock, name)

    def settimeout(self, value):
        if value is not None:
            self._transport.timeouts.append(value)
        self._sock.settimeout(value)

    def setsockopt(self, level, option, value):
        if (level, option) == (socket.SOL_SOCKET, socket.SO_RCVTIMEO):
            seconds, micros = struct.unpack("@ll", value)
            self._transport.timeouts.append(seconds + micros / 1e6)
        self._sock.setsockopt(level, option, value)


class TestSocketTimeoutSetOnChange:
    def test_plain_gets_never_reset_the_connect_timeout(self, server):
        host, port = server.address
        transport = _CountingTransport()
        with LSMClient(host, port, tenant="t", transport=transport) as db:
            db.put(b"k", b"v")
            for _ in range(100):
                assert db.get(b"k").value == b"v"
        assert transport.timeouts == []

    def test_a_retry_deadline_still_clamps_every_attempt(self, server):
        host, port = server.address
        transport = _CountingTransport()
        policy = RetryPolicy(deadline_s=2.0)
        with LSMClient(
            host, port, tenant="t", timeout_s=10.0, retry=policy, transport=transport
        ) as db:
            for _ in range(5):
                db.get(b"k")
        assert len(transport.timeouts) == 5
        assert all(0 < timeout <= 2.0 for timeout in transport.timeouts)
