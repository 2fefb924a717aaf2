"""Retrying LSMClient: scripted-server retry semantics + real faults e2e.

Two layers: a *scripted server* (a bare socket speaking the frame protocol
from a canned list of replies) pins down the retry state machine
deterministically, and a real :class:`LSMServer` behind an armed
:class:`FaultyTransport` proves the whole loop — reconnect, idempotency
token, server dedup — under actual injected faults.
"""

import socket
import threading
import time

import pytest

import repro
from repro import LSMConfig
from repro.chaos import FaultyTransport, NetworkFaultConfig
from repro.errors import ConfigError, ConnectionLostError, DeadlineExceededError
from repro.server import (
    ErrorResponse,
    FrameDecoder,
    LSMClient,
    LSMServer,
    OkResponse,
    RemoteError,
    RetryPolicy,
    ServerConfig,
    encode_frame,
)
from repro.server.protocol import recv_message


class ScriptedServer:
    """Accepts connections and answers each request from a reply script.

    Script entries: a Message to send, ``"drop"`` (read the request, say
    nothing, close the connection — the ambiguous-loss shape), or
    ``"reset"`` (close before even reading). After the script runs dry
    every request is answered ``OkResponse``.
    """

    def __init__(self, script):
        self.script = list(script)
        self.requests = []  # decoded messages, in arrival order
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(5.0)
        self.address = self._listener.getsockname()
        self._stop = threading.Event()
        self._conn = None  # the connection being served, for close() to wake
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            with conn:
                self._conn = conn
                conn.settimeout(5.0)
                if self.script and self.script[0] == "reset":
                    self.script.pop(0)
                    continue  # close without reading: a refused connection
                decoder = FrameDecoder()
                while not self._stop.is_set():
                    try:
                        request = recv_message(conn, decoder)
                    except Exception:
                        break
                    if request is None:
                        break
                    self.requests.append(request)
                    action = self.script.pop(0) if self.script else OkResponse()
                    if action == "drop":
                        break  # lose the reply, kill the connection
                    if action == "reset":
                        break
                    try:
                        conn.sendall(encode_frame(action))
                    except OSError:
                        break

    def close(self):
        # Shutting both sockets down wakes the serving thread at once, from
        # accept() or from a recv() on a connection the client left open,
        # instead of after its 5 s socket timeout.
        self._stop.set()
        for sock in (self._listener, self._conn):
            if sock is not None:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # already closed, or never connected
        self._listener.close()
        self._thread.join(timeout=5)


@pytest.fixture
def scripted():
    servers = []

    def make(script):
        server = ScriptedServer(script)
        servers.append(server)
        return server

    yield make
    for server in servers:
        server.close()


def fast_policy(**overrides):
    defaults = dict(
        max_attempts=4, backoff_base_s=0.005, backoff_cap_s=0.02,
        deadline_s=5.0, seed=42,
    )
    defaults.update(overrides)
    return RetryPolicy(**defaults)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_base_s=-1)
        with pytest.raises(ConfigError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ConfigError):
            RetryPolicy(deadline_s=0)

    def test_backoff_is_capped_exponential_with_shortening_jitter(self):
        import random

        policy = RetryPolicy(backoff_base_s=0.1, backoff_cap_s=0.4, jitter=0.0)
        rng = random.Random(0)
        assert policy.backoff_s(1, rng) == pytest.approx(0.1)
        assert policy.backoff_s(2, rng) == pytest.approx(0.2)
        assert policy.backoff_s(4, rng) == pytest.approx(0.4)  # capped
        jittered = RetryPolicy(backoff_base_s=0.1, backoff_cap_s=0.4, jitter=0.5)
        for attempt in (1, 2, 5):
            value = jittered.backoff_s(attempt, rng)
            ceiling = min(0.4, 0.1 * 2 ** (attempt - 1))
            assert 0 <= value <= ceiling  # jitter only ever shortens


class TestScriptedRetries:
    def test_retryable_codes_are_retried_to_success(self, scripted):
        server = scripted([
            ErrorResponse(code="overloaded", message="later"),
            ErrorResponse(code="throttled", message="later"),
            OkResponse(),
        ])
        host, port = server.address
        with LSMClient(host, port, retry=fast_policy()) as db:
            db.put(b"k", b"v")  # absorbs both refusals
        assert db.stats_retries == 2
        # Every resend carried the SAME idempotency token: that is what
        # makes the retry safe against double-application.
        idems = [r.idem for r in server.requests]
        assert len(idems) == 3 and len(set(idems)) == 1
        assert idems[0] is not None

    def test_non_retryable_code_raises_immediately(self, scripted):
        server = scripted([ErrorResponse(code="bad_request", message="nope")])
        host, port = server.address
        with LSMClient(host, port, retry=fast_policy()) as db:
            with pytest.raises(RemoteError) as info:
                db.put(b"k", b"v")
        assert info.value.code == "bad_request"
        assert db.stats_retries == 0

    def test_attempts_are_bounded(self, scripted):
        server = scripted([ErrorResponse(code="overloaded")] * 10)
        host, port = server.address
        with LSMClient(host, port, retry=fast_policy(max_attempts=3)) as db:
            with pytest.raises(RemoteError):
                db.put(b"k", b"v")
        assert len(server.requests) == 3

    def test_dropped_reply_reconnects_and_retries(self, scripted):
        server = scripted(["drop", OkResponse()])
        host, port = server.address
        with LSMClient(host, port, timeout_s=0.3, retry=fast_policy()) as db:
            db.put(b"k", b"v")
        assert db.stats_reconnects >= 1
        assert [type(r).__name__ for r in server.requests] == [
            "PutRequest", "PutRequest",
        ]
        assert server.requests[0].idem == server.requests[1].idem

    def test_without_policy_a_loss_is_one_typed_error(self, scripted):
        server = scripted(["drop"])
        host, port = server.address
        with LSMClient(host, port, timeout_s=0.3) as db:
            with pytest.raises(ConnectionLostError):
                db.put(b"k", b"v")
            # And without a policy, no idempotency token rides the wire.
            assert server.requests[0].idem is None

    def test_deadline_cuts_the_retry_loop(self, scripted):
        server = scripted([ErrorResponse(code="overloaded")] * 100)
        host, port = server.address
        policy = fast_policy(
            max_attempts=100, backoff_base_s=0.05, backoff_cap_s=0.05,
            jitter=0.0, deadline_s=0.25,
        )
        with LSMClient(host, port, retry=policy) as db:
            t0 = time.monotonic()
            with pytest.raises(DeadlineExceededError):
                db.put(b"k", b"v")
            elapsed = time.monotonic() - t0
        assert elapsed < 0.25 + 0.05 + 0.5  # deadline + final step + slack

    def test_reads_are_retried_but_carry_no_token(self, scripted):
        from repro.server import GetResponse

        server = scripted([
            ErrorResponse(code="overloaded"),
            GetResponse(found=True, value=b"v"),
        ])
        host, port = server.address
        with LSMClient(host, port, retry=fast_policy()) as db:
            assert db.get(b"k").value == b"v"
        assert not hasattr(server.requests[0], "idem") or server.requests[0].idem is None


@pytest.fixture
def real_server():
    service = repro.open(
        config=LSMConfig(buffer_bytes=4 << 10, block_size=512, wal_enabled=True),
        service=True,
        observe=True,
    )
    srv = LSMServer(
        service,
        ServerConfig(idle_poll_s=0.02),
        registry=service.observer.registry,
        close_service=True,
    )
    srv.start()
    yield srv
    srv.shutdown()


class TestRealFaultsEndToEnd:
    def test_ambiguous_losses_apply_exactly_once(self, real_server):
        """Counter merges (non-idempotent!) under 100%-scheduled reply
        loss: without the dedup table each retry would add again."""
        host, port = real_server.address
        transport = FaultyTransport(NetworkFaultConfig(seed=3))
        transport.arm()
        with LSMClient(
            host, port, tenant="t", timeout_s=0.3,
            retry=fast_policy(max_attempts=6), transport=transport,
        ) as db:
            for i in range(10):
                # Every request loses its reply after full delivery; the
                # countdown is consumed, so the retry itself goes through.
                transport.schedule_crash("after_send_before_reply", countdown=1)
                db.merge(b"ctr", b"5")
            transport.disarm()
            assert db.get(b"ctr").value == b"50"
        assert db.stats_retries >= 5
        snap = real_server.stats_snapshot()
        assert snap["dedup"]["hits"] >= 1

    def test_duplicated_frames_apply_exactly_once(self, real_server):
        host, port = real_server.address
        transport = FaultyTransport(NetworkFaultConfig(seed=4))
        transport.arm()
        with LSMClient(
            host, port, tenant="t", timeout_s=0.3,
            retry=fast_policy(max_attempts=6), transport=transport,
        ) as db:
            for i in range(6):
                transport.schedule_crash("duplicate_send", countdown=1)
                db.merge(b"dup", b"7")
            transport.disarm()
            assert db.get(b"dup").value == b"42"

    def test_resets_and_truncation_are_absorbed(self, real_server):
        host, port = real_server.address
        transport = FaultyTransport(NetworkFaultConfig(
            seed=5, reset_prob=0.15, send_truncate_prob=0.1,
            recv_truncate_prob=0.1, connect_fail_prob=0.05,
        ))
        transport.arm()
        with LSMClient(
            host, port, tenant="t", timeout_s=0.5,
            retry=fast_policy(max_attempts=8, deadline_s=10.0),
            transport=transport,
        ) as db:
            for i in range(40):
                db.put(b"k%02d" % i, b"v%02d" % i)
            transport.disarm()
            for i in range(40):
                assert db.get(b"k%02d" % i).value == b"v%02d" % i

    def test_server_counts_retries_and_dedup_hits(self, real_server):
        host, port = real_server.address
        transport = FaultyTransport(NetworkFaultConfig(seed=6))
        transport.arm()
        with LSMClient(
            host, port, tenant="t", timeout_s=0.3,
            retry=fast_policy(max_attempts=6), transport=transport,
        ) as db:
            transport.schedule_crash("after_send_before_reply", countdown=1)
            db.put(b"k", b"v")
            transport.disarm()
        counters = real_server.registry.snapshot()["counters"]
        assert counters["server_dedup_hits"] + counters["server_retries_total"] >= 1
        stats = real_server.stats_snapshot()
        assert stats["dedup"]["misses"] >= 1

    def test_client_retry_stats_surface(self, real_server):
        host, port = real_server.address
        with LSMClient(host, port, tenant="t", retry=fast_policy()) as db:
            db.put(b"k", b"v")
            stats = db.retry_stats()
        assert stats["attempts"] >= 1
        assert set(stats) >= {"attempts", "retries", "reconnects"}
