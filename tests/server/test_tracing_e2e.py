"""End-to-end tracing over a real socket: one joined span tree per request."""

import pytest

import repro
from repro import LSMConfig
from repro.observe import TraceRecorder
from repro.server import LSMClient, LSMServer, ServerConfig


def make_server(**config_overrides):
    service = repro.open(
        config=LSMConfig(buffer_bytes=4 << 10, block_size=512),
        service=True,
        observe=True,
    )
    srv = LSMServer(
        service,
        ServerConfig(**config_overrides),
        registry=service.observer.registry,
        close_service=True,
    )
    srv.start()
    return srv


@pytest.fixture
def server():
    srv = make_server()
    yield srv
    srv.shutdown()


def spans_of_trace(recorder, trace_id):
    return [s for s in recorder.spans() if s.trace_id == trace_id]


def assert_no_orphans(spans):
    """Every non-root span's parent resolves within its own trace."""
    by_trace = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, set()).add(span.span_id)
    orphans = [
        s for s in spans
        if s.parent_id and s.parent_id not in by_trace[s.trace_id]
    ]
    assert not orphans, [o.as_dict() for o in orphans]


class TestClientRootedTraces:
    def test_sampled_get_yields_one_joined_trace_partitioning_wall_time(self, server):
        host, port = server.address
        with LSMClient(host, port, tenant="t", trace_sampling=1.0) as db:
            db.put(b"k", b"v")
            assert db.get(b"k").value == b"v"
        client_spans = db.recorder.spans()
        assert [s.name for s in client_spans] == ["client:put", "client:get"]
        client_get = client_spans[-1]
        assert client_get.parent_id == ""  # the client is the root

        # Everything the server recorded for that trace id joins up.
        server_side = spans_of_trace(server.recorder, client_get.trace_id)
        names = {s.name for s in server_side}
        assert "server:get" in names and "service:get" in names, names
        assert_no_orphans(client_spans + server_side)

        server_get = next(s for s in server_side if s.name == "server:get")
        assert server_get.parent_id == client_get.span_id
        service_get = next(s for s in server_side if s.name == "service:get")
        assert service_get.parent_id == server_get.span_id

        # Exact partition: every span's stages sum to its total, with the
        # stage names the wire path promises at each layer.
        for span in [client_get] + server_side:
            assert span.total == sum(d for _, d in span.stages)
        assert {"send", "await_reply"} <= set(client_get.stage_dict())
        assert {"engine", "reply_encode"} <= set(server_get.stage_dict())

        # Nesting: the server's span fits inside the client-observed wall
        # time, and the service's span inside the server's engine stage.
        assert server_get.total <= client_get.total + 1e-6
        assert service_get.total <= server_get.total + 1e-6

    def test_unsampled_client_adds_no_spans_anywhere(self, server):
        before = len(server.recorder.spans())
        host, port = server.address
        with LSMClient(host, port, tenant="t") as db:
            db.put(b"k2", b"v")
            db.get(b"k2")
        assert db.recorder is None
        # The client sent no context and the server's own sampling is 0.
        assert len(server.recorder.spans()) == before

    def test_negative_client_decision_propagates(self, server):
        # sampled=False contexts must suppress server/engine spans too, even
        # when the server recorder would otherwise have said yes.
        server.recorder.sampling = 1.0
        try:
            host, port = server.address
            shared = TraceRecorder(capacity=64, sampling=0.0)
            before = len(server.recorder.spans())
            with LSMClient(host, port, tenant="t",
                           trace_recorder=shared) as db:
                db.put(b"k3", b"v")
                db.get(b"k3")
            assert len(shared) == 0
            # should_sample() said no at the client; with no wire context the
            # server re-decides — only *its* root spans (parent_id == "")
            # may appear, never half-traces claiming a client parent.
            new = server.recorder.spans()[before:]
            assert all(s.parent_id == "" or s.trace_id for s in new)
            assert_no_orphans(new)
        finally:
            server.recorder.sampling = 0.0


class TestServerRootedTraces:
    def test_server_makes_one_root_decision_per_request(self):
        srv = make_server(trace_sampling=1.0)
        try:
            host, port = srv.address
            with LSMClient(host, port, tenant="t") as db:
                db.put(b"a", b"1")
                db.put(b"b", b"2")
                db.multi_get([b"a", b"b", b"absent"])
            spans = srv.recorder.spans()
            multi = [s for s in spans if s.name == "server:multi_get"]
            assert len(multi) == 1
            trace = spans_of_trace(srv.recorder, multi[0].trace_id)
            # One root (the server span), everything else links beneath it:
            # the batch is one walk, so one service:multi_get span under the
            # server's, carrying the batch size, and no per-key spans.
            roots = [s for s in trace if s.parent_id == ""]
            assert roots == [multi[0]]
            batch = [s for s in trace if s.name == "service:multi_get"]
            assert len(batch) == 1
            assert batch[0].parent_id == multi[0].span_id
            assert batch[0].attrs["keys"] == 3
            assert not [s for s in trace if s.name == "service:get"]
            assert_no_orphans(trace)
        finally:
            srv.shutdown()


class TestSlowOpLog:
    def test_every_request_logged_regardless_of_sampling(self):
        srv = make_server(slow_op_threshold_s=0.0)  # everything is "slow"
        try:
            host, port = srv.address
            with LSMClient(host, port, tenant="acme") as db:
                db.put(b"k", b"v")
                db.get(b"k")
            records = srv.slow_ops.records()
            ops = [r["op"] for r in records]
            assert "put" in ops and "get" in ops
            get_rec = next(r for r in records if r["op"] == "get")
            assert get_rec["tenant"] == "acme"
            assert "trace_id" not in get_rec  # nothing was sampled
            assert {"engine", "reply_encode"} <= set(get_rec["stages"])
            assert get_rec["total_s"] >= get_rec["stages"]["engine"]
            assert srv.slow_ops.observed == srv.slow_ops.recorded == len(records)
        finally:
            srv.shutdown()

    def test_threshold_filters_and_sampled_requests_carry_trace_id(self):
        srv = make_server(slow_op_threshold_s=0.0, trace_sampling=1.0)
        try:
            host, port = srv.address
            with LSMClient(host, port, tenant="t") as db:
                db.get(b"missing")
            rec = srv.slow_ops.records()[-1]
            assert rec["trace_id"]
            assert rec["trace_id"] in {s.trace_id for s in srv.recorder.spans()}
        finally:
            srv.shutdown()

    def test_disabled_by_none_threshold(self):
        srv = make_server(slow_op_threshold_s=None)
        try:
            assert srv.slow_ops is None
        finally:
            srv.shutdown()


class TestStatsHistoryFrame:
    def test_history_over_the_socket_serves_nonempty_series(self, server):
        host, port = server.address
        with LSMClient(host, port, tenant="t") as db:
            for i in range(50):
                db.put(f"k{i}".encode(), b"v" * 32)
                db.get(f"k{i // 2}".encode())
            history = db.stats_history()
        assert history["samples"] >= 1
        series = history["series"]
        assert "server_requests_total" in series
        assert series["server_requests_total"]["kind"] == "cumulative"
        assert series["server_requests_total"]["v"][-1] >= 100
        assert "cache_hit_ratio" in series and "read_fraction" in series
        assert "engine_gets" in series

    def test_last_n_limits_each_series(self, server):
        host, port = server.address
        with LSMClient(host, port, tenant="t") as db:
            db.ping()
            db.stats_history()  # scrape #2 (start() took point zero)
            tail = db.stats_history(last_n=1)
        for data in tail["series"].values():
            assert len(data["t"]) <= 1

    def test_stats_snapshot_reports_new_surfaces(self, server):
        host, port = server.address
        with LSMClient(host, port, tenant="t") as db:
            db.put(b"k", b"v")
            stats = db.stats()
        assert {"journal", "traces", "slow_ops", "history"} <= set(stats)
        assert stats["history"]["samples"] >= 1
        assert stats["traces"]["sampling"] == 0.0
