"""DBService liveness: ping(), uptime, and the enriched metrics snapshot."""

import time

from repro.core.config import LSMConfig
from repro.core.lsm_tree import LSMTree
from repro.service import DBService


def make_service():
    return DBService(LSMTree(LSMConfig(buffer_bytes=4 << 10, block_size=512, seed=1)))


class TestPing:
    def test_ping_reports_open_and_uptimes(self):
        with make_service() as service:
            time.sleep(0.01)
            health = service.ping()
            assert health["ok"] is True
            assert health["service_uptime_seconds"] > 0
            assert health["engine_uptime_seconds"] > 0
            assert health["pending_jobs"] >= 0
            assert health["write_queue_depth"] >= 0

    def test_ping_reflects_closed_state(self):
        service = make_service()
        service.close()
        assert service.ping()["ok"] is False

    def test_uptime_is_monotonic(self):
        with make_service() as service:
            first = service.uptime_seconds
            time.sleep(0.01)
            assert service.uptime_seconds > first


class TestMetricsSnapshot:
    def test_snapshot_extends_the_engine_view(self):
        with make_service() as service:
            service.put(b"k", b"v")
            snapshot = service.metrics_snapshot()
            # Engine fields pass through...
            assert snapshot["puts"] == 1
            assert snapshot["uptime_seconds"] > 0
            # ...and the service layer adds its own.
            assert snapshot["service_uptime_seconds"] > 0
            assert snapshot["pending_jobs"] >= 0
            assert snapshot["write_queue_depth"] >= 0

    def test_observability_exports_uptime_gauges(self):
        with make_service() as service:
            observer = service.attach_observability()
            snapshot = observer.registry.snapshot()
            assert snapshot["gauges"]["service_uptime_seconds"] >= 0
            assert snapshot["gauges"]["engine_uptime_seconds"] >= 0
