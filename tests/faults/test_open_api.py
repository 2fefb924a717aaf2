"""repro.open(): the unified entry point and its lifecycle contract."""

import pytest

import repro
from repro import (
    BlockDevice,
    DBService,
    FaultConfig,
    FaultyBlockDevice,
    LSMConfig,
    LSMTree,
    ServiceConfig,
)
from repro.errors import ClosedError, ConfigError


def small_config(**overrides):
    base = dict(buffer_bytes=4 << 10, block_size=512, size_ratio=3,
                wal_enabled=True, wal_sync_interval=1, seed=5)
    base.update(overrides)
    return LSMConfig(**base)


class TestOpenShapes:
    def test_default_open_is_a_durable_tree(self):
        db = repro.open()
        assert isinstance(db, LSMTree)
        assert db.config.wal_enabled
        db.put(b"k", b"v")
        db.close()

    def test_service_open(self):
        with repro.open(config=small_config(), service=True) as db:
            assert isinstance(db, DBService)
            db.put(b"k", b"v")
            assert db.get(b"k").value == b"v"
        # close() closed the tree too (repro.open owns the whole stack)
        with pytest.raises(ClosedError):
            db.tree.put(b"x", b"y")

    def test_service_accepts_a_service_config(self):
        with repro.open(config=small_config(),
                        service=ServiceConfig(max_batch=4)) as db:
            assert db.config.max_batch == 4

    def test_faults_open_builds_armed_fault_device(self):
        db = repro.open(config=small_config(), faults=FaultConfig(seed=2))
        assert isinstance(db.device, FaultyBlockDevice)
        assert db.device.armed
        assert db.device.guard is not None
        db.close()

    def test_arm_faults_false_defers_injection(self):
        db = repro.open(config=small_config(), faults=FaultConfig(seed=2),
                        arm_faults=False)
        assert not db.device.armed
        db.close()

    def test_observe_attaches_fault_series(self):
        faults = FaultConfig(seed=8, read_error_prob=0.2, max_read_retries=64)
        with repro.open(config=small_config(), observe=True, faults=faults) as db:
            for i in range(400):
                db.put(b"k%d" % i, b"v")
            db.flush()
            for i in range(400):
                assert db.get(b"k%d" % i).found
            assert db.observer is db.device.guard.observer
            registry = db.observer.registry
            counter_names = {c.name for c in registry.counters()}
            assert "fault_transient_total" in counter_names
            assert "quarantine_files_total" in counter_names
            hist_names = {h.name for h in registry.histograms()}
            assert "recovery_wall_seconds" in hist_names
            transient = registry.counter("fault_transient_total")
            assert transient.value == db.device.guard.transient_errors

    def test_service_observe_wires_guard_observer(self):
        faults = FaultConfig(seed=8)
        with repro.open(config=small_config(), service=True, observe=True,
                        faults=faults) as db:
            assert db.observer is not None
            assert db.tree.device.guard.observer is db.observer


class TestOpenRecovery:
    def test_reopen_recovers_durable_state(self):
        config = small_config()
        db = repro.open(config=config)
        for i in range(300):
            db.put(b"key-%04d" % i, b"value-%04d" % i)
        device = db.device  # crash: abandon the handle, keep the device
        reopened = repro.open(config=config, device=device)
        assert reopened.stats.recoveries == 1
        for i in range(300):
            assert reopened.get(b"key-%04d" % i).value == b"value-%04d" % i
        reopened.close()

    @pytest.mark.parametrize("shape", ["tree", "service", "sharded"])
    def test_recovery_is_visible_to_observability(self, shape):
        """A handle opened observed on a crashed device reports the recovery
        it came out of: counter, wall-time histogram, journal event."""
        config = small_config()
        kwargs = {"service": True} if shape == "service" else (
            {"sharding": [b"key-0150"]} if shape == "sharded" else {})
        db = repro.open(config=config, **kwargs)
        for i in range(300):
            db.put(b"key-%04d" % i, b"value-%04d" % i)
        if shape == "service":
            db.scheduler.close()  # crash: no drain, no close
        device = db.tree.device if shape == "service" else db.device
        reopened = repro.open(config=config, device=device, observe=True, **kwargs)
        try:
            observers = reopened.observers if shape == "sharded" else [reopened.observer]
            for observer in observers:
                snap = observer.registry.snapshot()
                assert snap["counters"]["recoveries_total"] == 1
                assert snap["histograms"]["recovery_wall_seconds"]["count"] == 1
                assert snap["histograms"]["recovery_wall_seconds"]["sum"] > 0
                assert len(observer.journal.events(kind="recovery")) == 1
            if shape == "sharded":
                merged = reopened.merged_registry().snapshot()
                assert merged["counters"]["recoveries_total"] == len(observers) == 2
                assert merged["histograms"]["recovery_wall_seconds"]["count"] == 2
            assert reopened.get(b"key-0299").value == b"value-0299"
        finally:
            reopened.close()

    def test_close_seals_everything_for_clean_reopen(self):
        config = small_config()
        with repro.open(config=config) as db:
            db.put(b"a", b"1")
            device = db.device
        reopened = repro.open(config=config, device=device)
        assert reopened.get(b"a").value == b"1"

    def test_close_is_idempotent_and_blocks_use(self):
        db = repro.open(config=small_config())
        db.close()
        db.close()
        with pytest.raises(ClosedError):
            db.put(b"k", b"v")


class TestOpenValidation:
    def test_plain_device_with_faults_rejected(self):
        with pytest.raises(ConfigError):
            repro.open(config=small_config(),
                       device=BlockDevice(block_size=512),
                       faults=FaultConfig())

    def test_block_size_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            repro.open(config=small_config(block_size=512),
                       device=BlockDevice(block_size=4096))

    def test_reopen_with_fault_device_keeps_guard(self):
        config = small_config()
        faults = FaultConfig(seed=3)
        db = repro.open(config=config, faults=faults)
        db.put(b"k", b"v")
        device, guard = db.device, db.device.guard
        device.disarm()
        reopened = repro.open(config=config, device=device, faults=faults)
        assert reopened.device.guard is guard  # not replaced on reopen
        assert reopened.get(b"k").value == b"v"
