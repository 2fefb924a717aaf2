"""FaultyBlockDevice: injection mechanics and configuration validation."""

import pytest

from repro import (
    CRASH_POINTS,
    CorruptionError,
    FaultConfig,
    LSMConfig,
    ServiceConfig,
    SimulatedCrashError,
    TransientIOError,
)
from repro.common.entry import Entry
from repro.errors import ConfigError
from repro.storage.sstable import encode_block_v2, parse_block

from tests.faults.conftest import faulty_device


class TestFaultConfig:
    def test_defaults_inject_nothing(self):
        faults = FaultConfig()
        assert faults.read_error_prob == 0.0
        assert faults.bit_rot_prob == 0.0
        assert faults.crash_points == {}

    def test_validation(self):
        with pytest.raises(ConfigError):
            FaultConfig(read_error_prob=1.5)
        with pytest.raises(ConfigError):
            FaultConfig(bit_rot_prob=-0.1)
        with pytest.raises(ConfigError):
            FaultConfig(max_read_retries=-1)
        with pytest.raises(ConfigError):
            FaultConfig(crash_points={"not_a_point": 1})
        with pytest.raises(ConfigError):
            FaultConfig(crash_points={"wal_sync": 0})

    def test_replace(self):
        faults = FaultConfig(seed=3)
        assert faults.replace(read_error_prob=0.5).read_error_prob == 0.5
        assert faults.replace(read_error_prob=0.5).seed == 3

    def test_crash_point_vocabulary(self):
        for point in ("wal_sync", "flush_install", "compaction_install",
                      "manifest_install", "device_append"):
            assert point in CRASH_POINTS


class TestKeywordOnlyConfigs:
    """The api_redesign contract: configs are keyword-only."""

    @pytest.mark.parametrize("cls,first_field_value", [
        (LSMConfig, 1 << 20),        # buffer_bytes
        (ServiceConfig, 64),         # max_batch
        (FaultConfig, 42),           # seed
    ])
    def test_positional_is_rejected(self, cls, first_field_value):
        with pytest.raises(TypeError):
            cls(first_field_value)

    def test_keyword_construction_is_silent(self, recwarn):
        LSMConfig(buffer_bytes=1 << 20)
        ServiceConfig(max_batch=8)
        FaultConfig(seed=1)
        assert not [w for w in recwarn if w.category is DeprecationWarning]

    def test_config_error_is_uniform(self):
        with pytest.raises(ConfigError):
            LSMConfig(buffer_bytes=0)
        with pytest.raises(ConfigError):
            ServiceConfig(max_batch=0)
        with pytest.raises(ConfigError):
            FaultConfig(torn_write_prob=2.0)


class TestTransientErrors:
    def test_deterministic_injection(self):
        def run():
            dev = faulty_device(seed=5, read_error_prob=0.3)
            fid = dev.create_file()
            dev.append_block(fid, b"x")
            dev.arm()
            outcomes = []
            for _ in range(50):
                try:
                    dev.read_block(fid, 0)
                    outcomes.append("ok")
                except TransientIOError:
                    outcomes.append("err")
            return outcomes

        first, second = run(), run()
        assert first == second  # same seed, same fault schedule
        assert "err" in first and "ok" in first

    def test_unarmed_device_is_clean(self):
        dev = faulty_device(seed=5, read_error_prob=1.0)
        fid = dev.create_file()
        dev.append_block(fid, b"x")
        for _ in range(20):
            dev.read_block(fid, 0)  # never raises while disarmed
        assert dev.fault_stats.transient_errors_injected == 0

    def test_transient_error_carries_location(self):
        dev = faulty_device(seed=1, read_error_prob=1.0)
        fid = dev.create_file()
        dev.append_block(fid, b"x")
        dev.arm()
        with pytest.raises(TransientIOError) as info:
            dev.read_block(fid, 0)
        assert info.value.file_id == fid
        assert info.value.block_no == 0


class TestBitRot:
    def test_checksum_catches_rotten_block(self):
        dev = faulty_device(seed=9, bit_rot_prob=1.0)
        fid = dev.create_file()
        payload = encode_block_v2([Entry(b"k", 1, value=b"v")])[0]
        dev.arm()
        dev.append_block(fid, payload)
        dev.disarm()
        assert dev.fault_stats.bit_rot_injected == 1
        with pytest.raises(CorruptionError):
            parse_block(dev.read_block(fid, 0))


class TestCrashPoints:
    def test_countdown_semantics(self):
        dev = faulty_device(seed=1)
        dev.schedule_crash("device_append", countdown=3)
        dev.arm()
        fid = dev.create_file()
        dev.append_block(fid, b"1")
        dev.append_block(fid, b"2")
        with pytest.raises(SimulatedCrashError) as info:
            dev.append_block(fid, b"3")
        assert info.value.point == "device_append"
        assert dev.fault_stats.crashes_injected == 1
        # fires once, then clears
        dev.append_block(fid, b"3")
        assert "device_append" not in dev.pending_crash_points

    def test_disarm_preserves_countdowns(self):
        dev = faulty_device(seed=1)
        dev.schedule_crash("wal_sync", countdown=2)
        dev.arm()
        dev.crash_hook("wal_sync")
        dev.disarm()
        dev.crash_hook("wal_sync")  # disarmed: no tick, no crash
        assert dev.pending_crash_points == {"wal_sync": 1}

    def test_mid_payload_crash_torn_or_dropped(self):
        for torn_prob, expect_torn in ((1.0, True), (0.0, False)):
            dev = faulty_device(seed=2, torn_write_prob=torn_prob)
            fid = dev.create_file()
            # 5-block payload, crash before appending block 3 of it.
            dev.schedule_crash("device_append", countdown=3)
            dev.arm()
            with pytest.raises(SimulatedCrashError):
                dev.append_payload(fid, b"z" * (5 * dev.block_size))
            dev.disarm()
            if expect_torn:
                assert dev.num_blocks(fid) == 2  # partial prefix survived
                assert dev.fault_stats.torn_writes == 1
            else:
                assert dev.num_blocks(fid) == 0  # dropped whole
                assert dev.fault_stats.clean_drops == 1
