"""Durability: WAL, manifest persistence, and crash recovery.

Crash model (see repro.core.manifest): fail-stop between client operations —
a "crash" abandons the LSMTree object; recovery rebuilds from the device.
"""

import contextlib
import random
import zlib

import pytest

from repro import DBService, LSMConfig, LSMTree, encode_uint_key
from repro.common.entry import Entry
from repro.core.manifest import (
    ManifestData,
    manifest_for_recovery,
    read_manifest,
    newest_manifests,
    write_manifest,
)
from repro.errors import ClosedError, ConfigError, MergeError, ReproError, StorageError
from repro.server import LSMClient, LSMServer
from repro.sharding import ShardedStore
from repro.storage.block_device import BlockDevice
from repro.storage.wal import WriteAheadLog


def durable_config(**overrides):
    base = dict(
        buffer_bytes=4 << 10,
        block_size=512,
        size_ratio=3,
        wal_enabled=True,
        wal_sync_interval=1,  # zero loss window unless a test overrides
        seed=77,
    )
    base.update(overrides)
    return LSMConfig(**base)


class TestWAL:
    def test_append_replay_roundtrip(self, device):
        wal = WriteAheadLog(device, sync_interval=4)
        entries = [Entry(key=b"k%d" % i, seqno=i + 1, value=b"v%d" % i) for i in range(10)]
        for entry in entries:
            wal.append(entry)
        assert list(wal.replay()) == entries

    def test_sync_interval_controls_loss_window(self, device):
        wal = WriteAheadLog(device, sync_interval=5)
        for i in range(7):
            wal.append(Entry(key=b"k%d" % i, seqno=i + 1))
        assert wal.unsynced_records == 2  # 5 synced at the group commit

    def test_roll_seals_and_starts_fresh(self, device):
        wal = WriteAheadLog(device, sync_interval=1)
        wal.append(Entry(key=b"a", seqno=1))
        sealed = wal.roll()
        wal.append(Entry(key=b"b", seqno=2))
        assert [e.key for e in wal.replay(sealed)] == [b"a"]
        assert [e.key for e in wal.replay()] == [b"b"]

    def test_invalid_sync_interval(self, device):
        with pytest.raises(ValueError):
            WriteAheadLog(device, sync_interval=0)


class TestManifest:
    def test_write_find_read_roundtrip(self, device):
        data = ManifestData(
            seqno=42,
            wal_files=[7, 9],
            vlog_files=[3, 4],
            levels=[[[10, 11]], [[12], [13, 14]]],
        )
        file_id = write_manifest(device, data)
        assert newest_manifests(device) == {"db": (file_id, data)}
        parsed = read_manifest(device, file_id)
        assert parsed == data

    def test_rewrite_deletes_previous(self, device):
        # write_manifest only writes; the tree retires the manifest it
        # replaced and deletes it once the new one is written.
        first = write_manifest(device, ManifestData(seqno=1))
        second = write_manifest(device, ManifestData(seqno=2))
        assert device.file_exists(first)
        assert newest_manifests(device) == {"db": (second, ManifestData(seqno=2))}
        assert read_manifest(device, second).seqno == 2
        tree = LSMTree(durable_config(name="tree"), device=device)
        written = manifest_for_recovery(device, "tree")[0]
        tree.put(b"k", b"v")
        tree.flush()
        assert not device.file_exists(written)
        assert manifest_for_recovery(device, "tree")[0] > written

    def test_find_ignores_non_manifests(self, device):
        other = device.create_file()
        device.append_block(other, b"not a manifest")
        assert newest_manifests(device) == {}

    def test_read_rejects_garbage(self, device):
        other = device.create_file()
        device.append_block(other, b"garbage")
        with pytest.raises(StorageError):
            read_manifest(device, other)

    def test_the_single_wal_tag_is_not_a_manifest_line(self, device):
        # ``wals`` is the one WAL tag; ``wal 9`` is refused like any other
        # unknown line, even under a matching crc.
        body = b"MANIFEST1\nname db\nseqno 3\nwal 9\n"
        crc = b"crc %08x\n" % zlib.crc32(body)
        for payload in (body + crc, body):
            file_id = device.create_file()
            device.append_block(file_id, payload)
            with pytest.raises(StorageError):
                read_manifest(device, file_id)
            assert newest_manifests(device) == {}

    def test_a_manifest_cut_at_any_block_boundary_loses_to_its_predecessor(self):
        # ``write_manifest`` appends block by block, so a crash leaves the
        # new manifest cut after k whole blocks beside the intact previous
        # one. The name is padded until one cut ends on a newline: such a
        # prefix reads as complete text, and only its missing CRC line
        # tells it from a whole manifest.
        runs = [[100 + 3 * i, 101 + 3 * i, 102 + 3 * i] for i in range(96)]
        levels = [runs[j : j + 8] for j in range(0, 96, 8)]
        for pad in range(64):
            name = "db" + "x" * pad
            data = ManifestData(seqno=9, name=name, wal_files=[5, 6], levels=levels)
            payload = manifest_bytes(data)
            cuts = range(1, -(-len(payload) // 512))
            if any(payload[512 * k - 1 : 512 * k] == b"\n" for k in cuts):
                break
        assert len(cuts) >= 2 and any(payload[512 * k - 1 : 512 * k] == b"\n" for k in cuts)
        for k in cuts:
            device = BlockDevice(block_size=512)
            previous = write_manifest(device, ManifestData(seqno=4, name=name))
            torn = device.create_file()
            for offset in range(0, 512 * k, 512):
                device.append_block(torn, payload[offset : offset + 512])
            with pytest.raises(StorageError):
                read_manifest(device, torn)
            assert [fid for fid, _ in newest_manifests(device).values()] == [previous]
            assert manifest_for_recovery(device, name)[0] == previous


def manifest_bytes(data):
    """The exact bytes ``write_manifest`` stores for ``data``."""
    device = BlockDevice(block_size=512)
    file_id = write_manifest(device, data)
    return b"".join(device.read_block(file_id, b) for b in range(device.num_blocks(file_id)))


class TestRecovery:
    def write_and_crash(self, config, n=2000, keyspace=600):
        tree = LSMTree(config)
        expected = {}
        for i in range(n):
            key = encode_uint_key((i * 733) % keyspace)
            if i % 11 == 10:
                tree.delete(key)
                expected.pop(key, None)
            else:
                value = b"v%06d" % i
                tree.put(key, value)
                expected[key] = value
        # Crash: abandon the object. The device is all that survives.
        return tree.device, expected

    def test_full_recovery_no_loss(self):
        config = durable_config()
        device, expected = self.write_and_crash(config)
        recovered = LSMTree.recover(config, device)
        assert dict(recovered.scan()) == expected
        for key, value in list(expected.items())[:50]:
            result = recovered.get(key)
            assert result.found and result.value == value

    def test_recovery_without_any_flush(self):
        config = durable_config(buffer_bytes=1 << 20)  # nothing ever flushes
        device, expected = self.write_and_crash(config, n=300)
        recovered = LSMTree.recover(config, device)
        assert dict(recovered.scan()) == expected

    def test_group_commit_bounds_loss(self):
        config = durable_config(wal_sync_interval=16, buffer_bytes=1 << 20)
        tree = LSMTree(config)
        for i in range(100):
            tree.put(encode_uint_key(i), b"v%d" % i)
        lost_window = tree._wal.unsynced_records
        assert lost_window < 16
        recovered = LSMTree.recover(config, tree.device)
        survived = len(list(recovered.scan()))
        assert survived == 100 - lost_window

    def test_recovered_tree_keeps_working(self):
        config = durable_config()
        device, expected = self.write_and_crash(config, n=800)
        recovered = LSMTree.recover(config, device)
        recovered.put(b"post-crash", b"alive")
        recovered.flush()
        assert recovered.get(b"post-crash").value == b"alive"
        # And it can crash and recover AGAIN.
        twice = LSMTree.recover(config, recovered.device)
        assert twice.get(b"post-crash").value == b"alive"

    def test_recovery_with_kv_separation(self):
        config = durable_config(kv_separation=True, value_threshold=32)
        tree = LSMTree(config)
        expected = {}
        for i in range(500):
            key = encode_uint_key(i % 150)
            value = (b"blob%04d" % i) * 8  # 64B: separated
            tree.put(key, value)
            expected[key] = value
        recovered = LSMTree.recover(config, tree.device)
        assert dict(recovered.scan()) == expected

    def test_recovery_after_value_gc(self):
        config = durable_config(
            kv_separation=True, value_threshold=16, vlog_segment_blocks=2
        )
        tree = LSMTree(config)
        for round_no in range(4):
            for i in range(60):
                tree.put(encode_uint_key(i), b"r%d-" % round_no + b"x" * 60)
        tree.compact_all()
        tree.collect_value_garbage()
        recovered = LSMTree.recover(config, tree.device)
        for i in range(60):
            assert recovered.get(encode_uint_key(i)).value.startswith(b"r3-")

    def test_recovery_preserves_filters_and_indexes(self):
        config = durable_config(filter_kind="bloom", bits_per_key=10.0, index="fence")
        device, expected = self.write_and_crash(config)
        recovered = LSMTree.recover(config, device)
        before = recovered.device.stats.blocks_read
        for i in range(300):
            recovered.get(encode_uint_key(10_000 + i))
        assert recovered.device.stats.blocks_read - before < 10

    def test_orphan_files_removed(self):
        config = durable_config()
        device, _ = self.write_and_crash(config)
        orphan = device.create_file()
        device.append_block(orphan, b"orphaned temp file")
        recovered = LSMTree.recover(config, device)
        assert not device.file_exists(orphan)
        del recovered

    def test_a_torn_manifest_never_wins_recovery(self):
        # A crash inside a manifest write: the new file holds only its first
        # whole blocks, the previous manifest is still on the device. The
        # prefix lists only some of the runs; were it chosen, recovery would
        # delete the rest as orphans.
        def run(name):
            config = LSMConfig(
                name=name, wal_enabled=True, buffer_bytes=4 << 10, block_size=512,
                size_ratio=3, file_bytes=512, seed=1,
            )
            tree = LSMTree(config)
            rng = random.Random(7)
            acked = {}
            for i in range(4000):
                key = encode_uint_key(rng.randrange(1 << 16))
                acked[key] = b"v%d" % i
                tree.put(key, acked[key])
            tree.close()  # every put is acknowledged
            device = tree.device
            return config, device, acked, manifest_for_recovery(device, name)[1]

        # Pad the name so that the first block ends with the first run line.
        probe = manifest_bytes(run("db")[3])
        first = probe.index(b"\n", probe.index(b"\nrun ") + 1) + 1
        name = "db" + "x" * ((512 - first % 512) % 512)
        config, device, acked, data = run(name)
        payload = manifest_bytes(data)
        assert len(payload) > 512 and payload[511:512] == b"\n"
        assert payload.count(b"\nrun ") >= 2
        torn = device.create_file()
        device.append_block(torn, payload[:512])

        recovered = LSMTree.recover(config, device)
        lost = [key for key, value in acked.items() if recovered.get(key).value != value]
        assert len(acked) > 3000 and lost == []

    def test_recover_requires_wal_config(self):
        with pytest.raises(ClosedError):
            LSMTree.recover(LSMConfig(wal_enabled=False), BlockDevice())

    def test_recover_empty_device_gives_fresh_tree(self):
        config = durable_config()
        tree = LSMTree.recover(config, BlockDevice(block_size=512))
        tree.put(b"k", b"v")
        assert tree.get(b"k").found

    def test_wal_adds_write_io(self):
        def written(wal):
            config = durable_config(wal_enabled=wal)
            tree = LSMTree(config)
            for i in range(1000):
                tree.put(encode_uint_key(i % 300), b"x" * 40)
            tree.flush()
            return tree.device.stats.bytes_written

        assert written(True) > written(False)

    def test_seqno_continuity_after_recovery(self):
        config = durable_config(buffer_bytes=1 << 20)
        tree = LSMTree(config)
        tree.put(b"k", b"old")
        recovered = LSMTree.recover(config, tree.device)
        recovered.put(b"k", b"new")  # must shadow the replayed entry
        assert recovered.get(b"k").value == b"new"
        recovered.flush()
        assert recovered.get(b"k").value == b"new"


class TestRejectedWrites:
    """Validation precedes the WAL append on every write route: a rejected
    write is never logged, never applied, and cannot come back at recovery."""

    OVERSIZED = b"x" * 600  # block_size is 512

    def test_rejected_put_is_not_resurrected_by_recovery(self):
        tree = LSMTree(durable_config())
        tree.put(b"good", b"v")
        logged = tree._wal.records_logged
        with pytest.raises(ConfigError):
            tree.put(b"big", self.OVERSIZED)
        assert tree._wal.records_logged == logged
        assert not tree.get(b"big").found
        recovered = LSMTree.recover(durable_config(), tree.device)
        assert not recovered.get(b"big").found
        assert recovered.get(b"good").value == b"v"
        recovered.flush()  # an oversized replayed entry used to die here
        assert recovered.verify_integrity()["errors"] == []

    @pytest.mark.parametrize("route", ["write_batch", "service"])
    def test_ttl_put_size_is_checked_on_the_batch_route(self, route):
        tree = LSMTree(durable_config())
        logged = tree._wal.records_logged
        with pytest.raises(ConfigError):
            if route == "write_batch":
                tree.write_batch([("put_ttl", b"big", self.OVERSIZED, 5.0)])
            else:
                with DBService(tree) as service:
                    service.put(b"big", self.OVERSIZED, ttl=5.0)
        assert tree._wal.records_logged == logged
        assert tree.memtable_entries == 0

    def test_one_rejected_op_rejects_the_whole_batch(self):
        tree = LSMTree(durable_config())
        logged = tree._wal.records_logged
        ops = [("put", b"a", b"1"), ("merge", b"c", b"1", "no_such_operator"), ("delete", b"a", None)]
        with pytest.raises(MergeError):
            tree.write_batch(ops)
        with pytest.raises(ConfigError):
            tree.write_batch([("put", b"a", b"1"), ("put", b"big", self.OVERSIZED)])
        assert tree._wal.records_logged == logged
        assert tree.memtable_entries == 0 and tree.stats.puts == 0
        assert not tree.get(b"a").found

    @pytest.mark.parametrize("ttl", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("handle", ["tree", "service", "sharded", "client"])
    def test_non_finite_ttl_is_refused_by_every_handle(self, handle, ttl):
        """A NaN deadline never compares expired and an infinite one never
        arrives: either made the key immortal. The wire carries the peer's raw
        f64, so the refusal sits in the one staging function every handle and
        the batch route share — ahead of the WAL."""
        with contextlib.ExitStack() as stack:
            if handle == "sharded":
                store = ShardedStore(durable_config(), [b"m"])
                trees = store.shards
            else:
                store = LSMTree(durable_config())
                trees = [store]
            stack.callback(store.close)
            if handle in ("service", "client"):
                store = stack.enter_context(DBService(store))
            if handle == "client":
                server = LSMServer(store)
                server.start()
                stack.callback(server.shutdown)
                store = stack.enter_context(LSMClient(*server.address, tenant="t"))
            store.put(b"good", b"v")
            logged = [t._wal.records_logged for t in trees]
            with pytest.raises(ReproError, match="finite"):
                store.put(b"k", b"v", ttl=ttl)
            with pytest.raises(ReproError, match="finite"):
                # One bad op rejects the whole frame and counts nothing.
                store.write([("put", b"a", b"1"), ("put_ttl", b"k", b"v", ttl)])
            assert [t._wal.records_logged for t in trees] == logged
            assert sum(t.stats.puts for t in trees) == 1
            assert not store.get(b"k").found and not store.get(b"a").found
