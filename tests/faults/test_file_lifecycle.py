"""One file lifecycle: a file leaves the device only once no durable manifest
needs it, and recovery neither keeps nor invents files.

* A crash anywhere inside value-log GC loses no key: the segments GC copied
  stay on the device, listed in every manifest, until the tree has logged
  and synced every relocation.
* After crashes between manifest writes and the deletions they allow,
  recovery of a sharded store leaves no file that no manifest lists.
* A store whose only manifest is damaged is refused with
  ``CorruptionError``, and nothing is deleted.
* The crash harness, running value-log GC as one of its ops, sees no
  violation.
"""

import pytest

import repro
from repro import LSMConfig, LSMTree, SimulatedCrashError, encode_uint_key
from repro.core.manifest import manifest_for_recovery, newest_manifests
from repro.errors import CorruptionError
from repro.faults.harness import CrashHarness
from repro.sharding import ShardedStore

from tests.faults.conftest import durable_config, faulty_device


def gc_config():
    return durable_config(kv_separation=True, value_threshold=16, vlog_segment_blocks=2)


def listed_files(device):
    """Each owner's newest valid manifest and every file it lists."""
    listed = set()
    for file_id, data in newest_manifests(device).values():
        listed.add(file_id)
        listed.update(data.referenced_files())
    return listed


def device_image(device):
    return {
        file_id: [device.read_block(file_id, b) for b in range(device.num_blocks(file_id))]
        for file_id in device.live_files
    }


@pytest.mark.parametrize("countdown", [1, 30])
def test_a_crash_inside_value_gc_loses_no_key(countdown):
    config = gc_config()
    device = faulty_device()
    tree = LSMTree(config, device=device)
    for round_no in range(4):
        for i in range(60):
            tree.put(encode_uint_key(i), b"r%d-" % round_no + b"x" * 60)
    tree.compact_all()
    device.schedule_crash("wal_sync", countdown)
    device.arm()
    with pytest.raises(SimulatedCrashError):
        tree.collect_value_garbage()
    device.disarm()
    recovered = LSMTree.recover(config, device)
    for i in range(60):
        assert recovered.get(encode_uint_key(i)).value.startswith(b"r3-")


def test_sharded_recovery_leaves_no_unlisted_file():
    config = durable_config()
    boundaries = [encode_uint_key(300), encode_uint_key(600)]
    device = faulty_device()
    store = ShardedStore(config, boundaries, device=device)
    acked = {}
    op = 0
    for _ in range(3):
        device.schedule_crash("wal_retire", 1)
        device.arm()
        with pytest.raises(SimulatedCrashError):
            for _ in range(20_000):
                key, value = encode_uint_key(op * 7 % 900), b"v%06d" % op + b"x" * 40
                store.put(key, value)
                acked[key] = value
                op += 1
        device.disarm()
        store = ShardedStore.recover(config, boundaries, device)
    orphan = device.create_file()
    device.append_block(orphan, b"written by nobody")
    store = ShardedStore.recover(config, boundaries, device)
    assert not device.file_exists(orphan)
    assert set(newest_manifests(device)) == {f"{config.name}-shard{i}" for i in range(3)}
    assert set(device.live_files) <= listed_files(device)
    for key, value in acked.items():
        assert store.get(key).value == value


def damaged_store(offset, shard=None):
    """A closed store of 1 000 keys whose only manifest (``shard``'s, when
    sharded in two) has byte ``offset`` of its first block flipped."""
    config = durable_config()
    boundaries = None if shard is None else [encode_uint_key(500)]
    store = repro.open(config=config, sharding=boundaries)
    device = store.device
    for i in range(1000):
        store.put(encode_uint_key(i), b"v%04d" % i)
    store.close()
    name = config.name if shard is None else f"{config.name}-shard{shard}"
    manifest = manifest_for_recovery(device, name)[0]
    device.corrupt_block(manifest, 0, offset)
    return config, boundaries, device


@pytest.mark.parametrize("offset", [0, 20])
@pytest.mark.parametrize("opener", ["recover", "open", "open-shard0", "open-shard1"])
def test_a_damaged_manifest_is_corruption_and_deletes_nothing(offset, opener):
    shard = int(opener[-1]) if opener.startswith("open-shard") else None
    config, boundaries, device = damaged_store(offset, shard)
    before = device_image(device)
    with pytest.raises(CorruptionError):
        if opener == "recover":
            LSMTree.recover(config, device)
        else:
            repro.open(config=config, device=device, sharding=boundaries)
    assert device_image(device) == before


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_crash_harness_runs_value_gc_without_loss(seed):
    config = LSMConfig(
        buffer_bytes=4 << 10, block_size=512, size_ratio=3, seed=seed,
        kv_separation=True, value_threshold=16, vlog_segment_blocks=2,
    )
    report = CrashHarness(config=config, mode="tree", seed=seed).run(12)
    assert report.ok, report.violations
