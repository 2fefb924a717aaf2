"""Fuzz target for the manifest: damage the newest one, then recover.

Hypothesis cuts the newest manifest of a store at any byte or flips any bit
of it. Two stores are damaged: one closed cleanly (its manifest is the only
one) and one cut short by a crash between a manifest write and the
deletions it allows (the previous manifest and everything it lists are
still on the device). ``LSMTree.recover`` must then either return every
acknowledged key, or raise ``CorruptionError`` having deleted nothing. A
store whose only manifest is damaged is always refused.

CI runs this module under the ``block-fuzz`` profile (``tests/conftest.py``):
derandomized, with a fixed example count.
"""

import functools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import FaultConfig, FaultyBlockDevice, LSMConfig, LSMTree, encode_uint_key
from repro.core.manifest import MAGIC, manifest_for_recovery
from repro.errors import CorruptionError, SimulatedCrashError
from repro.storage.block_device import BlockDevice

CONFIG = LSMConfig(
    buffer_bytes=4 << 10, block_size=512, size_ratio=3,
    wal_enabled=True, wal_sync_interval=1, seed=5,
)


@functools.lru_cache(maxsize=None)
def base_store(crashed):
    """``(device, acked, in_flight)``: a store of 400 puts, closed cleanly
    or crashed at its second ``wal_retire``."""
    device = FaultyBlockDevice(block_size=512, faults=FaultConfig(seed=5), armed=False)
    tree = LSMTree(CONFIG, device=device)
    if crashed:
        device.schedule_crash("wal_retire", 2)
        device.arm()
    acked, in_flight = {}, {}
    for i in range(400):
        key, value = encode_uint_key(i * 7 % 150), b"value-%04d-" % i + b"x" * 24
        try:
            tree.put(key, value)
        except SimulatedCrashError:
            in_flight[key] = value
            break
        acked[key] = value
    device.disarm()
    if not crashed:
        tree.close()
    heads = [device.read_block(f, 0) for f in device.live_files if device.num_blocks(f)]
    assert sum(head.startswith(MAGIC) for head in heads) == (2 if crashed else 1)
    return device, acked, in_flight


def image(device):
    return {
        file_id: [device.read_block(file_id, b) for b in range(device.num_blocks(file_id))]
        for file_id in device.live_files
    }


def clone(device):
    copy = BlockDevice(block_size=device.block_size)
    for file_id, blocks in image(device).items():
        rewrite(copy, file_id, blocks, sealed=device.is_sealed(file_id))
    return copy


def rewrite(device, file_id, blocks, sealed=True):
    if device.file_exists(file_id):
        device.delete_file(file_id)
    device.create_file(file_id=file_id)
    for block in blocks:
        device.append_block(file_id, block)
    if sealed:
        device.seal_file(file_id)


@given(
    crashed=st.booleans(),
    cut=st.booleans(),
    position=st.integers(min_value=0),
)
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_a_damaged_newest_manifest_recovers_everything_or_is_refused(crashed, cut, position):
    base, acked, in_flight = base_store(crashed)
    device = clone(base)
    manifest = manifest_for_recovery(device, CONFIG.name)[0]
    payload = bytearray(b"".join(image(device)[manifest]))
    if cut:
        payload = payload[: position % len(payload)]
    else:
        bit = position % (8 * len(payload))
        payload[bit // 8] ^= 1 << bit % 8
    size = device.block_size
    rewrite(device, manifest, [bytes(payload[i : i + size]) for i in range(0, len(payload), size)])
    before = image(device)
    try:
        tree = LSMTree.recover(CONFIG, device)
    except CorruptionError:
        assert image(device) == before
        return
    assert crashed, "a store whose only manifest is damaged opened"
    for key, value in acked.items():
        got = tree.get(key)
        assert got.found and got.value in (value, in_flight.get(key)), key


@pytest.mark.parametrize("crashed", [False, True])
def test_an_undamaged_store_recovers_every_acked_key(crashed):
    base, acked, _ = base_store(crashed)
    tree = LSMTree.recover(CONFIG, clone(base))
    for key, value in acked.items():
        assert tree.get(key).value == value
