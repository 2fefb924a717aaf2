"""Property tests: WAL-frame checksums never pass silent damage.

The contract under test (hypothesis-driven): whatever byte of a durable WAL
frame is flipped, a reader either gets the original records (impossible
after a real flip), a typed error, or — for an *unsealed* log's tail — a
clean prefix of acknowledged records. Never a wrong answer.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import CorruptionError
from repro.common.entry import Entry, EntryKind
from repro.storage.compression import FRAME_MAGIC
from repro.storage.wal import WriteAheadLog, read_frame, write_frame

from tests.faults.conftest import faulty_device

def _entry(key, seqno, tombstone, value):
    if tombstone:
        return Entry(key=key, seqno=seqno, kind=EntryKind.DELETE)
    return Entry(key=key, seqno=seqno, value=value)


entries_strategy = st.lists(
    st.builds(
        _entry,
        key=st.binary(min_size=1, max_size=24),
        seqno=st.integers(min_value=1, max_value=1 << 40),
        tombstone=st.booleans(),
        value=st.binary(max_size=64),
    ),
    min_size=1,
    max_size=12,
)


def _written_frame(entries):
    """``entries`` as one frame on a fresh device: ``(device, file, span)``."""
    device = faulty_device()
    fid = device.create_file()
    return (device, fid) + write_frame(device, fid, entries)[1:]


@given(entries=entries_strategy)
@settings(max_examples=60, deadline=None)
def test_serialize_parse_roundtrip(entries):
    device, fid, span = _written_frame(entries)
    assert read_frame(device, fid, 0, span)[0] == entries


@given(entries=entries_strategy, data=st.data())
@settings(max_examples=80, deadline=None)
def test_any_byte_flip_is_detected(entries, data):
    device, fid, span = _written_frame(entries)
    payload = device.read_payload(fid, 0, span)
    pos = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
    bit = data.draw(st.integers(min_value=0, max_value=7))
    with device._lock:
        blocks = device._file(fid).blocks
        flipped = bytearray(blocks[pos // device.block_size])
        flipped[pos % device.block_size] ^= 1 << bit
        blocks[pos // device.block_size] = bytes(flipped)
    # A flip may damage the length prefix, the structure or the content —
    # but it must never silently return entries, and the only way to say so
    # is CorruptionError.
    try:
        result = read_frame(device, fid, 0, span)
    except CorruptionError:
        return  # detected, and typed
    pytest.fail(f"flip at byte {pos} bit {bit} went undetected: {result!r}")


@given(seqnos=st.lists(st.integers(min_value=1, max_value=1000),
                       min_size=2, max_size=6, unique=True), data=st.data())
@settings(max_examples=40, deadline=None)
def test_sealed_wal_flip_raises_on_replay(seqnos, data):
    device = faulty_device()
    wal = WriteAheadLog(device, sync_interval=1)  # one frame per record
    for seqno in sorted(seqnos):
        wal.append(Entry(key=b"k%d" % seqno, seqno=seqno, value=b"v" * 40))
    sealed = wal.roll()
    total = device.num_blocks(sealed)
    block_no = data.draw(st.integers(min_value=0, max_value=total - 1))
    offset = data.draw(st.integers(min_value=0, max_value=device.block_size - 1))
    device.corrupt_block(sealed, block_no, offset)
    with pytest.raises(CorruptionError):
        list(wal.replay(sealed))


def test_torn_tail_on_unsealed_log_drops_only_the_tail():
    device = faulty_device()
    wal = WriteAheadLog(device, sync_interval=1)
    for i in range(5):
        wal.append(Entry(key=b"k%d" % i, seqno=i + 1, value=b"v" * 700))
    # Tear the last frame: chop its final block off, as an interrupted
    # multi-block append would (each 700-byte value spans two 512B blocks).
    fid = wal.current_file
    with device._lock:
        device._file(fid).blocks.pop()
    replayed = list(wal.replay())
    assert [e.key for e in replayed] == [b"k0", b"k1", b"k2", b"k3"]
    assert wal.torn_frames_dropped == 1


def test_corrupt_middle_frame_is_never_skipped():
    """Only the *tail* may be dropped; earlier damage is acked-data loss."""
    device = faulty_device()
    wal = WriteAheadLog(device, sync_interval=1)
    for i in range(6):
        wal.append(Entry(key=b"k%d" % i, seqno=i + 1, value=b"v" * 200))
    device.corrupt_block(wal.current_file, 0)
    with pytest.raises(CorruptionError):
        list(wal.replay())


def test_a_frame_that_opens_like_a_compressed_block_replays_intact():
    # Log frames are never compressed, and nothing reads one as if it might
    # be: whatever a record holds, the block behind a frame's length prefix
    # opens with a v2 head byte (bit 7 clear), never the frame magic.
    rng = random.Random(2023)
    entries = [
        Entry(key=bytes([FRAME_MAGIC]) * 3, seqno=rng.randrange(1 << 40), value=rng.randbytes(16))
        for _ in range(20)
    ]
    device = faulty_device()
    wal = WriteAheadLog(device, sync_interval=1)
    for entry in entries:
        wal.append(entry)
    sealed = wal.roll()
    for block_no in range(device.num_blocks(sealed)):
        head = device.read_block(sealed, block_no)
        assert head[1] != FRAME_MAGIC and not head[1] & 0x80  # a one-byte prefix
    assert list(wal.replay(sealed)) == entries
