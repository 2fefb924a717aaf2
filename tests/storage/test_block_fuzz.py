"""Fuzz targets for the one block decoder and the log frames around it.

**Blocks.** Hypothesis draws sorted entry lists, encodes them as a table
block (raw or zlib-framed), and damages the result: truncations, bit flips,
offset columns permuted or pointed out of range, entry counts that disagree
with the body, kinds 4-255 and tombstones that carry a value. Every damage
but truncation and ``rot`` recomputes the checksum, so the structural checks
behind it are reached; ``rot`` flips a bit of the stored payload and leaves
the checksum as it was. ``parse_block`` may refuse a block only with
``CorruptionError``, and rot is always refused. A block it returns must then
answer ``find``, indexing, slicing and iteration without raising, and an
undamaged payload must give back exactly the entries it was built from.

**Frames.** Hypothesis draws unsorted records that repeat keys, writes them
through a ``WriteAheadLog`` or a ``ValueLog`` (sealed or not), then cuts the
file at any byte or flips any bit. Replay, the value log's segment scan and
``ValueLog.get`` may end only in ``CorruptionError`` or in a counted torn
tail: whatever they return is every frame before the damage, exactly.

CI runs this module under the ``block-fuzz`` profile (``tests/conftest.py``):
derandomized, with a fixed example count.
"""

import zlib

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.block_cache import BlockCache
from repro.common.encoding import encode_varint
from repro.common.entry import Entry, EntryKind
from repro.errors import BlockNotFoundError, CorruptionError
from repro.storage.block_device import BlockDevice
from repro.storage.compression import FRAME_MAGIC, get_codec
from repro.storage.sstable import encode_block_v2, parse_block
from repro.storage.value_log import ValueLog
from repro.storage.wal import WriteAheadLog, walk_frames

_KEYS = st.one_of(
    st.binary(min_size=1, max_size=12),
    st.binary(min_size=60, max_size=140),  # wide length varints / kk cells
)
_VALUES = st.one_of(
    st.just(b""),
    st.binary(max_size=24),
    st.binary(min_size=128, max_size=300),
)
_SEQNOS = st.one_of(st.integers(0, 127), st.integers(128, 1 << 21), st.integers(1 << 35, 1 << 62))
_MUTATIONS = (
    "none", "truncate", "rot", "truncate-body", "flip", "offsets-permuted",
    "offset-out-of-range", "count", "kind", "tombstone-value",
)


@st.composite
def entry_lists(draw):
    keys = sorted(draw(st.sets(_KEYS, min_size=1, max_size=40)))
    entries = []
    for key in keys:
        kind = draw(st.sampled_from(list(EntryKind)))
        value = b"" if kind is EntryKind.DELETE else draw(_VALUES)
        entries.append(Entry(key, draw(_SEQNOS), kind, value))
    return entries


def body_of(entries):
    return encode_block_v2(entries)[0][:-4]


def frame(codec, body):
    """The payload around ``body``, with a checksum that matches it."""
    if codec == "zlib":
        head = bytes((FRAME_MAGIC, get_codec("zlib").codec_id)) + encode_varint(len(body))
        framed = head + zlib.compress(body)
        return framed + zlib.crc32(framed).to_bytes(4, "big")
    return body + zlib.crc32(body).to_bytes(4, "big")


def v2_columns(body, count):
    """``(offset width, kk width, where the kk column starts)`` of a v2 body."""
    head = body[0]
    offset_width = 4 if head & 0x10 else 2
    kk_width = (1, 2, 4)[head >> 5 & 3]
    return offset_width, kk_width, 1 + count * offset_width


def mutate(entries, body, what, data):
    """A damaged copy of ``body`` (``truncate`` cuts the framed payload
    instead and never comes here)."""
    body = bytearray(body)
    count = len(entries)
    if what == "truncate-body":
        return body[: data.draw(st.integers(0, len(body) - 1))]
    if what == "flip":
        bit = data.draw(st.integers(0, 8 * len(body) - 1))
        body[bit // 8] ^= 1 << bit % 8
        return body
    if what == "kind" or what == "tombstone-value":
        candidates = range(count) if what == "kind" else [
            i for i, entry in enumerate(entries) if entry.value
        ]
        if not candidates:
            return body
        slot = data.draw(st.sampled_from(list(candidates)))
        # A v2 kind is two bits of its kk cell: "kind 4-255" can only land
        # as another key length, so write a whole random cell.
        _, kk_width, kk_at = v2_columns(body, count)
        cell = kk_at + slot * kk_width
        if what == "kind":
            body[cell] = data.draw(st.integers(0, 255))
        else:
            body[cell] = body[cell] & 0xFC | EntryKind.DELETE
        return body
    if what == "count":
        delta = data.draw(st.sampled_from([-2, -1, 1, 2, 64]))
        offset_width, kk_width, _ = v2_columns(body, count)
        stride = offset_width + kk_width + (body[0] & 0x0F)
        start = int.from_bytes(body[1 : 1 + offset_width], "little") + delta * stride
        body[1 : 1 + offset_width] = (start % (1 << 8 * offset_width)).to_bytes(offset_width, "little")
        return body
    offset_width, _, kk_at = v2_columns(body, count)
    cells = [body[1 + i * offset_width : 1 + (i + 1) * offset_width] for i in range(count)]
    if what == "offsets-permuted":
        order = data.draw(st.permutations(range(count)))
        cells = [cells[i] for i in order]
    else:
        slot = data.draw(st.integers(0, count - 1))
        cells[slot] = data.draw(st.integers(0, (1 << 8 * offset_width) - 1)).to_bytes(
            offset_width, "little"
        )
    body[1:kk_at] = b"".join(cells)
    return body


def exercise(block, entries, keys):
    """Every read a caller may make of an opened block; none may raise."""
    for key in keys:
        block.find(key)  # the first: a raw-slice bisect on a fresh v2 block
        block.find(key)  # later ones: the key list
    size = len(block)
    for slot in range(size):
        block[slot]
    if size:
        block[-1], block[size // 2 :], block[::2]
    assert len(list(block)) == size
    assert len(block.entries) == size
    block.charge_bytes


@given(
    entries=entry_lists(),
    codec=st.sampled_from(["none", "zlib"]),
    what=st.sampled_from(_MUTATIONS),
    hash_index=st.booleans(),
    data=st.data(),
)
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_a_damaged_block_is_refused_or_reads_without_raising(
    entries, codec, what, hash_index, data
):
    def open_block(payload):
        return parse_block(payload, hash_index)

    body = body_of(entries)
    payload = frame(codec, body)
    if what == "truncate":
        payload = payload[: data.draw(st.integers(0, len(payload) - 1))]
    elif what == "rot":
        bit = data.draw(st.integers(0, 8 * len(payload) - 1))
        payload = bytearray(payload)
        payload[bit // 8] ^= 1 << bit % 8
        payload = bytes(payload)
    elif what != "none":
        payload = frame(codec, bytes(mutate(entries, body, what, data)))
    probes = [entry.key for entry in entries] + [b"", b"\xff" * 13, entries[0].key + b"\x00"]
    try:
        block = open_block(payload)
    except CorruptionError:
        assert what != "none"
        return
    assert what not in ("truncate", "rot"), "a damaged stored payload opened"
    exercise(block, entries, probes)
    fresh = open_block(payload)
    fresh[len(fresh) // 3 :]  # a window decoded before any find
    exercise(fresh, entries, probes)
    if what == "none":
        assert list(open_block(payload)) == entries
        block = open_block(payload)
        assert [block.find(entry.key) for entry in entries] == entries


# -- log frames ------------------------------------------------------------------

LOG_BLOCK = 128  # small blocks: frames of a few records already span several
_LOG_KEYS = st.binary(min_size=1, max_size=8)
_LOG_VALUES = st.one_of(st.binary(max_size=16), st.binary(min_size=100, max_size=400))


@st.composite
def log_records(draw):
    """Records in append order, as a log holds them: unsorted, keys repeated."""
    pool = draw(st.lists(_LOG_KEYS, min_size=1, max_size=4, unique=True))
    records = []
    for _ in range(draw(st.integers(1, 24))):
        kind = draw(st.sampled_from(list(EntryKind)))
        value = b"" if kind is EntryKind.DELETE else draw(_LOG_VALUES)
        records.append(Entry(draw(st.sampled_from(pool)), draw(_SEQNOS), kind, value))
    return records


def damage(device, file_id, what, data):
    """Cut the file at any byte or flip any bit of it, as a crash or bit rot
    would; returns the first block the damage reaches."""
    blocks = device._file(file_id).blocks
    at = data.draw(st.integers(0, sum(map(len, blocks)) - 1))
    block_no = 0
    while at >= len(blocks[block_no]):
        at -= len(blocks[block_no])
        block_no += 1
    if what == "truncate":
        blocks[block_no:] = [blocks[block_no][:at]] if at else []
    else:
        block = bytearray(blocks[block_no])
        block[at] ^= 1 << data.draw(st.integers(0, 7))
        blocks[block_no] = bytes(block)
    return block_no


def assert_a_frame_prefix(layout, touched, kept, sealed, torn, what, device, file_id):
    """What a walk that did not raise may read: the first ``kept`` frames of
    ``layout`` (``(first, span)`` in file order), which must be every frame
    that ends before the damage and nothing after it. Short of the last
    frame, it stopped at a torn tail of an unsealed file (``torn``: the
    WAL's count, None where nothing counts), or the file now ends on a frame
    boundary: a cut there is a shorter log, indistinguishable from one."""
    if touched is None:
        assert kept == len(layout) and not torn
        return
    assert kept == sum(1 for first, span in layout if first + span <= touched)
    if torn:
        assert not sealed
    elif kept < len(layout) and not (torn is None and not sealed):
        assert what == "truncate" and device.num_blocks(file_id) == layout[kept][0]


@given(
    records=log_records(),
    sync_interval=st.integers(1, 8),
    sealed=st.booleans(),
    what=st.sampled_from(["none", "truncate", "flip"]),
    data=st.data(),
)
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_a_damaged_wal_replays_every_frame_before_the_damage_or_is_refused(
    records, sync_interval, sealed, what, data
):
    device = BlockDevice(block_size=LOG_BLOCK)
    wal = WriteAheadLog(device, sync_interval=sync_interval)
    for record in records:
        wal.append(record)
    wal.sync()
    file_id = wal.roll() if sealed else wal.current_file
    layout = [(first, span) for first, span, _ in walk_frames(device, file_id)]
    groups = [records[i : i + sync_interval] for i in range(0, len(records), sync_interval)]
    assert len(layout) == len(groups)
    touched = None if what == "none" else damage(device, file_id, what, data)
    try:
        replayed = list(wal.replay(file_id))
    except CorruptionError:
        assert touched is not None
        return
    prefixes = [sum(groups[:k], []) for k in range(len(groups) + 1)]
    assert replayed in prefixes
    assert wal.torn_frames_dropped in (0, 1)
    assert_a_frame_prefix(
        layout, touched, prefixes.index(replayed), sealed, wal.torn_frames_dropped,
        what, device, file_id,
    )


@given(
    records=log_records(),
    sealed=st.booleans(),
    what=st.sampled_from(["none", "truncate", "flip"]),
    cached=st.booleans(),
    data=st.data(),
)
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_a_damaged_value_log_reads_back_or_is_refused(records, sealed, what, cached, data):
    device = BlockDevice(block_size=LOG_BLOCK)
    writer = ValueLog(device)
    pointers = [writer.append(record.key, record.value) for record in records]
    writer.flush()
    file_id = writer.current_file
    if sealed:
        device.seal_file(file_id)
    reader = ValueLog(device)  # the log as recovery reopens it
    reader.adopt([file_id])
    layout = [(first, span) for first, span, _ in walk_frames(device, file_id)]
    touched = None if what == "none" else damage(device, file_id, what, data)
    remaining = device.num_blocks(file_id)
    cache = BlockCache(1 << 20) if cached else None
    for pointer, record in zip(pointers, records):
        end = pointer.block_no + pointer.span
        if touched is None:
            hit = False
        elif what == "truncate":
            hit = end > touched
        else:
            hit = pointer.block_no <= touched < end
        try:
            value = reader.get(pointer, cache=cache)
        except CorruptionError:
            assert hit
            continue
        except BlockNotFoundError:
            assert end > remaining  # cut away: the block is simply not there
            continue
        assert not hit and value == record.value
    stored = [(Entry(r.key, 0, EntryKind.PUT, r.value), p) for r, p in zip(records, pointers)]
    try:
        scanned = list(reader._scan_file(file_id))
    except CorruptionError:
        assert touched is not None
        return
    firsts = [first for first, _ in layout]
    frame_of = [firsts.index(pointer.block_no) for pointer in pointers]
    ends = [frame_of.count(k) for k in range(len(layout))]  # records per frame
    ends = [sum(ends[:k]) for k in range(len(layout) + 1)]  # in the first k frames
    assert len(scanned) in ends and scanned == stored[: len(scanned)]
    assert_a_frame_prefix(
        layout, touched, ends.index(len(scanned)), sealed, None, what, device, file_id
    )
