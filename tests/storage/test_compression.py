"""Block codecs: round-trip properties, corruption typing, framed format.

Only table blocks are ever compressed; every payload here is a v2 table
block, raw or framed.
"""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.entry import Entry, EntryKind
from repro.errors import CorruptionError
from repro.storage.block_device import BlockDevice
from repro.storage.compression import FRAME_MAGIC, available_codecs, codec_by_id, get_codec
from repro.storage.sstable import (
    SSTableBuilder,
    encode_block_v2,
    parse_block,
    rebuild_sstable,
)
from repro.storage.wal import read_frame, write_frame

COMPRESSED = ("rle", "zlib")


def table_block(entries, name=None):
    """A v2 table block, compressed with codec ``name`` if that shrinks it."""
    return encode_block_v2(entries, get_codec(name) if name else None)[0]


def compressible_entries(n=40, value_size=80):
    return [
        Entry(key=b"key-%05d" % i, seqno=i + 1,
              value=b"hdr%02d" % (i % 7) + bytes([97 + i % 3]) * value_size)
        for i in range(n)
    ]


entry_lists = st.lists(
    st.tuples(
        st.binary(min_size=1, max_size=24),
        st.binary(max_size=96),
        st.booleans(),
    ),
    min_size=1,
    max_size=24,
    unique_by=lambda kvt: kvt[0],
)


def _entries_from(triples):
    triples.sort()
    return [
        Entry(key=k, seqno=i + 1,
              kind=EntryKind.DELETE if dead else EntryKind.PUT,
              value=b"" if dead else v)
        for i, (k, v, dead) in enumerate(triples)
    ]


class TestCodecRegistry:
    def test_available_names(self):
        assert {"none", "rle", "zlib"} <= set(available_codecs())

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            get_codec("snappy")

    def test_unknown_id_is_corruption(self):
        with pytest.raises(CorruptionError):
            codec_by_id(0x7F)

    def test_ids_are_stable(self):
        # Persistent format contract: ids are written into block headers.
        assert get_codec("none").codec_id == 0
        assert get_codec("zlib").codec_id == 1
        assert get_codec("rle").codec_id == 2


class TestCodecRoundTrip:
    @pytest.mark.parametrize("name", COMPRESSED)
    @settings(max_examples=40, deadline=None)
    @given(data=st.binary(max_size=2048))
    def test_raw_roundtrip(self, name, data):
        codec = get_codec(name)
        assert codec.decompress(codec.compress(data), len(data)) == data

    @pytest.mark.parametrize("name", COMPRESSED)
    @settings(max_examples=40, deadline=None)
    @given(triples=entry_lists)
    def test_block_roundtrip(self, name, triples):
        entries = _entries_from(triples)
        payload = table_block(entries, name)
        assert parse_block(payload) == entries

    @settings(max_examples=40, deadline=None)
    @given(triples=entry_lists)
    def test_legacy_and_framed_agree(self, triples):
        # A raw (unframed) block and its frames open to the same entries.
        entries = _entries_from(triples)
        raw = table_block(entries)
        for name in COMPRESSED:
            framed = table_block(entries, name)
            assert parse_block(framed) == parse_block(raw)

    @pytest.mark.parametrize("name", COMPRESSED)
    def test_runs_compress(self, name):
        payload = table_block(compressible_entries(), name)
        assert payload[0] == FRAME_MAGIC
        assert len(payload) < len(table_block(compressible_entries()))

    def test_incompressible_blocks_stay_legacy(self):
        # Store-compressed-only-if-smaller: high-entropy values stay in a
        # raw block, so compression never inflates a block.
        import random

        rng = random.Random(9)
        entries = [
            Entry(key=b"k%03d" % i, seqno=i + 1,
                  value=bytes(rng.randrange(256) for _ in range(40)))
            for i in range(8)
        ]
        payload = table_block(entries, "rle")
        assert payload[0] != FRAME_MAGIC
        assert payload == table_block(entries)


class TestCorruptionTyping:
    @pytest.mark.parametrize("name", COMPRESSED)
    def test_truncation_is_corruption(self, name):
        payload = table_block(compressible_entries(), name)
        for cut in range(len(payload)):
            with pytest.raises(CorruptionError):
                parse_block(payload[:cut])

    @pytest.mark.parametrize("name", COMPRESSED)
    def test_bit_flips_never_return_garbage(self, name):
        # Nothing falls back to a second reading of a damaged frame: the
        # header bytes included, every single-bit flip is refused.
        payload = table_block(compressible_entries(), name)
        assert payload[0] == FRAME_MAGIC
        for pos in range(len(payload)):
            flipped = bytearray(payload)
            flipped[pos] ^= 0x40
            with pytest.raises(CorruptionError):
                parse_block(bytes(flipped))

    @pytest.mark.parametrize("name", COMPRESSED)
    def test_body_flips_are_typed_corruption(self, name):
        # A flip must raise the *typed* error the read guard retries and
        # quarantines on — not a codec internal.
        payload = table_block(compressible_entries(), name)
        for pos in range(2, len(payload)):
            flipped = bytearray(payload)
            flipped[pos] ^= 0x01
            with pytest.raises(CorruptionError):
                parse_block(bytes(flipped))

    def test_declared_size_mismatch_is_corruption(self):
        codec = get_codec("zlib")
        compressed = codec.compress(b"a" * 100)
        with pytest.raises(CorruptionError):
            codec.decompress(compressed, 99)
        with pytest.raises(CorruptionError):
            get_codec("rle").decompress(
                get_codec("rle").compress(b"b" * 64), 63
            )

    def test_zlib_rejects_rle_stream(self):
        rle = get_codec("rle").compress(b"c" * 50)
        with pytest.raises(CorruptionError):
            get_codec("zlib").decompress(rle, 50)


class TestCompressedTables:
    @pytest.mark.parametrize("name", COMPRESSED)
    def test_builder_roundtrip_and_accounting(self, name):
        device = BlockDevice(block_size=512)
        builder = SSTableBuilder(device, codec=name)
        entries = compressible_entries(n=120)
        for entry in entries:
            builder.add(entry)
        table = builder.finish()
        assert list(table.iter_entries()) == entries
        assert 0 < table.compressed_data_bytes < table.uncompressed_data_bytes

    @pytest.mark.parametrize("name", COMPRESSED)
    def test_rebuild_compressed_file(self, name):
        device = BlockDevice(block_size=512)
        builder = SSTableBuilder(device, codec=name)
        entries = compressible_entries(n=120)
        for entry in entries:
            builder.add(entry)
        table = builder.finish()
        rebuilt = rebuild_sstable(device, table.file_id)
        assert list(rebuilt.iter_entries()) == entries
        assert rebuilt.entry_count == table.entry_count
        assert rebuilt.compressed_data_bytes < rebuilt.uncompressed_data_bytes

    def test_rebuild_legacy_file_unchanged(self):
        device = BlockDevice(block_size=512)
        builder = SSTableBuilder(device)
        entries = compressible_entries(n=60)
        for entry in entries:
            builder.add(entry)
        table = builder.finish()
        rebuilt = rebuild_sstable(device, table.file_id)
        assert list(rebuilt.iter_entries()) == entries
        assert rebuilt.uncompressed_data_bytes == rebuilt.compressed_data_bytes


class TestFrameFormat:
    def test_frame_layout(self):
        # magic | codec_id | varint(uncompressed) | data | crc32 — the crc
        # covers everything before it, over the *compressed* bytes.
        codec = get_codec("zlib")
        payload = table_block(compressible_entries(), "zlib")
        assert payload[0] == FRAME_MAGIC
        assert payload[1] == codec.codec_id
        body, crc = payload[:-4], payload[-4:]
        assert zlib.crc32(body).to_bytes(4, "big") == crc

    def test_detect_frames_optout(self):
        # A log has no compression to opt out of: a log frame stores its
        # block raw however well it would compress, so its first byte is a
        # v2 head, never the frame magic.
        entries = compressible_entries()
        device = BlockDevice(block_size=1 << 16)
        fid = device.create_file()
        write_frame(device, fid, entries)
        raw = encode_block_v2(entries)[0]
        assert len(table_block(entries, "rle")) < len(raw)
        assert device.read_block(fid, 0).endswith(raw) and raw[0] != FRAME_MAGIC
        assert read_frame(device, fid, 0, 1)[0] == entries
