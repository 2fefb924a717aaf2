"""Two-tier block cache: compressed-tier hits, decoded charges, invalidation."""

from repro.cache.block_cache import BlockCache
from repro.common.entry import Entry
from repro.storage.compression import FRAME_MAGIC, get_codec
from repro.storage.sstable import encode_block_v2, parse_block


def compressible_block(tag=0, n=8, value_size=200):
    entries = [
        Entry(key=b"k%02d-%04d" % (tag, i), seqno=i + 1,
              value=bytes([97 + (tag + i) % 5]) * value_size)
        for i in range(n)
    ]
    return entries, encode_block_v2(entries, get_codec("zlib"))[0]


def decode(frame):
    """What a table hands the cache: the block, its charge, and whether the
    payload is a compressed frame (byte 0 of a table block says)."""
    block = parse_block(frame)
    return block, block.charge_bytes, frame[0] == FRAME_MAGIC


class TestTwoTierReads:
    def test_full_miss_feeds_both_tiers(self):
        cache = BlockCache(64 << 10, compressed_capacity_bytes=64 << 10)
        entries, frame = compressible_block()
        loads = []
        block = cache.get_or_load_block(
            "b0", lambda key: loads.append(1) or frame, decode
        )
        assert block.entries == entries
        assert loads == [1]
        assert cache.used_bytes > 0
        assert cache.compressed_used_bytes == len(frame)
        assert cache.stats.misses == 1
        assert cache.compressed_stats.misses == 1

    def test_compressed_hit_skips_device(self):
        # Uncompressed tier too small to retain the block; second read must
        # be served by decoding the retained frame, not by load_frame.
        entries, frame = compressible_block()
        _, charge, _ = decode(frame)
        cache = BlockCache(charge // 2, compressed_capacity_bytes=64 << 10)
        loads = []

        def load(key):
            loads.append(1)
            return frame

        first = cache.get_or_load_block("b0", load, decode)
        assert first.entries == entries
        second = cache.get_or_load_block("b0", load, decode)
        assert second.entries == entries
        assert loads == [1], "compressed-tier hit went to the device"
        assert cache.compressed_stats.hits == 1

    def test_uncompressed_hit_skips_decode(self):
        cache = BlockCache(64 << 10, compressed_capacity_bytes=64 << 10)
        _, frame = compressible_block()
        decodes = []

        def counting_decode(payload):
            decodes.append(1)
            return decode(payload)

        cache.get_or_load_block("b0", lambda key: frame, counting_decode)
        cache.get_or_load_block("b0", lambda key: frame, counting_decode)
        assert decodes == [1]
        assert cache.stats.hits == 1

    def test_legacy_frames_not_retained_compressed(self):
        # Caching an uncompressed payload raw buys nothing over the decoded
        # block, so only actual frames occupy the compressed tier.
        cache = BlockCache(64 << 10, compressed_capacity_bytes=64 << 10)
        entries, _ = compressible_block()
        raw = encode_block_v2(entries)[0]
        cache.get_or_load_block("b0", lambda key: raw, decode)
        assert cache.compressed_used_bytes == 0

    def test_disabled_tier_keeps_single_tier_behavior(self):
        cache = BlockCache(64 << 10)
        _, frame = compressible_block()
        cache.get_or_load_block("b0", lambda key: frame, decode)
        assert cache.compressed_used_bytes == 0
        assert cache.compressed_stats.lookups == 0  # no stats skew when off


class TestDecodedChargeBound:
    def test_full_cache_bounds_resident_decoded_bytes(self):
        # Regression: charging blocks at on-disk (compressed) size would let
        # a full cache hold far more decoded bytes than its budget. Charges
        # must reflect decoded size, so residency stays under capacity.
        capacity = 8 << 10
        cache = BlockCache(capacity, compressed_capacity_bytes=0)
        blocks = {}
        for tag in range(24):
            entries, frame = compressible_block(tag=tag)
            assert len(frame) < 1 << 10  # compressed: tiny on disk...
            block, charge, _ = decode(frame)
            assert charge > 2 << 10  # ...but large decoded
            blocks[tag] = (frame, charge)
            cache.get_or_load_block(f"b{tag}", lambda key, f=frame: f, decode)
            assert cache.used_bytes <= capacity
        resident_decoded = sum(
            charge for tag, (frame, charge) in blocks.items()
            if cache.contains(f"b{tag}")
        )
        assert resident_decoded <= capacity
        assert cache.stats.evictions > 0

    def test_compressed_tier_charges_disk_size(self):
        cache = BlockCache(64 << 10, compressed_capacity_bytes=4 << 10)
        used = 0
        for tag in range(12):
            _, frame = compressible_block(tag=tag)
            cache.get_or_load_block(f"b{tag}", lambda key, f=frame: f, decode)
            used = cache.compressed_used_bytes
            assert used <= 4 << 10
        assert used > 0


class TestInvalidation:
    def test_invalidate_block_drops_both_tiers(self):
        cache = BlockCache(64 << 10, compressed_capacity_bytes=64 << 10)
        _, frame = compressible_block()
        cache.get_or_load_block((7, 0), lambda key: frame, decode)
        assert cache.compressed_used_bytes > 0
        cache.invalidate_block(7, 0)
        assert cache.used_bytes == 0
        assert cache.compressed_used_bytes == 0
        assert cache.compressed_stats.invalidations == 1

    def test_invalidate_file_drops_both_tiers(self):
        cache = BlockCache(64 << 10, compressed_capacity_bytes=64 << 10)
        for block_no in range(3):
            _, frame = compressible_block(tag=block_no)
            cache.get_or_load_block((7, block_no), lambda key, f=frame: f, decode)
        _, other = compressible_block(tag=9)
        cache.get_or_load_block((8, 0), lambda key: other, decode)
        cache.invalidate_file(7)
        assert cache.compressed_used_bytes == len(other)
        assert cache.contains((8, 0))
