"""The size a table block had in the version-1 table format.

Tables were once written with v1 data blocks: the log-block encoding
(``crc32 | packed entries``), or a compressed frame of its body when a codec
shrank it. Nothing writes or reads a v1 table any more; what remains is this
encoder, so tests can measure what the same entries cost in v1 bytes.
"""

import zlib

from repro.common.encoding import encode_varint
from repro.storage.compression import FRAME_MAGIC
from repro.storage.sstable import encode_log_block


def encode_block_v1(entries, codec=None):
    """``(payload, uncompressed_size, stored_size)`` of ``entries`` as a v1
    table block, byte for byte what the v1 table writer stored."""
    raw = encode_log_block(entries)
    if codec is not None and codec.codec_id != 0:
        body = raw[4:]
        frame = bytes((FRAME_MAGIC, codec.codec_id)) + encode_varint(len(body))
        frame += codec.compress(body)
        if len(frame) + 4 < len(raw):
            frame += zlib.crc32(frame).to_bytes(4, "big")
            return frame, len(raw), len(frame)
    return raw, len(raw), len(raw)
