"""The size a block had in the version-1 format.

Tables, WAL frames and value-log blocks were once written with v1 blocks:
``crc32 | varint count | entries``, each entry ``varint klen | key | varint
seqno | kind | varint vlen | value``; a table block was stored as a
compressed frame of that body when a codec shrank it. Nothing writes or
reads a v1 block any more; what remains is this encoder, so tests can
measure what the same entries cost in v1 bytes.
"""

import zlib

from repro.common.encoding import encode_varint
from repro.storage.compression import FRAME_MAGIC


def encode_v1_body(entries):
    """The packed v1 body of ``entries``: count, then four fields each."""
    body = bytearray(encode_varint(len(entries)))
    for entry in entries:
        body += encode_varint(len(entry.key)) + entry.key + encode_varint(entry.seqno)
        body += bytes([entry.kind]) + encode_varint(len(entry.value)) + entry.value
    return bytes(body)


def encode_block_v1(entries, codec=None):
    """``(payload, uncompressed_size, stored_size)`` of ``entries`` as a v1
    table block, byte for byte what the v1 table writer stored."""
    body = encode_v1_body(entries)
    raw = zlib.crc32(body).to_bytes(4, "big") + body
    if codec is not None and codec.codec_id != 0:
        frame = bytes((FRAME_MAGIC, codec.codec_id)) + encode_varint(len(body))
        frame += codec.compress(body)
        if len(frame) + 4 < len(raw):
            frame += zlib.crc32(frame).to_bytes(4, "big")
            return frame, len(raw), len(frame)
    return raw, len(raw), len(raw)
