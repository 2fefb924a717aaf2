"""Pluggable per-block compression codecs.

The table-block format in :mod:`repro.storage.sstable` frames a compressed
data block as ``magic | codec_id | varint uncompressed_size |
compressed_data | crc32`` (the SegmentDB layout: compressed size is implicit
in the payload length, and the checksum covers the *compressed* bytes so
corruption is caught before the codec ever runs). This module owns the codecs
themselves:

* ``none`` — identity; the engine skips framing entirely and writes raw
  blocks;
* ``zlib`` — the stdlib DEFLATE codec, the high-ratio option;
* ``rle`` — a cheap LZ4-style byte run-length codec with no dependencies,
  the fast option for the suite and for latency-sensitive configs.

Codecs are registered by name and by a stable one-byte wire id; the id is
written into every frame, so **ids are a persistent format contract** — never
renumber one. Decompression failures raise
:class:`~repro.errors.CorruptionError`, so they flow through the same
retry/quarantine machinery (:mod:`repro.faults`) as checksum mismatches.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable

from repro.errors import CorruptionError


class Codec:
    """One compression algorithm with a stable wire identity.

    Subclasses implement :meth:`compress` / :meth:`decompress` over raw block
    bodies. ``decompress`` receives the size the frame header promised and
    must verify its output against it — a wrong size after a valid checksum
    means the frame was mis-framed, and callers rely on the typed error.
    """

    name: str = "abstract"
    codec_id: int = -1

    def compress(self, data: bytes) -> bytes:
        raise NotImplementedError

    def decompress(self, data: bytes, uncompressed_size: int) -> bytes:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Codec {self.name} id={self.codec_id}>"


class NoneCodec(Codec):
    """Identity codec (wire id 0). The engine never frames with it — config
    ``compression='none'`` writes raw blocks — but it anchors the registry so
    every config name resolves to a codec object."""

    name = "none"
    codec_id = 0

    def compress(self, data: bytes) -> bytes:
        return bytes(data)

    def decompress(self, data: bytes, uncompressed_size: int) -> bytes:
        out = bytes(data)
        if len(out) != uncompressed_size:
            raise CorruptionError(
                f"stored block size {len(out)} != declared {uncompressed_size}"
            )
        return out


class ZlibCodec(Codec):
    """DEFLATE via the stdlib (wire id 1): best ratio, highest CPU."""

    name = "zlib"
    codec_id = 1

    def __init__(self, level: int = 6) -> None:
        self.level = level

    def compress(self, data: bytes) -> bytes:
        return zlib.compress(bytes(data), self.level)

    def decompress(self, data: bytes, uncompressed_size: int) -> bytes:
        try:
            out = zlib.decompress(bytes(data))
        except zlib.error as exc:
            raise CorruptionError(f"zlib decompression failed: {exc}") from exc
        if len(out) != uncompressed_size:
            raise CorruptionError(
                f"decompressed {len(out)} bytes, frame declared {uncompressed_size}"
            )
        return out


class RleCodec(Codec):
    """Byte run-length codec (wire id 2): the cheap LZ4-style fallback.

    Wire format is a stream of control bytes: ``c < 0x80`` starts a literal
    run of ``c + 1`` verbatim bytes; ``c >= 0x80`` repeats the following byte
    ``(c - 0x80) + 4`` times (runs shorter than 4 never win, so run lengths
    encode 4..131). Serialized blocks are full of zero padding, repeated
    value bytes, and shared key prefixes' tails, which this catches at a
    fraction of DEFLATE's CPU cost.
    """

    name = "rle"
    codec_id = 2

    _MAX_RUN = 131  # (0xFF - 0x80) + 4
    _MAX_LITERAL = 128

    def compress(self, data: bytes) -> bytes:
        data = bytes(data)
        out = bytearray()
        i, n = 0, len(data)
        while i < n:
            byte = data[i]
            run = 1
            while run < self._MAX_RUN and i + run < n and data[i + run] == byte:
                run += 1
            if run >= 4:
                out.append(0x80 | (run - 4))
                out.append(byte)
                i += run
                continue
            # Literal stretch: consume until a profitable (>=4) run begins.
            start = i
            i += run
            while i < n and i - start < self._MAX_LITERAL:
                if i + 3 < n and data[i] == data[i + 1] == data[i + 2] == data[i + 3]:
                    break
                i += 1
            chunk = data[start:i]
            out.append(len(chunk) - 1)
            out.extend(chunk)
        return bytes(out)

    def decompress(self, data: bytes, uncompressed_size: int) -> bytes:
        data = bytes(data)
        out = bytearray()
        i, n = 0, len(data)
        while i < n:
            control = data[i]
            i += 1
            if control < 0x80:
                length = control + 1
                if i + length > n:
                    raise CorruptionError("truncated RLE literal run")
                out += data[i : i + length]
                i += length
            else:
                if i >= n:
                    raise CorruptionError("truncated RLE repeat run")
                out += data[i : i + 1] * ((control - 0x80) + 4)
                i += 1
            if len(out) > uncompressed_size:
                raise CorruptionError(
                    f"RLE output exceeds declared size {uncompressed_size}"
                )
        if len(out) != uncompressed_size:
            raise CorruptionError(
                f"RLE produced {len(out)} bytes, frame declared {uncompressed_size}"
            )
        return bytes(out)


# -- the frame header --------------------------------------------------------

# Byte 0 of every compressed table block. A raw v2 table block opens with a
# head byte below 0x80, so this byte alone tells the two apart; a log frame's
# block is never compressed. A persistent format constant: never change.
FRAME_MAGIC = 0xC7


# -- registry ----------------------------------------------------------------

_BY_NAME: Dict[str, Codec] = {}
_BY_ID: Dict[int, Codec] = {}


def register_codec(codec: Codec) -> Codec:
    """Add a codec to the registry; name and wire id must both be unique."""
    if codec.codec_id < 0 or codec.codec_id > 0xFF:
        raise ValueError(f"codec id {codec.codec_id} must fit in one byte")
    existing = _BY_ID.get(codec.codec_id)
    if existing is not None and existing.name != codec.name:
        raise ValueError(
            f"codec id {codec.codec_id} already taken by {existing.name!r}"
        )
    _BY_NAME[codec.name] = codec
    _BY_ID[codec.codec_id] = codec
    return codec


register_codec(NoneCodec())
register_codec(ZlibCodec())
register_codec(RleCodec())


def get_codec(name: str) -> Codec:
    """Resolve a codec by config name.

    Raises:
        ValueError: for an unregistered name (config validation catches this
            earlier with a friendlier :class:`~repro.errors.ConfigError`).
    """
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown compression codec {name!r}") from None


def codec_by_id(codec_id: int) -> Codec:
    """Resolve a codec by its wire id (frame decoding path).

    Raises:
        CorruptionError: for an unknown id — the frame promised a codec this
            build cannot decode, indistinguishable from a mangled header.
    """
    try:
        return _BY_ID[codec_id]
    except KeyError:
        raise CorruptionError(f"unknown codec id {codec_id} in block frame") from None


def available_codecs() -> Iterable[str]:
    """Registered codec names (config validation + CLI choices)."""
    return sorted(_BY_NAME)
