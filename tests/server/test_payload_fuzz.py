"""Fuzz target for the compiled payload decoders, one per message type.

Every payload below is wrapped in a frame with a valid CRC, so the damage
reaches the typed decoder instead of being caught by the checksum: random
bytes, and valid payloads that are truncated, extended or bit-flipped. A
frame may decode only to an instance of its own type, whose frame then
decodes and re-encodes to the same bytes (a NaN ``f64`` included), or fail
with ``ProtocolError``. No other exception may escape.

CI runs this module under the ``block-fuzz`` profile (``tests/conftest.py``):
derandomized, with a fixed example count.
"""

import struct
import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.server.protocol import (
    MAGIC,
    REQUEST_TYPES,
    RESPONSE_TYPES,
    VERSION,
    ProtocolError,
    decode_frame,
    encode_frame,
)
from tests.server.test_protocol import _values

_TYPES = REQUEST_TYPES + RESPONSE_TYPES


def _frame(cls, payload: bytes) -> bytes:
    body = struct.pack(">HBBI", MAGIC, VERSION, cls.TYPE, len(payload)) + payload
    return body + struct.pack(">I", zlib.crc32(body))


def _check(cls, payload: bytes) -> None:
    try:
        decoded, _ = decode_frame(_frame(cls, payload))
    except ProtocolError:
        return
    assert type(decoded) is cls
    frame = encode_frame(decoded)
    again, end = decode_frame(frame)
    assert type(again) is cls and end == len(frame)
    assert encode_frame(again) == frame


@st.composite
def _damaged_payloads(draw, cls):
    fields = {name: _values(kind) for name, kind in cls.WIRE.items()}
    payload = bytearray(draw(st.builds(cls, **fields)).encode_payload())
    damage = draw(st.sampled_from(["truncate", "extend", "flip"]))
    if damage == "truncate":
        del payload[draw(st.integers(min_value=0, max_value=len(payload))):]
    elif damage == "extend":
        payload += draw(st.binary(min_size=1, max_size=16))
    else:
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            pos = draw(st.integers(min_value=0, max_value=len(payload) - 1))
            payload[pos] ^= 1 << draw(st.integers(min_value=0, max_value=7))
    return bytes(payload)


def test_every_registered_type_is_fuzzed():
    assert len({cls.TYPE for cls in _TYPES}) == 19


@pytest.mark.parametrize("cls", _TYPES, ids=lambda cls: cls.__name__)
@given(data=st.data())
def test_payloads_decode_to_their_type_or_raise_protocol_error(cls, data):
    _check(cls, data.draw(st.binary(max_size=64) | _damaged_payloads(cls)))
