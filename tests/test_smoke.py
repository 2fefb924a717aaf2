"""End-to-end smoke tests: the engine behaves like a dict under churn."""

import pytest

from repro import LSMConfig, LSMTree, encode_uint_key
from repro.core.design_space import DESIGN_SPACE


def small_config(**overrides):
    base = dict(buffer_bytes=4 << 10, block_size=512, size_ratio=3, bits_per_key=10.0)
    base.update(overrides)
    return LSMConfig(**base)


@pytest.mark.parametrize("layout", list(DESIGN_SPACE["layout"].choices))
def test_put_get_roundtrip_across_layouts(layout):
    tree = LSMTree(small_config(layout=layout))
    expected = {}
    for i in range(2000):
        key = encode_uint_key(i % 500)
        value = b"v%06d" % i
        tree.put(key, value)
        expected[key] = value
    for key, value in expected.items():
        result = tree.get(key)
        assert result.found, f"missing {key!r} under {layout}"
        assert result.value == value


def test_deletes_are_visible_and_scans_skip_them():
    tree = LSMTree(small_config())
    for i in range(1000):
        tree.put(encode_uint_key(i), b"x" * 20)
    for i in range(0, 1000, 2):
        tree.delete(encode_uint_key(i))
    tree.compact_all()
    assert not tree.get(encode_uint_key(0)).found
    assert tree.get(encode_uint_key(1)).found
    keys = [k for k, _ in tree.scan()]
    assert len(keys) == 500
    assert all(int.from_bytes(k, "big") % 2 == 1 for k in keys)


def test_scan_range_bounds():
    tree = LSMTree(small_config())
    for i in range(500):
        tree.put(encode_uint_key(i), b"v")
    got = [k for k, _ in tree.scan(encode_uint_key(100), encode_uint_key(199))]
    assert got == [encode_uint_key(i) for i in range(100, 200)]
