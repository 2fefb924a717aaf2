"""Shared fixtures: tiny trees and devices sized for fast tests."""

import pytest
from hypothesis import settings

from repro import LSMConfig, LSMTree
from repro.storage.block_device import BlockDevice


@pytest.fixture
def device():
    return BlockDevice(block_size=512)


def make_config(**overrides) -> LSMConfig:
    """A small, fast configuration; override any knob."""
    base = dict(
        buffer_bytes=4 << 10,
        block_size=512,
        size_ratio=3,
        bits_per_key=10.0,
        seed=1234,
    )
    base.update(overrides)
    return LSMConfig(**base)


def make_tree(**overrides) -> LSMTree:
    return LSMTree(make_config(**overrides))


@pytest.fixture
def small_tree():
    return make_tree()


# The block-decoder fuzz target's CI run: reproducible, with a fixed budget
# (``pytest tests/storage/test_block_fuzz.py --hypothesis-profile=block-fuzz``).
settings.register_profile("block-fuzz", derandomize=True, max_examples=600, deadline=None)
