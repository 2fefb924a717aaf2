"""Shared fixtures: tiny trees and devices sized for fast tests."""

import pytest
from hypothesis import reject, settings
from hypothesis import strategies as st

from repro import LSMConfig, LSMTree
from repro.core.design_space import DESIGN_SPACE
from repro.errors import ConfigError
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


@st.composite
def legal_configs(draw, **fixed) -> LSMConfig:
    """Small configs drawn across the whole design space: one choice of
    every ``DESIGN_SPACE`` row, plus the knobs its cross-field rules relate.
    A knob that needs another gets it; a draw ``LSMConfig`` still rejects
    (partial compaction on a layout with several runs per level) is
    rejected. ``fixed`` overrides any knob."""
    knobs = {field: draw(st.sampled_from(list(row.choices))) for field, row in DESIGN_SPACE.items()}
    partial, leaper = draw(st.booleans()), draw(st.booleans())
    knobs.update(
        partial_compaction=partial,
        file_bytes=1 << 10 if partial else draw(st.sampled_from([None, 1 << 10])),
        leaper_prefetch=leaper,
        cache_bytes=64 << 10 if leaper else draw(st.sampled_from([0, 64 << 10])),
        kv_separation=draw(st.booleans()),
        value_threshold=16,
    )
    if knobs["filter_kind"] == "elastic":
        knobs["elastic_budget_units"] = draw(st.sampled_from([None, 6]))
    knobs.update(fixed)
    try:
        return make_config(**knobs)
    except ConfigError:
        reject()


@pytest.fixture
def small_tree():
    return make_tree()


# The block-decoder fuzz target's CI run: reproducible, with a fixed budget
# (``pytest tests/storage/test_block_fuzz.py --hypothesis-profile=block-fuzz``).
settings.register_profile("block-fuzz", derandomize=True, max_examples=600, deadline=None)
