"""Simulated storage substrate.

The tutorial's subject systems run on real SSDs; this package substitutes an
in-memory block device with exact I/O accounting and a tunable latency model
(see DESIGN.md, "Substitutions"). All experiment claims are expressed in block
I/Os and amplification factors, which the device measures precisely.

:mod:`~repro.storage.block` is the one block codec and the one size rule:
table data blocks (:mod:`~repro.storage.sstable`), WAL frames
(:mod:`~repro.storage.wal`) and value-log records
(:mod:`~repro.storage.value_log`) are all its v2 blocks.
"""

from repro.storage.block_device import BlockDevice, DeviceStats, LatencyModel
from repro.storage.sstable import SSTable, SSTableBuilder
from repro.storage.run import Run
from repro.storage.value_log import ValueLog, ValuePointer

__all__ = [
    "BlockDevice",
    "DeviceStats",
    "LatencyModel",
    "SSTable",
    "SSTableBuilder",
    "Run",
    "ValueLog",
    "ValuePointer",
]
