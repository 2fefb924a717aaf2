"""Checkpoints: consistent, openable copies of a tree on another device.

The immutable-file structure the tutorial credits for LSM's "good utilization
of storage space" also makes backups trivial: a checkpoint is a copy of the
live file set plus a manifest — no quiescing beyond one flush (RocksDB's
Checkpoint does the same hard-link dance). File ids are preserved on the
target device so cross-file references (value-log pointers embedded in data
blocks) remain valid without rewriting anything.
"""

from __future__ import annotations

from repro.core.config import LSMConfig
from repro.core.lsm_tree import LSMTree
from repro.core.manifest import write_manifest
from repro.errors import ConfigError
from repro.storage.block_device import BlockDevice


def create_checkpoint(tree: LSMTree, target: BlockDevice) -> None:
    """Copy the tree's durable state onto ``target`` as an openable image.

    Flushes the memtable first (so the checkpoint is complete as of the
    call), then copies every live run file and value-log segment preserving
    file ids, and writes a manifest describing them.

    Raises:
        ConfigError: when the target device already holds files (checkpoints
            want a clean target) or block sizes differ.
    """
    if target.live_files:
        raise ConfigError("checkpoint target device must be empty")
    if target.block_size != tree.device.block_size:
        raise ConfigError("checkpoint target must match the source block size")
    tree.flush()
    if tree._value_log is not None:
        tree._value_log.flush()
    manifest = tree.manifest_data()
    manifest.wal_files = []  # a checkpoint has no log: it is complete as-of flush
    for file_id in sorted(manifest.referenced_files()):
        _copy_file(tree.device, file_id, target)
    write_manifest(target, manifest)


def open_checkpoint(config: LSMConfig, device: BlockDevice) -> LSMTree:
    """Open a checkpointed image as a live tree (recovery without a WAL).

    The configuration must have ``wal_enabled=True`` — the restored tree
    starts a fresh log so it is immediately durable again.
    """
    return LSMTree.recover(config, device)


def _copy_file(source: BlockDevice, file_id: int, target: BlockDevice) -> None:
    """Byte-copy one file, preserving its id, sealing the copy."""
    target.create_file(file_id=file_id)
    for block_no in range(source.num_blocks(file_id)):
        target.append_block(file_id, source.read_block(file_id, block_no))
    target.seal_file(file_id)
