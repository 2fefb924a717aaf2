"""Manifest: the persisted description of the tree's file structure.

Like LevelDB/RocksDB's MANIFEST, this records which files make up which run
at which level, plus the live WAL and value-log files and the last sequence
number. It is rewritten as a fresh device file after every
structure-changing operation, so recovery can rebuild the tree from the
device alone.

It also decides which files may leave the device: the tree deletes a file
only after writing a manifest that no longer lists it. Every manifest ends
in a CRC32 line, a file without a matching one is invalid, and
:func:`newest_manifests` skips invalid candidates, so a crash at any block
of a manifest write leaves the previous manifest as the newest *valid* one.
Several trees (shards) may share one device; each manifest names its owner.

Format (one text line each)::

    MANIFEST1
    name <tree name>
    seqno <last sequence number>
    wals <file id> <file id> ...      # oldest-first; all logs replay applies
    vlog <file id> ...
    level <n> / run <file id> ...     # repeated
    crc <crc32 of all preceding lines>
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import CorruptionError, StorageError
from repro.storage.block_device import BlockDevice

MAGIC = b"MANIFEST1\n"


@dataclass
class ManifestData:
    """The parsed content of a manifest."""

    seqno: int = 0
    name: str = "db"
    # Live WAL files, oldest first. Recovery replays ALL of them in order:
    # after a memtable seals, its WAL stays listed until the flush installs,
    # so a crash between seal and install loses nothing.
    wal_files: List[int] = field(default_factory=list)
    vlog_files: List[int] = field(default_factory=list)
    # levels[i] = list of runs; each run = list of file ids (min-key order).
    levels: List[List[List[int]]] = field(default_factory=list)

    def referenced_files(self) -> "set[int]":
        refs = set(self.vlog_files)
        refs.update(self.wal_files)
        for level in self.levels:
            for run in level:
                refs.update(run)
        return refs


def write_manifest(device: BlockDevice, data: ManifestData) -> int:
    """Persist ``data`` as a new sealed manifest file; returns its id.

    The caller retires the manifest it replaces, so the device always holds
    at least one valid manifest for the tree.
    """
    lines = [MAGIC.decode().strip()]
    lines.append(f"name {data.name}")
    lines.append(f"seqno {data.seqno}")
    if data.wal_files:
        lines.append("wals " + " ".join(str(fid) for fid in data.wal_files))
    if data.vlog_files:
        lines.append("vlog " + " ".join(str(fid) for fid in data.vlog_files))
    for level_no, runs in enumerate(data.levels, start=1):
        lines.append(f"level {level_no}")
        for run in runs:
            lines.append("run " + " ".join(str(fid) for fid in run))
    body = ("\n".join(lines) + "\n").encode()
    payload = body + f"crc {zlib.crc32(body) & 0xFFFFFFFF:08x}\n".encode()

    file_id = device.create_file()
    for offset in range(0, len(payload), device.block_size):
        device.append_block(file_id, payload[offset : offset + device.block_size])
    device.seal_file(file_id)
    return file_id


def newest_manifests(device: BlockDevice) -> Dict[str, Tuple[int, ManifestData]]:
    """Each owner's newest valid manifest, by name, as ``(file id, data)``.

    Torn or checksum-corrupt candidates are skipped, never raised: a write
    cut at any block lacks its ``crc`` line, so after a crash
    mid-manifest-write the previous manifest is the newest valid one.
    """
    newest = {}
    for file_id in device.live_files:  # ascending: ids grow over time
        if device.num_blocks(file_id) == 0:
            continue
        try:
            if device.read_block(file_id, 0).startswith(MAGIC):
                data = read_manifest(device, file_id)
                newest[data.name] = (file_id, data)
        except StorageError:
            continue  # torn write or bit rot: not a usable manifest
    return newest


def unlisted_files(device: BlockDevice) -> List[int]:
    """Files that are no owner's newest valid manifest and that none lists:
    what recovery's sweep deletes."""
    listed = set()
    for file_id, data in newest_manifests(device).values():
        listed.add(file_id)
        listed.update(data.referenced_files())
    return [file_id for file_id in device.live_files if file_id not in listed]


def manifest_for_recovery(device: BlockDevice, name: str) -> Optional[Tuple[int, ManifestData]]:
    """The newest valid manifest of ``name`` as ``(file id, data)``; None
    for an owner new to the device.

    Raises:
        CorruptionError: ``name`` has no valid manifest, yet the device
            holds data that none lists (a damaged manifest, not a new owner).
    """
    manifest = newest_manifests(device).get(name)
    if manifest is None and any(map(device.num_blocks, unlisted_files(device))):
        raise CorruptionError(
            f"no valid manifest of {name!r}, but the device holds data that no manifest lists"
        )
    return manifest


def read_manifest(device: BlockDevice, file_id: int) -> ManifestData:
    """Parse and validate a manifest file.

    Raises:
        StorageError: if the file is not a structurally valid manifest, or
            does not end in a ``crc`` line matching everything before it.
    """
    payload = b"".join(
        device.read_block(file_id, block) for block in range(device.num_blocks(file_id))
    )
    if not payload.startswith(MAGIC):
        raise StorageError(f"file {file_id} is not a manifest")
    try:
        text = payload.decode()
    except UnicodeDecodeError:
        raise StorageError(f"manifest {file_id} is not valid text") from None
    lines = text.splitlines(keepends=True)
    body = "".join(lines[:-1]).encode()
    if lines[-1] != f"crc {zlib.crc32(body) & 0xFFFFFFFF:08x}\n":
        # A write cut at any block boundary ends before this line.
        raise StorageError(f"manifest {file_id} does not end in a matching crc line")

    data = ManifestData()
    current_level: Optional[List[List[int]]] = None
    for line in lines[1:-1]:
        line = line.rstrip("\n")
        if not line.strip():
            continue
        tag, _, rest = line.partition(" ")
        try:
            if tag == "seqno":
                data.seqno = int(rest)
            elif tag == "name":
                data.name = rest
            elif tag == "wals":
                data.wal_files = [int(part) for part in rest.split()]
            elif tag == "vlog":
                data.vlog_files = [int(part) for part in rest.split()]
            elif tag == "level":
                current_level = []
                data.levels.append(current_level)
            elif tag == "run":
                if current_level is None:
                    raise StorageError("manifest run before level")
                current_level.append([int(part) for part in rest.split()])
            else:
                raise StorageError(f"unknown manifest tag {tag!r}")
        except ValueError:
            raise StorageError(f"malformed manifest line {line!r}") from None
    return data
