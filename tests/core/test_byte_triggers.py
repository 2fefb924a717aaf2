"""Why some identity goldens moved with the v2 block format: byte triggers.

v2 blocks hold the same entries as v1 blocks but not the same number of
bytes, and compaction decisions read table sizes in bytes (level capacity,
saturation, overlap ratios, compressed-tier budgets). Where those decisions
sat close to a threshold, a few goldens count other I/O than before.

This pins that cause: with each table reporting the size its v1 encoding
would have had, the workloads whose counts moved reproduce the pre-v2
counts exactly. Only the byte-valued fields are left out, since they also
hold the bytes v2 actually wrote.
"""

import pytest

from repro.storage import sstable

from tests.core.test_identity_goldens import CASES, run_workload
from tests.storage.v1_tables import encode_block_v1

# The pins before v2: blocks_read, blocks_written, seeks, compactions,
# trivial_moves, tombstones_purged, scan_sha256. Four subcompaction workers
# make seeks schedule-dependent (the identity goldens skip them too): None.
PRE_V2 = {
    "partial_coldest": (11646, 14754, 8558, 405, 4, 834, "089b898e53a8a243"),
    "partial_least_overlap": (8122, 9929, 6527, 463, 45, 729, "41b50a67384df46c"),
    "partial_most_tombstones": (9140, 11313, 7159, 445, 7, 763, "e862a0931c05ba47"),
    "partial_oldest": (11646, 14754, 8558, 405, 4, 834, "089b898e53a8a243"),
    "partial_round_robin": (8228, 10058, 6554, 433, 23, 711, "41b50a67384df46c"),
    "partial_staleness": (8980, 11091, 6980, 405, 237, 825, "e862a0931c05ba47"),
    "rle_sub1": (8425, 8131, 1845, 185, 0, 859, "1ff5864923d7086c"),
    "rle_sub4": (9679, 8715, None, 185, 0, 859, "1ff5864923d7086c"),
    "zlib_sub1": (9230, 8983, 1837, 189, 0, 846, "1ff5864923d7086c"),
    "zlib_sub4": (10365, 9380, None, 189, 0, 836, "1ff5864923d7086c"),
}
FIELDS = (
    "blocks_read", "blocks_written", "seeks", "compactions", "trivial_moves",
    "tombstones_purged", "scan_sha256",
)


@pytest.fixture
def v1_sizes(monkeypatch):
    """Every table built reports its v1-encoded size as ``size_bytes``."""
    sizes = {}
    builder = sstable.SSTableBuilder
    init, flush, aux = builder.__init__, builder._flush_block, builder._write_aux_blocks

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sizes[self._file_id] = 0

    def counting_flush(self):
        sizes[self._file_id] += len(encode_block_v1(self._pending, self._codec)[0])
        flush(self)

    def counting_aux(self, *args):
        before = self._device.file_size(self._file_id)
        blocks = aux(self, *args)
        sizes[self._file_id] += self._device.file_size(self._file_id) - before
        return blocks

    monkeypatch.setattr(builder, "__init__", counting_init)
    monkeypatch.setattr(builder, "_flush_block", counting_flush)
    monkeypatch.setattr(builder, "_write_aux_blocks", counting_aux)
    monkeypatch.setattr(sstable.SSTable, "size_bytes", property(lambda t: sizes[t.file_id]))


@pytest.mark.parametrize("case", sorted(PRE_V2))
def test_moved_goldens_come_back_under_v1_sizes(case, v1_sizes):
    observed = run_workload(CASES[case])
    expected = PRE_V2[case]
    assert tuple(
        None if pinned is None else observed[name] for name, pinned in zip(FIELDS, expected)
    ) == expected
