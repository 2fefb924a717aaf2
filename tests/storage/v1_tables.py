"""A writer of version-1 tables, kept outside the package for compatibility tests.

``SSTableBuilder`` writes only v2 data blocks. Tables written before the v2
format exist on devices, though, and must stay readable, so the tests write
some with the encoder the builder used before. That encoder is still the
package's ``encode_block`` (packed entries behind a leading CRC, or a
compressed frame), which WAL frames and value-log blocks keep using; here it
is named ``encode_block_v1``, and :class:`V1TableBuilder` lays a file out
the way the builder did then: data blocks, then zero padding with no footer.
"""

from repro.storage.sstable import BLOCK_FORMAT_V1, SSTableBuilder
from repro.storage.sstable import encode_block as encode_block_v1


class V1TableBuilder(SSTableBuilder):
    """``SSTableBuilder`` with the v1 block encoder and the v1 file tail."""

    def finish(self):
        table = super().finish()
        table.block_format = BLOCK_FORMAT_V1
        return table

    def _flush_block(self):
        payload, uncompressed, stored = encode_block_v1(self._pending, self._codec)
        self._uncompressed_bytes += uncompressed
        self._stored_bytes += stored
        if self._write_buffer_blocks > 1:
            self._write_buffer.append(payload)
            if len(self._write_buffer) >= self._write_buffer_blocks:
                self._drain_writes()
        else:
            self._device.append_block(self._file_id, payload)
        keys = [entry.key for entry in self._pending]
        self._block_of_key += [len(self._block_first_keys)] * len(keys)
        self._keys += keys
        self._block_first_keys.append(keys[0])
        self._block_last_keys.append(keys[-1])
        self._tombstones += sum(entry.is_tombstone for entry in self._pending)
        self._pending = []
        self._pending_size = 1

    def _write_aux_blocks(self, search_index, point_filter, range_filter):
        aux_bytes = sum(len(key) for key in self._block_first_keys)
        for structure in (search_index, point_filter, range_filter):
            if structure is not None:
                aux_bytes += structure.size_bytes
        blocks = 0
        while aux_bytes > 0:
            chunk = min(aux_bytes, self._block_size)
            self._device.append_block(self._file_id, b"\x00" * chunk)
            aux_bytes -= chunk
            blocks += 1
        return blocks
