"""The horizon merge (scans and compactions) is the heap merge, a block at a time.

``merge_columns`` runs over column chunks (keys, kinds, values, seqnos). Its
pieces must hold, key for key, the newest version of every group
``merge_entry_versions`` yields over the same streams flattened, and the
whole group of every key whose newest version is a merge operand —
compaction-shaped (runs) and scan-shaped (runs plus buffer windows) — and
it must pull each stream's next chunk at the same point of its output,
wherever the consumer stops; and ``iter_chunks`` must be ``iter_entries``
cut at block boundaries.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FaultConfig, FaultyBlockDevice
from repro.common.encoding import encode_uint_key
from repro.common.entry import Entry, EntryKind, encode_merge_value
from repro.core.iterator import merge_columns, merge_entry_versions
from repro.errors import TransientIOError
from repro.parallel import SubcompactionError, merge_range, per_key, run_subcompactions
from repro.storage.block import columns_of
from repro.storage.block_device import BlockDevice
from repro.storage.run import Run
from repro.storage.sstable import SSTableBuilder

from tests.parallel.test_subcompaction import as_entries

KINDS = [EntryKind.PUT, EntryKind.PUT, EntryKind.DELETE, EntryKind.MERGE]


@st.composite
def chunked_runs(draw, max_runs=5, max_key=40):
    """Sorted runs over a small key space (so versions collide across runs),
    each cut into chunks of random sizes, with globally unique seqnos: in
    any order, or in an LSM's (every run newer than the runs after it)."""
    n_runs = draw(st.integers(0, max_runs))
    seqnos = iter(draw(st.permutations(range(1, n_runs * (max_key + 1) + 1))))
    lsm_order = draw(st.booleans())
    runs = []
    for number in range(n_runs):
        keys = sorted(draw(st.sets(st.integers(0, max_key), max_size=max_key)))
        if lsm_order:
            seqnos = iter(range((n_runs - number) * (max_key + 1), 0, -1))
        entries = []
        for key in keys:
            kind = draw(st.sampled_from(KINDS))
            value = b"" if kind is EntryKind.DELETE else b"v%d" % key
            if kind is EntryKind.MERGE:
                value = encode_merge_value("counter", b"1")
            entries.append(Entry(encode_uint_key(key), next(seqnos), kind, value))
        chunk_size = draw(st.integers(1, 9))
        runs.append([entries[i : i + chunk_size] for i in range(0, len(entries), chunk_size)])
    return runs


@st.composite
def scan_shaped(draw, max_key=30):
    """What a scan merges: sorted runs cut into blocks, plus in-memory buffer
    windows newer than every run, one per buffer (the active buffer's range,
    then each sealed one), each holding one entry per key; a window may
    hold a single entry."""
    runs = draw(chunked_runs(max_runs=3, max_key=max_key))
    seqnos = iter(range(10_000, 20_000))
    buffers = []
    for _ in range(draw(st.integers(1, 3))):
        keys = sorted(draw(st.sets(st.integers(0, max_key), min_size=1, max_size=12)))
        buffer = []
        for key in keys:
            kind = draw(st.sampled_from(KINDS))
            value = b"" if kind is EntryKind.DELETE else b"b%d" % key
            if kind is EntryKind.MERGE:
                value = encode_merge_value("counter", b"1")
            buffer.append(Entry(encode_uint_key(key), next(seqnos), kind, value))
        buffers.append(buffer)
    buffers.reverse()  # newest buffer first, as a pin lists them
    return [[buffer] for buffer in buffers] + runs


def columns(entries, decoded=None):
    """``entries`` as a column chunk whose seqnos decode on demand, as a
    block's do; ``decoded`` counts the decodes."""
    keys, kinds, values, seqnos = columns_of([entry.key for entry in entries], entries)

    def decode():
        if decoded is not None:
            decoded.append(len(seqnos))
        return seqnos

    return keys, kinds, values, decode


def chunk_stream(chunks, log=None, name=None, decoded=None):
    for number, entries in enumerate(chunks):
        if log is not None:
            log.append(("pull", name, number))
        yield columns(entries, decoded)


def entry_stream(chunks, log=None, name=None):
    for number, entries in enumerate(chunks):
        if log is not None:
            log.append(("pull", name, number))
        yield from entries


def ident(entries):
    return [(e.key, e.seqno, int(e.kind), e.value) for e in entries]


def reference(groups):
    """The heap merge's groups as the column merge keeps them: the newest
    version, or the whole group under a merge operand."""
    return [ident(group if group[0].kind is EntryKind.MERGE else group[:1]) for group in groups]


def keys_of(pieces):
    """The merge's keys one by one, as a scan or a compaction takes them."""
    for keys, *_ in pieces:
        yield from keys


def flatten(pieces):
    """Per key: its chain's identities under a merge operand, else its newest
    version's (the pieces must carry seqnos)."""
    out = []
    for keys, kinds, values, seqnos, chains in pieces:
        assert len(keys) == len(kinds) == len(values) == len(seqnos)
        for slot, key in enumerate(keys):
            if kinds[slot] == EntryKind.MERGE:
                out.append(ident(chains[key]))
            else:
                out.append([(key, seqnos[slot], kinds[slot], values[slot])])
    return out


class TestSameGroupsAsTheHeapMerge:
    @settings(max_examples=300, deadline=None)
    @given(runs=chunked_runs())
    def test_groups_match(self, runs):
        pieces = list(merge_columns((chunk_stream(run) for run in runs), seqnos=True))
        heap = list(merge_entry_versions(entry_stream(run) for run in runs)) if runs else []
        assert flatten(pieces) == reference(heap)
        for _, _, _, _, chains in pieces:
            for chain in (chains or {}).values():
                assert [e.seqno for e in chain] == sorted((e.seqno for e in chain), reverse=True)

    @settings(max_examples=200, deadline=None)
    @given(runs=chunked_runs(max_runs=4))
    def test_chunks_are_pulled_where_the_heap_pulls_them(self, runs):
        """Interleave of chunk pulls and yielded keys: the device must see
        one order of block reads and writes whichever merge runs."""
        if not runs:
            return
        events = []
        for key in keys_of(merge_columns(
            chunk_stream(run, events, i) for i, run in enumerate(runs)
        )):
            events.append(("group", key))
        expected = []
        for group in merge_entry_versions(
            entry_stream(run, expected, i) for i, run in enumerate(runs)
        ):
            expected.append(("group", group[0].key))
        assert events == expected

    @settings(max_examples=300, deadline=None)
    @given(streams=scan_shaped())
    def test_scan_shaped_groups_match(self, streams):
        pieces = list(merge_columns((chunk_stream(chunks) for chunks in streams), seqnos=True))
        heap = list(merge_entry_versions(entry_stream(chunks) for chunks in streams))
        assert flatten(pieces) == reference(heap)
        keys = list(keys_of(pieces))
        assert len(set(keys)) == len(keys)

    @settings(max_examples=200, deadline=None)
    @given(streams=scan_shaped())
    def test_without_seqnos_the_same_pieces_decode_only_what_they_must(self, streams):
        """A scan's merge: the same keys, kinds, values and chains, no seqnos
        handed out, and seqnos decoded only for a chunk that shares a round
        with another version of one of its keys or holds a merge operand."""
        decoded = []
        lean = list(merge_columns(chunk_stream(chunks, decoded=decoded) for chunks in streams))
        full = list(merge_columns((chunk_stream(chunks) for chunks in streams), seqnos=True))
        assert [piece[:3] for piece in lean] == [piece[:3] for piece in full]
        assert all(piece[3] is None for piece in lean)
        heap = list(merge_entry_versions(entry_stream(chunks) for chunks in streams))
        if all(len(group) == 1 and group[0].kind is not EntryKind.MERGE for group in heap):
            assert decoded == []
        for (keys, kinds, _, _, chains), piece in zip(lean, full):
            for slot, key in enumerate(keys):
                if kinds[slot] == EntryKind.MERGE:
                    assert ident(chains[key]) == ident(piece[4][key])

    @settings(max_examples=150, deadline=None)
    @given(streams=scan_shaped(), data=st.data())
    def test_a_scan_stopped_after_any_group_pulled_what_the_heap_pulled(self, streams, data):
        """A scan abandoned after its k-th key (a generator closed at its
        limit) has pulled each stream's chunks exactly where the heap merge
        would have: the blocks it read are the blocks it needed."""
        total = len(list(merge_entry_versions(entry_stream(chunks) for chunks in streams)))
        for stop in sorted({0, total, data.draw(st.integers(0, total))}):
            events = []
            pieces = merge_columns(chunk_stream(chunks, events, i) for i, chunks in enumerate(streams))
            keys = keys_of(pieces)
            for key in itertools.islice(keys, stop):
                events.append(("group", key))
            keys.close()
            pieces.close()
            expected = []
            groups = merge_entry_versions(
                entry_stream(chunks, expected, i) for i, chunks in enumerate(streams)
            )
            for group in itertools.islice(groups, stop):
                expected.append(("group", group[0].key))
            groups.close()
            assert events == expected, stop

    @settings(max_examples=100, deadline=None)
    @given(runs=chunked_runs(max_runs=4), data=st.data())
    def test_a_compaction_stopped_at_any_key_pulled_what_the_heap_pulled(self, runs, data):
        """Compaction-shaped stops (a subcompaction range ending at a key, a
        fault after a key): the same pull points, with seqnos decoded."""
        if not runs:
            return
        total = len(list(merge_entry_versions(entry_stream(run) for run in runs)))
        stop = data.draw(st.integers(0, total))
        events = []
        keys = keys_of(merge_columns(
            (chunk_stream(run, events, i) for i, run in enumerate(runs)), seqnos=True
        ))
        for key in itertools.islice(keys, stop):
            events.append(("group", key))
        keys.close()
        expected = []
        groups = merge_entry_versions(entry_stream(run, expected, i) for i, run in enumerate(runs))
        for group in itertools.islice(groups, stop):
            expected.append(("group", group[0].key))
        groups.close()
        assert events == expected

    def test_no_streams_and_empty_streams(self):
        assert list(merge_columns([])) == []
        assert list(merge_columns([iter([]), iter([])])) == []
        lone = [[Entry(b"a", 1)], [Entry(b"b", 2)]]
        pieces = merge_columns([iter([]), chunk_stream(lone)], seqnos=True)
        assert flatten(pieces) == [ident([Entry(b"a", 1)]), ident([Entry(b"b", 2)])]

    def test_empty_chunks_are_skipped(self):
        empty = ([], b"", [], [])
        stream = iter([empty, columns([Entry(b"a", 1)]), empty])
        other = iter([columns([Entry(b"a", 2), Entry(b"b", 3)])])
        pieces = list(merge_columns([stream, other], seqnos=True))
        assert [key for piece in pieces for key in piece[0]] == [b"a", b"b"]
        assert [seqno for piece in pieces for seqno in piece[3]] == [2, 3]

    def test_one_stream_keeps_its_order(self):
        chunks = [[Entry(b"a", 3), Entry(b"b", 1)], [Entry(b"c", 2)]]
        pieces = list(merge_columns([chunk_stream(chunks)]))
        assert list(keys_of(pieces)) == [b"a", b"b", b"c"]
        assert all(piece[3] is None and piece[4] is None for piece in pieces)

    def test_merge_operand_chain_is_newest_first_across_runs(self):
        operand = encode_merge_value("counter", b"1")
        runs = [
            [[Entry(b"k", 2, EntryKind.MERGE, operand)]],
            [[Entry(b"j", 9), Entry(b"k", 7, EntryKind.MERGE, operand)]],
            [[Entry(b"k", 4, EntryKind.PUT, b"5")], [Entry(b"z", 1, EntryKind.DELETE)]],
        ]
        pieces = list(merge_columns(chunk_stream(run) for run in runs))
        chains = [piece[4] for piece in pieces if piece[4]]
        assert [e.seqno for e in chains[0][b"k"]] == [7, 4, 2]
        assert list(keys_of(pieces)) == [b"j", b"k", b"z"]


def build_run(device, entries, block_size=None):
    builder = SSTableBuilder(device, block_size=block_size)
    builder.add_all(entries)
    return Run([builder.finish()])


def layered_runs(device, n_runs=3, keys_per_run=150):
    """Overlapping runs: even keys, multiples of 3, multiples of 5 …"""
    runs, seq = [], 1
    for r in range(n_runs):
        entries = []
        for i in range(keys_per_run):
            key = encode_uint_key(i * (r + 2))
            kind = EntryKind.DELETE if (i + r) % 7 == 0 else EntryKind.PUT
            entries.append(Entry(key, seq, kind, b"" if kind is EntryKind.DELETE else b"r%d" % r))
            seq += 1
        runs.append(build_run(device, entries))
    return runs


newest = per_key(lambda group: group[0])


class TestRangeCuts:
    def test_every_cut_at_and_between_keys(self):
        """[lo, hi) over real runs: bounds on keys, between keys, outside."""
        device = BlockDevice(block_size=256)
        runs = layered_runs(device, keys_per_run=60)
        whole = as_entries(merge_range(runs, None, None, newest))
        assert [e.key for e in whole] == sorted({e.key for run in runs for e in run.iter_entries()})
        bounds = [None] + [encode_uint_key(v) for v in range(0, 310, 7)] + [
            encode_uint_key(5) + b"\x00",  # strictly between two keys
            encode_uint_key(10_000),  # past every key
        ]
        for lo in bounds:
            for hi in bounds:
                if lo is not None and hi is not None and lo > hi:
                    continue
                expected = [
                    e for e in whole
                    if (lo is None or e.key >= lo) and (hi is None or e.key < hi)
                ]
                got = as_entries(merge_range(runs, lo, hi, newest))
                assert ident(got) == ident(expected), (lo, hi)

    def test_concatenated_ranges_are_the_serial_merge(self):
        device = BlockDevice(block_size=256)
        runs = layered_runs(device)
        whole = as_entries(merge_range(runs, None, None, newest))
        cuts = [None, encode_uint_key(40), encode_uint_key(41), encode_uint_key(300), None]
        pieces = []
        for lo, hi in zip(cuts, cuts[1:]):
            pieces.extend(as_entries(merge_range(runs, lo, hi, newest)))
        assert ident(pieces) == ident(whole)


def entries_of(chunks):
    """Column chunks back as entries."""
    return [
        Entry(key, seqno, EntryKind(kind), value)
        for keys, kinds, values, seqnos in chunks
        for key, seqno, kind, value in zip(keys, seqnos(), kinds, values)
    ]


class TestIterChunks:
    @pytest.fixture(scope="class")
    def table(self):
        device = BlockDevice(block_size=256)
        entries = [Entry(encode_uint_key(i * 2), i + 1, value=b"v%04d" % i) for i in range(120)]
        run = build_run(device, entries)
        assert run.tables[0].num_data_blocks > 4
        return run.tables[0]

    def bounds(self, table):
        fences = table.fence_keys
        inside = encode_uint_key(2 * 17)  # a key in the middle of a block
        return [
            None,
            encode_uint_key(0),  # the first key
            inside,
            inside + b"\x00",  # between two keys of one block
            fences[2],  # exactly a block's first key
            fences[3][:-1] + bytes([fences[3][-1] - 1]),  # between two blocks
            encode_uint_key(2 * 119),  # the last key
            encode_uint_key(10_000),  # outside, above
            b"",  # outside, below
        ]

    def test_iter_entries_is_iter_chunks_flattened(self, table):
        for start in self.bounds(table):
            for end in self.bounds(table):
                chunks = list(table.iter_chunks(start, end))
                flat = entries_of(chunks)
                assert list(table.iter_entries(start, end)) == flat
                expected = [
                    e for e in table.iter_entries()
                    if (start is None or e.key >= start) and (end is None or e.key <= end)
                ]
                assert flat == expected, (start, end)
                for keys, kinds, values, _ in chunks:
                    assert keys and len(keys) == len(kinds) == len(values)

    def test_one_chunk_per_data_block(self, table):
        chunks = list(table.iter_chunks())
        assert len(chunks) == table.num_data_blocks
        assert [keys[0] for keys, *_ in chunks] == table.fence_keys

    def test_run_chunks_span_its_tables(self):
        device = BlockDevice(block_size=256)
        tables = []
        for base in (0, 1000, 2000):
            entries = [Entry(encode_uint_key(base + i), base + i + 1, value=b"x") for i in range(40)]
            tables.extend(build_run(device, entries).tables)
        run = Run(tables)
        for start, end in [(None, None), (encode_uint_key(20), encode_uint_key(2010)),
                           (encode_uint_key(500), encode_uint_key(1500)),
                           (encode_uint_key(5000), None)]:
            flat = entries_of(run.iter_chunks(start, end))
            assert flat == list(run.iter_entries(start, end))
        assert sum(len(keys) for keys, *_ in run.iter_chunks()) == 120


class TestFaultsDuringTheMerge:
    """A device that fails mid-merge: typed errors, no orphan outputs."""

    def runs_on(self, device):
        return layered_runs(device, n_runs=3, keys_per_run=200)

    def failing_after(self, device, groups):
        """A fold that arms the device's read errors after ``groups`` keys."""
        seen = [0]

        def fold(group):
            seen[0] += 1
            if seen[0] == groups:
                device.arm()
            return group[0]

        return per_key(fold)

    def test_serial_merge_raises_the_read_error_and_cleans_up(self):
        device = FaultyBlockDevice(block_size=512, faults=FaultConfig(seed=3, read_error_prob=1.0))
        runs = self.runs_on(device)
        live_before = device.live_files
        with pytest.raises(TransientIOError):
            run_subcompactions(
                runs, [(None, None)], self.failing_after(device, 60),
                lambda: SSTableBuilder(device), file_limit=1024,
            )
        device.disarm()
        assert device.fault_stats.transient_errors_injected >= 1
        assert device.live_files == live_before  # finished + partial outputs gone

    def test_parallel_merge_wraps_it_and_cleans_up(self):
        device = FaultyBlockDevice(block_size=512, faults=FaultConfig(seed=3, read_error_prob=1.0))
        runs = self.runs_on(device)
        live_before = device.live_files
        ranges = [(None, encode_uint_key(150)), (encode_uint_key(150), None)]
        with pytest.raises(SubcompactionError) as raised:
            run_subcompactions(
                runs, ranges, self.failing_after(device, 40),
                lambda: SSTableBuilder(device), file_limit=1024,
            )
        device.disarm()
        assert isinstance(raised.value.__cause__, TransientIOError)
        assert device.live_files == live_before

    def test_inputs_survive_and_merge_cleanly_afterwards(self):
        device = FaultyBlockDevice(block_size=512, faults=FaultConfig(seed=3, read_error_prob=1.0))
        runs = self.runs_on(device)
        with pytest.raises(TransientIOError):
            run_subcompactions(
                runs, [(None, None)], self.failing_after(device, 5),
                lambda: SSTableBuilder(device), file_limit=None,
            )
        device.disarm()
        tables = run_subcompactions(
            runs, [(None, None)], newest, lambda: SSTableBuilder(device), file_limit=None
        )
        merged = [e.key for table in tables for e in table.iter_entries()]
        assert merged == sorted({e.key for run in runs for e in run.iter_entries()})
