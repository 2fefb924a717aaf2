"""A batch of point reads is one read of one view.

``DBService.multi_get`` collects every key's in-memory versions and pins the
storage runs in one critical section, then walks them outside the mutex: a
write that commits while the batch is loading blocks is invisible to all of
it, never to half of it. And on every tree a batch's found keys count in the
observer's ``gets_found_total``, whichever ``ParallelConfig`` it runs under.
"""

import random
import sys
import threading
import time

import pytest

from repro import DBService, LSMTree, ServiceConfig, encode_uint_key
from repro.observe import MetricsRegistry, observe_tree
from repro.parallel import ParallelConfig
from repro.workloads.txn import setup_accounts, total_balance

from tests.conftest import make_config, make_tree

ACCOUNTS = [b"acct:%02d" % i for i in range(8)]


def transfer_during_first_load(service):
    """Wrap the tree's cache so the first block load commits a transfer of
    50 from ``acct:00`` to ``acct:07`` on another thread and joins it."""
    cache = service.tree.cache
    real = cache.get_or_load_block
    fired = []

    def transfer():
        service.write([("put", ACCOUNTS[0], b"50"), ("put", ACCOUNTS[7], b"150")])

    def loading(*args, **kwargs):
        if not fired:
            fired.append(True)
            writer = threading.Thread(target=transfer)
            writer.start()
            writer.join(timeout=10)
            assert not writer.is_alive()
        return real(*args, **kwargs)

    cache.get_or_load_block = loading
    return fired


def funded_service(**overrides):
    service = DBService(LSMTree(make_config(**overrides)), ServiceConfig(num_workers=1))
    for account in ACCOUNTS:
        service.put(account, b"100")
    service.flush()
    return service


@pytest.mark.parametrize("parallel", [None, ParallelConfig(max_subcompactions=1)],
                         ids=["serial", "parallel"])
def test_a_transfer_committed_mid_batch_is_invisible_to_all_of_it(parallel):
    service = funded_service(parallel=parallel)
    try:
        fired = transfer_during_first_load(service)
        results = service.multi_get(ACCOUNTS)
        assert fired  # the batch did load a block, and the transfer committed
        assert sum(int(results[account].value) for account in ACCOUNTS) == 800
        after = service.multi_get(ACCOUNTS)
        assert (after[ACCOUNTS[0]].value, after[ACCOUNTS[7]].value) == (b"50", b"150")
        assert sum(int(result.value) for result in after.values()) == 800
    finally:
        service.close()


def test_total_balance_only_reads_totals_that_existed():
    """Three threads move money between their own accounts, each transfer
    one atomic write, while flushes and compactions run behind them; every
    ``total_balance`` — one batch — reads the invariant total."""
    accounts, threads = 32, 3
    service = DBService(
        LSMTree(make_config(buffer_bytes=2 << 10)), ServiceConfig(num_workers=1)
    )
    total = setup_accounts(service, accounts, 100)
    service.flush()
    stop = threading.Event()

    def transfers(owner):
        rng = random.Random(owner)
        mine = list(range(owner, accounts, threads))
        balance = dict.fromkeys(mine, 100)
        while not stop.is_set():
            src, dst = rng.sample(mine, 2)
            amount = rng.randint(0, balance[src])
            balance[src] -= amount
            balance[dst] += amount
            service.write([
                ("put", b"acct:%08d" % src, b"%d" % balance[src]),
                ("put", b"acct:%08d" % dst, b"%d" % balance[dst]),
            ])

    workers = [threading.Thread(target=transfers, args=(t,)) for t in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for worker in workers:
            worker.start()
        totals = []
        deadline = time.monotonic() + 10
        while len(totals) < 300 and time.monotonic() < deadline:
            totals.append(total_balance(service, accounts))
    finally:
        stop.set()
        sys.setswitchinterval(interval)
        for worker in workers:
            worker.join(timeout=10)
        service.close()
    assert not any(worker.is_alive() for worker in workers)
    assert service.tree.stats.flushes > 1  # batches raced flushes, not just the memtable
    assert len(totals) >= 50
    assert [t for t in totals if t != total] == []


@pytest.mark.parametrize("parallel", [None, ParallelConfig(max_subcompactions=1)],
                         ids=["serial", "parallel"])
@pytest.mark.parametrize("handle", ["tree", "service"])
def test_a_batch_counts_its_found_keys_in_gets_found_total(parallel, handle):
    tree = make_tree(parallel=parallel)
    registry = MetricsRegistry()
    observe_tree(tree, registry)
    for i in range(600):
        tree.put(encode_uint_key(i), b"v" * 24)
    tree.flush()
    keys = [encode_uint_key(i) for i in range(0, 600, 10)] + [encode_uint_key(10_000)]
    reader = tree if handle == "tree" else DBService(tree, ServiceConfig(num_workers=1))
    try:
        found = registry.counter("gets_found_total")
        before = found.value
        results = reader.multi_get(keys)
        assert sum(result.found for result in results.values()) == 60
        assert found.value - before == 60
    finally:
        if reader is not tree:
            reader.close()
