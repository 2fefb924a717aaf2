"""How many Python function calls one wire get makes, layer by layer.

Wall-clock gains on the wire path drown in this machine's noise; a count
of calls does not. Each layer is counted with ``sys.setprofile`` in steady
state, on fakes where a socket would be:

* the client: one ``LSMClient.get`` against a socket that answers with a
  canned reply frame;
* the server: one more request frame on a connection, from its recv to its
  reply, not counting what ``DBService.get`` runs;
* the service: ``DBService.get`` minus ``LSMTree.get`` on the same stored
  key (a key the memtables leave open, so the runs are walked).

Comprehension calls are not counted (Python 3.12 inlines them), and neither
are calls into C or into this module's fakes. A count that rises is a
regression; one that falls is re-pinned here with the change that made it.
"""

import sys

import pytest

from repro import DBService, LSMConfig, LSMTree
from repro.common.encoding import encode_uint_key
from repro.server import LSMServer, ServerConfig
from repro.server import client as client_mod
from repro.server.client import LSMClient
from repro.server.protocol import GetRequest, GetResponse, encode_frame

#: Steady-state Python calls per wire get, layer by layer.
CLIENT_CALLS = 12
SERVER_CALLS = 22
SERVICE_CALLS = 5

_COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>"}


def count_calls(fn, *args, skip=None):
    """Python-level calls made while ``fn(*args)`` runs; calls made under
    the code object ``skip`` (and ``skip`` itself) and calls of this
    module's functions are not counted."""
    calls = 0
    skipping = 0

    def profile(frame, event, arg):
        nonlocal calls, skipping
        if event == "call":
            code = frame.f_code
            if skipping or code is skip:
                skipping += 1
            elif code.co_name not in _COMPREHENSIONS and code.co_filename != __file__:
                calls += 1
        elif event == "return" and skipping:
            skipping -= 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


class FakeSocket:
    """Answers every ``sendall`` with the next canned chunk on ``recv``."""

    def __init__(self, chunks=(), reply=None):
        self.chunks = list(chunks)
        self.reply = reply
        self.sent = []

    def setsockopt(self, *args):
        pass

    def settimeout(self, value):
        pass

    def sendall(self, data):
        self.sent.append(data)
        if self.reply is not None:
            self.chunks.append(self.reply)

    def recv(self, size):
        return self.chunks.pop(0) if self.chunks else b""

    def close(self):
        pass


@pytest.fixture
def service():
    tree = LSMTree(LSMConfig(buffer_bytes=16 << 10, seed=1))
    db = DBService(tree)
    for i in range(2000):
        db.put(encode_uint_key(i), b"v" * 40)
    db.flush(wait=True)
    yield db
    db.close()


def test_client_calls_per_get(monkeypatch):
    reply = encode_frame(GetResponse(found=True, value=b"v" * 40, seqno=7))
    fake = FakeSocket(reply=reply)
    monkeypatch.setattr(client_mod.socket, "create_connection", lambda *a, **k: fake)
    with LSMClient("fake", 1, tenant="t") as db:
        assert db.get(b"key").value == b"v" * 40
        assert count_calls(db.get, b"key") == CLIENT_CALLS
        assert fake.sent[-1] == encode_frame(GetRequest(tenant="t", key=b"key"))


def test_server_calls_per_get_beside_the_service(service):
    server = LSMServer(service, ServerConfig(stats_interval_s=0))
    frame = encode_frame(GetRequest(tenant="t", key=encode_uint_key(5)))

    def serve(requests):
        conn = FakeSocket(chunks=[frame] * requests)
        server._handle_connection(conn, ("fake", 0))
        assert len(conn.sent) == requests

    serve(2)  # warm: the view is built
    one = count_calls(serve, 1, skip=DBService.get.__code__)
    two = count_calls(serve, 2, skip=DBService.get.__code__)
    assert two - one == SERVER_CALLS


def test_service_calls_per_get_beside_the_tree(service):
    key = encode_uint_key(5)
    tree = service.tree
    assert service.get(key).found and tree.get(key).found  # warm the cache and the view
    assert tree.memory_chain(key) == ()  # the runs are walked
    beside = count_calls(service.get, key) - count_calls(tree.get, key)
    assert beside == SERVICE_CALLS
