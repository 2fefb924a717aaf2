"""repro.server — the network front end: wire protocol + multi-tenant QoS.

The in-process engine layers (``repro.service``, ``repro.observe``,
``repro.faults``, ``repro.parallel``) end at a Python API; this package
puts a wire and a QoS contract in front of them:

* :mod:`repro.server.protocol` — the length-prefixed, CRC-checked framed
  binary protocol (get/put/delete/multi_get/scan/batch + ping/stats);
* :class:`LSMServer` — a threaded socket server over a
  :class:`~repro.service.service.DBService` (or
  :class:`~repro.sharding.ShardedStore`), with per-tenant namespaces,
  fair-share admission, ``server_*`` metrics, and graceful drain;
* :class:`LSMClient` — the blocking client mirroring the service surface;
* :mod:`repro.server.loadgen` — a closed-loop multi-tenant load generator
  feeding client-observed latency into ``repro.observe`` histograms.

Quickstart::

    from repro import LSMConfig, LSMTree
    from repro.service import DBService
    from repro.server import LSMClient, LSMServer, ServerConfig

    service = DBService(LSMTree(LSMConfig(wal_enabled=True)))
    with LSMServer(service, ServerConfig(tenant_ops_per_second=500)) as server:
        host, port = server.address
        with LSMClient(host, port, tenant="alice") as db:
            db.put(b"k", b"v")
            assert db.get(b"k").value == b"v"
"""

from repro.server.client import LSMClient, RetryPolicy, RETRYABLE_CODES
from repro.server.config import ServerConfig
from repro.server.dedup import DedupTable
from repro.server.loadgen import TenantLoad, TenantRunResult, run_load, run_smoke_test
from repro.server.overload import OverloadGuard
from repro.server.protocol import (
    BatchRequest,
    DeleteRequest,
    ErrorResponse,
    FrameDecoder,
    GetRequest,
    GetResponse,
    MergeRequest,
    Message,
    MultiGetRequest,
    MultiGetResponse,
    OkResponse,
    PingRequest,
    PongResponse,
    ProtocolError,
    PutRequest,
    RemoteError,
    REQUEST_TYPES,
    RESPONSE_TYPES,
    ScanRequest,
    ScanResponse,
    StatsRequest,
    StatsResponse,
    TxnCommitRequest,
    decode_frame,
    encode_frame,
)
from repro.server.server import LSMServer
from repro.server.tenancy import (
    FairShareAdmission,
    namespaced_key,
    strip_namespace,
    tenant_boundaries,
    tenant_prefix,
    tenant_range,
    validate_tenant,
)

__all__ = [
    "LSMServer",
    "LSMClient",
    "RetryPolicy",
    "RETRYABLE_CODES",
    "DedupTable",
    "OverloadGuard",
    "ServerConfig",
    "FairShareAdmission",
    "TenantLoad",
    "TenantRunResult",
    "run_load",
    "run_smoke_test",
    "ProtocolError",
    "RemoteError",
    "Message",
    "FrameDecoder",
    "encode_frame",
    "decode_frame",
    "REQUEST_TYPES",
    "RESPONSE_TYPES",
    "PingRequest",
    "StatsRequest",
    "GetRequest",
    "PutRequest",
    "DeleteRequest",
    "MultiGetRequest",
    "ScanRequest",
    "BatchRequest",
    "MergeRequest",
    "TxnCommitRequest",
    "PongResponse",
    "StatsResponse",
    "GetResponse",
    "OkResponse",
    "MultiGetResponse",
    "ScanResponse",
    "ErrorResponse",
    "validate_tenant",
    "tenant_prefix",
    "tenant_range",
    "tenant_boundaries",
    "namespaced_key",
    "strip_namespace",
]
