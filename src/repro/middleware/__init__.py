"""The ForeCache middleware: client/server glue (Section 3).

:class:`ForeCacheService` is the serving facade — sessions are
first-class (``open_session() -> SessionHandle``), construction is via
frozen configs (:class:`ServiceConfig`, :class:`PrefetchPolicy`,
:class:`CacheConfig`), and requests/responses have a typed,
JSON-serializable wire form (:mod:`repro.middleware.protocol`).
:class:`ForeCacheSocketServer` / :class:`SocketTransport` speak the wire
protocol over TCP, the server calling the facade on its event loop,
:class:`TileServiceRouter` in front of a cluster of them.
:class:`BrowsingSession` is the lightweight client the user (or a
trace replay) drives, against any front end: every connection exposes
``.pyramid``, ``.request(move, key)`` and ``.close()``.
"""

from repro.middleware.client import BrowsingSession
from repro.middleware.cluster import (
    ConsistentHashRing,
    ProcessCluster,
    ThreadedClusterServer,
    ThreadedRouter,
    TileServiceRouter,
    WorkerSpec,
)
from repro.middleware.config import (
    PREFETCH_MODES,
    SHARED_HOTSPOT_MODES,
    CacheConfig,
    PrefetchPolicy,
    ServiceConfig,
)
from repro.middleware.latency import (
    HIT_SECONDS,
    LatencyRecorder,
    MISS_SECONDS,
)
from repro.middleware.net import (
    ForeCacheSocketServer,
    SocketSessionClient,
    SocketTransport,
    ThreadedSocketServer,
)
# The wire messages (protocol.TileRequest, protocol.TileResponse, ...)
# deliberately stay namespaced under ``repro.middleware.protocol``: the
# package root's ``TileResponse`` is the *in-process* response, and
# exporting a same-named wire twin (or its request half alone) here
# would invite wrong-class imports.
from repro.middleware.protocol import (
    DuplicateSessionError,
    ErrorInfo,
    FrameDecoder,
    FramingError,
    FrameTooLargeError,
    InvalidRequestError,
    ProtocolError,
    SessionClosedError,
    SessionInfo,
    SessionNotFoundError,
    VersionMismatchError,
    WorkerUnavailableError,
)
from repro.middleware.scheduler import PrefetchJob, PrefetchScheduler
from repro.middleware.service import (
    ForeCacheService,
    SessionHandle,
    TileResponse,
)

__all__ = [
    "BrowsingSession",
    "CacheConfig",
    "ConsistentHashRing",
    "DuplicateSessionError",
    "ErrorInfo",
    "ForeCacheService",
    "ForeCacheSocketServer",
    "FrameDecoder",
    "FramingError",
    "FrameTooLargeError",
    "HIT_SECONDS",
    "InvalidRequestError",
    "LatencyRecorder",
    "MISS_SECONDS",
    "PREFETCH_MODES",
    "PrefetchJob",
    "PrefetchPolicy",
    "PrefetchScheduler",
    "ProcessCluster",
    "ProtocolError",
    "SHARED_HOTSPOT_MODES",
    "SessionClosedError",
    "SessionHandle",
    "SessionInfo",
    "SessionNotFoundError",
    "ServiceConfig",
    "SocketSessionClient",
    "SocketTransport",
    "ThreadedClusterServer",
    "ThreadedRouter",
    "ThreadedSocketServer",
    "TileServiceRouter",
    "VersionMismatchError",
    "TileResponse",
    "WorkerSpec",
    "WorkerUnavailableError",
]
