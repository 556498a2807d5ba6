"""Span-recording proxies around each tier's public surface.

Installed only by the traced run.  Each proxy is a subclass (or, for the
client, a delegating wrapper) that overrides *public* methods with "record
a span, call the real thing" — nothing inside ``repro`` is patched, so
whatever the methods do internally is measured exactly as deployed.  The
untraced run uses the plain ``repro`` classes: tracing costs nothing when
off.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.net.client import ShardedServerClient
from repro.server.engine import ServerEngine
from repro.storage.cluster import StorageCluster
from repro.storage.memory import MemoryStore
from repro.storage.remote import RemoteKeyValueStore

from e2ebench.spans import SpanLog

#: The key-value calls the engine and token store issue on their hot paths.
#: Scans are generators (consumed after the call returns) and stay unspanned;
#: their time is owned by the caller's layer.
_KV_METHODS = ("get", "put", "delete", "multi_get", "multi_put", "multi_delete")

#: Engine entry points the wire dispatcher reaches on the measured paths.
_ENGINE_METHODS = (
    "create_stream",
    "stream_metadata",
    "insert_chunk",
    "insert_chunks",
    "stat_range",
    "get_range",
    "put_grant",
    "put_grants",
    "fetch_grants",
    "fetch_envelopes",
)


_UNTRACED = SpanLog()


def _override_with_spans(cls: type, methods: Sequence[str], layer: str, prefix: str) -> None:
    """Override ``methods`` (inherited by ``cls``) with span-recording versions.

    Instances carry ``span_log`` and ``span_tag`` (the storage-node name on
    the per-replica layers), both assigned after construction; until then
    the class-level ``_UNTRACED`` log (never enabled) makes them plain calls.
    """
    for method_name in methods:
        inherited = getattr(cls, method_name)

        def traced(self, *args: Any, _call=inherited, _name=f"{prefix}.{method_name}") -> Any:
            return self.span_log.timed(_name, layer, self.span_tag, _call, self, *args)

        traced.__name__ = method_name
        traced.__doc__ = inherited.__doc__
        setattr(cls, method_name, traced)


class TracedMemoryStore(MemoryStore):
    """A storage node's local store (the disk stand-in), node side of the wire."""

    span_log: SpanLog = _UNTRACED
    span_tag: Optional[str] = None


class TracedRemoteStore(RemoteKeyValueStore):
    """The engine-side stub of one remote node: span = request + wire + node."""

    span_log: SpanLog = _UNTRACED
    span_tag: Optional[str] = None


class TracedCluster(StorageCluster):
    """The replicating cluster client: ring walk, grouping, fan-out, merge."""

    span_log: SpanLog = _UNTRACED
    span_tag: Optional[str] = None


class TracedEngine(ServerEngine):
    """A :class:`ServerEngine` whose public entry points record spans."""

    span_log: SpanLog = _UNTRACED
    span_tag: Optional[str] = None


_override_with_spans(TracedMemoryStore, _KV_METHODS, "storage.node", "node")
_override_with_spans(TracedRemoteStore, _KV_METHODS, "storage.remote", "remote")
_override_with_spans(TracedCluster, _KV_METHODS, "storage.cluster", "cluster")
_override_with_spans(TracedEngine, _ENGINE_METHODS, "server", "engine")


class _TracedTokenStore:
    """The sharded client's token-store facade, one ``net`` span per wire call."""

    def __init__(self, inner: Any, log: SpanLog) -> None:
        self._inner = inner
        self._log = log

    def put_grant(self, *args: Any) -> Any:
        return self._log.timed("call.put_grant", "net", None, self._inner.put_grant, *args)

    def put_grants(self, *args: Any) -> Any:
        return self._log.timed("call.put_grants", "net", None, self._inner.put_grants, *args)

    def grants_for(self, *args: Any) -> Any:
        return self._log.timed("call.fetch_grants", "net", None, self._inner.grants_for, *args)

    def put_envelopes(self, *args: Any) -> Any:
        return self._log.timed("call.put_envelopes", "net", None, self._inner.put_envelopes, *args)

    def envelopes_for_range(self, *args: Any) -> Any:
        return self._log.timed(
            "call.fetch_envelopes", "net", None, self._inner.envelopes_for_range, *args
        )


class TracedClient:
    """Delegating wrapper around the shared :class:`ShardedServerClient`.

    A ``net`` span covers the whole remote call as the facade sees it:
    request encode, socket, server-side decode/schedule/dispatch, response
    encode, socket, decode.  Subtracting the engine span inside it leaves
    the wire's own cost.  Anything without an explicit method here
    (``close``, ``wire_stats``, ``ping`` ...) passes straight through.
    """

    #: How many of the traced window's real responses to keep for the
    #: client-side decrypt replay.
    CAPTURE_STATS = 256
    CAPTURE_RANGES = 32

    def __init__(self, inner: ShardedServerClient, log: SpanLog) -> None:
        self._inner = inner
        self._log = log
        self.token_store = _TracedTokenStore(inner.token_store, log)
        self.captured_stats: list = []
        self.captured_ranges: list = []

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def _call(self, method_name: str, *args: Any) -> Any:
        return self._log.timed(
            f"call.{method_name}", "net", None, getattr(self._inner, method_name), *args
        )

    def create_stream(self, *args: Any) -> Any:
        return self._call("create_stream", *args)

    def stream_metadata(self, *args: Any) -> Any:
        return self._call("stream_metadata", *args)

    def insert_chunk(self, *args: Any) -> Any:
        return self._call("insert_chunk", *args)

    def insert_chunks(self, *args: Any) -> Any:
        return self._call("insert_chunks", *args)

    def fetch_grants(self, *args: Any) -> Any:
        return self._call("fetch_grants", *args)

    def fetch_envelopes(self, *args: Any) -> Any:
        return self._call("fetch_envelopes", *args)

    def stat_range(self, *args: Any) -> Any:
        result = self._call("stat_range", *args)
        if self._log.enabled and len(self.captured_stats) < self.CAPTURE_STATS:
            self.captured_stats.append(result)
        return result

    def get_range(self, *args: Any) -> Any:
        chunks = self._call("get_range", *args)
        if self._log.enabled and len(self.captured_ranges) < self.CAPTURE_RANGES:
            self.captured_ranges.append(chunks)
        return chunks
