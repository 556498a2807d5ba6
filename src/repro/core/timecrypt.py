"""The TimeCrypt facade: the ten-call API of Table 1.

:class:`TimeCrypt` is the data-owner/producer view: it owns the per-stream
key material, runs the client-side encryption pipeline, and talks to an
(untrusted) :class:`~repro.server.engine.ServerEngine`.  The API mirrors the
paper's Table 1:

==============================  =========================================================
Paper call                      Method
==============================  =========================================================
CreateStream(uuid, config)      :meth:`TimeCrypt.create_stream`
DeleteStream(uuid)              :meth:`TimeCrypt.delete_stream`
RollupStream(uuid, res, range)  :meth:`TimeCrypt.rollup_stream`
InsertRecord(uuid, t, val)      :meth:`TimeCrypt.insert_record` / :meth:`insert_records`
GetRange(uuid, Ts, Te)          :meth:`TimeCrypt.get_range`
GetStatRange(uuid, Ts, Te, ops) :meth:`TimeCrypt.get_stat_range` (also multi-stream)
DeleteRange(uuid, Ts, Te)       :meth:`TimeCrypt.delete_range`
GrantAccess(...)                :meth:`TimeCrypt.grant_access`
GrantOpenAccess(...)            :meth:`TimeCrypt.grant_open_access`
RevokeAccess(...)               :meth:`TimeCrypt.revoke_access`
==============================  =========================================================

:class:`TimeCryptConsumer` is the data-consumer view: it picks up sealed
grants from the server, reconstructs the scoped keystream, issues queries and
decrypts exactly what its grant allows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.access.policy import AccessPolicy, Resolution, open_ended
from repro.access.principal import IdentityProvider, Principal
from repro.access.tokens import AccessToken
from repro.client.keymanager import OwnerKeyManager
from repro.crypto.prf import resolve_prg
from repro.client.reader import ConsumerReader
from repro.client.writer import StreamWriter
from repro.exceptions import AccessDeniedError, StreamNotFoundError, TimeCryptError
from repro.server.engine import ServerEngine
from repro.server.query_executor import MultiStreamAggregate
from repro.timeseries.point import DataPoint
from repro.timeseries.stream import StreamConfig, StreamMetadata
from repro.util.timeutil import TimeRange


@dataclass
class _OwnedStream:
    """Owner-side per-stream state."""

    metadata: StreamMetadata
    keys: OwnerKeyManager
    writer: StreamWriter


@dataclass
class TimeCrypt:
    """The data owner / producer client of a TimeCrypt deployment."""

    server: ServerEngine
    owner_id: str = "owner"
    identity_provider: IdentityProvider = field(default_factory=IdentityProvider)
    _streams: Dict[str, _OwnedStream] = field(default_factory=dict, init=False)

    # -- stream lifecycle -----------------------------------------------------------

    def create_stream(
        self,
        metric: str = "",
        source: str = "",
        unit: str = "",
        config: Optional[StreamConfig] = None,
        tags: Optional[Dict[str, str]] = None,
        uuid: Optional[str] = None,
    ) -> str:
        """Create a stream; returns its UUID (Table 1: CreateStream)."""
        metadata = StreamMetadata.new(
            owner_id=self.owner_id,
            metric=metric,
            source=source,
            unit=unit,
            config=config,
            tags=tags,
        )
        if uuid is not None:
            metadata.uuid = uuid
        if metadata.config.prg == "auto":
            # Pin the resolved PRG into the persisted metadata: "auto" must
            # not be re-resolved on a later open, where a different build's
            # default would silently derive a different keystream.
            metadata.config = replace(metadata.config, prg=resolve_prg("auto"))
        self.server.create_stream(metadata)
        keys = OwnerKeyManager(stream_uuid=metadata.uuid, config=metadata.config)
        writer = StreamWriter(
            stream_uuid=metadata.uuid,
            config=metadata.config,
            cipher=keys.heac_cipher(),
            sink=self.server.insert_chunk,
            batch_sink=self.server.insert_chunks,
        )
        self._streams[metadata.uuid] = _OwnedStream(metadata=metadata, keys=keys, writer=writer)
        return metadata.uuid

    def delete_stream(self, uuid: str) -> None:
        """Delete a stream and all of its data (Table 1: DeleteStream)."""
        self._owned(uuid)
        self.server.delete_stream(uuid)
        del self._streams[uuid]

    def rollup_stream(self, uuid: str, resolution_interval: int, before_time: Optional[int] = None) -> int:
        """Age out raw data finer than ``resolution_interval`` (Table 1: RollupStream)."""
        owned = self._owned(uuid)
        resolution = Resolution.from_interval(resolution_interval, owned.metadata.config.chunk_interval)
        return self.server.rollup_stream(uuid, resolution.chunks, before_time)

    def list_streams(self) -> List[str]:
        return sorted(self._streams)

    def stream_config(self, uuid: str) -> StreamConfig:
        return self._owned(uuid).metadata.config

    # -- ingest -------------------------------------------------------------------------

    def insert_record(self, uuid: str, timestamp: int, value: float) -> None:
        """Append one measurement (Table 1: InsertRecord)."""
        self._owned(uuid).writer.append(timestamp, value)

    def insert_records(self, uuid: str, records: Iterable[Tuple[int, float]]) -> None:
        """Append many measurements in timestamp order (bulk-ingest fast path).

        All chunks completed by the batch are encrypted together (sharing
        HEAC boundary keys) and delivered to the server in one call, which
        folds them into the index with one write per touched node.
        """
        self._owned(uuid).writer.extend_records(records)

    def insert_points(self, uuid: str, points: Iterable[DataPoint]) -> None:
        """Append pre-encoded fixed-point data points."""
        self._owned(uuid).writer.extend(points)

    def flush(self, uuid: str) -> None:
        """Seal and upload the currently open chunk."""
        self._owned(uuid).writer.flush()

    def flush_all(self) -> None:
        for uuid in self._streams:
            self.flush(uuid)

    # -- owner-side queries -----------------------------------------------------------------

    def owner_reader(self, uuid: str) -> ConsumerReader:
        """The owner's unrestricted reader for their own stream."""
        owned = self._owned(uuid)
        return ConsumerReader.for_owner(uuid, owned.metadata.config, owned.keys.key_tree)

    def get_range(self, uuid: str, start: int, end: int) -> List[DataPoint]:
        """Retrieve and decrypt raw records in ``[start, end)`` (Table 1: GetRange)."""
        reader = self.owner_reader(uuid)
        chunks = self.server.get_range(uuid, TimeRange(start, end))
        return reader.decrypt_range(chunks, start, end)

    def get_stat_range(
        self, uuid: str | Sequence[str], start: int, end: int, operators: Sequence[str] = ("sum", "count", "mean")
    ) -> Dict[str, object]:
        """Statistical query over ``[start, end)`` (Table 1: GetStatRange).

        With a single UUID the result is decrypted with the owner's keys and
        the requested operators are evaluated.  With a list of UUIDs an
        inter-stream aggregate is computed (sum/count/mean over all streams).
        """
        if isinstance(uuid, str):
            result = self.server.stat_range(uuid, TimeRange(start, end))
            stats = self.owner_reader(uuid).decrypt_statistics(result)
            return {operator: stats.evaluate(operator) for operator in operators}
        aggregate = self.server.stat_range_multi(list(uuid), TimeRange(start, end))
        readers = {stream_uuid: self.owner_reader(stream_uuid) for stream_uuid in uuid}
        return self._evaluate_multi(aggregate, readers, operators)

    def delete_range(self, uuid: str, start: int, end: int) -> int:
        """Delete raw chunk payloads in a range, keeping digests (Table 1: DeleteRange)."""
        self._owned(uuid)
        return self.server.delete_range(uuid, TimeRange(start, end))

    # -- access control ------------------------------------------------------------------------

    def register_principal(self, principal: Principal) -> None:
        """Publish a principal's public key in the identity directory."""
        self.identity_provider.register(principal)

    def grant_access(
        self,
        uuid: str,
        principal_id: str,
        start: int,
        end: int,
        resolution_interval: Optional[int] = None,
    ) -> AccessPolicy:
        """Grant scoped access (Table 1: GrantAccess).

        ``resolution_interval`` (in time units) restricts the principal to
        aggregates of that granularity; omit it for full per-chunk access.
        """
        owned = self._owned(uuid)
        resolution = (
            Resolution.from_interval(resolution_interval, owned.metadata.config.chunk_interval)
            if resolution_interval is not None
            else Resolution(1)
        )
        policy = AccessPolicy(
            stream_uuid=uuid,
            principal_id=principal_id,
            time_range=TimeRange(start, end),
            resolution=resolution,
        )
        manager = owned.keys.grant_manager(self.identity_provider, self.server.token_store)
        manager.grant(policy)
        return policy

    def grant_access_many(
        self,
        uuid: str,
        grants: Sequence[Tuple[str, int, int, Optional[int]]],
    ) -> List[AccessPolicy]:
        """Grant scoped access to a cohort of principals in one burst.

        ``grants`` is a sequence of ``(principal_id, start, end,
        resolution_interval)`` tuples (``resolution_interval`` may be
        ``None`` for full per-chunk access).  All key material is derived and
        sealed client-side, then parked at the server with one token-store
        write — over the network transport that is a single ``put_grants``
        wire round trip for the whole cohort.
        """
        owned = self._owned(uuid)
        policies: List[AccessPolicy] = []
        for principal_id, start, end, resolution_interval in grants:
            resolution = (
                Resolution.from_interval(resolution_interval, owned.metadata.config.chunk_interval)
                if resolution_interval is not None
                else Resolution(1)
            )
            policies.append(
                AccessPolicy(
                    stream_uuid=uuid,
                    principal_id=principal_id,
                    time_range=TimeRange(start, end),
                    resolution=resolution,
                )
            )
        manager = owned.keys.grant_manager(self.identity_provider, self.server.token_store)
        manager.grant_many(policies)
        return policies

    def grant_open_access(
        self, uuid: str, principal_id: str, start: int, resolution_interval: Optional[int] = None
    ) -> AccessPolicy:
        """Grant an open-ended subscription (Table 1: GrantOpenAccess)."""
        owned = self._owned(uuid)
        resolution = (
            Resolution.from_interval(resolution_interval, owned.metadata.config.chunk_interval)
            if resolution_interval is not None
            else Resolution(1)
        )
        policy = open_ended(uuid, principal_id, start, resolution)
        manager = owned.keys.grant_manager(self.identity_provider, self.server.token_store)
        manager.grant(policy)
        return policy

    def revoke_access(self, uuid: str, principal_id: str, end: int) -> int:
        """Revoke access from ``end`` onward (Table 1: RevokeAccess).

        Forward secrecy only: data the principal could already decrypt stays
        decryptable (§3.3).  Returns the number of grants that were clipped.
        """
        owned = self._owned(uuid)
        manager = owned.keys.grant_manager(self.identity_provider, self.server.token_store)
        return len(manager.revoke(principal_id, end))

    def publish_resolution_envelopes(
        self, uuid: str, resolution_interval: int, start: int, end: int
    ) -> int:
        """Publish key envelopes so restricted consumers can decrypt new data."""
        owned = self._owned(uuid)
        config = owned.metadata.config
        resolution = Resolution.from_interval(resolution_interval, config.chunk_interval)
        manager = owned.keys.grant_manager(self.identity_provider, self.server.token_store)
        window_start = config.window_of(max(start, config.start_time))
        window_end = config.window_of(max(end - 1, config.start_time))
        return manager.publish_envelopes(resolution, window_start, window_end)

    # -- helpers -----------------------------------------------------------------------------------

    def _owned(self, uuid: str) -> _OwnedStream:
        owned = self._streams.get(uuid)
        if owned is None:
            raise StreamNotFoundError(f"stream '{uuid}' is not owned by this client")
        return owned

    @staticmethod
    def _evaluate_multi(
        aggregate: MultiStreamAggregate,
        readers: Dict[str, ConsumerReader],
        operators: Sequence[str],
    ) -> Dict[str, object]:
        values = ConsumerReader.decrypt_multi_stream(aggregate, readers)
        names = list(aggregate.component_names)
        results: Dict[str, object] = {}
        by_name = dict(zip(names, values))
        for operator in operators:
            operator = operator.lower()
            if operator == "sum":
                results[operator] = by_name["sum"]
            elif operator == "count":
                results[operator] = by_name["count"]
            elif operator == "mean":
                results[operator] = by_name["sum"] / by_name["count"] if by_name["count"] else 0.0
            else:
                raise AccessDeniedError(
                    f"inter-stream queries support sum/count/mean, not '{operator}'"
                )
        return results


@dataclass
class TimeCryptConsumer:
    """A data consumer: picks up grants, queries, and decrypts within its scope."""

    server: ServerEngine
    principal: Principal
    _readers: Dict[str, ConsumerReader] = field(default_factory=dict, init=False)
    _tokens: Dict[str, AccessToken] = field(default_factory=dict, init=False)
    #: Per-stream session cache of public stream configuration, so repeated
    #: queries (and repeated ``fetch_access`` calls) stop refetching stream
    #: metadata per call site.
    _configs: Dict[str, StreamConfig] = field(default_factory=dict, init=False)

    # -- grant pickup --------------------------------------------------------------

    def fetch_access(self, stream_uuid: str, config: Optional[StreamConfig] = None) -> AccessToken:
        """Pick up and decrypt the latest grant for a stream.

        The stream configuration is public metadata (chunk interval, digest
        layout); callers that do not already know it may omit it, and it is
        fetched from the server's stream registry once per session (cached
        afterwards).  Over a pipelined transport, prefer :meth:`warm_up` —
        it collapses the whole cold start (grants, metadata, envelopes, for
        any number of streams) into two wire round trips.
        """
        if config is None:
            config = self._config_of(stream_uuid)
        sealed_grants = self.server.fetch_grants(stream_uuid, self.principal.principal_id)
        token = self._unseal_latest(stream_uuid, sealed_grants)
        envelopes: Dict[int, bytes] = {}
        if not token.is_full_resolution:
            envelopes = self.server.fetch_envelopes(
                stream_uuid, token.resolution_chunks, token.window_start, token.window_end
            )
        return self._install_access(stream_uuid, token, config, envelopes)

    def warm_up(self, stream_uuids: Sequence[str]) -> Dict[str, AccessToken]:
        """Cold-start access to many streams in (at most) two round trips.

        Over a pipelined transport (:class:`~repro.net.client
        .RemoteServerClient`, :class:`~repro.net.client.ShardedServerClient`
        or anything exposing a compatible ``pipeline()``), the first round
        trip batches every stream's grant pickup together with the stream
        metadata not already in the session cache; tokens are unsealed
        locally, and a second round trip batches the key-envelope fetches
        for whichever tokens turned out to be resolution-restricted (their
        windows are inside the token, so this round trip cannot be merged
        into the first).  Full-resolution grants finish in one.  On the
        sharded client each phase is one batch per owning engine, all in
        flight at once.  Against a non-pipelined server handle the
        per-stream scalar path is used instead — same result, more trips.

        Failures are per stream: a stream whose grant is missing, revoked,
        or otherwise unobtainable is simply absent from the returned
        mapping, and the remaining streams' access is still installed —
        one revoked grant must not void a whole dashboard's cold start.
        Only when *every* requested stream fails is the first error raised.
        """
        uuids = list(dict.fromkeys(stream_uuids))
        tokens: Dict[str, AccessToken] = {}
        errors: Dict[str, Exception] = {}

        def finish() -> Dict[str, AccessToken]:
            if uuids and errors and not tokens:
                raise errors[next(iter(errors))]
            return tokens

        pipeline_factory = getattr(self.server, "pipeline", None)
        if pipeline_factory is None:
            for uuid in uuids:
                try:
                    tokens[uuid] = self.fetch_access(uuid)
                except TimeCryptError as exc:
                    errors[uuid] = exc
            return finish()
        with pipeline_factory() as batch:
            grant_handles = {
                uuid: batch.fetch_grants(uuid, self.principal.principal_id) for uuid in uuids
            }
            meta_handles = {
                uuid: batch.stream_metadata(uuid)
                for uuid in uuids
                if uuid not in self._configs
            }
        restricted: Dict[str, AccessToken] = {}
        for uuid in uuids:
            try:
                if uuid in meta_handles:
                    self._configs[uuid] = meta_handles[uuid].result().config
                token = self._unseal_latest(uuid, grant_handles[uuid].result())
            except TimeCryptError as exc:
                errors[uuid] = exc
                continue
            if token.is_full_resolution:
                try:
                    self._install_access(uuid, token, self._configs[uuid], {})
                except TimeCryptError as exc:
                    errors[uuid] = exc
                    continue
                tokens[uuid] = token
            else:
                tokens[uuid] = token
                restricted[uuid] = token
        if restricted:
            with pipeline_factory() as batch:
                envelope_handles = {
                    uuid: batch.fetch_envelopes(
                        uuid, token.resolution_chunks, token.window_start, token.window_end
                    )
                    for uuid, token in restricted.items()
                }
            for uuid, token in restricted.items():
                try:
                    self._install_access(
                        uuid, token, self._configs[uuid], envelope_handles[uuid].result()
                    )
                except TimeCryptError as exc:
                    errors[uuid] = exc
                    tokens.pop(uuid, None)
        return finish()

    def _unseal_latest(self, stream_uuid: str, sealed_grants: Sequence[bytes]) -> AccessToken:
        if not sealed_grants:
            raise AccessDeniedError(
                f"no grant stored for '{self.principal.principal_id}' on stream '{stream_uuid}'"
            )
        return AccessToken.from_bytes(
            self.principal.decrypt_envelope(sealed_grants[-1], context=stream_uuid.encode("utf-8"))
        )

    def _install_access(
        self,
        stream_uuid: str,
        token: AccessToken,
        config: StreamConfig,
        envelopes: Dict[int, bytes],
    ) -> AccessToken:
        reader = ConsumerReader.from_access_token(token, config, envelopes)
        self._tokens[stream_uuid] = token
        self._readers[stream_uuid] = reader
        self._configs[stream_uuid] = config
        return token

    def reader(self, stream_uuid: str) -> ConsumerReader:
        reader = self._readers.get(stream_uuid)
        if reader is None:
            raise AccessDeniedError(f"no access fetched for stream '{stream_uuid}'")
        return reader

    def token(self, stream_uuid: str) -> AccessToken:
        token = self._tokens.get(stream_uuid)
        if token is None:
            raise AccessDeniedError(f"no access fetched for stream '{stream_uuid}'")
        return token

    # -- queries -----------------------------------------------------------------------

    def get_stat_range(
        self, stream_uuid: str, start: int, end: int, operators: Sequence[str] = ("sum", "count", "mean")
    ) -> Dict[str, object]:
        """Query and decrypt statistics over ``[start, end)`` within the granted scope."""
        reader = self.reader(stream_uuid)
        result = self.server.stat_range(stream_uuid, TimeRange(start, end))
        stats = reader.decrypt_statistics(result)
        return {operator: stats.evaluate(operator) for operator in operators}

    def get_stat_series(
        self,
        stream_uuid: str,
        start: int,
        end: int,
        granularity_interval: int,
        operators: Sequence[str] = ("mean",),
    ) -> List[Dict[str, object]]:
        """A dashboard series: one decrypted aggregate per granularity bucket."""
        reader = self.reader(stream_uuid)
        config_interval = self._config_of(stream_uuid).chunk_interval
        granularity_windows = max(1, granularity_interval // config_interval)
        results = self.server.stat_series(
            stream_uuid, TimeRange(start, end), granularity_windows
        )
        # Batch decryption: bucket-boundary keys shared between adjacent
        # aggregates are derived once for the whole series.
        series = []
        for result, stats in zip(results, reader.decrypt_series(results)):
            entry: Dict[str, object] = {
                "window_start": result.window_start,
                "window_end": result.window_end,
            }
            entry.update({operator: stats.evaluate(operator) for operator in operators})
            series.append(entry)
        return series

    def get_stat_range_multi(
        self, stream_uuids: Sequence[str], start: int, end: int
    ) -> Dict[str, object]:
        """Inter-stream query: requires fetched access to every stream involved."""
        aggregate = self.server.stat_range_multi(list(stream_uuids), TimeRange(start, end))
        readers = {uuid: self.reader(uuid) for uuid in stream_uuids}
        values = ConsumerReader.decrypt_multi_stream(aggregate, readers)
        by_name = dict(zip(aggregate.component_names, values))
        mean = by_name["sum"] / by_name["count"] if by_name.get("count") else 0.0
        return {"sum": by_name.get("sum"), "count": by_name.get("count"), "mean": mean}

    def get_range(self, stream_uuid: str, start: int, end: int) -> List[DataPoint]:
        """Retrieve and decrypt raw records (full-resolution grants only)."""
        reader = self.reader(stream_uuid)
        chunks = self.server.get_range(stream_uuid, TimeRange(start, end))
        return reader.decrypt_range(chunks, start, end)

    def _config_of(self, stream_uuid: str) -> StreamConfig:
        config = self._configs.get(stream_uuid)
        if config is None:
            config = self.server.stream_metadata(stream_uuid).config
            self._configs[stream_uuid] = config
        return config
