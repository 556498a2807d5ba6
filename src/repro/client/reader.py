"""The data-consumer read path: query, decrypt, evaluate (paper §4.5).

A consumer (principal) holds an :class:`~repro.access.tokens.AccessToken`
obtained from a grant.  The reader built from it can

* decrypt statistical range results returned by the server — but only when
  the queried range (and granularity) lies inside the granted scope; outside
  it the required keys simply cannot be derived,
* decrypt raw chunk payloads (full-resolution grants only),
* decrypt inter-stream aggregates when it holds readers for every stream
  involved,
* evaluate the statistical operators of Table 1 (sum, count, mean, var,
  stdev, freq/histogram, min/max) from decrypted digest vectors.

The owner's own reader is just a consumer reader whose keystream is the full
key tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.access.resolution import ResolutionConsumerKeystream, ResolutionShare
from repro.access.tokens import AccessToken
from repro.crypto.gcm import aead_decrypt
from repro.crypto.heac import HEACCipher, Keystream, MODULUS
from repro.crypto.keytree import DerivedKeystream
from repro.exceptions import AccessDeniedError, QueryError
from repro.server.query_executor import MultiStreamAggregate, StatQueryResult
from repro.timeseries.compression import get_codec
from repro.timeseries.digest import Digest, DigestConfig
from repro.timeseries.point import DataPoint, clip_columns, decode_value, points_from_columns
from repro.timeseries.serialization import EncryptedChunk
from repro.timeseries.stream import StreamConfig


@dataclass
class DecryptedStatistics:
    """A decrypted digest over a window interval, with evaluation helpers."""

    stream_uuid: str
    window_start: int
    window_end: int
    digest: Digest
    value_scale: int = 1

    def evaluate(self, operator: str) -> object:
        """Evaluate an operator, rescaling value-typed results to measurement units."""
        raw = self.digest.evaluate(operator)
        operator = operator.lower()
        if operator == "sum":
            return decode_value(int(raw), self.value_scale)
        if operator in ("mean", "stdev"):
            return float(raw) / self.value_scale
        if operator == "var":
            return float(raw) / (self.value_scale * self.value_scale)
        return raw

    @property
    def count(self) -> int:
        return self.digest.count


class ConsumerReader:
    """Decryption and evaluation for one principal's view of one stream."""

    def __init__(
        self,
        stream_uuid: str,
        config: StreamConfig,
        keystream: Keystream,
        resolution_chunks: int = 1,
        window_start: int = 0,
        window_end: Optional[int] = None,
    ) -> None:
        self._stream_uuid = stream_uuid
        self._config = config
        self._keystream = keystream
        self._cipher = HEACCipher(keystream)
        self._codec = get_codec(config.compression)
        self._resolution_chunks = resolution_chunks
        self._window_start = window_start
        self._window_end = window_end if window_end is not None else config.max_chunks

    # -- constructors ------------------------------------------------------------

    @classmethod
    def from_access_token(cls, token: AccessToken, config: StreamConfig, envelopes: Optional[Dict[int, bytes]] = None) -> "ConsumerReader":
        """Build a reader from a decrypted access token.

        Full-resolution tokens carry tree tokens; restricted tokens carry a
        dual-key-regression share and need the key envelopes fetched from the
        server for their interval.
        """
        if token.is_full_resolution:
            keystream: Keystream = DerivedKeystream(token.tree_tokens, prg=token.prg)
        else:
            if token.regression_token is None:
                raise AccessDeniedError("restricted-resolution token without a regression share")
            share = ResolutionShare(
                stream_uuid=token.stream_uuid,
                resolution_chunks=token.resolution_chunks,
                token=token.regression_token,
            )
            keystream = ResolutionConsumerKeystream(share, envelopes or {})
        return cls(
            stream_uuid=token.stream_uuid,
            config=config,
            keystream=keystream,
            resolution_chunks=token.resolution_chunks,
            window_start=token.window_start,
            window_end=token.window_end,
        )

    @classmethod
    def for_owner(cls, stream_uuid: str, config: StreamConfig, keystream: Keystream) -> "ConsumerReader":
        """The owner's unrestricted reader over their own stream."""
        return cls(stream_uuid=stream_uuid, config=config, keystream=keystream)

    # -- properties --------------------------------------------------------------------

    @property
    def stream_uuid(self) -> str:
        return self._stream_uuid

    @property
    def resolution_chunks(self) -> int:
        return self._resolution_chunks

    @property
    def cipher(self) -> HEACCipher:
        return self._cipher

    @property
    def digest_config(self) -> DigestConfig:
        return self._config.digest

    # -- statistical results -----------------------------------------------------------------

    def decrypt_statistics(self, result: StatQueryResult) -> DecryptedStatistics:
        """Decrypt a single-stream aggregate result.

        Raises :class:`DecryptionError` (missing keys) or
        :class:`AccessDeniedError` when the result lies outside the granted
        scope or granularity — the failure modes that *are* the access control.
        """
        return self.decrypt_series([result])[0]

    def decrypt_series(self, results: Sequence[StatQueryResult]) -> List[DecryptedStatistics]:
        """Decrypt a dashboard-style series of adjacent aggregates.

        Adjacent buckets share their boundary windows (and every bucket's
        components share its two boundary keys), so the whole series is
        decrypted through :meth:`~repro.crypto.heac.HEACCipher.decrypt_ranges`,
        which derives each distinct boundary key once — instead of once per
        bucket per component as the scalar path would.  Results are identical
        to calling :meth:`decrypt_statistics` per result.
        """
        for result in results:
            if result.stream_uuid != self._stream_uuid:
                raise QueryError("result belongs to a different stream")
            self._check_scope(result.window_start, result.window_end)
        values_per_result = self._cipher.decrypt_ranges(
            [list(result.cells) for result in results]
        )
        return [
            DecryptedStatistics(
                stream_uuid=self._stream_uuid,
                window_start=result.window_start,
                window_end=result.window_end,
                digest=Digest(
                    config=self._config.digest,
                    values=[self._to_signed(value) for value in values],
                ),
                value_scale=self._config.value_scale,
            )
            for result, values in zip(results, values_per_result)
        ]

    def _check_scope(self, window_start: int, window_end: int) -> None:
        if window_start < self._window_start or window_end > self._window_end:
            raise AccessDeniedError(
                f"result windows [{window_start}, {window_end}) outside granted "
                f"[{self._window_start}, {self._window_end})"
            )
        if self._resolution_chunks > 1:
            if window_start % self._resolution_chunks or window_end % self._resolution_chunks:
                raise AccessDeniedError(
                    f"result windows [{window_start}, {window_end}) are not aligned to the "
                    f"granted {self._resolution_chunks}-chunk resolution"
                )

    @staticmethod
    def _to_signed(value: int) -> int:
        return value - MODULUS if value >= MODULUS // 2 else value

    # -- inter-stream results -----------------------------------------------------------------------

    @staticmethod
    def decrypt_multi_stream(
        aggregate: MultiStreamAggregate, readers: Dict[str, "ConsumerReader"]
    ) -> List[int]:
        """Decrypt an inter-stream aggregate using one reader per involved stream.

        Every stream listed in the aggregate must have a reader able to derive
        its outer keys; otherwise the pads cannot be removed and decryption
        fails — only principals authorized for *all* streams learn the result.

        Each stream's pads come from one batched
        :meth:`~repro.crypto.heac.HEACCipher.outer_pads` pass (both boundary
        keys derived once, shared across all digest components) instead of
        the per-stream-per-component scalar derivation.
        """
        width = len(aggregate.values)
        totals = list(aggregate.values)
        for stream_uuid, window_start, window_end in aggregate.per_stream_intervals:
            reader = readers.get(stream_uuid)
            if reader is None:
                raise AccessDeniedError(
                    f"no key material for stream '{stream_uuid}' in the inter-stream result"
                )
            reader._check_scope(window_start, window_end)
            pads = reader.cipher.outer_pads(window_start, window_end, width)
            for component, pad in enumerate(pads):
                totals[component] = (totals[component] - pad) % MODULUS
        return [ConsumerReader._to_signed(value) for value in totals]

    # -- raw data ----------------------------------------------------------------------------------------

    def _payload_keys(self, windows: Sequence[int]) -> List[bytes]:
        """The AEAD payload keys of a range answer's chunk windows, in one derivation.

        The server enforces nothing, so the answer's shape is checked here:
        its windows must be strictly increasing (a duplicated or reordered
        chunk would return repeated or unsorted points) and lie inside the
        grant.  Derivation then costs at most two leaves per chunk, however
        far apart the windows are.
        """
        if not windows:
            return []
        if self._resolution_chunks != 1:
            raise AccessDeniedError(
                "raw data access requires a full-resolution grant"
            )
        for earlier, later in zip(windows, windows[1:]):
            if later <= earlier:
                raise QueryError(
                    f"range answer's chunk windows are not strictly increasing: {later} after {earlier}"
                )
        if windows[0] < self._window_start or windows[-1] >= self._window_end:
            outside = windows[0] if windows[0] < self._window_start else windows[-1]
            raise AccessDeniedError(
                f"chunk window {outside} outside granted "
                f"[{self._window_start}, {self._window_end})"
            )
        return self._cipher.chunk_payload_keys(windows)

    def decrypt_chunk(self, chunk: EncryptedChunk) -> List[DataPoint]:
        """Decrypt and decompress one raw chunk payload (full resolution only)."""
        return self.decrypt_range([chunk])

    def decrypt_range(
        self,
        chunks: Sequence[EncryptedChunk],
        start: Optional[int] = None,
        end: Optional[int] = None,
    ) -> List[DataPoint]:
        """Decrypt a range answer's chunks into one ordered point list.

        The chunks must come in strictly increasing window order, as the
        server's ``get_range`` answers them; anything else raises
        :class:`QueryError`.  With ``start`` and ``end`` only the points in
        ``[start, end)`` are returned; the cut is made on the timestamp
        columns, so points outside the interval are never materialised.
        """
        payload_keys = self._payload_keys([chunk.window_index for chunk in chunks])
        clip = start is not None and end is not None
        points: List[DataPoint] = []
        for chunk, payload_key in zip(chunks, payload_keys):
            aad = f"{self._stream_uuid}:{chunk.window_index}".encode("utf-8")
            timestamps, values = self._codec.decompress_columns(
                aead_decrypt(payload_key, chunk.payload, aad)
            )
            if clip:
                timestamps, values = clip_columns(timestamps, values, start, end)
            points += points_from_columns(timestamps, values)
        return points

    def decode_points(self, points: Sequence[DataPoint]) -> List[tuple]:
        """Convert fixed-point values back to measurement units."""
        return [
            (point.timestamp, decode_value(point.value, self._config.value_scale))
            for point in points
        ]
