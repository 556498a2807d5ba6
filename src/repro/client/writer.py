"""The data-producer write path (paper §4.1, §4.2).

The writer turns raw measurements into what the untrusted server stores:

1. points are batched into fixed-Δ chunks (:class:`ChunkBuilder`),
2. the chunk's plaintext digest is computed and each component encrypted
   with HEAC under the chunk's window keys,
3. the raw points are compressed with the stream's codec and sealed with
   AES-GCM under a key derived from the same window keys,
4. the resulting :class:`EncryptedChunk` is handed to the server (directly
   or over the network transport).

The writer never buffers more than the currently open chunk, matching the
paper's client-side batching model.  When an ingest completes several chunks
at once (bulk inserts, catch-up after a gap), the chunks are encrypted
through :meth:`StreamWriter.encrypt_chunks`, which derives the shared HEAC
boundary keys for each consecutive window run once, and are delivered via the
``batch_sink`` (when configured) so the server can use its bulk index path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.crypto.gcm import aead_encrypt
from repro.crypto.heac import HEACCipher
from repro.exceptions import ChunkError
from repro.timeseries.chunk import Chunk, ChunkBuilder
from repro.timeseries.compression import Codec, get_codec
from repro.timeseries.point import DataPoint, Number
from repro.timeseries.serialization import EncryptedChunk
from repro.timeseries.stream import StreamConfig


@dataclass
class StreamWriter:
    """Client-side encryption pipeline for one stream's ingest path."""

    stream_uuid: str
    config: StreamConfig
    cipher: HEACCipher
    sink: Callable[[EncryptedChunk], None]
    use_pure_python_aead: bool = False
    #: Optional bulk delivery path; when set, multi-chunk completions are
    #: handed over in one call (e.g. ``ServerEngine.insert_chunks``) instead
    #: of one ``sink`` call per chunk.
    batch_sink: Optional[Callable[[Sequence[EncryptedChunk]], None]] = None
    _builder: ChunkBuilder = field(init=False)
    _codec: Codec = field(init=False)
    chunks_written: int = field(default=0, init=False)
    records_written: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self._builder = ChunkBuilder(config=self.config)
        self._codec = get_codec(self.config.compression)

    # -- ingest -------------------------------------------------------------------

    def append(self, timestamp: int, value: float) -> List[EncryptedChunk]:
        """Add one measurement; returns any chunks that were completed and sent."""
        return self.extend_records(((timestamp, value),))

    def extend_records(self, records: Iterable[Tuple[int, Number]]) -> List[EncryptedChunk]:
        """Add many raw ``(timestamp, measurement)`` records in timestamp order."""
        return self._handle_completed(self._builder.extend_records(records))

    def append_point(self, point: DataPoint) -> List[EncryptedChunk]:
        """Add an already fixed-point encoded data point."""
        return self._handle_completed(self._builder.append(point))

    def extend(self, points: Iterable[DataPoint]) -> List[EncryptedChunk]:
        """Add many pre-encoded points."""
        return self._handle_completed(self._builder.extend(points))

    def flush(self) -> List[EncryptedChunk]:
        """Seal and send the currently open chunk."""
        return self._handle_completed(self._builder.flush())

    def _handle_completed(self, chunks: List[Chunk]) -> List[EncryptedChunk]:
        if not chunks:
            return []
        encrypted = self.encrypt_chunks(chunks)
        if self.batch_sink is not None and len(encrypted) > 1:
            self.batch_sink(encrypted)
        else:
            for item in encrypted:
                self.sink(item)
        for item in encrypted:
            self.chunks_written += 1
            self.records_written += item.num_points
        return encrypted

    # -- chunk encryption --------------------------------------------------------------

    def encrypt_chunk(self, chunk: Chunk) -> EncryptedChunk:
        """Encrypt one plaintext chunk (digest with HEAC, payload with AEAD)."""
        return self._encrypt_run([chunk])[0]

    def encrypt_chunks(self, chunks: Sequence[Chunk]) -> List[EncryptedChunk]:
        """Encrypt many chunks, sharing HEAC key material per consecutive window run.

        Chunks with consecutive window indices (the normal case — the builder
        emits windows in order, including empties) are encrypted from one
        :class:`~repro.crypto.heac.HEACWindowBatch`, so each boundary key is
        derived once for the whole run instead of twice per chunk.  Digest
        ciphertexts are bit-identical to :meth:`encrypt_chunk`; payload blobs
        differ only in their random AEAD nonce.
        """
        encrypted: List[EncryptedChunk] = []
        run: List[Chunk] = []
        for chunk in chunks:
            if run and chunk.window_index != run[-1].window_index + 1:
                encrypted.extend(self._encrypt_run(run))
                run = []
            run.append(chunk)
        if run:
            encrypted.extend(self._encrypt_run(run))
        return encrypted

    def _encrypt_run(self, run: Sequence[Chunk]) -> List[EncryptedChunk]:
        """Encrypt a run of consecutive-window chunks from one window batch."""
        last_window = run[-1].window_index
        if last_window >= self.config.max_chunks:
            raise ChunkError(
                f"window {last_window} exceeds the stream's keystream capacity "
                f"({self.config.max_chunks} chunks)"
            )
        batch = self.cipher.window_batch(run[0].window_index, last_window + 1)
        encrypted: List[EncryptedChunk] = []
        for chunk in run:
            digest_cells = batch.encrypt_vector(chunk.digest.values, chunk.window_index)
            payload_key = batch.chunk_payload_key(chunk.window_index)
            compressed = self._codec.compress_columns(chunk.timestamps, chunk.values)
            aad = f"{self.stream_uuid}:{chunk.window_index}".encode("utf-8")
            payload = aead_encrypt(
                payload_key, compressed, aad, force_pure_python=self.use_pure_python_aead
            )
            encrypted.append(
                EncryptedChunk(
                    stream_uuid=self.stream_uuid,
                    window_index=chunk.window_index,
                    payload=payload,
                    digest=digest_cells,
                    num_points=chunk.num_points,
                )
            )
        return encrypted


def write_points(
    writer: StreamWriter, points: Iterable[DataPoint], flush: bool = True
) -> int:
    """Convenience helper: push a complete point sequence through a writer.

    Returns the number of chunks written (including the final flush).
    """
    before = writer.chunks_written
    writer.extend(points)
    if flush:
        writer.flush()
    return writer.chunks_written - before
