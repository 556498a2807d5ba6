"""The strawman configurations: Paillier and EC-ElGamal encrypted indices.

The paper's evaluation compares TimeCrypt against "an encrypted database"
strawman in which the per-chunk digest is encrypted with a conventional
additively homomorphic public-key scheme — Paillier or lifted EC-ElGamal —
instead of HEAC.  Everything else (chunking, index shape, storage layout)
matches TimeCrypt, which isolates the cost of the digest cipher:

* ciphertext expansion inflates the index (Table 2's "Index Size"),
* expensive homomorphic additions slow ingest and queries (Table 2, Fig. 5, 7),
* decryption is orders of magnitude slower (Table 3).

The strawman store keeps the private key client-side conceptually, but since
this facade exists purely for benchmarking, the same object exposes decrypt
helpers as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.baselines.ecelgamal import ECElGamal, ECElGamalCiphertext
from repro.baselines.paillier import PaillierPublicKey, generate_keypair
from repro.exceptions import ConfigurationError, QueryError, StreamExistsError, StreamNotFoundError
from repro.index.cache import NodeCache
from repro.index.node import DigestCombiner
from repro.index.tree import AggregationIndex
from repro.storage.kv import KeyValueStore
from repro.storage.memory import MemoryStore
from repro.timeseries.chunk import Chunk, ChunkBuilder
from repro.timeseries.digest import Digest
from repro.timeseries.point import DataPoint
from repro.timeseries.stream import StreamConfig, StreamMetadata
from repro.util.encoding import decode_varint, encode_varint

#: Default Paillier modulus size for benchmarks.  The paper uses 3072-bit keys
#: (128-bit security); key generation and exponentiation at that size are very
#: slow in pure Python, so the benchmark harness passes the size explicitly and
#: reports which was used.
DEFAULT_PAILLIER_BITS = 1024


class _PaillierScheme:
    """Digest cipher adapter for Paillier."""

    name = "paillier"

    def __init__(self, key_bits: int = DEFAULT_PAILLIER_BITS) -> None:
        self._public, self._private = generate_keypair(key_bits)

    @property
    def public_key(self) -> PaillierPublicKey:
        return self._public

    @property
    def ciphertext_bytes(self) -> int:
        return self._public.ciphertext_bytes

    def encrypt(self, value: int) -> int:
        return self._public.encrypt(value)

    def add(self, a: int, b: int) -> int:
        return self._public.add(a, b)

    def decrypt(self, ciphertext: int) -> int:
        return self._private.decrypt(ciphertext)

    def encode(self, cells: Sequence[int]) -> bytes:
        width = self.ciphertext_bytes
        out = bytearray(encode_varint(len(cells)))
        for cell in cells:
            out += cell.to_bytes(width, "big")
        return bytes(out)

    def decode(self, blob: bytes) -> List[int]:
        width = self.ciphertext_bytes
        count, pos = decode_varint(blob, 0)
        cells = []
        for _ in range(count):
            cells.append(int.from_bytes(blob[pos : pos + width], "big"))
            pos += width
        return cells

    def combiner(self) -> DigestCombiner:
        return DigestCombiner(add=self.add, size_of=lambda _cell: self.ciphertext_bytes)


class _ECElGamalScheme:
    """Digest cipher adapter for additive EC-ElGamal."""

    name = "ec-elgamal"

    def __init__(self, max_plaintext: int = 1 << 32) -> None:
        self._scheme = ECElGamal.generate(max_plaintext=max_plaintext)

    @property
    def ciphertext_bytes(self) -> int:
        return 2 * 65  # two uncompressed P-256 points

    def encrypt(self, value: int) -> ECElGamalCiphertext:
        return self._scheme.encrypt(value)

    def add(self, a: ECElGamalCiphertext, b: ECElGamalCiphertext) -> ECElGamalCiphertext:
        return ECElGamal.add(a, b)

    def decrypt(self, ciphertext: ECElGamalCiphertext) -> int:
        return self._scheme.decrypt(ciphertext)

    def encode(self, cells: Sequence[ECElGamalCiphertext]) -> bytes:
        out = bytearray(encode_varint(len(cells)))
        for cell in cells:
            out += cell.encode()
        return bytes(out)

    def decode(self, blob: bytes) -> List[ECElGamalCiphertext]:
        from repro.crypto.ecc import Point

        count, pos = decode_varint(blob, 0)
        cells: List[ECElGamalCiphertext] = []
        for _ in range(count):
            c1 = Point.decode(blob[pos : pos + 65])
            c2 = Point.decode(blob[pos + 65 : pos + 130])
            cells.append(ECElGamalCiphertext(c1=c1, c2=c2))
            pos += 130
        return cells

    def combiner(self) -> DigestCombiner:
        return DigestCombiner(add=self.add, size_of=lambda _cell: self.ciphertext_bytes)


@dataclass
class _StrawmanStream:
    metadata: StreamMetadata
    index: AggregationIndex
    builder: ChunkBuilder


@dataclass
class StrawmanStore:
    """A TimeCrypt-shaped store whose digests use Paillier or EC-ElGamal.

    Only the digest/index path is modelled (the part the paper benchmarks);
    raw payload encryption is identical to TimeCrypt and therefore omitted
    here to keep the comparison focused on the homomorphic scheme.
    """

    scheme_name: str = "paillier"
    paillier_bits: int = DEFAULT_PAILLIER_BITS
    ec_max_plaintext: int = 1 << 32
    store: KeyValueStore = field(default_factory=MemoryStore)
    index_cache_bytes: int = 64 * 1024 * 1024
    _scheme: object = field(init=False)
    _streams: Dict[str, _StrawmanStream] = field(default_factory=dict, init=False)
    _cache: NodeCache = field(init=False)

    def __post_init__(self) -> None:
        if self.scheme_name == "paillier":
            self._scheme = _PaillierScheme(self.paillier_bits)
        elif self.scheme_name == "ec-elgamal":
            self._scheme = _ECElGamalScheme(self.ec_max_plaintext)
        else:
            raise ConfigurationError(
                f"unknown strawman scheme '{self.scheme_name}' (use 'paillier' or 'ec-elgamal')"
            )
        self._cache = NodeCache(
            capacity_bytes=self.index_cache_bytes, cell_size=self._scheme.ciphertext_bytes
        )

    @property
    def ciphertext_bytes(self) -> int:
        return self._scheme.ciphertext_bytes

    # -- stream lifecycle ---------------------------------------------------------

    def create_stream(
        self, metric: str = "", config: Optional[StreamConfig] = None, uuid: Optional[str] = None
    ) -> str:
        metadata = StreamMetadata.new(owner_id="strawman", metric=metric, config=config)
        if uuid is not None:
            metadata.uuid = uuid
        if metadata.uuid in self._streams:
            raise StreamExistsError(f"stream '{metadata.uuid}' already exists")
        index = AggregationIndex(
            stream_uuid=metadata.uuid,
            store=self.store,
            combiner=self._scheme.combiner(),
            encode_cells=self._scheme.encode,
            decode_cells=self._scheme.decode,
            fanout=metadata.config.index_fanout,
            cache=self._cache,
            max_windows=metadata.config.max_chunks,
        )
        self._streams[metadata.uuid] = _StrawmanStream(
            metadata=metadata, index=index, builder=ChunkBuilder(config=metadata.config)
        )
        return metadata.uuid

    def list_streams(self) -> List[str]:
        return sorted(self._streams)

    # -- ingest --------------------------------------------------------------------

    def insert_record(self, uuid: str, timestamp: int, value: float) -> None:
        state = self._stream(uuid)
        self._ingest_chunks(state, state.builder.extend_records(((timestamp, value),)))

    def insert_points(self, uuid: str, points: Sequence[DataPoint]) -> None:
        state = self._stream(uuid)
        self._ingest_chunks(state, state.builder.extend(points))

    def flush(self, uuid: str) -> None:
        state = self._stream(uuid)
        self._ingest_chunks(state, state.builder.flush())

    def ingest_digest(self, uuid: str, digest_values: Sequence[int]) -> None:
        """Directly append an already-computed digest (benchmark fast path)."""
        state = self._stream(uuid)
        cells = [self._scheme.encrypt(value) for value in digest_values]
        state.index.append(cells)

    def _ingest_chunks(self, state: _StrawmanStream, chunks: List[Chunk]) -> None:
        for chunk in chunks:
            cells = [self._scheme.encrypt(value) for value in chunk.digest.values]
            state.index.append(cells)

    # -- queries -----------------------------------------------------------------------

    def stat_range_windows(self, uuid: str, window_start: int, window_end: int) -> List[object]:
        """The encrypted aggregate cells over a window interval."""
        return self._stream(uuid).index.query_range(window_start, window_end)

    def get_stat_range(
        self, uuid: str, start: int, end: int, operators: Sequence[str] = ("sum", "count", "mean")
    ) -> Dict[str, object]:
        state = self._stream(uuid)
        config = state.metadata.config
        head = state.index.num_windows
        if head == 0:
            raise QueryError("no ingested data")
        window_start = min(max(0, start - config.start_time) // config.chunk_interval, head)
        window_end = min(
            (max(0, end - config.start_time) + config.chunk_interval - 1) // config.chunk_interval,
            head,
        )
        cells = state.index.query_range(window_start, window_end)
        values = [self._scheme.decrypt(cell) for cell in cells]
        digest = Digest(config=config.digest, values=values)
        return {operator: digest.evaluate(operator) for operator in operators}

    def decrypt_cells(self, cells: Sequence[object]) -> List[int]:
        return [self._scheme.decrypt(cell) for cell in cells]

    # -- accounting -----------------------------------------------------------------------

    def index_size_bytes(self, uuid: str) -> int:
        return self._stream(uuid).index.size_bytes()

    def num_windows(self, uuid: str) -> int:
        return self._stream(uuid).index.num_windows

    def _stream(self, uuid: str) -> _StrawmanStream:
        state = self._streams.get(uuid)
        if state is None:
            raise StreamNotFoundError(f"unknown stream '{uuid}'")
        return state
