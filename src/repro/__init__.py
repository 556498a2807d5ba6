"""TimeCrypt reproduction: an encrypted time series data store with cryptographic access control.

This package reimplements the system described in *TimeCrypt: Encrypted Data
Stream Processing at Scale with Cryptographic Access Control* (NSDI 2020):

* :mod:`repro.crypto` — HEAC (the additively homomorphic, access-controlled
  stream cipher), the GGM key-derivation tree, dual key regression, the
  AES-GCM payload AEAD and the P-256 token sealing.
* :mod:`repro.timeseries` — points, streams, chunking, digests, compression.
* :mod:`repro.index` — the encrypted k-ary time-partitioned aggregation index.
* :mod:`repro.storage` — the embedded replicated key-value store (Cassandra
  stand-in).
* :mod:`repro.access` — principals, policies, grants, resolution restriction,
  revocation.
* :mod:`repro.client` / :mod:`repro.server` — the trusted client engine and
  the untrusted server engine.
* :mod:`repro.core` — the Table-1 API facade (:class:`repro.TimeCrypt`) plus
  the plaintext baseline.
* :mod:`repro.baselines` — what the paper compares against (Paillier and
  EC-ElGamal strawman stores, an ABE stand-in, software AES, ChaCha20); no
  serving module imports it.
* :mod:`repro.net` — the client/server wire protocol and transports.
* :mod:`repro.workloads` — the mHealth and DevOps workload generators used in
  the evaluation.

Quickstart::

    from repro import ServerEngine, TimeCrypt

    server = ServerEngine()
    owner = TimeCrypt(server=server, owner_id="alice")
    stream = owner.create_stream(metric="heart-rate")
    owner.insert_records(stream, [(t, 60 + t % 5) for t in range(0, 60_000, 20)])
    owner.flush(stream)
    print(owner.get_stat_range(stream, 0, 60_000, operators=("mean", "count")))
"""

from repro.access.policy import AccessPolicy, Resolution
from repro.access.principal import IdentityProvider, Principal
from repro.core.plaintext import PlaintextTimeSeriesStore
from repro.core.timecrypt import TimeCrypt, TimeCryptConsumer
from repro.server.engine import ServerEngine
from repro.timeseries.digest import DigestConfig, HistogramConfig
from repro.timeseries.point import DataPoint
from repro.timeseries.stream import StreamConfig, StreamMetadata
from repro.util.timeutil import TimeRange

__version__ = "1.0.0"

__all__ = [
    "TimeCrypt",
    "TimeCryptConsumer",
    "ServerEngine",
    "PlaintextTimeSeriesStore",
    "Principal",
    "IdentityProvider",
    "AccessPolicy",
    "Resolution",
    "StreamConfig",
    "StreamMetadata",
    "DigestConfig",
    "HistogramConfig",
    "DataPoint",
    "TimeRange",
    "__version__",
]
