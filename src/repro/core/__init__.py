"""The TimeCrypt public API (Table 1) and the plaintext baseline it is compared to."""

from repro.core.plaintext import PlaintextTimeSeriesStore
from repro.core.timecrypt import TimeCrypt, TimeCryptConsumer

__all__ = [
    "TimeCrypt",
    "TimeCryptConsumer",
    "PlaintextTimeSeriesStore",
]
