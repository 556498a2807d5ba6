"""Chunk digests: the statistical summaries HEAC encrypts (paper §4.1, §4.5).

Every chunk carries a digest — a vector of aggregates over the chunk's points.
The digest layout is configured per stream and determines which statistical
queries the server can answer:

* ``sum`` and ``count``  → SUM, COUNT, MEAN
* ``sum_of_squares``     → VAR, STDEV (via E[x²] − E[x]²)
* histogram bin counts   → HISTOGRAM, MIN/MAX (first/last non-empty bin) and
  frequency counts, without order-revealing encryption.

Digests combine by component-wise addition, which is exactly the operation
HEAC supports homomorphically; the plaintext :class:`Digest` here is used by
the client before encryption, by the plaintext baseline system, and by tests
as the ground truth the encrypted path must match.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import mul, sub
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError, QueryError
from repro.timeseries.point import DataPoint

#: Operators servable from each digest capability.
LINEAR_OPERATORS = ("sum", "count", "mean")
QUADRATIC_OPERATORS = ("var", "stdev")
HISTOGRAM_OPERATORS = ("freq", "min", "max", "histogram")


@dataclass(frozen=True)
class HistogramConfig:
    """Fixed bin boundaries for the frequency-count part of the digest.

    ``boundaries`` are the inner edges; values below the first edge fall in
    bin 0, values at or above the last edge fall in the last bin, giving
    ``len(boundaries) + 1`` bins.
    """

    boundaries: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if list(self.boundaries) != sorted(self.boundaries):
            raise ConfigurationError("histogram boundaries must be sorted")
        if len(set(self.boundaries)) != len(self.boundaries):
            raise ConfigurationError("histogram boundaries must be distinct")

    @property
    def num_bins(self) -> int:
        return len(self.boundaries) + 1 if self.boundaries else 0

    def bin_of(self, value: int) -> int:
        """Index of the bin containing ``value``."""
        if not self.boundaries:
            raise QueryError("histogram is not configured for this stream")
        return bisect_right(self.boundaries, value)

    def bin_counts(self, values: Sequence[int]) -> List[int]:
        """How many of ``values`` fall in each bin (one sort, one bisect per edge)."""
        ordered = sorted(values)
        below = [bisect_left(ordered, edge) for edge in self.boundaries]
        return list(map(sub, below + [len(ordered)], [0] + below))

    def bin_range(self, index: int) -> Tuple[Optional[int], Optional[int]]:
        """The half-open value interval ``[lo, hi)`` of bin ``index`` (None = unbounded)."""
        if not 0 <= index < self.num_bins:
            raise QueryError(f"bin index {index} out of range")
        lo = self.boundaries[index - 1] if index > 0 else None
        hi = self.boundaries[index] if index < len(self.boundaries) else None
        return lo, hi


@dataclass(frozen=True)
class DigestConfig:
    """Which aggregates each chunk digest carries."""

    include_sum: bool = True
    include_count: bool = True
    include_sum_of_squares: bool = True
    histogram: HistogramConfig = field(default_factory=HistogramConfig)

    @property
    def width(self) -> int:
        """Number of integer components in the digest vector."""
        return (
            int(self.include_sum)
            + int(self.include_count)
            + int(self.include_sum_of_squares)
            + self.histogram.num_bins
        )

    @property
    def component_names(self) -> Tuple[str, ...]:
        names: List[str] = []
        if self.include_sum:
            names.append("sum")
        if self.include_count:
            names.append("count")
        if self.include_sum_of_squares:
            names.append("sum_sq")
        names.extend(f"bin_{i}" for i in range(self.histogram.num_bins))
        return tuple(names)

    def supported_operators(self) -> Tuple[str, ...]:
        ops: List[str] = []
        if self.include_sum:
            ops.append("sum")
        if self.include_count:
            ops.append("count")
        if self.include_sum and self.include_count:
            ops.append("mean")
        if self.include_sum_of_squares and self.include_sum and self.include_count:
            ops.extend(QUADRATIC_OPERATORS)
        if self.histogram.num_bins:
            ops.extend(HISTOGRAM_OPERATORS)
        return tuple(ops)

    def supports(self, operator: str) -> bool:
        return operator in self.supported_operators()


@dataclass
class Digest:
    """A plaintext digest vector together with its configuration."""

    config: DigestConfig
    values: List[int]

    def __post_init__(self) -> None:
        if len(self.values) != self.config.width:
            raise ConfigurationError(
                f"digest has {len(self.values)} components, config expects {self.config.width}"
            )

    # -- construction ---------------------------------------------------------

    @classmethod
    def zero(cls, config: DigestConfig) -> "Digest":
        return cls(config=config, values=[0] * config.width)

    @classmethod
    def of_values(cls, config: DigestConfig, values: Sequence[int]) -> "Digest":
        """Compute the digest of a chunk's value column: one pass per component."""
        cells: List[int] = []
        if config.include_sum:
            cells.append(sum(values))
        if config.include_count:
            cells.append(len(values))
        if config.include_sum_of_squares:
            cells.append(sum(map(mul, values, values)))
        if config.histogram.num_bins:
            cells.extend(config.histogram.bin_counts(values))
        return cls(config=config, values=cells)

    @classmethod
    def of_points(cls, config: DigestConfig, points: Iterable[DataPoint]) -> "Digest":
        """Compute the digest of a chunk's points."""
        return cls.of_values(config, [point.value for point in points])

    def add_point(self, point: DataPoint) -> None:
        single = Digest.of_values(self.config, (point.value,))
        self.values[:] = [a + b for a, b in zip(self.values, single.values)]

    # -- combination ----------------------------------------------------------

    def __add__(self, other: "Digest") -> "Digest":
        if not isinstance(other, Digest):
            return NotImplemented
        if other.config != self.config:
            raise ConfigurationError("cannot combine digests with different configurations")
        return Digest(
            config=self.config,
            values=[a + b for a, b in zip(self.values, other.values)],
        )

    # -- component access -------------------------------------------------------

    def _component(self, name: str) -> int:
        try:
            index = self.config.component_names.index(name)
        except ValueError:
            raise QueryError(f"digest does not carry component '{name}'") from None
        return self.values[index]

    @property
    def sum(self) -> int:
        return self._component("sum")

    @property
    def count(self) -> int:
        return self._component("count")

    @property
    def sum_of_squares(self) -> int:
        return self._component("sum_sq")

    @property
    def histogram_counts(self) -> List[int]:
        bins = self.config.histogram.num_bins
        if not bins:
            raise QueryError("histogram is not configured for this stream")
        return self.values[-bins:]

    # -- derived statistics ------------------------------------------------------

    def mean(self) -> float:
        count = self.count
        if count == 0:
            raise QueryError("cannot compute the mean of an empty range")
        return self.sum / count

    def variance(self) -> float:
        """Population variance via E[x²] − E[x]²."""
        count = self.count
        if count == 0:
            raise QueryError("cannot compute the variance of an empty range")
        mean = self.sum / count
        return self.sum_of_squares / count - mean * mean

    def stdev(self) -> float:
        return max(0.0, self.variance()) ** 0.5

    def min_bin(self) -> int:
        """Index of the lowest non-empty histogram bin (the MIN approximation)."""
        for index, bin_count in enumerate(self.histogram_counts):
            if bin_count:
                return index
        raise QueryError("cannot compute MIN of an empty range")

    def max_bin(self) -> int:
        """Index of the highest non-empty histogram bin (the MAX approximation)."""
        counts = self.histogram_counts
        for index in range(len(counts) - 1, -1, -1):
            if counts[index]:
                return index
        raise QueryError("cannot compute MAX of an empty range")

    def evaluate(self, operator: str) -> object:
        """Evaluate a named statistical operator against this digest."""
        operator = operator.lower()
        if not self.config.supports(operator):
            raise QueryError(f"operator '{operator}' is not supported by this digest layout")
        if operator == "sum":
            return self.sum
        if operator == "count":
            return self.count
        if operator == "mean":
            return self.mean()
        if operator == "var":
            return self.variance()
        if operator == "stdev":
            return self.stdev()
        if operator in ("freq", "histogram"):
            return list(self.histogram_counts)
        if operator == "min":
            return self.config.histogram.bin_range(self.min_bin())
        if operator == "max":
            return self.config.histogram.bin_range(self.max_bin())
        raise QueryError(f"unknown operator '{operator}'")


def sum_digests(digests: Sequence[Digest]) -> Digest:
    """Combine a non-empty sequence of digests."""
    if not digests:
        raise QueryError("cannot combine an empty digest sequence")
    total = digests[0]
    for digest in digests[1:]:
        total = total + digest
    return total
