"""Data points: the atoms of a time series stream.

A point is a ``(timestamp, value)`` pair (paper §2).  TimeCrypt's encrypted
digests operate over integers modulo 2^64, so float-valued metrics (heart
rate in bpm, CPU utilisation in percent, ...) are stored as fixed-point
integers with a per-stream scale factor; the helpers here perform that
conversion consistently on the write and read paths.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple, Union

Number = Union[int, float]


@dataclass(frozen=True, order=True)
class DataPoint:
    """A single measurement: integer timestamp plus fixed-point integer value."""

    timestamp: int
    value: int

    def __post_init__(self) -> None:
        if not isinstance(self.timestamp, int):
            raise TypeError("timestamps must be integers")
        if not isinstance(self.value, int):
            raise TypeError(
                "DataPoint values are fixed-point integers; use encode_value() "
                "to convert floats"
            )


def encode_value(value: Number, scale: int = 1) -> int:
    """Convert a measurement to its fixed-point integer representation.

    ``scale`` is the number of integer units per 1.0 of the raw measurement
    (e.g. ``scale=100`` stores two decimal places).
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    return round(value * scale)


def decode_value(value: int, scale: int = 1) -> float:
    """Convert a fixed-point integer back into the measurement's unit."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    return value / scale


def columns_from_records(
    records: Iterable[Tuple[int, Number]], scale: int = 1
) -> Tuple[List[int], List[int]]:
    """Split ``(timestamp, measurement)`` records into fixed-point columns.

    The bulk form of ``DataPoint(timestamp, encode_value(value, scale))``:
    the same rounding and the same :class:`TypeError` for a timestamp or a
    rounded value that is not an integer, without building a point per record.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    if not isinstance(records, (list, tuple)):
        records = list(records)
    timestamps = [timestamp for timestamp, _value in records]
    values = [round(value * scale) for _timestamp, value in records]
    _require_integers(timestamps, "timestamps must be integers")
    _require_integers(values, "measurements must round to integers")
    return timestamps, values


def _require_integers(column: Sequence[object], message: str) -> None:
    # One C-level pass settles the common all-``int`` column; only a column
    # with other types in it (bool, an int subclass) is looked at per item.
    if set(map(type, column)) - {int} and not all(isinstance(item, int) for item in column):
        raise TypeError(message)


def points_from_columns(timestamps: Sequence[int], values: Sequence[int]) -> List[DataPoint]:
    """Materialise points from columns of integers the codecs or builder produced.

    Trusted constructor: the columns are already validated integers, so the
    per-point type checks of ``DataPoint(...)`` are skipped.  The result is
    indistinguishable from normally constructed points — each point gets its
    attributes the way ``__init__`` sets them, right after it is created, so
    it is also exactly as small.
    """
    new, put = object.__new__, object.__setattr__
    points: List[DataPoint] = []
    append = points.append
    for timestamp, value in zip(timestamps, values):
        point = new(DataPoint)
        put(point, "timestamp", timestamp)
        put(point, "value", value)
        append(point)
    return points


def columns_from_points(points: Iterable[DataPoint]) -> Tuple[List[int], List[int]]:
    """The ``(timestamps, values)`` columns of a point sequence."""
    materialised = points if isinstance(points, (list, tuple)) else list(points)
    return [point.timestamp for point in materialised], [point.value for point in materialised]


def clip_columns(
    timestamps: Sequence[int], values: Sequence[int], start: int, end: int
) -> Tuple[Sequence[int], Sequence[int]]:
    """The rows of time-ordered columns whose timestamp lies in ``[start, end)``."""
    low = bisect_left(timestamps, start)
    high = bisect_left(timestamps, end, low)
    if low == 0 and high == len(timestamps):
        return timestamps, values
    return timestamps[low:high], values[low:high]


def make_points(
    timestamps: Iterable[int], values: Iterable[Number], scale: int = 1
) -> List[DataPoint]:
    """Build a list of points from parallel timestamp/value sequences."""
    points = [
        DataPoint(timestamp=ts, value=encode_value(val, scale))
        for ts, val in zip(timestamps, values)
    ]
    return points


def validate_sorted(points: Iterable[DataPoint]) -> List[DataPoint]:
    """Return the points as a list, requiring non-decreasing timestamps."""
    materialised = list(points)
    for earlier, later in zip(materialised, materialised[1:]):
        if later.timestamp < earlier.timestamp:
            raise ValueError(
                f"points out of order: {later.timestamp} after {earlier.timestamp}"
            )
    return materialised
