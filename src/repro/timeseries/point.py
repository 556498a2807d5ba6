"""Data points: the atoms of a time series stream.

A point is a ``(timestamp, value)`` pair (paper §2).  TimeCrypt's encrypted
digests operate over integers modulo 2^64, so float-valued metrics (heart
rate in bpm, CPU utilisation in percent, ...) are stored as fixed-point
integers with a per-stream scale factor; the helpers here perform that
conversion consistently on the write and read paths.

:class:`DataPoint` is a named 2-tuple: ``DataPoint(1, 2) == (1, 2)``, and a
point unpacks as ``timestamp, value = point``.  Hash, ordering and ``repr``
are those of the ``(timestamp, value)`` pair.  A point's value is already
fixed-point, so a point is not a ``(timestamp, measurement)`` record:
:func:`columns_from_records` (behind every ``insert_records``) refuses one
with :class:`TypeError` rather than scale it a second time.  Points are
stored through ``insert_points``.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial
from typing import Iterable, List, NamedTuple, Sequence, Tuple, Union

Number = Union[int, float]


class _PointFields(NamedTuple):
    timestamp: int
    value: int


class DataPoint(_PointFields):
    """A single measurement: integer timestamp plus fixed-point integer value."""

    __slots__ = ()

    def __new__(cls, timestamp: int, value: int) -> "DataPoint":
        if not isinstance(timestamp, int):
            raise TypeError("timestamps must be integers")
        if not isinstance(value, int):
            raise TypeError(
                "DataPoint values are fixed-point integers; use encode_value() "
                "to convert floats"
            )
        return tuple.__new__(cls, (timestamp, value))

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> "DataPoint":
        # Validated, like ``__new__``; ``_replace`` builds through this too.
        return cls(*iterable)


#: ``DataPoint`` from a ``(timestamp, value)`` pair of checked integers, unvalidated.
_trusted_point = partial(tuple.__new__, DataPoint)


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
    A :class:`DataPoint` among the records raises :class:`TypeError`: its
    value is already fixed-point.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    if not isinstance(records, (list, tuple)):
        records = list(records)
    if DataPoint in set(map(type, records)):
        raise TypeError(
            "a DataPoint holds a fixed-point value, not a measurement; "
            "store points with insert_points"
        )
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
    per-point type checks of ``DataPoint(...)`` are skipped and the points
    are built in one C-level pass over the column pairs.  The result is
    indistinguishable from normally constructed points.
    """
    return list(map(_trusted_point, zip(timestamps, values)))


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
