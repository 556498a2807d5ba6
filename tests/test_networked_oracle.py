"""Every deployment shape answers exactly what the plaintext oracle answers.

An owner ``TimeCrypt`` over one :class:`~repro.deploy.Deployment` of each
shape (the ``deployment`` fixture) and a ``PlaintextTimeSeriesStore`` get the
same records in the same ingest batches, cut mid-chunk.  Every clipped
``get_range`` must return exactly the oracle's points, and every
``get_stat_range`` (``sum`` / ``count`` / ``mean`` / ``var``) the oracle's
statistics or, where the oracle raises ``QueryError``, ``QueryError`` too —
before and after a ``delete_range``.  The fixture's engines cache no index
node, so every append and query reads storage.

The explicit examples are the fixed cases: irregular records with runs of
empty windows, chunk-aligned / mid-chunk / empty / past-the-head ranges,
reads after a delete, and batches whose boundaries fall on a block head
while the index's fanout² and fanout³ block boundaries fall inside one.
"""

from __future__ import annotations

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import StreamConfig, TimeCrypt
from repro.core.plaintext import PlaintextTimeSeriesStore
from repro.exceptions import QueryError

CHUNK_INTERVAL = 100
OPERATORS = ("sum", "count", "mean", "var")


def _config(codec: str, scale: int) -> StreamConfig:
    return StreamConfig(chunk_interval=CHUNK_INTERVAL, compression=codec, value_scale=scale, index_fanout=4)


#: The fixed streams run past 4³ = 64 windows.  Their ingest batches start
#: at windows 0, 9, 14, 32, 48, 62 and 69: two start at a block head, and
#: the 4² and 4³ block boundaries fall inside a batch.
FIXED_END = 70 * CHUNK_INTERVAL
FIXED_CUTS = (950, 1_450, 3_220, 4_850, 6_250)
FIXED_CONFIGS = [_config(*pair) for pair in (("delta-zlib", 10), ("zlib", 1), ("delta", 100), ("none", 10))]


def _fixed_records(seed: int):
    """Irregular timestamps in ``[0, FIXED_END)`` with two runs of empty windows."""
    rng = random.Random(seed)
    records, timestamp = [], 0
    while timestamp < FIXED_END:
        if 10 * CHUNK_INTERVAL <= timestamp < 13 * CHUNK_INTERVAL:
            timestamp = 13 * CHUNK_INTERVAL + rng.randrange(CHUNK_INTERVAL)
        elif 25 * CHUNK_INTERVAL <= timestamp < 26 * CHUNK_INTERVAL:
            timestamp = 26 * CHUNK_INTERVAL
        records.append((timestamp, rng.uniform(-500.0, 500.0)))
        timestamp += rng.randrange(1, 23)
    return [record for record in records if record[0] < FIXED_END]


def _fixed_ranges(seed: int):
    end = FIXED_END
    fixed = [
        (0, 1), (0, CHUNK_INTERVAL), (CHUNK_INTERVAL - 1, CHUNK_INTERVAL + 1),
        (950, 1350), (1000, 1300), (2450, 2650), (end - 100, end + 5000),
    ]  # fmt: skip
    rng = random.Random(seed)
    drawn = []
    for _ in range(20):
        start = rng.randrange(end)
        drawn.append((start, start + rng.randrange(1, 12 * CHUNK_INTERVAL)))
    return fixed + drawn


def _fixed_case(seed: int):
    deletion = (7 * CHUNK_INTERVAL + 50, (15 + seed) * CHUNK_INTERVAL)
    return FIXED_CONFIGS[seed], _fixed_records(seed), FIXED_CUTS, deletion, _fixed_ranges(seed)


@st.composite
def _cases(draw):
    """A stream config, its records, batch cuts, one range to delete and ranges to read."""
    codec = draw(st.sampled_from(["none", "zlib", "delta", "delta-zlib"]))
    config = _config(codec, draw(st.sampled_from([1, 10, 100])))
    # Ingest appends from window 0, so the first record falls in it.
    timestamp = draw(st.integers(0, CHUNK_INTERVAL - 1))
    gaps = draw(st.lists(st.integers(1, 3 * CHUNK_INTERVAL), max_size=120))
    values = st.floats(-500.0, 500.0)
    records = [(timestamp, draw(values))]
    for gap in gaps:
        timestamp += gap
        records.append((timestamp, draw(values)))
    span = (timestamp // CHUNK_INTERVAL + 1) * CHUNK_INTERVAL
    times = st.integers(0, span - 1)
    cuts = sorted(draw(st.lists(times, max_size=4)))
    start = draw(times)
    deletion = (start, start + draw(st.integers(1, 10 * CHUNK_INTERVAL)))
    ranges = draw(st.lists(st.tuples(times, st.integers(1, 12 * CHUNK_INTERVAL)), max_size=8))
    return config, records, cuts, deletion, [(start, start + length) for start, length in ranges]


def _batches(records, cuts):
    """Split ``records`` at the timestamps in ``cuts``."""
    bounds = [0] + [sum(1 for timestamp, _ in records if timestamp < cut) for cut in cuts] + [len(records)]
    return [records[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _stat_or_error(store, uuid, start, end, operators):
    try:
        return store.get_stat_range(uuid, start, end, operators=operators)
    except QueryError:
        return QueryError


def _assert_answers_match(owner, plain, uuid, config, ranges):
    """Range and stat answers equal the oracle's on ``ranges`` plus the edge ranges."""
    span = plain.num_windows(uuid) * CHUNK_INTERVAL
    edges = [(0, span), (span - 1, span), (span, span + 1000), (CHUNK_INTERVAL // 2, CHUNK_INTERVAL // 2)]
    operators = [op for op in OPERATORS if op in config.digest.supported_operators()]
    refused = 0
    for start, end in edges + ranges:
        assert owner.get_range(uuid, start, end) == plain.get_range(uuid, start, end), (start, end)
        expected = _stat_or_error(plain, uuid, start, end, operators)
        assert _stat_or_error(owner, uuid, start, end, operators) == expected, (start, end)
        refused += expected is QueryError
    assert refused  # the empty and past-the-head ranges were asked


@settings(max_examples=20, deadline=None)
@given(case=_cases())
@example(case=_fixed_case(0))
@example(case=_fixed_case(1))
@example(case=_fixed_case(2))
@example(case=_fixed_case(3))
def test_answers_equal_the_oracle(deployment, case):
    config, records, cuts, (start, end), ranges = case
    owner = TimeCrypt(server=deployment.client, owner_id="oracle")
    plain = PlaintextTimeSeriesStore()
    uuid = owner.create_stream(metric="oracle", config=config)
    plain.create_stream(config=config, uuid=uuid)
    for store in (owner, plain):
        for batch in _batches(records, cuts):
            store.insert_records(uuid, batch)
        store.flush(uuid)
    assert plain.get_range(uuid, 0, records[-1][0] + 1)  # the oracle holds the data
    _assert_answers_match(owner, plain, uuid, config, ranges)
    assert owner.delete_range(uuid, start, end) == plain.delete_range(uuid, start, end) > 0
    assert plain.get_range(uuid, start, end) == []
    _assert_answers_match(owner, plain, uuid, config, ranges)
