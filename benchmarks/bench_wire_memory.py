"""Wire memory path: copies per frame, syscalls per batch, and throughput.

PR 7 moved bytes efficiently *between* machines (scheduling, credits); this
benchmark tracks how often those bytes are copied *inside* one machine.
The segment encode path plus ``sendmsg``-vectored writes and view-based
decode cost zero user-space copies on encode and at most one on decode —
without costing extra syscalls on small frames.  The join-and-``sendall``
path they replaced (three materializations between ``Request.encode()`` and
the socket, up to three more on decode) was deleted in ISSUE 19; its last
recorded rows ride along under ``historical`` in ``BENCH_wire.json``.

Four claims, measured two ways:

1. **Copies per frame** (deterministic, gated): the library's
   ``MEMORY_COUNTERS.payload_copies`` over fixed call sequences — encode 0,
   decode ≤ 1.
2. **Syscalls per batch** (deterministic, gated): a multi-frame batch costs
   one ``sendmsg`` on the vectored path and no copy.
3. **Byte identity** (deterministic, gated): the golden frames in
   ``tests/fixtures/wire/golden_frames.json`` — recorded with the deleted
   copying encoder — decode and re-encode through the segment path to
   exactly the recorded bytes.
4. **Throughput / peak memory** (wall clock, informational): bulk-ingest
   (``kv_multi_put``) and big-response (``kv_multi_get``) shapes over a real
   loopback socket, with ``tracemalloc`` peaks.

Run as a script to print the tables and refresh ``BENCH_wire.json``:

    PYTHONPATH=src python benchmarks/bench_wire_memory.py

``--smoke`` shrinks only the throughput workloads; the gated counters are
measured at fixed sizes so the CI invariant gate can compare them against
the committed baseline.  The assertions also run under plain pytest.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import time
import tracemalloc
from pathlib import Path
from typing import Dict, List

from repro.bench.reporting import ResultTable, write_json_report
from repro.net.framing import (
    MEMORY_COUNTERS,
    FrameAssembler,
    FrameReader,
    encode_frame_segments_v2,
    write_vectored,
)
from repro.net.messages import Request, Response, retain
from repro.storage.memory import MemoryStore
from repro.storage.node import StorageNodeServer
from repro.storage.remote import RemoteKeyValueStore

from conftest import scaled

#: Attachment size for the per-frame copy accounting (fixed: gated).
COPY_PROBE_BYTES = 1 << 20
#: Frames per batch for the syscall accounting (fixed: gated).
BATCH_FRAMES = 8
#: Bulk workload for the throughput arms (scaled; smoke shrinks it).
BULK_VALUES = scaled(32, minimum=8)
BULK_VALUE_BYTES = 1 << 20
#: Small-frame workload: the no-regression check for tiny messages.
SMALL_OPS = scaled(400, minimum=100)

_REPO_ROOT = Path(__file__).resolve().parent.parent
_DEFAULT_OUTPUT = _REPO_ROOT / "BENCH_wire.json"
_GOLDEN_FRAMES = _REPO_ROOT / "tests" / "fixtures" / "wire" / "golden_frames.json"


class _RecordingSink:
    """A sendmsg/write-capable sink that records bytes without a kernel."""

    def __init__(self) -> None:
        self.buffer = bytearray()

    def sendmsg(self, group) -> int:
        total = 0
        for iov in group:
            self.buffer += iov
            total += len(iov)
        return total

    def write(self, data) -> int:
        self.buffer += data
        return len(data)

    def flush(self) -> None:
        pass


def _probe_request() -> Request:
    return Request("insert_chunks", {"uuid": "bench", "count": 1}, [bytes(COPY_PROBE_BYTES)])


# ---------------------------------------------------------------------------
# 1. Copies per frame (deterministic)
# ---------------------------------------------------------------------------


def copies_per_frame() -> Dict[str, Dict[str, int]]:
    """``MEMORY_COUNTERS.payload_copies`` over one frame, per path."""
    request = _probe_request()

    MEMORY_COUNTERS.reset()
    segments = encode_frame_segments_v2(1, request.encode_segments())
    encode_copies = MEMORY_COUNTERS.payload_copies
    wire = b"".join(segments)  # what the peer's kernel hands over

    # Server-side decode: the incremental assembler copies the socket bytes
    # into the frame's own buffer once; attachments are views over it.
    MEMORY_COUNTERS.reset()
    (frame,) = FrameAssembler().feed(wire)
    decoded = Request.decode(frame.payload)
    server_decode_copies = MEMORY_COUNTERS.payload_copies
    assert retain(decoded.attachments[0]) == request.attachments[0]

    # Client-side decode: the blocking reader pulls payloads via recv_into,
    # so the bytes are touched exactly once (in the kernel).
    MEMORY_COUNTERS.reset()
    frame = FrameReader(io.BytesIO(wire)).read()
    Request.decode(frame.payload)
    client_decode_copies = MEMORY_COUNTERS.payload_copies

    MEMORY_COUNTERS.reset()
    return {
        "encode": {"zero_copy": encode_copies},
        "server_decode": {"zero_copy": server_decode_copies},
        "client_decode": {"zero_copy": client_decode_copies},
    }


# ---------------------------------------------------------------------------
# 2. Syscalls per batch (deterministic)
# ---------------------------------------------------------------------------


def syscalls_per_batch() -> Dict[str, int]:
    """Write one ``BATCH_FRAMES``-frame batch through the vectored writer."""
    requests = [
        Request("insert_chunks", {"uuid": "bench", "i": index}, [bytes(COPY_PROBE_BYTES)])
        for index in range(BATCH_FRAMES)
    ]
    MEMORY_COUNTERS.reset()
    segments: List = []
    for index, request in enumerate(requests):
        segments.extend(encode_frame_segments_v2(index + 1, request.encode_segments()))
    vector_sink = _RecordingSink()
    syscalls, total, coalesced = write_vectored(vector_sink, segments)
    vector_copies = MEMORY_COUNTERS.payload_copies
    assert bytes(vector_sink.buffer) == b"".join(segments)

    MEMORY_COUNTERS.reset()
    return {
        "batch_frames": BATCH_FRAMES,
        "batch_bytes": total,
        "zero_copy_syscalls": syscalls,
        "zero_copy_copies": vector_copies,
        "headers_coalesced": coalesced,
    }


def golden_frames_identical() -> bool:
    """Every golden frame decodes and re-encodes to exactly its recorded bytes."""
    cases = json.loads(_GOLDEN_FRAMES.read_text())["cases"]
    for case in cases.values():
        golden = bytes.fromhex(case["frame"])
        (frame,) = FrameAssembler().feed(golden)
        codec = Request if case["message"]["kind"] == "request" else Response
        message = codec.decode(frame.payload)
        segments = encode_frame_segments_v2(frame.correlation_id, message.encode_segments())
        if b"".join(segments) != golden:
            return False
    return bool(cases)


# ---------------------------------------------------------------------------
# 3. Throughput and peak memory over a real socket (informational)
# ---------------------------------------------------------------------------


def _bulk_items(num_values: int, value_bytes: int):
    return [
        (f"bulk/{index:06d}".encode(), bytes([index % 251]) * value_bytes)
        for index in range(num_values)
    ]


def run_throughput(num_values: int, value_bytes: int) -> Dict[str, float]:
    """Bulk-ingest then big-response over loopback; wall clock + alloc peak."""
    items = _bulk_items(num_values, value_bytes)
    total_bytes = sum(len(key) + len(value) for key, value in items)
    store = MemoryStore()
    with StorageNodeServer(store) as node:
        host, port = node.address
        remote = RemoteKeyValueStore(host, port, timeout=60.0)
        try:
            tracemalloc.start()
            begin = time.perf_counter()
            remote.multi_put(items)
            ingest_elapsed = time.perf_counter() - begin
            _current, ingest_peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()

            tracemalloc.start()
            begin = time.perf_counter()
            found = remote.multi_get([key for key, _value in items])
            fetch_elapsed = time.perf_counter() - begin
            _current, fetch_peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert found == dict(items)  # byte identity end to end

            begin = time.perf_counter()
            for index in range(SMALL_OPS):
                remote.put(b"small/%d" % (index % 32), b"v")
            small_elapsed = time.perf_counter() - begin
        finally:
            remote.close()
    return {
        "values": num_values,
        "total_mb": total_bytes / 1e6,
        "ingest_seconds": ingest_elapsed,
        "ingest_mb_per_s": total_bytes / 1e6 / ingest_elapsed if ingest_elapsed else 0.0,
        "ingest_peak_mb": ingest_peak / 1e6,
        "fetch_seconds": fetch_elapsed,
        "fetch_mb_per_s": total_bytes / 1e6 / fetch_elapsed if fetch_elapsed else 0.0,
        "fetch_peak_mb": fetch_peak / 1e6,
        "small_ops_per_s": SMALL_OPS / small_elapsed if small_elapsed else 0.0,
    }


# ---------------------------------------------------------------------------
# Assertions (collected by pytest, reused by the script)
# ---------------------------------------------------------------------------


def test_copies_per_frame_meet_acceptance():
    """Encode: 0 copies.  Decode: ≤ 1 (server assembler) / 0 (client reader)."""
    copies = copies_per_frame()
    assert copies["encode"]["zero_copy"] == 0
    assert copies["server_decode"]["zero_copy"] <= 1
    assert copies["client_decode"]["zero_copy"] == 0


def test_vectored_batch_is_one_syscall_and_no_copy():
    syscalls = syscalls_per_batch()
    assert syscalls["zero_copy_syscalls"] == 1
    assert syscalls["zero_copy_copies"] == 0
    # Two small segments per frame (frame header + message header) coalesce.
    assert syscalls["headers_coalesced"] == 2 * syscalls["batch_frames"]


def test_golden_frames_are_byte_identical():
    assert golden_frames_identical()


def test_throughput_run_is_byte_identical():
    """Smoke-sized throughput run; the multi_get assert checks identity."""
    run_throughput(4, 1 << 18)


# ---------------------------------------------------------------------------
# Script entry point: tables + BENCH_wire.json baseline
# ---------------------------------------------------------------------------


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced-iteration CI mode: small throughput workload, same gated counters",
    )
    parser.add_argument(
        "--output",
        default=os.environ.get("BENCH_OUTPUT", str(_DEFAULT_OUTPUT)),
        help="path of the JSON baseline to write",
    )
    args = parser.parse_args(argv)
    num_values = 8 if args.smoke else BULK_VALUES
    value_bytes = (1 << 18) if args.smoke else BULK_VALUE_BYTES

    results: Dict[str, object] = {"smoke": args.smoke}

    # The deleted copy path's last recorded rows ride along, frozen.
    with open(_DEFAULT_OUTPUT, "r", encoding="utf-8") as handle:
        historical = json.load(handle)["results"]["historical"]

    copies = copies_per_frame()
    copy_table = ResultTable(
        title="Full-payload copies per frame — 1 MiB attachment, library counters",
        columns=["path", "copy path (historical)", "now"],
    )
    for path in ("encode", "server_decode", "client_decode"):
        copy_table.add_row(
            path, str(historical["copies"][path]["legacy"]), str(copies[path]["zero_copy"])
        )
    copy_table.add_note("acceptance: encode 0 and decode <= 1")
    copy_table.print()
    results["copies"] = copies

    syscalls = syscalls_per_batch()
    syscall_table = ResultTable(
        title=f"Syscalls per {BATCH_FRAMES}-frame batch ({syscalls['batch_bytes'] >> 20} MiB)",
        columns=["path", "syscalls", "payload copies"],
    )
    syscall_table.add_row("vectored sendmsg", str(syscalls["zero_copy_syscalls"]), str(syscalls["zero_copy_copies"]))
    syscall_table.add_note(f"{syscalls['headers_coalesced']} small header segments coalesced into one iovec run")
    syscall_table.print()
    results["syscalls"] = syscalls

    row = run_throughput(num_values, value_bytes)
    throughput_table = ResultTable(
        title=(
            f"Bulk wire throughput — {row['total_mb']:.0f} MB over loopback "
            f"({num_values} values, tracemalloc on)"
        ),
        columns=["ingest MB/s", "ingest peak MB", "fetch MB/s", "fetch peak MB", "small ops/s"],
    )
    throughput_table.add_row(
        f"{row['ingest_mb_per_s']:.0f}",
        f"{row['ingest_peak_mb']:.1f}",
        f"{row['fetch_mb_per_s']:.0f}",
        f"{row['fetch_peak_mb']:.1f}",
        f"{row['small_ops_per_s']:.0f}",
    )
    throughput_table.add_note("values read back byte-identical (asserted in run_throughput)")
    throughput_table.print()
    results["throughput"] = {"zero_copy": row}
    results["byte_identity"] = {"identical": golden_frames_identical()}

    results["historical"] = historical

    print(f"baseline written to {write_json_report(args.output, results)}")


if __name__ == "__main__":
    main()
