"""Client/server transport: the Netty + protobuf stand-in.

The original prototype exposes the TimeCrypt API over Netty with protobuf
messages, declared once as a schema.  Here the wire format is a hand-rolled
length-prefixed binary protocol (:mod:`repro.net.messages`,
:mod:`repro.net.framing`) over real TCP sockets (:mod:`repro.net.server`,
:mod:`repro.net.client`), and the schema's role is played by one op table,
:data:`repro.net.messages.OP_TABLE`: each op's name, scheduler class, scope
(engine, storage node, or answered locally by every tier) and routing key.
Every op-name set a tier needs is derived from it, and the client writes
each engine method once for all three calling styles.

The wire is **pipelined and request-multiplexed**: frames carry
per-request correlation ids (see :mod:`repro.net.framing` for the exact
header layout), the server runs a bounded number of handlers at once and
answers out of order, and the client multiplexes any number of in-flight
requests over one connection — ``call_many`` / ``pipeline()`` ship whole
request batches in a single round trip.  ``hello`` negotiates capabilities
up front; bytes that do not start with the frame magic close the connection.
"""

from repro.net.client import RemoteServerClient, RequestPipeline, WireStats
from repro.net.framing import (
    Frame,
    FrameAssembler,
    FrameReader,
    encode_frame_segments_v2,
    write_vectored,
)
from repro.net.messages import Request, Response
from repro.net.server import RequestDispatcher, TimeCryptTCPServer, WireDispatcher

__all__ = [
    "Request",
    "Response",
    "WireDispatcher",
    "Frame",
    "FrameAssembler",
    "FrameReader",
    "encode_frame_segments_v2",
    "write_vectored",
    "RequestDispatcher",
    "TimeCryptTCPServer",
    "RemoteServerClient",
    "RequestPipeline",
    "WireStats",
]
