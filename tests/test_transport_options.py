"""The transport constructors' and the deployment's options, pinned by name.

Every parameter below is a value some caller sets; options that nothing set
were folded into the constants they defaulted to.  A change that adds,
drops or renames an option has to edit this list, so the knob count is
decided in review, the way ``test_op_table.py`` decides the wire ops.
"""

from __future__ import annotations

import inspect

import pytest

from repro.deploy import Deployment
from repro.net.client import RemoteServerClient, ShardedServerClient
from repro.net.server import TimeCryptTCPServer
from repro.server.router import EngineShardServer, StreamRouter
from repro.storage.node import StorageNodeServer
from repro.storage.remote import RemoteKeyValueStore

_OPTIONS = {
    TimeCryptTCPServer: [
        "engine",
        "host",
        "port",
        "max_workers",
        "dispatcher",
        "credit_window",
        "bulk_queue_limit",
        "retry_after_ms",
        "tracing",
        "node_name",
    ],
    StorageNodeServer: [
        "store",
        "host",
        "port",
        "max_workers",
        "credit_window",
        "bulk_queue_limit",
        "node_name",
        "tracing",
    ],
    EngineShardServer: ["name", "engine", "table_ref", "host", "port", "max_workers"],
    StreamRouter: ["table_ref", "host", "port", "max_workers", "timeout"],
    RemoteServerClient: ["host", "port", "timeout", "flow_control", "overload_retries", "tracing"],
    ShardedServerClient: ["host", "port", "timeout", "flow_control", "overload_retries", "tracing"],
    RemoteKeyValueStore: [
        "host",
        "port",
        "timeout",
        "overload_retries",
        "tracing",
    ],
    Deployment: ["shape", "engines", "tracing", "index_cache_bytes"],
}


@pytest.mark.parametrize("transport", list(_OPTIONS), ids=lambda cls: cls.__name__)
def test_constructor_options_are_exactly_the_pinned_list(transport):
    assert list(inspect.signature(transport).parameters) == _OPTIONS[transport]
