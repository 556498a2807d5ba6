"""The leader/followers transport: who reads a socket, and when the role moves.

Neither end of the wire owns a dedicated I/O thread any more.  On the
client the caller that needs the bytes reads them; on the server one of
``max_workers + 1`` symmetric threads leads (select → recv → admit) and runs
small interactive requests itself.  These tests pin the properties that
design has to keep:

- no reader / I/O-loop / dispatch-pool thread exists, and an idle server
  holds at most two threads;
- callers multiplexed on one client never wait on each other's slow
  responses, whichever of them happens to hold the reader role;
- a sender out of credits drives the reads that refill its window;
- EOF and a truncated frame fail *every* pending call with a typed error,
  and deadlines hold with nobody else reading;
- a handler about to wait on another tier gives up leadership first, so
  pings are answered and floods are shed while it is parked;
- ``max_workers`` still bounds concurrently running handlers.
"""

from __future__ import annotations

import socket
import sys
import threading
import time
from typing import Callable, List

import pytest

from repro.crypto.heac import HEACCiphertext
from repro.deploy import Deployment
from repro.exceptions import QueryError, TransportError
from repro.net.client import RemoteServerClient, ShardedServerClient
from repro.net.framing import FrameAssembler, FrameReader
from repro.net.messages import OPERATIONS, Request, Response, ShardRoutingTable, stat_to_json
from repro.net.server import TimeCryptTCPServer, WireDispatcher
from repro.server.query_executor import StatQueryResult
from repro.server.router import RouterDispatcher, RoutingTableRef
from repro.storage.cluster import StorageCluster
from repro.storage.memory import MemoryStore
from repro.storage.node import StorageNodeServer
from repro.storage.remote import RemoteKeyValueStore
from repro.util.blocking import before_blocking
from repro.util.timeutil import TimeRange

from test_net_pipeline import _frame

_RETIRED_THREAD_NAMES = ("tc-client-reader", "tc-io-loop", "tc-dispatch", "tc-shed", "tc-router-fanout")


def _wait_until(predicate: Callable[[], bool], timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.002)
    raise AssertionError("condition not reached within timeout")


class _Gate:
    """A wait handlers can park on — announced, as the handler contract demands."""

    def __init__(self) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()

    def park(self) -> None:
        self.entered.set()
        before_blocking()
        self.release.wait(10)


class _SleepyDispatcher(WireDispatcher):
    """``ping`` sleeps ``sleep_ms`` (announced); tracks handler concurrency."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.running = 0
        self.peak = 0

    def _op_ping(self, request: Request) -> Response:
        with self._lock:
            self.running += 1
            self.peak = max(self.peak, self.running)
        try:
            delay_ms = request.args.get("sleep_ms", 0)
            if delay_ms:
                before_blocking()
                time.sleep(delay_ms / 1000.0)
            return Response.success(
                {"pong": True, "slept_ms": delay_ms, "token": request.args.get("token")}
            )
        finally:
            with self._lock:
                self.running -= 1


# -- (a) no dedicated I/O threads ----------------------------------------------------


def test_no_reader_io_loop_or_pool_threads_and_an_idle_server_is_small():
    with TimeCryptTCPServer(dispatcher=_SleepyDispatcher(), node_name="lean") as server:
        host, port = server.address
        with RemoteServerClient(host, port) as remote:
            for _ in range(1000):
                assert remote.ping()
            names = [thread.name for thread in threading.enumerate()]
            assert not [name for name in names if name.startswith(_RETIRED_THREAD_NAMES)]
            # Sequential small requests are run by the leader itself.
            assert len([name for name in names if name.startswith("tc-serve[lean]")]) <= 2
    assert not [t for t in threading.enumerate() if t.name.startswith("tc-serve[lean]")]


# -- (b) reader hand-over between callers sharing one client -------------------------


def _timed_ping(remote: RemoteServerClient, sleep_ms: int, out: List[float]) -> None:
    begin = time.monotonic()
    response = remote.call_many([Request("ping", {"sleep_ms": sleep_ms})])[0]
    assert response.ok and response.result["slept_ms"] == sleep_ms
    out.append(time.monotonic() - begin)


def test_fast_caller_does_not_wait_for_the_slow_reader():
    """Slow caller holds the reader role; it resolves the parked fast caller."""
    with TimeCryptTCPServer(dispatcher=_SleepyDispatcher()) as server:
        with RemoteServerClient(*server.address) as remote:
            slow_took: List[float] = []
            fast_took: List[float] = []
            slow = threading.Thread(target=_timed_ping, args=(remote, 600, slow_took))
            slow.start()
            _wait_until(lambda: remote._reading)
            _timed_ping(remote, 0, fast_took)
            slow.join(timeout=10)
            assert fast_took[0] < 0.3
            assert 0.55 < slow_took[0] < 2.0


def test_reader_role_is_handed_to_the_caller_still_waiting():
    """The reader finishes first; the parked slow caller must take over the reads."""
    with TimeCryptTCPServer(dispatcher=_SleepyDispatcher()) as server:
        with RemoteServerClient(*server.address, timeout=5.0) as remote:
            medium_took: List[float] = []
            slow_took: List[float] = []
            medium = threading.Thread(target=_timed_ping, args=(remote, 200, medium_took))
            medium.start()
            _wait_until(lambda: remote._reading)
            slow = threading.Thread(target=_timed_ping, args=(remote, 600, slow_took))
            slow.start()
            medium.join(timeout=10)
            slow.join(timeout=10)
            assert 0.15 < medium_took[0] < 0.5
            # Not the 5 s timeout: it read its own response after the hand-over.
            assert 0.55 < slow_took[0] < 2.0
            assert not remote._reading and not remote._parked


# -- (c) a sender out of credits drives the reads ------------------------------------


def test_single_thread_batch_beyond_the_window_completes():
    with TimeCryptTCPServer(dispatcher=_SleepyDispatcher(), credit_window=8) as server:
        with RemoteServerClient(*server.address) as remote:
            window = remote.credit_window
            assert window == 8
            responses = remote.call_many([Request("ping") for _ in range(4 * window)])
            assert len(responses) == 4 * window and all(r.ok for r in responses)
            assert remote.wire_stats.credit_stalls >= 1
            assert remote.credits_available == window
            assert not remote._pending
        assert server.scheduler_stats()["max_in_flight"] <= 8


# -- (d) EOF, truncation and silence fail pending calls with typed errors ------------


class _ScriptedPeer:
    """A raw-socket v2 peer: answers ``hello``, then runs ``script(sock, frames)``."""

    def __init__(self, script: Callable[[socket.socket, List], None], expect: int) -> None:
        self._script = script
        self._expect = expect
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._thread = threading.Thread(target=self._run, daemon=True)

    @property
    def address(self):
        return self._listener.getsockname()

    def __enter__(self) -> "_ScriptedPeer":
        self._thread.start()
        return self

    def __exit__(self, *_exc_info: object) -> None:
        self._listener.close()
        self._thread.join(timeout=5)

    def _run(self) -> None:
        try:
            sock, _address = self._listener.accept()
        except OSError:
            return
        with sock:
            hello = FrameReader(sock).read()
            reply = Response.success({"protocol": 2, "operations": list(OPERATIONS), "credits": 16})
            sock.sendall(_frame(hello.correlation_id, reply.encode()))
            assembler = FrameAssembler()
            frames: List = []
            while len(frames) < self._expect:
                data = sock.recv(65536)
                if not data:
                    return
                frames.extend(assembler.feed(data))
            self._script(sock, frames)


def _hang_up(sock: socket.socket, _frames: List) -> None:
    sock.shutdown(socket.SHUT_RDWR)


def _truncate(sock: socket.socket, frames: List) -> None:
    whole = _frame(frames[0].correlation_id, Response.success({"pong": True}).encode())
    sock.sendall(whole[: len(whole) - 5])
    sock.shutdown(socket.SHUT_RDWR)


@pytest.mark.parametrize("script", [_hang_up, _truncate], ids=["eof", "truncated-frame"])
def test_connection_loss_mid_wait_fails_every_pending_call(script):
    with _ScriptedPeer(script, expect=3) as peer:
        remote = RemoteServerClient(*peer.address, timeout=5.0)
        try:
            outcomes: List[BaseException] = []

            def call() -> None:
                try:
                    remote.ping()
                except BaseException as exc:  # noqa: BLE001 — collected for the assertions
                    outcomes.append(exc)

            # Two callers (one reading, one parked) plus one call nobody awaits yet.
            callers = [threading.Thread(target=call) for _ in range(2)]
            callers[0].start()
            _wait_until(lambda: remote._reading)
            callers[1].start()
            _wait_until(lambda: len(remote._parked) == 1)
            orphan = remote._send_requests([Request("ping")])[0]
            begin = time.monotonic()
            for caller in callers:
                caller.join(timeout=5)
            assert time.monotonic() - begin < 2.0  # typed failure, not the 5 s timeout
            assert len(outcomes) == 2 and all(isinstance(exc, TransportError) for exc in outcomes)
            with pytest.raises(TransportError):
                orphan.result(timeout=1)
            assert not remote._pending
            assert remote.credits_available == remote.credit_window == 16
        finally:
            remote.close()


def test_deadline_holds_with_nobody_else_reading():
    """A peer that accepts and never answers: typed timeout, nothing left behind."""
    silent = threading.Event()
    with _ScriptedPeer(lambda _sock, _frames: silent.wait(10), expect=2) as peer:
        remote = RemoteServerClient(*peer.address, timeout=0.3)
        try:
            begin = time.monotonic()
            with pytest.raises(TransportError, match="timed out"):
                remote.ping()
            assert 0.25 < time.monotonic() - begin < 1.5
            assert not remote._pending and not remote._reading
            assert remote.credits_available == remote.credit_window
            # The whole window is usable again, and later calls still time out typed.
            with pytest.raises(TransportError, match="timed out"):
                remote.ping()
        finally:
            silent.set()
            remote.close()


def test_close_fails_pending_calls_itself():
    parked = threading.Event()
    with _ScriptedPeer(lambda _sock, _frames: parked.wait(10), expect=2) as peer:
        remote = RemoteServerClient(*peer.address, timeout=5.0)
        # Nobody awaits these: with no reader thread, only close() can fail them.
        calls = remote._send_requests([Request("ping"), Request("ping")])
        assert remote.credits_available == remote.credit_window - 2
        remote.close()
        parked.set()
        for call in calls:
            assert call.done()
            with pytest.raises(TransportError, match="connection closed"):
                call.result(timeout=1)
        assert not remote._pending
        assert remote.credits_available == remote.credit_window


def test_tcp_nodelay_on_both_ends_of_a_live_connection():
    with TimeCryptTCPServer(dispatcher=_SleepyDispatcher()) as server:
        with RemoteServerClient(*server.address) as remote:
            assert remote.ping()
            assert remote._socket.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            (accepted,) = list(server._connections)
            assert accepted.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


# -- (e)/(f) a handler waiting on another tier is not leading while it waits ---------


class _FrontDispatcher(WireDispatcher):
    """``stream_head`` (interactive) runs ``work``; ``delete_stream`` (bulk) parks."""

    def __init__(self, work: Callable[[], None]) -> None:
        self._work = work
        self.bulk_gate = _Gate()

    def _op_stream_head(self, _request: Request) -> Response:
        self._work()
        return Response.success({"head": 1})

    def _op_delete_stream(self, _request: Request) -> Response:
        self.bulk_gate.park()
        return Response.success()


def _assert_served_while_parked(
    address,
    stalling: Request,
    parked: threading.Event,
    release: Callable[[], None],
    bulk: Callable[[], Request],
) -> Response:
    """With the ``stalling`` request's handler parked downstream: ping fast, flood shed typed."""
    host, port = address
    outcome: List[Response] = []

    def stalled_call() -> None:
        with RemoteServerClient(host, port, timeout=10.0) as caller:
            outcome.extend(caller.call_many([stalling]))

    stalled = threading.Thread(target=stalled_call)
    stalled.start()
    try:
        assert parked.wait(5)
        with RemoteServerClient(host, port, timeout=5.0) as probe:
            begin = time.monotonic()
            assert probe.ping()
            assert time.monotonic() - begin < 0.05
        with RemoteServerClient(host, port, flow_control=False, overload_retries=0) as flood:
            calls = flood._send_requests([bulk() for _ in range(8)])
            reader = threading.Thread(target=calls[0].result, args=(10,))
            reader.start()
            # Someone is admitting: all but the running and the queued frame are shed.
            _wait_until(lambda: sum(call.done() for call in calls) >= 6)
            shed = [call.result(timeout=1) for call in calls if call.done()]
            assert all(r.error_type == "OverloadedError" for r in shed)
            release()
            reader.join(timeout=10)
            assert all(call.result(timeout=10) is not None for call in calls)
    finally:
        release()
        stalled.join(timeout=10)
    assert len(outcome) == 1
    return outcome[0]


def test_leadership_released_while_parked_in_an_outbound_client_call():
    downstream_gate = _Gate()

    class _Stalled(WireDispatcher):
        def _op_stream_head(self, _request: Request) -> Response:
            downstream_gate.park()
            return Response.success({"head": 7})

    with TimeCryptTCPServer(dispatcher=_Stalled()) as downstream:
        outbound = RemoteServerClient(*downstream.address, timeout=10.0)
        front = _FrontDispatcher(lambda: outbound.stream_head("s"))
        try:
            with TimeCryptTCPServer(dispatcher=front, max_workers=2, bulk_queue_limit=1) as server:
                response = _assert_served_while_parked(
                    server.address,
                    Request("stream_head", {"uuid": "s"}),
                    downstream_gate.entered,
                    lambda: (downstream_gate.release.set(), front.bulk_gate.release.set()),
                    lambda: Request("delete_stream", {"uuid": "s"}),
                )
                assert response.ok and response.result["head"] == 1
        finally:
            outbound.close()


class _GatedNodeStore(MemoryStore):
    def __init__(self, gate: _Gate) -> None:
        super().__init__()
        self._gate = gate

    def multi_get(self, keys):
        self._gate.park()
        return super().multi_get(keys)


def test_leadership_released_while_parked_in_the_cluster_fan_out():
    gate = _Gate()
    nodes = [StorageNodeServer(_GatedNodeStore(gate)).start() for _ in range(3)]
    addresses = {f"node-{index}": node.address for index, node in enumerate(nodes)}
    cluster = StorageCluster(
        num_nodes=3,
        replication_factor=1,
        store_factory=lambda name: RemoteKeyValueStore(*addresses[name], timeout=10.0),
    )
    keys = [b"key-%d" % index for index in range(32)]
    assert len({cluster.healthy_replicas(key)[0] for key in keys}) > 1  # a real fan-out
    front = _FrontDispatcher(lambda: cluster.multi_get(keys))
    try:
        with TimeCryptTCPServer(dispatcher=front, max_workers=2, bulk_queue_limit=1) as server:
            response = _assert_served_while_parked(
                server.address,
                Request("stream_head", {"uuid": "s"}),
                gate.entered,
                lambda: (gate.release.set(), front.bulk_gate.release.set()),
                lambda: Request("delete_stream", {"uuid": "s"}),
            )
            assert response.ok and response.result["head"] == 1
    finally:
        gate.release.set()
        cluster.close()
        for node in nodes:
            node.stop()


def test_leadership_released_while_parked_in_the_router_cross_shard_split():
    gate = _Gate()

    class _StalledShard(WireDispatcher):
        def _op_stat_range(self, _request: Request) -> Response:
            gate.park()
            return Response.failure(TransportError("released"))

        def _op_delete_stream(self, _request: Request) -> Response:
            gate.park()
            return Response.success()

    with TimeCryptTCPServer(dispatcher=_StalledShard()) as shard_a:
        with TimeCryptTCPServer(dispatcher=_StalledShard()) as shard_b:
            table = ShardRoutingTable([("e1", *shard_a.address), ("e2", *shard_b.address)])
            owned = {}  # one stream per shard, so the query really is cross-shard
            index = 0
            while len(owned) < 2:
                owned[table.owner_of(f"stream-{index}")] = f"stream-{index}"
                index += 1
            router = RouterDispatcher(RoutingTableRef(table))
            try:
                with TimeCryptTCPServer(
                    dispatcher=router, max_workers=2, bulk_queue_limit=1
                ) as server:
                    response = _assert_served_while_parked(
                        server.address,
                        Request(
                            "stat_range_multi",
                            {"uuids": sorted(owned.values()), "start": 0, "end": 10},
                        ),
                        gate.entered,
                        gate.release.set,
                        lambda: Request("delete_stream", {"uuid": owned["e1"]}),
                    )
                    # The shards answered (with their canned failure) once released.
                    assert response.error_type == "TransportError"
            finally:
                router.close()


def test_router_cross_shard_split_starts_no_threads():
    with Deployment("sharded") as deployment:
        table = deployment.router.table
        owned = {}  # one stream per shard, so the burst really is split
        index = 0
        while len(owned) < 2:
            owned[table.owner_of(f"stream-{index}")] = f"stream-{index}"
            index += 1
        grants = [(uuid, "bob", b"sealed-" + uuid.encode()) for uuid in sorted(owned.values())]
        with RemoteServerClient(*deployment.router.address, timeout=10.0) as remote:
            assert remote.put_grants(grants) == [0, 0]
            assert remote.fetch_grants(grants[1][0], "bob") == [grants[1][2]]
        names = [thread.name for thread in threading.enumerate()]
        assert not [name for name in names if name.startswith(_RETIRED_THREAD_NAMES)]


class _MeetingShard(WireDispatcher):
    """A stalled shard: it answers a sub-batch only once the other shard holds one too.

    Its gate's ``release`` is the other shard's ``entered``, so the answer
    is a success only if both owners' sub-batches were in flight at once;
    a splitter that awaits one owner before sending to the next gets the
    typed failure after the park's timeout instead.
    """

    def __init__(self, gate: _Gate) -> None:
        self._gate = gate

    def _answer(self, result: dict) -> Response:
        self._gate.park()
        if not self._gate.release.is_set():
            return Response.failure(QueryError("the other shard's sub-batch never arrived"))
        return Response.success(result)

    def _op_stat_range(self, request: Request) -> Response:
        cell = HEACCiphertext(value=1, window_start=0, window_end=1)
        stat = StatQueryResult(request.args["uuid"], 0, 1, (cell,), ("sum",), 1)
        return self._answer({"stat": stat_to_json(stat)})

    def _op_put_grants(self, request: Request) -> Response:
        return self._answer({"grant_ids": list(range(len(request.args["grants"])))})


@pytest.mark.parametrize("op", ["stat_range_multi", "put_grants"])
@pytest.mark.parametrize("client_class", [RemoteServerClient, ShardedServerClient], ids=["router", "sharded"])
def test_cross_shard_sub_batches_are_in_flight_at_once(client_class, op):
    gates = (_Gate(), _Gate())
    gates[0].release, gates[1].release = gates[1].entered, gates[0].entered
    with TimeCryptTCPServer(dispatcher=_MeetingShard(gates[0])) as shard_a:
        with TimeCryptTCPServer(dispatcher=_MeetingShard(gates[1])) as shard_b:
            table = ShardRoutingTable([("e1", *shard_a.address), ("e2", *shard_b.address)], epoch=1)
            owned = {}  # one stream per shard, so the call really is split
            index = 0
            while len(owned) < 2:
                owned[table.owner_of(f"stream-{index}")] = f"stream-{index}"
                index += 1
            uuids = sorted(owned.values())
            router = RouterDispatcher(RoutingTableRef(table))
            try:
                with TimeCryptTCPServer(dispatcher=router) as front:
                    # The plain client reaches the router's split; the sharded one splits itself.
                    with client_class(*front.address, timeout=30.0) as client:
                        if op == "stat_range_multi":
                            aggregate = client.stat_range_multi(uuids, TimeRange(0, 1))
                            assert [item[0] for item in aggregate.per_stream_intervals] == uuids
                            assert aggregate.values == (2,)
                        else:
                            assert client.put_grants([(uuid, "bob", b"sealed") for uuid in uuids]) == [0, 0]
            finally:
                router.close()


# -- (g) max_workers still bounds handlers ---------------------------------------------


def test_max_workers_one_runs_one_handler_at_a_time():
    dispatcher = _SleepyDispatcher()
    with TimeCryptTCPServer(dispatcher=dispatcher, max_workers=1) as server:
        host, port = server.address
        errors: List[BaseException] = []

        def hammer() -> None:
            try:
                with RemoteServerClient(host, port) as remote:
                    for _ in range(20):
                        response = remote.call_many([Request("ping", {"sleep_ms": 2})])[0]
                        assert response.ok
            except BaseException as exc:  # noqa: BLE001 — collected for the main thread
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        # The sleeping handler gave up leadership every time, yet the slot
        # count — not the thread count — is what bounds concurrency.
        assert dispatcher.peak == 1
        serving = [t for t in threading.enumerate() if t.name.startswith("tc-serve")]
        assert len(serving) <= 2


# -- stress: role hand-overs on both ends under a hostile switch interval ------------


def test_stress_many_callers_few_connections_every_answer_reaches_its_caller():
    """More threads than cores, two shared clients, handlers that step down mid-request.

    Every response must reach the caller that asked (a mis-resolved pending
    call or a lost hand-over shows up as a wrong token or a timeout), and
    both ends must come to rest: nothing pending, nobody reading, no parked
    waiter, the window whole, no handler slot still claimed.
    """
    dispatcher = _SleepyDispatcher()
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with TimeCryptTCPServer(dispatcher=dispatcher, max_workers=3, credit_window=4) as server:
            clients = [RemoteServerClient(*server.address, timeout=20.0) for _ in range(2)]
            errors: List[BaseException] = []
            deadline = time.monotonic() + 20.0

            def caller(index: int) -> None:
                remote = clients[index % 2]
                try:
                    for round_ in range(40):
                        tokens = [f"{index}-{round_}-{slot}" for slot in range(1 + round_ % 6)]
                        requests = [
                            Request("ping", {"token": token, "sleep_ms": (index + slot) % 3})
                            for slot, token in enumerate(tokens)
                        ]
                        responses = remote.call_many(requests)
                        assert [r.result["token"] for r in responses] == tokens
                        assert time.monotonic() < deadline, "stress ran out of time"
                except BaseException as exc:  # noqa: BLE001 — collected for the main thread
                    errors.append(exc)

            threads = [threading.Thread(target=caller, args=(index,)) for index in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not [thread for thread in threads if thread.is_alive()]
            assert not errors, errors
            for remote in clients:
                assert not remote._pending and not remote._parked and not remote._reading
                assert remote.credits_available == remote.credit_window == 4
                remote.close()
            stats = server.scheduler_stats()
            assert stats["max_in_flight"] <= 4
            assert stats["shed_interactive"] == stats["shed_bulk"] == 0
            assert stats["enqueued_interactive"] == stats["dispatched_interactive"]
            assert dispatcher.peak <= 3 and dispatcher.running == 0
            assert server._scheduler._active == 0
    finally:
        sys.setswitchinterval(previous)
