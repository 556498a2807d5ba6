"""Runtime lock-order watchdog — a mini-TSan for the worker pools.

The static REPRO004 rule sees lock nesting it can resolve from the AST;
this module watches *real executions*.  :class:`LockWatcher` swaps each
``repro.*`` module's ``threading`` binding for a proxy whose ``Lock``/
``RLock``/``Condition`` constructors return instrumented wrappers, then
records, per thread, the order in which locks are taken:

* **ordering violations** (hard failures): the global acquisition graph
  — edge A→B when some thread took B while holding A — gains a cycle.
  Two threads need only ever *nest in opposite orders*; the watchdog
  flags the inversion even when the timing never actually deadlocks.
* **blocking observations** (recorded, not fatal): socket I/O
  (``sendall``/``recv``/``connect``/``accept``/…) or a
  ``concurrent.futures`` ``Future.result()`` executed while holding any
  watched lock.  Some of these are the design (per-connection write
  locks); the point is a complete runtime inventory to diff against the
  static waivers.

Locks are named by construction site (``module:lineno``).  Re-acquiring
the *same object* is RLock recursion and adds no edge; nesting two
*distinct* locks born at the same line (two connections' write locks)
is recorded as an observation, not a violation — per-instance locks of
one class are rank-equal by construction.

Enable in tests with the ``REPRO_LOCKWATCH=1`` environment variable
(see ``tests/conftest.py``) or programmatically::

    from repro.analysis.lockwatch import LockWatcher
    watcher = LockWatcher()
    watcher.install()
    try:
        ...  # run workload
        assert watcher.ordering_violations == []
    finally:
        watcher.uninstall()

The proxy swap only covers modules imported at ``install()`` time, so
``install()`` first imports the threaded tiers it exists to watch.
"""

from __future__ import annotations

import concurrent.futures
import importlib
import socket
import sys
import threading
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

#: The threaded tiers install() imports before patching, so a bare
#: ``REPRO_LOCKWATCH=1 pytest tests/test_x.py`` watches them regardless of
#: collection order.
_WATCHED_MODULES = (
    "repro.access.grants",
    "repro.access.keystore",
    "repro.net.server",
    "repro.net.client",
    "repro.server.router",
    "repro.server.engine",
    "repro.storage.cluster",
    "repro.storage.node",
    "repro.storage.remote",
    "repro.storage.memory",
    "repro.obs.metrics",
    "repro.obs.tracing",
)

_SOCKET_BLOCKERS = ("sendall", "sendmsg", "recv", "recv_into", "connect", "accept")


class LockWatcher:
    """Global acquisition-order graph + blocking-call inventory."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._graph_lock = threading.Lock()
        # name -> set of names acquired while it was held, with one witness
        # (thread, held-stack) per edge for the report.
        self._edges: Dict[str, Set[str]] = {}
        self._edge_witness: Dict[Tuple[str, str], str] = {}
        self.ordering_violations: List[str] = []
        self.observations: List[str] = []
        self._installed = False
        self._saved_threading: List[Tuple[Any, Any]] = []
        self._saved_patches: List[Tuple[Any, str, Any]] = []

    # -- held-stack bookkeeping (called from WatchedLock) ----------------------

    def _stack(self) -> List[Tuple[str, int]]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def record_acquire(self, name: str, obj: object) -> None:
        stack = self._stack()
        obj_id = id(obj)
        if any(held_id == obj_id for _held, held_id in stack):
            # Same object re-entered: RLock recursion, no new edge.
            stack.append((name, obj_id))
            return
        for held_name, _held_id in stack:
            if held_name == name:
                # Distinct instances from one construction site (e.g. two
                # connections' write locks): rank-equal, observe only.
                self.observations.append(
                    f"same-site lock nesting: {name} inside {name} "
                    f"(thread {threading.current_thread().name})"
                )
                continue
            self._add_edge(held_name, name, stack)
        stack.append((name, obj_id))

    def record_release(self, name: str, obj: object) -> None:
        stack = self._stack()
        obj_id = id(obj)
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] == (name, obj_id):
                del stack[index]
                return

    def holding(self) -> Optional[str]:
        """The innermost held lock's name, or None."""
        stack = getattr(self._tls, "stack", None)
        if stack:
            return stack[-1][0]
        return None

    def note_blocking(self, desc: str) -> None:
        held = self.holding()
        if held is not None:
            self.observations.append(
                f"blocking call {desc} while holding {held} "
                f"(thread {threading.current_thread().name})"
            )

    def _add_edge(self, holder: str, acquired: str, stack: List[Tuple[str, int]]) -> None:
        with self._graph_lock:
            successors = self._edges.setdefault(holder, set())
            if acquired in successors:
                return
            successors.add(acquired)
            self._edge_witness[(holder, acquired)] = (
                f"thread {threading.current_thread().name}, "
                f"held [{', '.join(held for held, _ in stack)}]"
            )
            cycle = self._find_cycle(acquired, holder)
            if cycle is not None:
                chain = " -> ".join(cycle + [cycle[0]])
                witness = self._edge_witness[(holder, acquired)]
                self.ordering_violations.append(
                    f"lock-order inversion: {chain} (latest edge {holder} -> {acquired}, {witness})"
                )

    def _find_cycle(self, start: str, target: str) -> Optional[List[str]]:
        """A path start→…→target in the edge graph (closing the new edge)."""
        path: List[str] = []
        seen: Set[str] = set()

        def _dfs(node: str) -> bool:
            if node == target:
                path.append(node)
                return True
            if node in seen:
                return False
            seen.add(node)
            for succ in sorted(self._edges.get(node, ())):
                if _dfs(succ):
                    path.append(node)
                    return True
            return False

        if _dfs(start):
            return list(reversed(path))
        return None

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        """Patch ``repro.*`` lock constructors and blocking primitives."""
        if self._installed:
            return
        self._installed = True
        for name in _WATCHED_MODULES:
            try:
                importlib.import_module(name)
            except ImportError:  # pragma: no cover - partial checkouts
                pass
        proxy = _ThreadingProxy(self)
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro"):
                continue
            if name.startswith("repro.analysis"):
                # Never instrument the instrumentation: this module's own
                # ``threading.Lock()`` inside the proxy would recurse.
                continue
            if getattr(module, "threading", None) is threading:
                self._saved_threading.append((module, threading))
                module.threading = proxy  # type: ignore[attr-defined]

        watcher = self

        orig_result = concurrent.futures.Future.result

        def result(self: Any, timeout: Optional[float] = None) -> Any:
            watcher.note_blocking("Future.result()")
            return orig_result(self, timeout)

        self._saved_patches.append((concurrent.futures.Future, "result", orig_result))
        concurrent.futures.Future.result = result  # type: ignore[method-assign]

        for method in _SOCKET_BLOCKERS:
            orig = getattr(socket.socket, method)

            def blocker(self: Any, *args: Any, _orig: Any = orig, _name: str = method, **kwargs: Any) -> Any:
                watcher.note_blocking(f"socket.{_name}()")
                return _orig(self, *args, **kwargs)

            self._saved_patches.append((socket.socket, method, orig))
            setattr(socket.socket, method, blocker)

    def uninstall(self) -> None:
        if not self._installed:
            return
        self._installed = False
        for module, real in self._saved_threading:
            module.threading = real
        self._saved_threading = []
        for owner, attr, orig in self._saved_patches:
            setattr(owner, attr, orig)
        self._saved_patches = []

    def report(self) -> str:
        lines = [
            f"lockwatch: {len(self._edge_witness)} edge(s), "
            f"{len(self.ordering_violations)} ordering violation(s), "
            f"{len(self.observations)} blocking/nesting observation(s)"
        ]
        lines.extend(self.ordering_violations)
        lines.extend(self.observations[:50])
        return "\n".join(lines)


class _ThreadingProxy:
    """Stands in for the ``threading`` module inside ``repro.*`` modules.

    Lock constructors return watched wrappers named by construction site;
    everything else delegates to the real module.  Replacing each module's
    ``threading`` *global* (rather than patching ``threading.Lock`` itself)
    keeps the stdlib untouched — ``Condition``'s internal ``_is_owned``
    machinery and third-party users see the real primitives.
    """

    def __init__(self, watcher: LockWatcher) -> None:
        self._watcher = watcher

    def Lock(self) -> "WatchedLock":
        return WatchedLock(threading.Lock(), _callsite(), self._watcher)

    def RLock(self) -> "WatchedLock":
        return WatchedLock(threading.RLock(), _callsite(), self._watcher)

    def Condition(self, lock: Optional[Any] = None) -> "WatchedCondition":
        return WatchedCondition(threading.Condition(lock), _callsite(), self._watcher)

    def __getattr__(self, item: str) -> Any:
        return getattr(threading, item)


def _callsite() -> str:
    frame = sys._getframe(2)
    return f"{frame.f_globals.get('__name__', '?')}:{frame.f_lineno}"


class WatchedLock:
    """A Lock/RLock wrapper reporting acquisition order to the watcher."""

    def __init__(self, inner: Any, name: str, watcher: LockWatcher) -> None:
        self._inner = inner
        self._name = name
        self._watcher = watcher

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._watcher.record_acquire(self._name, self)
        return acquired

    def release(self) -> None:
        self._watcher.record_release(self._name, self)
        self._inner.release()

    def __enter__(self) -> "WatchedLock":
        self.acquire()
        return self

    def __exit__(self, *_exc: object) -> None:
        self.release()

    def __getattr__(self, item: str) -> Any:
        return getattr(self._inner, item)


class WatchedCondition:
    """A Condition wrapper: tracked acquire/release, delegated wait/notify.

    ``wait()`` internally releases and re-takes the underlying lock; the
    watcher keeps the entry on the held stack for the duration — the
    blocked thread cannot take other locks meanwhile, so no false edges.
    """

    def __init__(self, inner: threading.Condition, name: str, watcher: LockWatcher) -> None:
        self._inner = inner
        self._name = name
        self._watcher = watcher

    def acquire(self, *args: Any) -> bool:
        acquired = self._inner.acquire(*args)
        if acquired:
            self._watcher.record_acquire(self._name, self)
        return acquired

    def release(self) -> None:
        self._watcher.record_release(self._name, self)
        self._inner.release()

    def __enter__(self) -> "WatchedCondition":
        self.acquire()
        return self

    def __exit__(self, *_exc: object) -> None:
        self.release()

    def __getattr__(self, item: str) -> Any:
        return getattr(self._inner, item)


_ACTIVE: Optional[LockWatcher] = None


def install_from_env(env_value: Optional[str]) -> Optional[LockWatcher]:
    """Install a process-global watcher when ``env_value`` is truthy.

    The conftest hook: ``install_from_env(os.environ.get("REPRO_LOCKWATCH"))``.
    Returns the active watcher (new or pre-existing) or None when disabled.
    """
    global _ACTIVE
    if not env_value or env_value.strip() in ("0", "false", ""):
        return None
    if _ACTIVE is None:
        _ACTIVE = LockWatcher()
        _ACTIVE.install()
    return _ACTIVE


def active_watcher() -> Optional[LockWatcher]:
    return _ACTIVE
