"""The ``before_blocking()`` hook: announce that this thread is about to wait.

The TCP server (:mod:`repro.net.server`) runs its sockets leader/followers
style: one thread at a time — the *leader* — watches the selector, and it
runs small interactive requests itself instead of handing them to another
thread.  That is only safe while the leader never parks: a leader asleep on
a downstream tier would leave nobody admitting, shedding or answering pings.

So every place a request handler can wait on something other than the CPU —
an outbound :class:`~repro.net.client.RemoteServerClient` call, a fan-out
join, an overload back-off sleep, a contended engine lock — calls
:func:`before_blocking` first.  On the leader that hands leadership to
another thread (one ``notify``); on every other thread it is a thread-local
lookup that finds nothing.  The analyzer's REPRO006 rule keeps the call
sites honest.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

_LOCAL = threading.local()


def before_blocking() -> None:
    """Give up whatever role forbids this thread from waiting (one-shot)."""
    hook = getattr(_LOCAL, "hook", None)
    if hook is not None:
        _LOCAL.hook = None
        hook()


def set_blocking_hook(hook: Optional[Callable[[], None]]) -> None:
    """Install (or clear) the calling thread's ``before_blocking`` hook."""
    _LOCAL.hook = hook


def blocking_hook_armed() -> bool:
    """Whether this thread's hook is installed and has not fired yet."""
    return getattr(_LOCAL, "hook", None) is not None


def acquire_announced(lock: "threading.Lock") -> None:
    """Acquire ``lock``; if it is contended, announce the wait first."""
    if not lock.acquire(blocking=False):
        before_blocking()
        lock.acquire()
